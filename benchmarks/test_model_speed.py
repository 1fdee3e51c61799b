"""§2.1: performance-model simulation speed.

The paper's C model ran a multi-user interactive (TPC-C) trace at
7.8 K instructions/second on a 1 GHz Pentium III.  This benchmark
measures the Python model's speed on the same kind of workload —
documenting the cost of the reproduction substrate — and guards the
observability layer: throughput with event tracing off vs on is
recorded in ``BENCH_observability.json`` so a PR that slows the
default (untraced) path shows up as a number, not a feeling.
"""

import json
import os
import pathlib

import conftest

from repro.analysis.workloads import standard_workloads, tpcc_workload
from repro.model.config import base_config
from repro.model.simulator import PerformanceModel
from repro.observe import PipelineTracer

PAPER_MODEL_SPEED_IPS = 7_800

BENCH_JSON = pathlib.Path(__file__).parent / "BENCH_observability.json"

CORE_SPEED_JSON = pathlib.Path(__file__).parent / "BENCH_core_speed.json"

#: Repetitions per profile; the best is recorded so one OS scheduling
#: hiccup cannot sink a row.
SPEED_REPS = 3

#: Floor on the TPC-C core-loop speed as a multiple of the paper's
#: 7.8 K instructions/s.  The default sits between the two engines this
#: model used to have, measured on one 2-CPU container at
#: ``REPRO_BENCH_SCALE=0.5``: the retired reference loop ran 1.9-2.3x
#: and the current loop 3.2-4.9x (see EXPERIMENTS.md §2.1).  Set
#: ``REPRO_SPEED_FLOOR=0`` to record numbers without gating (e.g. on a
#: heavily loaded workstation).
SPEED_FLOOR = float(os.environ.get("REPRO_SPEED_FLOOR", "2.75"))


def test_core_engine_speed():
    """Core-loop IPS per profile vs the paper's model -> BENCH_core_speed.json.

    ``sim_speed`` times only the core loop (warm-up excluded), the
    quantity the paper's 7.8 K instructions/s describes.  The TPC-C row
    also gates against the floor.
    """
    timed = max(5_000, int(20_000 * conftest.SCALE))
    warm = max(10_000, int(30_000 * conftest.SCALE))
    model = PerformanceModel(base_config())

    profiles = {}
    for workload in standard_workloads(warm=warm, timed=timed):
        trace = workload.trace()
        kwargs = dict(
            warmup_fraction=workload.warmup_fraction, regions=workload.regions()
        )
        best = max(model.run(trace, **kwargs).sim_speed for _ in range(SPEED_REPS))
        profiles[workload.name] = {
            "ips": round(best, 1),
            "vs_paper": round(best / PAPER_MODEL_SPEED_IPS, 3),
        }
        print(
            f"{workload.name}: {best:,.0f} ips "
            f"({profiles[workload.name]['vs_paper']:.2f}x the paper's model)"
        )

    payload = {
        "paper_model_ips": PAPER_MODEL_SPEED_IPS,
        "reps_per_profile": SPEED_REPS,
        "timed_instructions": timed,
        "floor_tpcc_vs_paper": SPEED_FLOOR,
        "profiles": profiles,
    }
    CORE_SPEED_JSON.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(f"recorded in {CORE_SPEED_JSON.name}")

    tpcc = profiles["TPC-C"]["vs_paper"]
    assert tpcc >= SPEED_FLOOR, (
        f"TPC-C core loop at {tpcc:.2f}x the paper's 7.8 K ips, "
        f"floor {SPEED_FLOOR}x"
    )


def test_model_simulation_speed(benchmark):
    workload = tpcc_workload(
        warm=max(10_000, int(30_000 * conftest.SCALE)),
        timed=max(5_000, int(10_000 * conftest.SCALE)),
    )
    trace = workload.trace()
    regions = workload.regions()
    model = PerformanceModel(base_config())

    result_holder = {}

    def run():
        result_holder["result"] = model.run(
            trace, warmup_fraction=workload.warmup_fraction, regions=regions
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
    result = result_holder["result"]
    print(
        f"\nModel speed: {result.sim_speed:,.0f} trace-instructions/s "
        f"(paper's C model: {PAPER_MODEL_SPEED_IPS:,} on a 1 GHz P-III)"
    )
    assert result.sim_speed > 1_000  # sanity floor


def test_observability_overhead(benchmark):
    """Throughput with event tracing off vs on, recorded to JSON.

    The CPI-stack accountant is always on (it is part of the model's
    output contract), so the "disabled" leg here is the default
    production path: no tracer attached, every ``tracer.emit`` guarded
    out.  The "enabled" leg attaches a ring-mode tracer, the cheapest
    always-recording configuration.  Both numbers land in
    ``BENCH_observability.json`` for cross-commit comparison.
    """
    workload = tpcc_workload(
        warm=max(8_000, int(20_000 * conftest.SCALE)),
        timed=max(4_000, int(8_000 * conftest.SCALE)),
    )
    trace = workload.trace()
    regions = workload.regions()
    model = PerformanceModel(base_config())
    kwargs = dict(warmup_fraction=workload.warmup_fraction, regions=regions)

    speeds = {}

    def run_both():
        # Interleaved legs share any OS-level warmup/jitter evenly.
        plain = model.run(trace, **kwargs)
        traced = model.run(trace, tracer=PipelineTracer(capacity=4_096), **kwargs)
        speeds["disabled"] = plain.sim_speed
        speeds["enabled"] = traced.sim_speed
        speeds["instructions"] = plain.instructions
        assert plain.as_dict(include_speed=False) == traced.as_dict(
            include_speed=False
        )  # tracing must never change the numbers

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    overhead = 1.0 - speeds["enabled"] / speeds["disabled"]
    payload = {
        "workload": workload.name,
        "instructions_timed": speeds["instructions"],
        "throughput_ips": {
            "tracing_disabled": round(speeds["disabled"], 1),
            "tracing_enabled": round(speeds["enabled"], 1),
        },
        "tracing_overhead_fraction": round(overhead, 4),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(
        f"\nObservability overhead: tracing off {speeds['disabled']:,.0f} ips, "
        f"on {speeds['enabled']:,.0f} ips ({overhead:+.1%}); "
        f"recorded in {BENCH_JSON.name}"
    )
    # Ring-mode tracing is per-event dict-free appends; anything past
    # 60% means emit moved onto a hot path unconditionally.
    assert overhead < 0.60
