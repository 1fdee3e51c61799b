"""The core engine against a frozen corpus of its own past results.

``tests/golden/engine_corpus.json`` pins the complete output of the
core model on every driver it has: the merged ``run`` over the five
standard profiles, ``step_cycle`` under a 2P SMP system, the windowed
``run_measured`` of a sampled run, a run with a pipeline tracer
attached, and random small machines drawn from a fixed seed.  Each
entry holds every deterministic statistic (the rounded summary, the
lossless serialisation minus wall-clock speed, the ``CoreStats``
dataclass including the CPI stack and stall breakdowns, and the
rendered CPI-stack report), so a single differing counter anywhere
fails the test.  Every machine's parameters are stored in its entry,
so the corpus does not depend on a hypothesis database.

Re-bless intentionally with ``python tools/regen_golden.py --only
corpus`` (or ``REPRO_UPDATE_GOLDEN=1 pytest tests/test_engine_corpus.py``)
and explain the delta.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
from pathlib import Path

import pytest

from repro.analysis.workloads import standard_workloads, workload_by_name
from repro.frontend.bht import BHT_4K_2W_1T, BHT_16K_4W_2T
from repro.model.config import base_config
from repro.model.simulator import PerformanceModel
from repro.smp.system import run_smp
from repro.trace.sampling import SamplingPlan
from repro.trace.synth import build_smp_generators, standard_profiles

GOLDEN_PATH = Path(__file__).parent / "golden" / "engine_corpus.json"

UPDATE = bool(os.environ.get("REPRO_UPDATE_GOLDEN"))

WARM = 2_000
TIMED = 5_000
PROFILES = ("SPECint95", "SPECfp95", "SPECint2000", "SPECfp2000", "TPC-C")

#: Random small machines: count and the seed they are drawn from.
MACHINES = 24
MACHINE_SEED = 2003
_MACHINE_PROFILES = ("SPECint95", "SPECfp95", "TPC-C")
_BHTS = {"4K-2W-1T": BHT_4K_2W_1T, "16K-4W-2T": BHT_16K_4W_2T}

_SPEED_KEYS = ("sim_speed", "sim_speed_ips")


def _strip_speed(payload):
    """Drop wall-clock-derived keys; everything else is deterministic."""
    if isinstance(payload, dict):
        return {
            key: _strip_speed(value)
            for key, value in payload.items()
            if key not in _SPEED_KEYS
        }
    if isinstance(payload, list):
        return [_strip_speed(value) for value in payload]
    return payload


def _json(payload):
    """The JSON-normal form of ``payload`` (tuples become lists, ...)."""
    return json.loads(json.dumps(payload, sort_keys=True))


def _uniprocessor_entry(result) -> dict:
    return {
        "summary": result.as_dict(include_speed=False),
        "result": _strip_speed(result.to_dict()),
        "core": dataclasses.asdict(result.core),
        "cpi_stack_report": result.cpi_stack_report(),
    }


def _run(config, workload, tracer=None):
    return PerformanceModel(config).run(
        workload.trace(),
        warmup_fraction=workload.warmup_fraction,
        regions=workload.regions(),
        tracer=tracer,
    )


# ----------------------------------------------------------------------
# Scenarios.  Each returns one JSON-able corpus entry.
# ----------------------------------------------------------------------


def profile_entry(name: str) -> dict:
    workload = next(
        w for w in standard_workloads(warm=WARM, timed=TIMED) if w.name == name
    )
    return _uniprocessor_entry(_run(base_config(), workload))


def smp_entry() -> dict:
    """2P TPC-C: the SMP system steps every core through ``step_cycle``."""
    generators = build_smp_generators(standard_profiles()["TPC-C"], 2, seed=7)
    traces = [generator.generate(6_000) for generator in generators]
    regions = [generator.memory_regions() for generator in generators]
    result = run_smp(
        base_config(), traces, warmup_fraction=0.25, regions_per_cpu=regions
    )
    return {
        "summary": result.as_dict(),
        "result": _strip_speed(result.to_dict()),
    }


def sampled_entry() -> dict:
    """SMARTS windows through ``run_measured``."""
    plan = SamplingPlan(
        period=4_000, sample_length=400, warmup=300, detail_warmup=600
    )
    workload = workload_by_name("TPC-C", warm=0, timed=20_000)
    result = PerformanceModel(base_config()).run_sampled(
        workload.trace(), plan, regions=workload.regions()
    )
    return {
        "summary": result.as_dict(include_speed=False),
        "result": _strip_speed(result.to_dict()),
        "window_stacks": result.window_stacks,
        "estimates_report": result.estimates_report(),
    }


def traced_entry() -> dict:
    """A tracer is attached; the numbers must equal an untraced run's."""
    from repro.observe import PipelineTracer

    workload = workload_by_name("SPECint95", warm=WARM, timed=TIMED)
    result = _run(base_config(), workload, tracer=PipelineTracer(capacity=2_048))
    return _uniprocessor_entry(result)


def draw_machines(count: int = MACHINES, seed: int = MACHINE_SEED) -> list:
    """``count`` small-machine parameter dicts drawn from ``seed``."""
    rng = random.Random(seed)
    machines = []
    for _ in range(count):
        issue = rng.choice((2, 4))
        machines.append(
            {
                "profile": rng.choice(_MACHINE_PROFILES),
                "timed": rng.randint(1_500, 3_000),
                "issue_width": issue,
                "window_size": rng.choice((16, 32, 64)),
                "rsa_entries": rng.choice((4, 10)),
                "rsbr_entries": rng.choice((3, 6)),
                "load_queue": rng.choice((6, 16)),
                "store_queue": rng.choice((5, 10)),
                "data_forwarding": rng.random() < 0.5,
                "speculative_dispatch": rng.random() < 0.75,
                "rs_organization": rng.choice(("2RS", "1RS")),
                "bht": rng.choice(sorted(_BHTS)),
                "perfect_branch_prediction": rng.random() < 0.5,
                "prefetch": rng.random() < 0.5,
            }
        )
    return machines


def machine_config(machine: dict):
    """The :class:`MachineConfig` described by one corpus machine dict."""
    from repro.core.params import RsOrganization

    base = base_config()
    organization = {
        "2RS": RsOrganization.TWO_RS,
        "1RS": RsOrganization.ONE_RS,
    }[machine["rs_organization"]]
    core = base.core.derived(
        issue_width=machine["issue_width"],
        commit_width=machine["issue_width"],
        window_size=machine["window_size"],
        rsa_entries=machine["rsa_entries"],
        rsbr_entries=machine["rsbr_entries"],
        load_queue=machine["load_queue"],
        store_queue=machine["store_queue"],
        data_forwarding=machine["data_forwarding"],
        speculative_dispatch=machine["speculative_dispatch"],
        rs_organization=organization,
    )
    prefetch = base.prefetch
    if not machine["prefetch"]:
        prefetch = dataclasses.replace(prefetch, enabled=False)
    return base.derived(
        "corpus-machine",
        core=core,
        bht=_BHTS[machine["bht"]],
        perfect_branch_prediction=machine["perfect_branch_prediction"],
        prefetch=prefetch,
    )


def machine_entry(machine: dict) -> dict:
    workload = workload_by_name(machine["profile"], warm=500, timed=machine["timed"])
    entry = _uniprocessor_entry(_run(machine_config(machine), workload))
    entry["machine"] = machine
    return entry


def scenarios() -> dict:
    """Corpus key -> zero-argument function computing that entry."""
    table = {f"profile/{name}": (lambda n=name: profile_entry(n)) for name in PROFILES}
    table["smp/TPC-C-2p"] = smp_entry
    table["sampled/TPC-C"] = sampled_entry
    table["traced/SPECint95"] = traced_entry
    for index, machine in enumerate(draw_machines()):
        table[f"machine/{index:02d}"] = lambda m=machine: machine_entry(m)
    return table


def compute_current() -> dict:
    """Regenerate the whole corpus from the current model."""
    entries = {key: _json(compute()) for key, compute in scenarios().items()}
    entries["_meta"] = {
        "warm": WARM,
        "timed": TIMED,
        "machines": MACHINES,
        "machine_seed": MACHINE_SEED,
    }
    return entries


# ----------------------------------------------------------------------
# Tests.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus() -> dict:
    if UPDATE:
        GOLDEN_PATH.write_text(
            json.dumps(compute_current(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_corpus_covers_every_scenario(corpus):
    keys = set(scenarios())
    assert keys <= set(corpus), sorted(keys - set(corpus))
    assert corpus["_meta"]["machines"] == MACHINES >= 20


def test_stored_machines_match_their_seed(corpus):
    """The stored machine dicts are the ones the fixed seed draws."""
    stored = [corpus[f"machine/{i:02d}"]["machine"] for i in range(MACHINES)]
    assert stored == _json(draw_machines())


def _assert_matches(corpus, key, entry):
    fresh = _json(entry)
    pinned = corpus[key]
    for field in sorted(set(pinned) | set(fresh)):
        assert fresh.get(field) == pinned.get(field), f"{key}: {field} drifted"


@pytest.mark.parametrize("name", PROFILES)
def test_profile_matches_corpus(corpus, name):
    """The merged ``run`` driver on every standard profile."""
    _assert_matches(corpus, f"profile/{name}", profile_entry(name))


def test_smp_matches_corpus(corpus):
    _assert_matches(corpus, "smp/TPC-C-2p", smp_entry())


def test_sampled_matches_corpus(corpus):
    _assert_matches(corpus, "sampled/TPC-C", sampled_entry())


def test_traced_run_matches_corpus(corpus):
    """Attaching a tracer perturbs nothing: the entry equals the corpus."""
    _assert_matches(corpus, "traced/SPECint95", traced_entry())


def test_traced_run_equals_untraced(corpus):
    """The traced entry and the untraced profile run are the same run."""
    assert corpus["traced/SPECint95"] == corpus["profile/SPECint95"]


def test_small_machines_match_corpus(corpus):
    """Every random small machine, drawn from the fixed seed."""
    for index, machine in enumerate(draw_machines()):
        _assert_matches(corpus, f"machine/{index:02d}", machine_entry(machine))


def test_pooled_recycling_matches_corpus(corpus, monkeypatch):
    """Pooled µop-slot recycling is the only path, and it is invisible.

    A counting ``Uop`` shows that committed slots really go back to the
    free pool and are reused with a bumped epoch, while the TPC-C run
    still equals its corpus entry field for field.
    """
    from repro.core import pipeline

    counts = {"built": 0, "decoded": 0}

    class CountingUop(pipeline.Uop):
        __slots__ = ()

        def __init__(self, *args):
            counts["built"] += 1
            super().__init__(*args)

        def reset(self, *args):
            counts["decoded"] += 1
            super().reset(*args)

    monkeypatch.setattr(pipeline, "Uop", CountingUop)
    _assert_matches(corpus, "profile/TPC-C", profile_entry("TPC-C"))
    assert counts["decoded"] >= TIMED
    assert 0 < counts["built"] * 10 < counts["decoded"]
