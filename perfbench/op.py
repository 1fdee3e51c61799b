"""One benchmark operation, run in a fresh interpreter by ``run.py``.

Usage (normally only ``run.py`` calls this)::

    python3 perfbench/op.py --workload up-tpcc --seed 2003 --spawned T [--trace] [--setup-only]

A ``calibrate.tick`` just before and just after the timed part samples
the host's speed; the report carries the factor from raw to calibrated
seconds.

``--spawned`` is the ``time.monotonic()`` reading the parent took just
before starting this interpreter; on Linux that clock is system-wide, so
``setup_s`` includes interpreter start.  The operation imports the model
from the checkout's ``src/``, builds the Table 1 ``base_config()`` and the
workload's ``Workload`` objects from the seed (set-up), then runs it
through the public API and checks the outputs (the timed part).  It
prints one JSON object as its last line of standard output.

No engine is chosen here: the program's default core engine runs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from typing import Callable, Dict, List

from calibrate import TICK_NOMINAL_S, tick

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Spans and the sweep's scratch result caches live here, inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Per-CPU sizes of ``repro smp`` and figure 14 (warm, timed).
SMP_SIZE = (20_000, 6_000)
SMP_CPUS = 4
#: The quick size of the figure 14/15 study (warm, timed).
SWEEP_SIZE = (30_000, 8_000)
#: Points in the L2 study: 3 L2 configs x {SPECint95, TPC-C}.
SWEEP_POINTS = 6


class Outcome:
    """What one operation produced, for the checks and the metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: List[str] = []
        #: Timed instructions committed, summed over CPUs and points.
        self.instructions = 0
        #: Per CPU / per point results (SimResult), in a fixed order.
        self.results: List[object] = []
        #: Program-owned counters read from the returned results.
        self.program: Dict[str, float] = {}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def point(self, result, timed: int, label: str) -> None:
        """Check one CPU's or point's result and keep it."""
        self.instructions += result.core.instructions
        self.results.append(result)
        self.check(
            result.core.instructions == timed,
            f"{label}: committed {result.core.instructions}, timed length {timed}",
        )
        stack = result.core.cpi_stack
        self.check(
            sum(stack.values()) == result.core.cycles,
            f"{label}: CPI stack sums to {sum(stack.values())}, "
            f"cycles {result.core.cycles}",
        )

    def digest(self) -> str:
        """Hash of the deterministic statistics of every CPU and point."""
        stats = [result.as_dict(include_speed=False) for result in self.results]
        blob = json.dumps(stats, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# -- workloads -----------------------------------------------------------
#
# Each workload is a set-up function (imports, config, Workload objects;
# no layer is called) returning the function that runs it.


def _uniprocessor(profile: str) -> Callable[[int], Callable[[Outcome], None]]:
    def setup(seed: int) -> Callable[[Outcome], None]:
        from repro.analysis.workloads import workload_by_name
        from repro.model.config import base_config
        from repro.model.simulator import PerformanceModel

        config = base_config()
        workload = workload_by_name(profile, seed=seed)

        def execute(outcome: Outcome) -> None:
            trace = workload.trace()
            regions = workload.regions()
            result = PerformanceModel(config).run(
                trace, warmup_fraction=workload.warmup_fraction, regions=regions
            )
            outcome.attempted = 1
            outcome.point(result, workload.timed_instructions, profile)

        return execute

    return setup


def _smp(seed: int) -> Callable[[Outcome], None]:
    from repro.analysis.workloads import smp_workload
    from repro.model.config import base_config
    from repro.smp.system import run_smp

    config = base_config()
    warm, timed = SMP_SIZE
    workload = smp_workload(SMP_CPUS, seed=seed, warm=warm, timed=timed)

    def execute(outcome: Outcome) -> None:
        traces, regions = workload.smp_traces(SMP_CPUS)
        result = run_smp(
            config,
            traces,
            warmup_fraction=workload.warmup_fraction,
            regions_per_cpu=regions,
        )
        # One SMP run is one simulation point.
        outcome.attempted = 1
        for cpu, per_cpu in enumerate(result.per_cpu):
            outcome.point(per_cpu, timed, f"cpu{cpu}")
        outcome.check(
            result.total_instructions == SMP_CPUS * timed,
            f"SMP committed {result.total_instructions}, "
            f"expected {SMP_CPUS} x {timed}",
        )
        outcome.program.update(
            {
                "smp.cache_to_cache": result.coherence.get("cache_to_cache", 0),
                "smp.invalidations": result.coherence.get("invalidations_sent", 0),
                "mem.bus_util": result.system_bus_utilization,
                "core.cycles": result.cycles,
            }
        )

    return execute


def _sweep(seed: int) -> Callable[[Outcome], None]:
    from repro.analysis.figures import fig14_15_l2
    from repro.analysis.runner import ParallelRunner
    from repro.analysis.workloads import tpcc_workload, workload_by_name

    warm, timed = SWEEP_SIZE
    workloads = [
        workload_by_name("SPECint95", seed=seed, warm=warm, timed=timed),
        tpcc_workload(seed=seed, warm=warm, timed=timed),
    ]
    jobs = len(os.sched_getaffinity(0))
    os.makedirs(OUT_DIR, exist_ok=True)

    def study(cache_dir: str):
        """One pass of the study through a new runner: (figure, runner, s)."""
        started = time.perf_counter()
        runner = ParallelRunner(jobs=jobs, cache_dir=cache_dir)
        try:
            figure = fig14_15_l2(workloads, runner=runner, include_smp=False)
        finally:
            runner.close()
        return figure, runner, time.perf_counter() - started

    def execute(outcome: Outcome) -> None:
        # A fresh result cache per operation: the cold pass writes every
        # entry, the warm pass reads them back.
        cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=OUT_DIR)
        try:
            cold, cold_runner, cold_s = study(cache_dir)
            cache_bytes = cold_runner.cache.size_bytes()
            warm, warm_runner, warm_s = study(cache_dir)
        finally:
            shutil.rmtree(cache_dir)

        cold_points = cold_runner.cached_results()
        warm_points = warm_runner.cached_results()
        # The cold runs and the warm reads are operations alike.
        outcome.attempted = len(cold_points) + len(warm_points)
        for key in sorted(cold_points):
            outcome.point(cold_points[key], timed, "@".join(key))
        outcome.check(
            len(cold_points) == SWEEP_POINTS,
            f"cold pass ran {len(cold_points)} points, expected {SWEEP_POINTS}",
        )
        outcome.check(
            warm_runner.stats.disk_hits == SWEEP_POINTS,
            f"warm pass gave {warm_runner.stats.disk_hits} disk hits, "
            f"expected {SWEEP_POINTS}",
        )
        outcome.check(
            _deterministic(warm_points) == _deterministic(cold_points),
            "warm pass results differ from the cold pass",
        )
        outcome.check(
            (warm.ipc_ratios, warm.miss_ratios) == (cold.ipc_ratios, cold.miss_ratios),
            "warm pass figure data differs from the cold pass",
        )

        worker_s = cold_runner.stats.total_run_seconds
        outcome.program.update(
            {
                "runner.points": len(cold_points),
                "runner.misses": cold_runner.stats.misses,
                "runner.disk_hits": warm_runner.stats.disk_hits,
                "runner.worker_s": worker_s,
                "runner.overhead_s": cold_s - worker_s / jobs,
                "runner.parallel_eff": worker_s / (jobs * cold_s),
                "runner.warm_pass_s": warm_s,
                "cache.bytes": cache_bytes,
            }
        )

    return execute


def _deterministic(points: dict) -> dict:
    return {key: result.as_dict(include_speed=False) for key, result in points.items()}


WORKLOADS: Dict[str, Callable[[int], Callable[[Outcome], None]]] = {
    "up-tpcc": _uniprocessor("TPC-C"),
    "up-specint95": _uniprocessor("SPECint95"),
    "smp-tpcc-4p": _smp,
    "sweep-l2": _sweep,
}

#: Simulation points per operation (an operation that dies counts them all).
POINTS = {"up-tpcc": 1, "up-specint95": 1, "smp-tpcc-4p": 1, "sweep-l2": 2 * SWEEP_POINTS}


# -- SMP legality census -------------------------------------------------

#: MOESI states that claim the line for one cache: M, E and O.
_OWNING = ("MODIFIED", "EXCLUSIVE", "OWNED")


def multi_owner_lines(system, tracer) -> int:
    """L2 lines held M/E/O in one L2 while valid in another.

    Uses only ``SetAssociativeCache.probe``: the candidate lines are every
    line of the regions pre-warmed and every line the warm and timed
    traces touch.
    """
    line = system.config.l2.line_bytes
    candidates = set()
    for regions in tracer.prewarmed_regions:
        for base, size in regions.values():
            candidates.update(range(base - base % line, base + size, line))
    for trace in list(tracer.warm_traces) + list(system.traces):
        for record in trace.records:
            candidates.add(record.pc - record.pc % line)
            if record.ea >= 0:
                candidates.add(record.ea - record.ea % line)
    probes = [hierarchy.l2.probe for hierarchy in system.hierarchies]
    count = 0
    for addr in candidates:
        states = [s for s in (probe(addr) for probe in probes) if s is not None]
        if len(states) > 1 and any(state.name in _OWNING for state in states):
            count += 1
    return count


# -- per-layer metrics from a traced operation ----------------------------


def layer_metrics(tracer, outcome: Outcome, wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced operation (0 where absent)."""
    from repro.observe.categories import CPI_CATEGORIES

    self_s = tracer.self_times()
    counts = tracer.counts
    results = outcome.results
    metrics: Dict[str, float] = {}
    metrics["unattributed_s"] = wall_s - sum(self_s.values())
    metrics["traced.wall_s"] = wall_s
    metrics["hooks.missing"] = len(tracer.missing)

    gen_s = self_s["trace.gen"]
    records = counts.get("trace.records", 0)
    metrics.update(
        {
            "trace.gen_s": gen_s,
            "trace.records": records,
            "trace.gen_rps": records / gen_s if gen_s else 0.0,
            "trace.region_lines": counts.get("trace.region_lines", 0),
            "warm.build_s": self_s["warm.build"],
            "warm.prewarm_s": self_s["warm.prewarm"],
            "warm.prewarm_lines": counts.get("warm.prewarm_lines", 0),
            "warm.functional_s": self_s["warm.functional"],
            "warm.functional_records": counts.get("warm.functional_records", 0),
        }
    )

    instructions = sum(result.core.instructions for result in results)
    # On SMP every CPU reports the global cycle count.
    cycles = outcome.program.get(
        "core.cycles", sum(result.core.cycles for result in results)
    )
    sim_s = tracer.inclusive("core.loop", "smp.loop")
    metrics.update(
        {
            "core.loop_s": self_s["core.loop"],
            "core.ips": instructions / sim_s if sim_s else 0.0,
            "core.cycles_per_s": cycles / sim_s if sim_s else 0.0,
            "core.instructions": instructions,
            "core.cycles": cycles,
            "core.ipc": instructions / cycles if cycles else 0.0,
        }
    )

    stacks: Dict[str, int] = {}
    for result in results:
        for name, value in result.core.cpi_stack.items():
            stacks[name] = stacks.get(name, 0) + value
    stacked = sum(stacks.values())
    for name in CPI_CATEGORIES:
        metrics[f"cpi.{name}"] = stacks.get(name, 0) / stacked if stacked else 0.0

    def ratio(cache: str) -> float:
        misses = sum(getattr(r, cache).get("demand_misses", 0) for r in results)
        accesses = sum(getattr(r, cache).get("demand_accesses", 0) for r in results)
        return misses / accesses if accesses else 0.0

    bus = [result.system_bus_utilization for result in results]
    metrics.update(
        {
            "mem.accesses": tracer.calls("mem.access"),
            "mem.access_s": self_s["mem.access"],
            "mem.l1i_miss_ratio": ratio("l1i"),
            "mem.l1d_miss_ratio": ratio("l1d"),
            "mem.l2_miss_ratio": ratio("l2"),
            "mem.prefetches": sum(result.prefetches_issued for result in results),
            "mem.bus_util": outcome.program.get(
                "mem.bus_util", sum(bus) / len(bus) if bus else 0.0
            ),
            "smp.loop_s": self_s["smp.loop"],
            "smp.coherence_calls": tracer.calls("smp.coherence"),
            "smp.coherence_s": self_s["smp.coherence"],
            "smp.cache_to_cache": outcome.program.get("smp.cache_to_cache", 0),
            "smp.invalidations": outcome.program.get("smp.invalidations", 0),
            "smp.multi_owner_lines_warm": counts.get("census.warm", 0),
            "smp.multi_owner_lines": counts.get("census.end", 0),
            "runner.prefetch_s": self_s["runner.prefetch"],
            "cache.load_s": self_s["cache.load"],
            "cache.store_s": self_s["cache.store"],
        }
    )
    for name in (
        "runner.points",
        "runner.misses",
        "runner.disk_hits",
        "runner.worker_s",
        "runner.overhead_s",
        "runner.parallel_eff",
        "runner.warm_pass_s",
        "cache.bytes",
    ):
        metrics[name] = outcome.program.get(name, 0)
    return metrics


# -- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--op", type=int, default=0, help="operation id")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(args.op)
        tracer.install(census=multi_owner_lines)
    execute = WORKLOADS[args.workload](args.seed)
    first_call = time.monotonic()
    report = {"setup_s": first_call - args.spawned}
    before = tick()
    if args.setup_only:
        report.update(tick_s=before, scale=TICK_NOMINAL_S / before)
        print(json.dumps(report))
        return 0

    outcome = Outcome()
    started = time.perf_counter()
    try:
        execute(outcome)
        digest = outcome.digest()
    except Exception as error:  # noqa: BLE001 - a failed operation is reported
        outcome.errors.append(f"{type(error).__name__}: {error}")
        outcome.attempted = POINTS[args.workload]
        digest = "none"
    wall_s = time.perf_counter() - started
    if tracer is not None:
        wall_s -= tracer.census_s
    report.update(
        {
            "wall_s": wall_s,
            "instructions": outcome.instructions,
            "attempted": outcome.attempted,
            "failed": outcome.attempted if outcome.errors else 0,
            "errors": outcome.errors,
            "stats_digest": digest,
            "self_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    )
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = layer_metrics(tracer, outcome, wall_s)
        report["missing_hooks"] = tracer.missing
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}-op{args.op}.jsonl"
        )
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "op": args.op})
        report["spans_file"] = os.path.relpath(path, ROOT)
    # Drop the operation's data first: the closing tick then reuses that
    # memory instead of adding to the peak resident size.
    del execute, outcome, tracer
    gc.collect()
    tick_s = (before + tick()) / 2
    report.update(tick_s=tick_s, scale=TICK_NOMINAL_S / tick_s)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
