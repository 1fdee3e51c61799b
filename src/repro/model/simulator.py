"""The uniprocessor performance model.

Wires a :class:`~repro.model.config.MachineConfig` into a fetch unit,
core and memory hierarchy and runs a trace through them, the way the
paper's trace-driven simulator does.

Warm-up: the paper's traces are captured after the workload reaches a
steady state, so its model starts with warm micro-architectural state.
Synthetic traces start cold; :meth:`PerformanceModel.run` therefore
*functionally* warms the caches, TLBs and BHT on a leading fraction of
the trace (touching tags without timing), then runs the timed simulation
on the remainder.  The timed region never sees its own future.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

from repro.common.errors import ConfigError, SimulationError
from repro.core.pipeline import ProcessorCore, functional_warm
from repro.frontend.bht import BranchHistoryTable
from repro.frontend.fetch import FrontEndParams
from repro.memory.hierarchy import MemoryHierarchy
from repro.model.config import MachineConfig
from repro.model.stats import SampledSimResult, SimResult
from repro.trace.sampling import SamplingPlan
from repro.trace.stream import Trace


def _frontend(config: MachineConfig) -> FrontEndParams:
    """``config``'s front end, with perfect prediction if the config asks."""
    frontend = config.frontend
    if config.perfect_branch_prediction and not frontend.perfect_prediction:
        return replace(frontend, perfect_prediction=True)
    return frontend


def build_hierarchy(config: MachineConfig, cpu: int = 0, **shared) -> MemoryHierarchy:
    """Construct the memory hierarchy described by ``config``."""
    return MemoryHierarchy(
        l1i=config.l1i,
        l1d=config.l1d,
        l2=config.l2,
        itlb=config.itlb,
        dtlb=config.dtlb,
        l1_l2_bus=config.l1_l2_bus,
        system_bus=config.system_bus,
        memory=config.memory,
        prefetch=config.prefetch,
        cpu=cpu,
        perfect_l1=config.perfect_l1,
        perfect_l2=config.perfect_l2,
        perfect_tlb=config.perfect_tlb,
        **shared,
    )


def prewarm_regions(hierarchy: MemoryHierarchy, regions: dict) -> None:
    """Install steady-state residency for a workload's memory regions.

    Stands for touching every line of each region (every L2 line's
    address, in ascending order) into the L2, and into the L1D for data
    regions or the L1I otherwise, in an order that leaves the *hot*
    sub-regions most recently used: cold spans first, ``*_hot`` spans
    last.  This removes the first-touch transient that synthetic traces
    would otherwise pay for the paper's steady-state workloads — after
    pre-warming, each cache holds whatever its capacity allows.  Each
    cache's final state is written in closed form by
    :meth:`~repro.memory.cache.SetAssociativeCache.install_touched`.

    The hierarchy must be fresh: raises :class:`SimulationError`, before
    installing anything, if any of the three caches already holds a valid
    line.  The three share one line size (:class:`MemoryHierarchy`
    requires it), so every cache touches the same line spans.
    """
    caches = (hierarchy.l2, hierarchy.l1d, hierarchy.l1i)
    warm = [cache.geometry.name for cache in caches if not cache.is_cold()]
    if warm:
        raise SimulationError(
            f"prewarm_regions needs a fresh hierarchy; {', '.join(warm)} "
            "already hold valid lines"
        )
    # Touch order = reverse residency priority.  Big cold data regions go
    # first (only their tail survives in the L2), code next (code is the
    # steady-state L2 resident that OLTP I-fetch depends on), hot data
    # regions last (most recently used everywhere).
    hot_names = sorted(name for name in regions if name.endswith("_hot"))
    code_names = sorted(
        name for name in regions if "code" in name and not name.endswith("_hot")
    )
    cold_names = sorted(
        name
        for name in regions
        if name not in hot_names and name not in code_names
    )
    line = hierarchy.l2.geometry.line_bytes
    shift = line.bit_length() - 1
    # (is data, (first line, lines touched)), in touch order.
    touched = []
    for name in cold_names + code_names + hot_names:
        base, size = regions[name]
        count = len(range(base, base + size, line))
        touched.append(("data" in name, (base >> shift, count)))
    hierarchy.l2.install_touched([span for _, span in touched])
    hierarchy.l1d.install_touched([span for data, span in touched if data])
    hierarchy.l1i.install_touched([span for data, span in touched if not data])


def warm_structures(
    hierarchy: MemoryHierarchy,
    bht: Optional[BranchHistoryTable],
    trace: Trace,
) -> None:
    """Functionally touch caches/TLBs/BHT with ``trace`` (no timing).

    Fill decisions mirror the timed path: L1 and L2 are filled on misses,
    stores dirty their lines, branches train the predictor (see
    :func:`repro.core.pipeline.functional_warm`, which sampled simulation
    shares).  Statistics are reset afterwards so the timed region starts
    from zero counters.
    """
    functional_warm(hierarchy, bht, trace.records)
    # Reset statistics accumulated during warming.
    hierarchy.l1i.stats.__init__()
    hierarchy.l1d.stats.__init__()
    hierarchy.l2.stats.__init__()
    hierarchy.itlb.stats.__init__()
    hierarchy.dtlb.stats.__init__()
    if bht is not None:
        bht.stats.__init__()


class PerformanceModel:
    """Configurable trace-driven uniprocessor simulator."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config

    def run(
        self,
        trace: Trace,
        warmup_fraction: float = 0.1,
        regions: Optional[dict] = None,
        tracer=None,
    ) -> SimResult:
        """Simulate ``trace``; the leading fraction warms state untimed.

        ``regions`` (from :meth:`TraceGenerator.memory_regions`) enables
        steady-state pre-warming before the trace-prefix warm-up.
        ``tracer`` (a :class:`~repro.observe.events.PipelineTracer`)
        enables per-cycle pipeline event capture for the timed region.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigError("warmup_fraction must be in [0, 1)")
        if len(trace) == 0:
            raise ConfigError("cannot simulate an empty trace")

        split = int(len(trace) * warmup_fraction)
        warm_part = trace.head(split) if split else None
        timed_part = trace[split:] if split else trace

        config = self.config
        hierarchy = build_hierarchy(config)

        core = ProcessorCore(
            timed_part, hierarchy, config.core, _frontend(config), config.bht
        )
        if tracer is not None:
            core.attach_tracer(tracer)
        if regions:
            prewarm_regions(hierarchy, regions)
        if warm_part is not None:
            warm_structures(hierarchy, core.fetch.bht, warm_part)
        elif regions:
            # No trace prefix: still reset the counters the pre-warm touched.
            hierarchy.l1i.stats.__init__()
            hierarchy.l1d.stats.__init__()
            hierarchy.l2.stats.__init__()

        started = time.perf_counter()
        core_stats = core.run()
        elapsed = max(time.perf_counter() - started, 1e-9)

        return SimResult(
            config_name=config.name,
            trace_name=trace.name,
            core=core_stats,
            l1i=hierarchy.l1i.stats.as_dict(),
            l1d=hierarchy.l1d.stats.as_dict(),
            l2=hierarchy.l2.stats.as_dict(),
            itlb_miss_ratio=hierarchy.itlb.stats.miss_ratio,
            dtlb_miss_ratio=hierarchy.dtlb.stats.miss_ratio,
            bht_misprediction_ratio=core.fetch.bht.stats.misprediction_ratio,
            system_bus_utilization=hierarchy.system_bus.utilization(core_stats.cycles),
            l1_l2_bus_utilization=hierarchy.l1_l2_bus.utilization(core_stats.cycles),
            prefetches_issued=hierarchy.prefetcher.stats.issued,
            sim_speed=core_stats.instructions / elapsed,
            warmup_instructions=split,
        )

    def run_sampled(
        self,
        trace: Trace,
        plan: SamplingPlan,
        regions: Optional[dict] = None,
    ) -> SampledSimResult:
        """SMARTS-style sampled simulation of ``trace``.

        The schedule in ``plan`` places a measurement window every
        ``period`` instructions.  Instructions between detailed windows
        are *functionally warmed* — caches, TLBs and the BHT see every
        reference, but nothing is timed — so long-lived state tracks the
        full run closely (SMARTS' always-on functional warming; skipping
        the gaps outright leaves stale cache/predictor state and biases
        every window's CPI upward).  Each window then runs
        ``detail_warmup + sample_length + drain_pad`` instructions
        through the detailed core, measuring only the middle span (see
        :meth:`ProcessorCore.run_measured`).  Per-window timing
        reservations are rewound, since every window restarts at cycle 0.

        Aggregated totals populate the usual :class:`SimResult` fields;
        per-window dispersion yields the 95 % confidence intervals in
        ``SampledSimResult.estimates``.
        """
        # Imported here: repro.analysis imports this module at package
        # init, so a module-level import would be circular.
        from repro.analysis import estimate

        if len(trace) == 0:
            raise ConfigError("cannot simulate an empty trace")
        windows = list(plan.windows(len(trace)))
        if not windows:
            raise ConfigError(
                f"sampling plan {plan.key()} schedules no windows in a "
                f"{len(trace)}-instruction trace (needs >= {plan.span})"
            )

        config = self.config
        hierarchy = build_hierarchy(config)
        frontend = _frontend(config)
        bht = BranchHistoryTable(config.bht)
        if regions:
            prewarm_regions(hierarchy, regions)

        records = trace.records
        measurements = []
        warmed = 0
        detailed = 0
        cursor = 0  # everything before this index has been warmed or run
        started = time.perf_counter()
        for window in windows:
            if cursor < window.detail_start:
                warmed += functional_warm(
                    hierarchy,
                    bht,
                    records[cursor : window.detail_start],
                    prefetch=True,
                )
            hierarchy.reset_timing()
            window_trace = Trace(
                records[window.detail_start : window.end],
                name=f"{trace.name}#w{window.index}",
                cpu=trace.cpu,
            )
            core = ProcessorCore(
                window_trace, hierarchy, config.core, frontend, config.bht, bht=bht
            )
            detailed += len(window_trace)
            measurements.append(
                core.run_measured(
                    window.measure_start - window.detail_start,
                    window.measure_end - window.detail_start,
                )
            )
            cursor = window.end
        elapsed = max(time.perf_counter() - started, 1e-9)

        core_stats = estimate.merge_core_stats(measurements)
        estimates = estimate.compute_estimates(measurements)
        itlb = estimate.sum_counts([m["itlb"] for m in measurements])
        dtlb = estimate.sum_counts([m["dtlb"] for m in measurements])
        cycles = max(core_stats.cycles, 1)
        return SampledSimResult(
            config_name=config.name,
            trace_name=trace.name,
            core=core_stats,
            l1i=estimate.merge_cache_counts([m["l1i"] for m in measurements]),
            l1d=estimate.merge_cache_counts([m["l1d"] for m in measurements]),
            l2=estimate.merge_cache_counts([m["l2"] for m in measurements]),
            itlb_miss_ratio=itlb["misses"] / max(itlb["accesses"], 1),
            dtlb_miss_ratio=dtlb["misses"] / max(dtlb["accesses"], 1),
            bht_misprediction_ratio=core_stats.misprediction_ratio,
            system_bus_utilization=min(
                1.0, sum(m["system_bus_busy"] for m in measurements) / cycles
            ),
            l1_l2_bus_utilization=min(
                1.0, sum(m["l1_l2_bus_busy"] for m in measurements) / cycles
            ),
            prefetches_issued=sum(m["prefetches_issued"] for m in measurements),
            # Effective speed: the whole trace covered per host second.
            sim_speed=len(trace) / elapsed,
            warmup_instructions=warmed,
            sampling={
                "period": plan.period,
                "sample_length": plan.sample_length,
                "warmup": plan.warmup,
                "detail_warmup": plan.detail_warmup,
                "drain_pad": plan.drain_pad,
                "windows": len(windows),
                "trace_instructions": len(trace),
                "measured_instructions": core_stats.instructions,
                "warmed_instructions": warmed,
                "detailed_instructions": detailed,
            },
            estimates={name: est.to_dict() for name, est in estimates.items()},
            window_instructions=[m["instructions"] for m in measurements],
            window_cycles=[m["cycles"] for m in measurements],
            window_stacks=[m["cpi_stack"] for m in measurements],
        )
