"""The N-processor system model.

Builds one :class:`~repro.core.ProcessorCore` + private L1/L2 hierarchy
per processor, joins the L2s through a :class:`CoherenceDomain` over a
single shared system bus and memory controller, and steps all cores in
global cycle order so bus contention and cache-to-cache transfers are
timed against each other — the paper's TPC-C (16P) configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Dict, List, Optional

from repro.common.errors import ConfigError, SimulationError
from repro.core.pipeline import ProcessorCore
from repro.memory.bus import Bus
from repro.memory.dram import MemoryController
from repro.model.config import MachineConfig
from repro.model.simulator import build_hierarchy, prewarm_regions, warm_structures
from repro.model.stats import SimResult
from repro.smp.coherence import CoherenceDomain
from repro.trace.stream import Trace

_DEADLOCK_LIMIT = 100_000


@dataclass
class SmpResult:
    """Results of one multiprocessor run."""

    config_name: str
    workload_name: str
    cpu_count: int
    cycles: int
    total_instructions: int
    per_cpu: List[SimResult]
    coherence: Dict[str, int] = field(default_factory=dict)
    system_bus_utilization: float = 0.0
    sim_speed: float = 0.0

    @property
    def ipc(self) -> float:
        """System IPC: total committed instructions over global cycles."""
        if self.cycles == 0:
            return 0.0
        return self.total_instructions / self.cycles

    @property
    def per_cpu_ipc(self) -> float:
        """Average per-processor IPC."""
        return self.ipc / max(self.cpu_count, 1)

    def l2_miss_ratio(self) -> float:
        """Aggregate demand L2 miss ratio across all chips."""
        misses = sum(result.l2.get("demand_misses", 0) for result in self.per_cpu)
        accesses = sum(result.l2.get("demand_accesses", 0) for result in self.per_cpu)
        if accesses == 0:
            return 0.0
        return misses / accesses

    def as_dict(self) -> Dict[str, object]:
        return {
            "config": self.config_name,
            "workload": self.workload_name,
            "cpus": self.cpu_count,
            "cycles": self.cycles,
            "instructions": self.total_instructions,
            "system_ipc": round(self.ipc, 4),
            "per_cpu_ipc": round(self.per_cpu_ipc, 4),
            "l2_miss_ratio": round(self.l2_miss_ratio(), 5),
            "system_bus_utilization": round(self.system_bus_utilization, 4),
            "coherence": self.coherence,
        }

    def to_dict(self) -> Dict[str, object]:
        """Full lossless serialisation (inverse of :meth:`from_dict`)."""
        payload = {
            f.name: getattr(self, f.name)
            for f in dataclass_fields(self)
            if f.name != "per_cpu"
        }
        payload["per_cpu"] = [result.to_dict() for result in self.per_cpu]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SmpResult":
        """Rebuild a result serialised by :meth:`to_dict`."""
        data = dict(payload)
        per_cpu = [SimResult.from_dict(item) for item in data.pop("per_cpu")]
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SmpResult fields: {sorted(unknown)}")
        return cls(per_cpu=per_cpu, **data)


class SmpSystem:
    """An N-way SMP built from one MachineConfig and N per-CPU traces."""

    def __init__(
        self,
        config: MachineConfig,
        traces: List[Trace],
    ) -> None:
        if not traces:
            raise ConfigError("need at least one trace")
        self.config = config
        self.traces = traces
        self.cpu_count = len(traces)

        self.system_bus = Bus(config.system_bus)
        self.memory = MemoryController(config.memory, line_bytes=config.l2.line_bytes)
        self.domain = CoherenceDomain(
            self.system_bus, self.memory, line_bytes=config.l2.line_bytes
        )

        self.hierarchies = []
        self.cores: List[ProcessorCore] = []
        for cpu, trace in enumerate(traces):
            hierarchy = build_hierarchy(
                config,
                cpu=cpu,
                shared_system_bus=self.system_bus,
                shared_memory=self.memory,
            )
            self.domain.attach(hierarchy)
            core = ProcessorCore(
                trace, hierarchy, config.core, config.frontend, config.bht
            )
            self.hierarchies.append(hierarchy)
            self.cores.append(core)

    def warm_up(
        self,
        warm_traces: List[Trace],
        regions_per_cpu: Optional[List[dict]] = None,
    ) -> None:
        """Functionally warm each processor's private state."""
        if len(warm_traces) != self.cpu_count:
            raise ConfigError("one warm trace per cpu required")
        for index, (core, hierarchy, trace) in enumerate(
            zip(self.cores, self.hierarchies, warm_traces)
        ):
            if regions_per_cpu is not None:
                prewarm_regions(hierarchy, regions_per_cpu[index])
            warm_structures(hierarchy, core.fetch.bht, trace)

    def run(self, max_cycles: Optional[int] = None) -> SmpResult:
        """Step all processors in global cycle order until all finish."""
        cycle = 0
        idle_streak = 0
        started = time.perf_counter()
        while True:
            unfinished = [core for core in self.cores if not core.finished]
            if not unfinished:
                break
            if max_cycles is not None and cycle > max_cycles:
                raise SimulationError(f"SMP exceeded max_cycles={max_cycles}")
            activity = False
            for core in unfinished:
                activity |= core.step_cycle(cycle)
            if activity:
                idle_streak = 0
                cycle += 1
            else:
                idle_streak += 1
                if idle_streak > _DEADLOCK_LIMIT:
                    raise SimulationError(f"SMP deadlock at cycle {cycle}")
                cycle = max(
                    cycle + 1,
                    min(core._next_cycle(cycle) for core in unfinished),
                )
        elapsed = max(time.perf_counter() - started, 1e-9)

        per_cpu = []
        total_instructions = 0
        for core, hierarchy, trace in zip(self.cores, self.hierarchies, self.traces):
            stats = core.finalize_stats(cycle)
            total_instructions += stats.instructions
            per_cpu.append(
                SimResult(
                    config_name=self.config.name,
                    trace_name=trace.name,
                    core=stats,
                    l1i=hierarchy.l1i.stats.as_dict(),
                    l1d=hierarchy.l1d.stats.as_dict(),
                    l2=hierarchy.l2.stats.as_dict(),
                    itlb_miss_ratio=hierarchy.itlb.stats.miss_ratio,
                    dtlb_miss_ratio=hierarchy.dtlb.stats.miss_ratio,
                    bht_misprediction_ratio=core.fetch.bht.stats.misprediction_ratio,
                )
            )

        workload = self.traces[0].name.rsplit("-cpu", 1)[0]
        return SmpResult(
            config_name=self.config.name,
            workload_name=workload,
            cpu_count=self.cpu_count,
            cycles=cycle,
            total_instructions=total_instructions,
            per_cpu=per_cpu,
            coherence=self.domain.stats.as_dict(),
            system_bus_utilization=self.system_bus.utilization(cycle),
            sim_speed=total_instructions / elapsed,
        )


def run_smp(
    config: MachineConfig,
    traces: List[Trace],
    warmup_fraction: float = 0.1,
    regions_per_cpu: Optional[List[dict]] = None,
) -> SmpResult:
    """Convenience: split warmup windows off each trace and run."""
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigError("warmup_fraction must be in [0, 1)")
    split = int(len(traces[0]) * warmup_fraction)
    warm_parts = [trace.head(split) for trace in traces]
    timed_parts = [trace[split:] for trace in traces]
    system = SmpSystem(config, timed_parts)
    if split or regions_per_cpu:
        system.warm_up(warm_parts, regions_per_cpu)
    return system.run()
