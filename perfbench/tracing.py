"""Spans around the public entry points of each layer of the model.

A :class:`Tracer` wraps the functions and methods named in :data:`HOOKS`
with timing shims installed from outside the program (``src/`` is never
edited).  Each call becomes one span — name, start, end, parent span and
operation id — kept in memory and written out when the operation ends.

Self time is a span's duration minus the time its child spans cover; the
calls are single-threaded and properly nested, so children never overlap
and the coverage is the sum of the children's durations.

A hook target that no longer exists (a later change renamed or deleted
it) is recorded in :attr:`Tracer.missing`; the layer's metrics then read
zero instead of the operation crashing.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path) for every layer boundary.  Names
#: imported into another module are patched there as well, because the
#: importer calls its own binding.
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("trace.gen", "repro.analysis.workloads", "Workload.trace"),
    ("trace.gen", "repro.analysis.workloads", "Workload.regions"),
    ("trace.gen", "repro.analysis.workloads", "Workload.smp_traces"),
    ("warm.build", "repro.model.simulator", "build_hierarchy"),
    ("warm.build", "repro.smp.system", "build_hierarchy"),
    ("warm.prewarm", "repro.model.simulator", "prewarm_regions"),
    ("warm.prewarm", "repro.smp.system", "prewarm_regions"),
    ("warm.functional", "repro.model.simulator", "warm_structures"),
    ("warm.functional", "repro.smp.system", "warm_structures"),
    ("core.loop", "repro.core.pipeline", "ProcessorCore.run"),
    ("core.loop", "repro.core.fastcore", "FastProcessorCore.run"),
    ("smp.loop", "repro.smp.system", "SmpSystem.run"),
    ("mem.access", "repro.memory.hierarchy", "MemoryHierarchy.fetch"),
    ("mem.access", "repro.memory.hierarchy", "MemoryHierarchy.load"),
    ("mem.access", "repro.memory.hierarchy", "MemoryHierarchy.store"),
    ("smp.coherence", "repro.smp.coherence", "CoherenceDomain.fetch_line"),
    ("smp.coherence", "repro.smp.coherence", "CoherenceDomain.upgrade_line"),
    ("runner.prefetch", "repro.analysis.runner", "ParallelRunner.prefetch"),
    ("cache.load", "repro.analysis.cache", "ResultCache.load"),
    ("cache.store", "repro.analysis.cache", "ResultCache.store"),
)

#: Span names whose self times partition the traced wall time (with
#: ``unattributed_s`` as the remainder).
LAYER_SPANS = sorted({name for name, _, _ in HOOKS})


class Tracer:
    """In-memory span recorder for one operation."""

    def __init__(self, op_id: int) -> None:
        self.op_id = op_id
        self.pid = os.getpid()
        #: [name, start, end, parent index or -1] per span, in start order.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Counts recorded at the same boundaries as the spans.
        self.counts: Dict[str, float] = {}
        #: "module:attribute" of each hook whose target does not exist.
        self.missing: List[str] = []
        #: Seconds spent in the SMP census; it is not program work and is
        #: taken out of the traced wall time.
        self.census_s = 0.0
        #: Inputs seen at the warm-state boundary, kept for the census.
        self.prewarmed_regions: List[dict] = []
        self.warm_traces: List[object] = []
        self._traces_seen: set = set()
        self._census: Optional[Callable] = None
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, name: str, func: Callable, after: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            # Forked pool workers inherit the patch; their spans would be
            # lost with the process, so they run the original untimed.
            if os.getpid() != tracer.pid:
                return func(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self, census: Optional[Callable] = None) -> None:
        """Patch every hook target.

        ``census(system, tracer)`` is called on the SMP system just before
        and just after its timed run; it returns a count.
        """
        self._census = census
        for name, module_name, attr_path in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{attr_path}")
                continue
            wrapped = self._wrap(name, original, _AFTER.get(attr_path))
            if attr_path == "SmpSystem.run":
                wrapped = self._with_census(wrapped)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _with_census(self, run: Callable) -> Callable:
        tracer = self

        @functools.wraps(run)
        def censused(system, *args, **kwargs):
            tracer._take_census(system, "warm")
            result = run(system, *args, **kwargs)
            tracer._take_census(system, "end")
            return result

        return censused

    def _take_census(self, system, when: str) -> None:
        if self._census is None or os.getpid() != self.pid:
            return
        started = time.perf_counter()
        try:
            self.counts[f"census.{when}"] = self._census(system, self)
        except AttributeError as error:
            # The census reads public attributes a later change may rename.
            self.missing.append(f"census: {error}")
            self._census = None
        self.census_s += time.perf_counter() - started

    # -- reduction -------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {name: 0.0 for name in LAYER_SPANS}
        for (name, start, end, _), covered in zip(self.spans, child):
            totals[name] += end - start - covered
        return totals

    def inclusive(self, *names: str) -> float:
        """Seconds covered by outermost spans of the given names."""
        wanted = set(names)
        total = 0.0
        for name, start, end, parent in self.spans:
            if name in wanted and (parent < 0 or self.spans[parent][0] not in wanted):
                total += end - start
        return total

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def dump(self, path: str, header: dict) -> None:
        """Write every span, one JSON object a line, after a header line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "op": self.op_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


# -- counts recorded at the boundaries -----------------------------------


def _count_trace(tracer: Tracer, args, trace) -> None:
    # Workload.trace memoises; count each generated trace object once.
    if id(trace) not in tracer._traces_seen:
        tracer._traces_seen.add(id(trace))
        tracer.count("trace.records", len(trace))


def _count_regions(tracer: Tracer, args, regions) -> None:
    tracer.count("trace.region_lines", _region_lines(regions))


def _count_smp_traces(tracer: Tracer, args, result) -> None:
    traces, regions = result
    tracer.count("trace.records", sum(len(trace) for trace in traces))
    tracer.count("trace.region_lines", sum(_region_lines(r) for r in regions))


def _count_prewarm(tracer: Tracer, args, result) -> None:
    hierarchy, regions = args[0], args[1]
    tracer.prewarmed_regions.append(regions)
    tracer.count(
        "warm.prewarm_lines",
        _region_lines(regions, hierarchy.l2.geometry.line_bytes),
    )


def _count_functional(tracer: Tracer, args, result) -> None:
    tracer.warm_traces.append(args[2])
    tracer.count("warm.functional_records", len(args[2]))


def _region_lines(regions: dict, line_bytes: int = 64) -> int:
    return sum(-(-size // line_bytes) for _, size in regions.values())


_AFTER = {
    "Workload.trace": _count_trace,
    "Workload.regions": _count_regions,
    "Workload.smp_traces": _count_smp_traces,
    "prewarm_regions": _count_prewarm,
    "warm_structures": _count_functional,
}
