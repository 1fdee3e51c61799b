"""The out-of-order pipeline engine.

Cycle-driven model of the SPARC64 V core, driven by a fetch unit that
consumes a trace.  Per cycle, in this order:

1. completion events (execution finishing, branch resolution);
2. in-order commit of up to four instructions from the window head;
3. load/store unit: up to two requests to the L1 operand cache, with
   bank-conflict arbitration (§3.2);
4. dispatch from reservation stations, speculatively when enabled (§3.1);
5. decode of up to four instructions into the window, allocating rename
   registers, station entries and LSQ entries;
6. fetch of one group.

**Speculative dispatch and replay.**  A dispatching instruction may use a
producer whose result is not final (an unresolved load, or something
downstream of one).  It registers as a *waiter* on each such producer.
When a load resolves at its predicted L1-hit time, waiters are confirmed;
when it resolves late (miss, bank-conflict delay, TLB walk), every waiter
is cancelled recursively — returned to its reservation station for
re-dispatch — reproducing §3.1's "all instructions that have
read-after-write dependency must be cancelled at every stage".
Cancellation epochs invalidate the stale completion events.

**Mispredicted branches.**  The model is trace-driven and single-path:
fetch blocks at a mispredicted branch and resumes when the branch
resolves, so the misprediction penalty is the dead fetch time plus the
pipeline refill — the same accounting the paper's model uses.

**Observability.**  A CPI-stack accountant runs on every cycle (it is a
couple of dict increments, so it is always on): a cycle with at least
one commit is ``base``; a zero-commit cycle is attributed to whatever
blocks the window head, or to the front end when the window is empty
(see :mod:`repro.observe.cpistack` for the scheme).  The attributed
cycles must sum to ``CoreStats.cycles`` exactly — the conservation
invariant is enforced in :meth:`ProcessorCore.finalize_stats`.  A
:class:`~repro.observe.events.PipelineTracer` can additionally be
attached for per-uop structured event traces; when none is attached the
only cost is an ``is None`` test per event site.

**Host speed.**  The loop is written for CPython throughput without
changing what it computes; ``tests/test_engine_corpus.py`` pins its
complete output.  The levers:

- the driver jumps over idle spans (:meth:`ProcessorCore._next_cycle`),
  and every phase sits behind an O(1) test that holds exactly when the
  phase would find no work (the LSU's pending-work minimum is cached);
- each µop caches its speculative source-ready cycle, recomputed only
  when a producer's timing changes, and a station's empty selection
  is memoised until its readiness changes or its wake note comes due;
- the head-of-window stall classification is memoised on the head µop;
- committed µop slots are recycled through a free pool once nothing
  live can still reference them (see :meth:`ProcessorCore._commit`).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.core.lsq import LoadResolution, LoadStoreUnit
from repro.core.params import CoreParams, RsOrganization
from repro.core.rename import RenameTracker
from repro.core.reservation import ReservationStation, StationGroup
from repro.core.uop import FAR_FUTURE, Uop, UopState
from repro.frontend.bht import BhtParams, BranchHistoryTable
from repro.frontend.fetch import FetchUnit, FrontEndParams
from repro.isa.opcodes import OpClass, uses_rsa, uses_rse, uses_rsf
from repro.isa.registers import TOTAL_REG_IDS
from repro.memory.hierarchy import MemoryHierarchy
from repro.observe import categories as cat
from repro.observe.cpistack import new_stack, prune, verify_conservation
from repro.trace.stream import Trace

#: Abort threshold for a wedged simulation (no activity, no wake events).
_DEADLOCK_LIMIT = 100_000

_WAITING = UopState.WAITING
_INFLIGHT = UopState.INFLIGHT
_DONE = UopState.DONE
_COMMITTED = UopState.COMMITTED

#: Completion-event kinds.  Heap entries order by (cycle, counter) with
#: a unique counter, so the kind is never compared.
_EV_DONE, _EV_RESOLVE = 0, 1

#: Rename pool of every destination register id (-1: no destination).
_DEST_KIND = {reg: RenameTracker.dest_kind(reg) for reg in range(-1, TOTAL_REG_IDS)}


def functional_warm(
    hierarchy: MemoryHierarchy, bht, records, prefetch: bool = False
) -> int:
    """Update caches/TLBs/predictor with ``records``, without timing.

    The functional-warming mode of sampled simulation: between detailed
    windows the instruction stream only maintains micro-architectural
    *contents* — cache tags, TLB entries, BHT counters — so a window
    starts from realistic state without paying detailed-simulation cost.
    State changes mirror the timed path's fill and training decisions.
    ``prefetch=True`` also keeps the L2 prefetch engine in sync (see
    :meth:`MemoryHierarchy.warm_fetch`).  Returns the number of records
    processed.
    """
    count = 0
    for record in records:
        hierarchy.warm_fetch(record.pc, prefetch=prefetch)
        if record.is_memory:
            hierarchy.warm_data(record.ea, record.is_store, prefetch=prefetch)
        elif record.op == OpClass.BRANCH_COND and bht is not None:
            bht.warm(record.pc, record.taken)
        count += 1
    return count


def _cache_counts(cache) -> Dict[str, int]:
    """Raw (un-ratioed) counters of one cache, for snapshot differencing."""
    stats = cache.stats
    return {
        "demand_accesses": stats.demand_accesses,
        "demand_misses": stats.demand_misses,
        "prefetch_accesses": stats.prefetch_accesses,
        "prefetch_misses": stats.prefetch_misses,
        "writebacks": stats.writebacks,
        "invalidations_received": stats.invalidations_received,
        "prefetch_useful": stats.prefetch_useful,
    }


def _diff_snapshots(start: Dict[str, object], end: Dict[str, object]) -> Dict[str, object]:
    """Counter-wise ``end - start``; every counter is monotone between them."""
    out: Dict[str, object] = {}
    for key, after in end.items():
        before = start[key]
        if isinstance(after, dict):
            keys = set(after) | set(before)
            out[key] = {k: after.get(k, 0) - before.get(k, 0) for k in keys}
        else:
            out[key] = after - before
    out["cpi_stack"] = prune(out["cpi_stack"])
    return out


@dataclass
class CoreStats:
    """Raw counters produced by one core run."""

    cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    replays: int = 0
    dispatches: int = 0
    load_level_counts: Dict[str, int] = field(default_factory=dict)
    decode_stalls: Dict[str, int] = field(default_factory=dict)
    bank_conflicts: int = 0
    store_forwards: int = 0
    order_stalls: int = 0
    fetch_icache_stall_cycles: int = 0
    fetch_taken_bubble_cycles: int = 0
    branch_mispredictions: int = 0
    conditional_branches: int = 0
    #: CPI-stack: cycles attributed to each stall category (zero entries
    #: pruned).  Invariant: the values sum to ``cycles`` exactly.
    cpi_stack: Dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def misprediction_ratio(self) -> float:
        if self.conditional_branches == 0:
            return 0.0
        return self.branch_mispredictions / self.conditional_branches


class ProcessorCore:
    """One SPARC64 V core executing one trace."""

    def __init__(
        self,
        trace: Trace,
        hierarchy: MemoryHierarchy,
        core_params: CoreParams,
        frontend_params: FrontEndParams,
        bht_params: BhtParams,
        bht: Optional[BranchHistoryTable] = None,
    ) -> None:
        self.params = core_params
        self.hierarchy = hierarchy
        self.fetch = FetchUnit(trace, hierarchy, bht_params, frontend_params, bht=bht)
        self.lsu = LoadStoreUnit(core_params, hierarchy)
        self.rename = RenameTracker(core_params.int_rename, core_params.fp_rename)
        self._build_stations(core_params)
        self.window: List[Uop] = []  # treated as a FIFO; head at index 0
        self._window_head = 0
        #: Sequence number of the next decoded µop; decode consumes the
        #: trace in order from zero, so it is also the next record index.
        self._seq = 0
        self._events: List[tuple] = []  # (cycle, counter, kind, epoch, uop, payload)
        self._event_counter = 0
        self._wakes: List[int] = []
        self._trace_length = len(trace)
        self._committed = 0
        self.stats = CoreStats()
        self._decode_stalls = {kind: 0 for kind in cat.DECODE_STALL_KINDS}
        self._load_levels: Dict[str, int] = {}
        self.cycle = 0
        self._trace_name = getattr(trace, "name", "trace")
        # CPI-stack accountant: every cycle in [0, _accounted_until) has
        # been attributed to exactly one category in _stack.
        self._stack = new_stack()
        self._accounted_until = 0
        #: Optional PipelineTracer (see attach_tracer).
        self.tracer = None
        # Loop-invariant parameters, read on every cycle or µop.
        self._exec_offset = core_params.dispatch_to_exec
        self._l1d_hit = hierarchy.l1d.geometry.hit_latency
        self._latency = {
            op: core_params.latency_of(op)
            for op in OpClass
            if op not in (OpClass.LOAD, OpClass.STORE)
        }
        #: Decode-time station source per op class: a StationGroup or a
        #: single station, both answering ``station_for_insert``.
        self._station_source = {
            op: self.rse if uses_rse(op)
            else self.rsf if uses_rsf(op)
            else self.rsa if uses_rsa(op)
            else self.rsbr
            for op in OpClass
        }
        #: Global dispatch skip: True when every station is clean, with
        #: the min of their recorded next_eligible cycles.
        self._disp_clean = False
        self._disp_ne: Optional[int] = None
        #: Free pool of recycled µop slots and the retire queue of
        #: (uop, barrier_seq) pairs awaiting their recycle condition.
        self._pool: List[Uop] = []
        self._retired: Deque[Tuple[Uop, int]] = deque()
        #: Stall-classification memo (head identity -> category).
        self._cls_key: Optional[tuple] = None
        self._cls_val = cat.EXEC

    def _build_stations(self, params: CoreParams) -> None:
        if params.rs_organization is RsOrganization.TWO_RS:
            rse = [
                ReservationStation(f"RSE{i}", params.rse_entries, 1)
                for i in range(params.int_units)
            ]
            rsf = [
                ReservationStation(f"RSF{i}", params.rsf_entries, 1)
                for i in range(params.fp_units)
            ]
        else:
            rse = [
                ReservationStation(
                    "RSE", params.rse_entries * params.int_units, params.int_units
                )
            ]
            rsf = [
                ReservationStation(
                    "RSF", params.rsf_entries * params.fp_units, params.fp_units
                )
            ]
        self.rse = StationGroup("RSE", rse)
        self.rsf = StationGroup("RSF", rsf)
        self.rsa = ReservationStation("RSA", params.rsa_entries, params.eag_units)
        self.rsbr = ReservationStation("RSBR", params.rsbr_entries, 1)
        self._all_stations: List[ReservationStation] = rse + rsf + [self.rsa, self.rsbr]

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once every trace instruction has committed."""
        return self._committed >= self._trace_length

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`~repro.observe.events.PipelineTracer` (or None)."""
        self.tracer = tracer
        self.fetch.tracer = tracer

    def step_cycle(self, cycle: int) -> bool:
        """Advance all pipeline phases for one cycle; True on any activity."""
        self.cycle = cycle
        account = cycle >= self._accounted_until
        if account and cycle > self._accounted_until:
            # The driver skipped an idle span: no event fired and no phase
            # ran inside it, so the classification at the span start holds
            # for every skipped cycle.
            span = cycle - self._accounted_until
            self._stack[self._classify_stall(self._accounted_until)] += span
        activity = self._process_events(cycle)
        newly_committed = self._commit(cycle)
        self._committed += newly_committed
        activity |= newly_committed > 0

        if self.lsu.has_work(cycle):
            resolutions, lsu_active = self.lsu.step(cycle)
            activity |= lsu_active
            for resolution in resolutions:
                self._schedule_resolution(resolution)
                activity = True

        activity |= self._dispatch(cycle)
        activity |= self._decode(cycle)

        buffered_before = self.fetch._buffered
        self.fetch.step(cycle)
        activity |= self.fetch._buffered != buffered_before

        if account:
            if newly_committed:
                self._stack[cat.BASE] += 1
            else:
                self._stack[self._classify_stall(cycle)] += 1
            self._accounted_until = cycle + 1
        return activity

    def run(self, max_cycles: Optional[int] = None) -> CoreStats:
        """Simulate until the whole trace commits; returns the statistics.

        :meth:`step_cycle` and the driver loop fused into one, with the
        loop-invariant lookups hoisted and every phase behind an O(1)
        test that holds exactly when running it would find no work.
        Phase order, skip-ahead and attribution are identical to
        stepping :meth:`step_cycle` and jumping with :meth:`_next_cycle`,
        which the windowed and SMP drivers do.
        """
        cycle = 0
        idle_streak = 0
        trace_length = self._trace_length
        window = self.window
        events = self._events
        lsu = self.lsu
        fetch = self.fetch
        fetch_len = len(fetch._records)
        fetch_width = fetch.params.fetch_width
        fetch_cap = fetch.params.buffer_capacity
        stack = self._stack
        base_cat = cat.BASE
        classify = self._classify_stall
        process_events = self._process_events
        commit = self._commit
        dispatch = self._dispatch
        decode = self._decode
        schedule_resolution = self._schedule_resolution
        accounted = self._accounted_until
        committed_total = self._committed
        while committed_total < trace_length:
            if max_cycles is not None and cycle > max_cycles:
                self._accounted_until = accounted
                raise SimulationError(f"exceeded max_cycles={max_cycles}")
            self.cycle = cycle
            account = cycle >= accounted
            if account and cycle > accounted:
                # Skipped idle span: the span-start classification holds
                # for every skipped cycle (see step_cycle).
                stack[classify(accounted)] += cycle - accounted

            if events and events[0][0] <= cycle:
                activity = process_events(cycle)
            else:
                activity = False

            newly = 0
            head = self._window_head
            if head < len(window):
                uop = window[head]
                if uop.state is _DONE and uop.done_cycle <= cycle:
                    newly = commit(cycle)
                    if newly:
                        committed_total += newly
                        self._committed = committed_total
                        activity = True

            pending = lsu._refresh_pending() if lsu._pending_dirty else lsu._pending_min
            if pending <= cycle:
                resolutions, lsu_active = lsu.step(cycle)
                if lsu_active:
                    activity = True
                for resolution in resolutions:
                    schedule_resolution(resolution)
                    activity = True

            if not self._disp_clean or (
                self._disp_ne is not None and self._disp_ne <= cycle
            ):
                if dispatch(cycle):
                    activity = True

            runs = fetch._runs
            if runs and runs[0][0] <= cycle:
                if decode(cycle):
                    activity = True

            if (
                not fetch._blocked
                and cycle >= fetch._stall_until
                and fetch._position < fetch_len
                and fetch._buffered + fetch_width <= fetch_cap
            ):
                buffered_before = fetch._buffered
                fetch.step(cycle)
                if fetch._buffered != buffered_before:
                    activity = True

            if account:
                if newly:
                    stack[base_cat] += 1
                else:
                    stack[classify(cycle)] += 1
                accounted = cycle + 1

            if activity:
                idle_streak = 0
                cycle += 1
            else:
                idle_streak += 1
                if idle_streak > _DEADLOCK_LIMIT:
                    self._accounted_until = accounted
                    raise SimulationError(
                        f"deadlock at cycle {cycle}: committed {self._committed}/"
                        f"{self._trace_length}, window {self._window_size()}"
                    )
                cycle = self._next_cycle(cycle)
        self._accounted_until = accounted
        self.finalize_stats(cycle)
        return self.stats

    # ------------------------------------------------------------------
    # Windowed measurement (sampled simulation).
    # ------------------------------------------------------------------

    def run_measured(
        self,
        measure_start: int,
        measure_end: int,
        max_cycles: Optional[int] = None,
    ) -> Dict[str, object]:
        """Run in detail, measuring only commits ``measure_start..measure_end``.

        The counter snapshot taken when the ``measure_start``-th commit
        is crossed is subtracted from the one taken at the
        ``measure_end``-th, so the leading instructions prime the
        pipeline in detailed mode without polluting the measurement, and
        the run stops as soon as the measured span has committed —
        trailing trace records (the drain pad) only serve to keep fetch
        busy through the end of the measured span.  Returns the flat
        measured-counter dict consumed by
        :mod:`repro.analysis.estimate`; the measured CPI stack conserves
        the measured cycles exactly.
        """
        if not 0 <= measure_start < measure_end:
            raise SimulationError("need 0 <= measure_start < measure_end")
        cycle = 0
        idle_streak = 0
        start_snap = self._snapshot() if measure_start == 0 else None
        end_snap = None
        while not self.finished:
            if max_cycles is not None and cycle > max_cycles:
                raise SimulationError(f"exceeded max_cycles={max_cycles}")
            if self.step_cycle(cycle):
                idle_streak = 0
                advanced = cycle + 1
            else:
                idle_streak += 1
                if idle_streak > _DEADLOCK_LIMIT:
                    raise SimulationError(
                        f"deadlock at cycle {cycle}: committed {self._committed}/"
                        f"{self._trace_length}, window {self._window_size()}"
                    )
                advanced = self._next_cycle(cycle)
            if start_snap is None and self._committed >= measure_start:
                start_snap = self._snapshot()
            if self._committed >= measure_end:
                end_snap = self._snapshot()
                break
            cycle = advanced
        if start_snap is None:
            raise SimulationError(
                f"measurement start {measure_start} beyond trace "
                f"({self._committed} instructions committed)"
            )
        if end_snap is None:
            # Trace shorter than requested: measure through the last commit.
            end_snap = self._snapshot()
        measured = _diff_snapshots(start_snap, end_snap)
        verify_conservation(
            measured["cpi_stack"],
            measured["cycles"],
            where=f"measured window of trace {self._trace_name!r}",
        )
        return measured

    def _snapshot(self) -> Dict[str, object]:
        """Copy every measured counter at the current accounting point.

        ``step_cycle`` attributes each cycle before returning, so after
        any step the stack total equals ``_accounted_until`` exactly and
        a snapshot difference inherits CPI-stack conservation.
        """
        hierarchy = self.hierarchy
        bht_stats = self.fetch.bht.stats
        return {
            "cycles": self._accounted_until,
            "instructions": self._committed,
            "cpi_stack": dict(self._stack),
            "loads": self.stats.loads,
            "stores": self.stats.stores,
            "branches": self.stats.branches,
            "replays": self.stats.replays,
            "dispatches": self.stats.dispatches,
            "bank_conflicts": self.lsu.bank_conflicts,
            "store_forwards": self.lsu.forwards,
            "order_stalls": self.lsu.order_stalls,
            "fetch_icache_stall_cycles": self.fetch.icache_stall_cycles,
            "fetch_taken_bubble_cycles": self.fetch.taken_bubble_cycles,
            "branch_mispredictions": bht_stats.mispredictions,
            "conditional_branches": bht_stats.conditional_branches,
            "decode_stalls": dict(self._decode_stalls),
            "load_level_counts": dict(self._load_levels),
            "l1i": _cache_counts(hierarchy.l1i),
            "l1d": _cache_counts(hierarchy.l1d),
            "l2": _cache_counts(hierarchy.l2),
            "itlb": {
                "accesses": hierarchy.itlb.stats.accesses,
                "misses": hierarchy.itlb.stats.misses,
            },
            "dtlb": {
                "accesses": hierarchy.dtlb.stats.accesses,
                "misses": hierarchy.dtlb.stats.misses,
            },
            "l1_l2_bus_busy": hierarchy.l1_l2_bus.busy_cycles,
            "system_bus_busy": hierarchy.system_bus.busy_cycles,
            "prefetches_issued": hierarchy.prefetcher.stats.issued,
        }

    def finalize_stats(self, cycles: int) -> CoreStats:
        """Populate the statistics object after the last commit.

        Also closes the CPI-stack books and enforces conservation: the
        attributed cycles must equal ``cycles`` exactly.
        """
        if cycles > self._accounted_until:
            # Tail the driver never stepped (an SMP core idling after its
            # own trace finished): one classification covers the span.
            span = cycles - self._accounted_until
            self._stack[self._classify_stall(self._accounted_until)] += span
            self._accounted_until = cycles
        self.stats.cpi_stack = prune(self._stack)
        verify_conservation(
            self._stack, cycles, where=f"trace {self._trace_name!r}"
        )
        self.stats.cycles = cycles
        self.stats.instructions = self._committed
        self.stats.decode_stalls = dict(self._decode_stalls)
        self.stats.load_level_counts = dict(self._load_levels)
        self.stats.bank_conflicts = self.lsu.bank_conflicts
        self.stats.store_forwards = self.lsu.forwards
        self.stats.order_stalls = self.lsu.order_stalls
        self.stats.fetch_icache_stall_cycles = self.fetch.icache_stall_cycles
        self.stats.fetch_taken_bubble_cycles = self.fetch.taken_bubble_cycles
        self.stats.branch_mispredictions = self.fetch.bht.stats.mispredictions
        self.stats.conditional_branches = self.fetch.bht.stats.conditional_branches
        return self.stats

    def _next_cycle(self, cycle: int) -> int:
        """The earliest cycle after an idle ``cycle`` at which anything can happen."""
        candidates = []
        if self._events:
            candidates.append(self._events[0][0])
        while self._wakes and self._wakes[0] <= cycle:
            heapq.heappop(self._wakes)
        if self._wakes:
            candidates.append(self._wakes[0])
        fetch_wake = self.fetch.next_wake_cycle()
        if fetch_wake is not None and fetch_wake > cycle:
            candidates.append(fetch_wake)
        # A buffered group still in the fetch pipe becomes decodable at
        # its delivery cycle even while fetch itself stalls on the next
        # group's I-miss; without this candidate the jump overshoots it.
        runs = self.fetch._runs
        if runs and runs[0][0] > cycle:
            candidates.append(runs[0][0])
        lsu_wake = self.lsu.pending_work_cycle(cycle)
        if lsu_wake is not None:
            candidates.append(lsu_wake)
        # Station wake notes.  Only a selection scan writes them, and
        # decode/fetch never do, so they are current here even for the
        # stations the memoised dispatch skipped.
        for station in self._all_stations:
            ne = station.next_eligible
            if ne is not None and ne > cycle:
                candidates.append(ne)
        if not candidates:
            return cycle + 1
        return max(cycle + 1, min(candidates))

    def _wake(self, cycle: int) -> None:
        heapq.heappush(self._wakes, cycle)

    def _window_size(self) -> int:
        return len(self.window) - self._window_head

    def _classify_stall(self, cycle: int) -> str:
        """Attribute one zero-commit cycle to the category blocking progress.

        Head-of-window rule: the oldest in-flight instruction is the one
        commit is waiting for, so the cycle is charged to whatever that
        instruction is waiting on.  With an empty window the front end is
        responsible.  See :mod:`repro.observe.cpistack` for the scheme.

        Apart from the LSQ breadcrumbs, which name one cycle, the answer
        depends only on the head µop's identity, epoch, state, replay
        count and memory level, so it is memoised on those.
        """
        if self._window_head < len(self.window):
            uop = self.window[self._window_head]
            state = uop.state
            level = uop.mem_level
            if uop.is_load and level is None:
                lsu = self.lsu
                if lsu.last_conflict_cycle == cycle and lsu.last_conflict_seq == uop.seq:
                    return cat.BANK_CONFLICT
                if (
                    lsu.last_order_stall_cycle == cycle
                    and lsu.last_order_stall_seq == uop.seq
                ):
                    return cat.LSQ_ORDER
            key = (uop, uop.epoch, state, uop.replays, level)
            if key == self._cls_key:
                return self._cls_val
            if uop.is_load:
                if level is not None:
                    # Resolution known: charge the servicing level.
                    value = cat.LEVEL_CATEGORY.get(level, cat.DCACHE_L1)
                elif uop.replays:
                    value = cat.REPLAY
                else:
                    # Address generation / L1 access at predicted hit timing.
                    value = cat.DCACHE_L1
            elif uop.is_store:
                if state is _DONE:
                    value = cat.STORE_DATA
                elif uop.replays:
                    value = cat.REPLAY
                else:
                    value = cat.EXEC
            elif uop.mispredicted and uop.is_branch and state is not _DONE:
                value = cat.BRANCH_MISPREDICT
            elif uop.replays:
                value = cat.REPLAY
            else:
                value = cat.EXEC
            self._cls_key = key
            self._cls_val = value
            return value
        if self.fetch._runs:
            # Instructions are in the fetch pipe but not yet decodable.
            return cat.FRONTEND_FILL
        reason = self.fetch.stall_reason(cycle)
        if reason is None:
            return cat.FRONTEND_FILL
        return cat.FETCH_CATEGORY[reason]

    # ------------------------------------------------------------------
    # Phase 1: completion events.
    # ------------------------------------------------------------------

    def _schedule_done(self, uop: Uop, cycle: int) -> None:
        self._event_counter += 1
        heapq.heappush(
            self._events, (cycle, self._event_counter, _EV_DONE, uop.epoch, uop, None)
        )

    def _schedule_resolution(self, resolution: LoadResolution) -> None:
        """Queue a load's hit/miss outcome to become visible to the core.

        The L1 reports hit/miss when the speculatively scheduled data
        would have been forwarded — one hit-latency after issue — so
        dependents keep dispatching against the hit prediction until then
        (this window is what makes cancel-and-replay happen at all, §3.1).
        Store-forwarded data is known immediately.
        """
        uop = resolution.uop
        if resolution.level == "forward":
            apply_at = resolution.ready_cycle
        else:
            apply_at = resolution.issue_cycle + self._l1d_hit
        self._event_counter += 1
        heapq.heappush(
            self._events,
            (apply_at, self._event_counter, _EV_RESOLVE, uop.epoch, uop, resolution),
        )

    def _process_events(self, cycle: int) -> bool:
        events = self._events
        if not events or events[0][0] > cycle:
            return False
        tracer = self.tracer
        activity = False
        while events and events[0][0] <= cycle:
            event_cycle, _, kind, epoch, uop, payload = heapq.heappop(events)
            if uop.epoch != epoch or uop.state is not _INFLIGHT:
                continue  # stale (cancelled and possibly re-dispatched)
            if kind == _EV_RESOLVE:
                self._apply_load_resolution(payload, event_cycle)
            else:
                uop.state = _DONE
                if uop.result_ready >= FAR_FUTURE and uop.consumers:
                    # Readiness treats an INFLIGHT producer with unknown
                    # timing as FAR_FUTURE but a DONE one at its value.
                    self._ripple_ready(uop)
                if tracer is not None:
                    tracer.emit(event_cycle, "complete", uop.seq, uop.mem_level)
                if not uop.confirmed:
                    self._confirm(uop)
                if uop.is_branch and uop.mispredicted:
                    self.fetch.redirect(cycle)
            activity = True
        return activity

    # ------------------------------------------------------------------
    # Phase 2: commit (and µop slot recycling).
    #
    # A committed µop's slot is reused by a later decode once nothing
    # live can still reference it.  Every reference to a µop ``u``
    # (producer and consumer edges, waiter lists, the store queue's data
    # producer) is held by a µop decoded before ``u`` committed, i.e.
    # with a sequence number below the barrier recorded at ``u``'s
    # commit, or by a store-queue entry.  So the slot recycles once the
    # oldest uncommitted µop and the oldest store-queue entry are both
    # past that barrier.  Epochs are monotone across reuse (bumped at
    # recycle, never reset), so stale completion events and waiter
    # registrations can never match a new incarnation.
    # ------------------------------------------------------------------

    def _commit(self, cycle: int) -> int:
        window = self.window
        head = self._window_head
        if head >= len(window):
            return 0
        uop = window[head]
        if uop.state is not _DONE or uop.done_cycle > cycle:
            return 0
        lsu = self.lsu
        stats = self.stats
        tracer = self.tracer
        retired = self._retired
        barrier = self._seq
        commit_width = self.params.commit_width
        exec_offset = self._exec_offset
        committed = 0
        while committed < commit_width and head < len(window):
            uop = window[head]
            if uop.state is not _DONE or uop.done_cycle > cycle:
                break
            if uop.is_store and not self._store_data_ready(uop, cycle):
                break
            uop.state = _COMMITTED
            uop.commit_cycle = cycle
            if uop.result_ready - exec_offset > cycle and uop.consumers:
                # Readiness skips COMMITTED producers; without forwarding
                # the DONE valuation could still lie in the future, so
                # the consumers' bound just dropped.
                self._ripple_ready(uop)
            if tracer is not None:
                tracer.emit(cycle, "commit", uop.seq)
            self.rename.release(uop)
            uop.station.free(uop)
            if uop.is_load:
                lsu.release(uop)
                stats.loads += 1
            elif uop.is_store:
                lsu.store_committed(uop, cycle)
                stats.stores += 1
            elif uop.is_branch:
                stats.branches += 1
            retired.append((uop, barrier))
            head += 1
            committed += 1
        if committed:
            # Compact the window list occasionally.
            if head > 256:
                del window[:head]
                head = 0
            # Recycle retired slots whose barrier has passed.
            live_min = window[head].seq if head < len(window) else self._seq
            stores = lsu._stores
            if stores and stores[0].uop.seq < live_min:
                live_min = stores[0].uop.seq
            while retired and retired[0][1] <= live_min:
                slot, _ = retired.popleft()
                slot.epoch += 1
                self._pool.append(slot)
        self._window_head = head
        return committed

    def _store_data_ready(self, uop: Uop, cycle: int) -> bool:
        entry = self.lsu._by_uop.get(uop.seq)
        if entry is None:
            return True
        producer = entry.data_producer
        if producer is None or producer.state is _COMMITTED:
            return True
        return producer.state is _DONE and producer.result_ready <= cycle

    # ------------------------------------------------------------------
    # Phase 3: load resolution (after LSU issue).
    # ------------------------------------------------------------------

    def _apply_load_resolution(self, resolution: LoadResolution, cycle: int) -> None:
        uop = resolution.uop
        if uop.state is not _INFLIGHT:
            return  # cancelled between address generation and issue
        ready = resolution.ready_cycle
        if not self.params.data_forwarding:
            ready += self.params.no_forwarding_penalty
        uop.result_ready = ready
        uop.done_cycle = ready
        uop.mem_level = resolution.level
        self._load_levels[resolution.level] = self._load_levels.get(resolution.level, 0) + 1
        if not resolution.prediction_held:
            self._cancel_waiters(uop, ready)
        uop.confirmed = True
        self._confirm(uop, becoming_done=False)
        self._schedule_done(uop, ready)
        self._wake(ready)
        if uop.consumers:
            # The prediction was replaced by the actual ready cycle.
            self._ripple_ready(uop)

    # ------------------------------------------------------------------
    # Confirmation / cancellation.
    # ------------------------------------------------------------------

    def _confirm(self, uop: Uop, becoming_done: bool = True) -> None:
        """Producer ``uop``'s timing is now final; release its waiters."""
        uop.confirmed = True
        waiters = uop.waiters
        uop.waiters = []
        for waiter, epoch in waiters:
            if waiter.epoch != epoch or waiter.state is not _INFLIGHT:
                continue
            waiter.unconfirmed -= 1
            if waiter.unconfirmed <= 0:
                waiter.station.free(waiter)
                if not waiter.is_load and not waiter.confirmed:
                    self._confirm(waiter)

    def _cancel_waiters(self, uop: Uop, producer_ready: int) -> None:
        waiters = uop.waiters
        uop.waiters = []
        earliest = max(producer_ready - self._exec_offset, 0)
        for waiter, epoch in waiters:
            if waiter.epoch != epoch or waiter.state is not _INFLIGHT:
                continue
            self._cancel(waiter, earliest)

    def _cancel(self, uop: Uop, earliest: int) -> None:
        self.stats.replays += 1
        uop.replays += 1
        if self.tracer is not None:
            self.tracer.emit(self.cycle, "cancel", uop.seq, uop.replays)
        uop.epoch += 1
        uop.state = _WAITING
        uop.result_ready = FAR_FUTURE
        uop.done_cycle = FAR_FUTURE
        uop.confirmed = False
        uop.unconfirmed = 0
        uop.earliest_dispatch = earliest
        if not uop.holds_rs_entry:
            # The entry was released on a confirmation that later proved
            # wrong — impossible by construction, but re-insert defensively.
            uop.station.insert(uop)
        if uop.is_load:
            uop.mem_level = None  # the re-issued access may hit elsewhere
            self.lsu.load_cancelled(uop)
        self._cancel_waiters(uop, earliest)
        self._wake(earliest)
        # Back to WAITING with a new earliest cycle and unknown timing.
        uop.ready_lb = self._ready_of(uop)
        uop.station.dirty = True
        self._disp_clean = False
        if uop.consumers:
            self._ripple_ready(uop)

    # ------------------------------------------------------------------
    # Source readiness, cached per µop.
    #
    # Every µop caches in ``ready_lb`` what
    # ``ReservationStation._sources_ready_at`` (speculative) would
    # compute for it right now, and each producer lists its
    # ``consumers``, so the cache is recomputed exactly when a
    # producer's timing changes: dispatch (result_ready becomes known),
    # load resolution (predicted -> actual), cancel (known -> unknown),
    # and the two no-forwarding corner cases where a completion or
    # commit changes the formula's value.  The per-cycle station scan
    # is then two integer compares per entry.
    # ------------------------------------------------------------------

    def _ready_of(self, uop: Uop) -> int:
        """Speculative source-ready cycle of ``uop`` from live state."""
        offset = self._exec_offset
        best = 0
        for producer in uop.producers:
            state = producer.state
            if state is _COMMITTED:
                continue
            if state is _DONE:
                candidate = producer.result_ready - offset
            elif state is _INFLIGHT and producer.result_ready < FAR_FUTURE:
                candidate = producer.result_ready - offset
            else:  # timing unknown
                return FAR_FUTURE
            if candidate > best:
                best = candidate
        return best

    def _ripple_ready(self, producer: Uop) -> None:
        """Recompute the cached bound of the waiting consumers of ``producer``."""
        touched = False
        for consumer in producer.consumers:
            if consumer.state is not _WAITING:
                continue
            consumer.ready_lb = self._ready_of(consumer)
            consumer.station.dirty = True
            touched = True
        if touched:
            self._disp_clean = False

    # ------------------------------------------------------------------
    # Phase 4: dispatch.
    # ------------------------------------------------------------------

    def _dispatch(self, cycle: int) -> bool:
        """Dispatch from every station; selection scans are memoised.

        A station whose last scan selected nothing stays clean until a
        readiness change marks it dirty (decode, cancel, a producer's
        timing change) or its ``next_eligible`` note comes due; until
        then a re-scan would select nothing and leave the same note.
        When every station is clean, the whole phase waits for the
        minimum note.
        """
        if not self.params.speculative_dispatch:
            return self._dispatch_unmemoised(cycle)
        if self._disp_clean and (self._disp_ne is None or cycle < self._disp_ne):
            return False
        activity = False
        all_clean = True
        global_ne = None
        for station in self._all_stations:
            if not station.dirty:
                ne = station.next_eligible
                if ne is None or cycle < ne:
                    if ne is not None and (global_ne is None or ne < global_ne):
                        global_ne = ne
                    continue
            if station.dispatch_width > 2:
                selected = station.select(cycle, self._exec_offset, True)
                all_clean = False  # wide stations are never memoised
            else:
                selected = self._select_narrow(station, cycle)
                if not selected:
                    station.dirty = False
                    ne = station.next_eligible
                    if ne is not None and (global_ne is None or ne < global_ne):
                        global_ne = ne
                    continue
                # A dispatch mutates the station, and a serialize-blocked
                # pick must retry next cycle: it stays dirty.
                station.dirty = True
                all_clean = False
            for slot, uop in enumerate(selected):
                if (
                    uop.op == OpClass.SPECIAL
                    and self.params.special_serialize
                    and not self._is_oldest(uop)
                ):
                    continue
                self._do_dispatch(uop, cycle, station, slot)
                activity = True
        self._disp_clean = all_clean
        if all_clean:
            self._disp_ne = global_ne
        return activity

    def _select_narrow(self, station: ReservationStation, cycle: int) -> tuple:
        """``station.select`` for dispatch width <= 2, in a single scan.

        The per-slot picks of ``select`` are the k oldest eligible
        entries, k counting the non-busy unit slots, and the wake notes
        of its per-slot rescans equal one scan's (a selected entry never
        contributes a note).  Readiness comes from the ``ready_lb`` cache.
        """
        free_slots = 0
        ne = None
        for busy in station.unit_busy:
            if busy > cycle:
                if ne is None or busy < ne:
                    ne = busy
            else:
                free_slots += 1
        best1 = best2 = None
        if free_slots:
            for uop in station.entries:
                if uop.state is not _WAITING:
                    continue
                earliest = uop.earliest_dispatch
                if earliest > cycle:
                    if ne is None or earliest < ne:
                        ne = earliest
                    continue
                ready_at = uop.ready_lb
                if ready_at > cycle:
                    if ready_at < FAR_FUTURE and (ne is None or ready_at < ne):
                        ne = ready_at
                    continue
                if best1 is None or uop.seq < best1.seq:
                    best2 = best1
                    best1 = uop
                elif best2 is None or uop.seq < best2.seq:
                    best2 = uop
        station.next_eligible = ne
        if best1 is None:
            return ()
        if free_slots > 1 and best2 is not None:
            return (best1, best2)
        return (best1,)

    def _dispatch_unmemoised(self, cycle: int) -> bool:
        """Dispatch without speculation: plain per-station selection."""
        activity = False
        for station in self._all_stations:
            selected = station.select(cycle, self._exec_offset, False)
            for slot, uop in enumerate(selected):
                if (
                    uop.op == OpClass.SPECIAL
                    and self.params.special_serialize
                    and not self._is_oldest(uop)
                ):
                    continue
                self._do_dispatch(uop, cycle, station, slot)
                activity = True
        return activity

    def _is_oldest(self, uop: Uop) -> bool:
        return (
            self._window_head < len(self.window)
            and self.window[self._window_head] is uop
        )

    def _do_dispatch(
        self, uop: Uop, cycle: int, station: ReservationStation, slot: int
    ) -> None:
        uop.state = _INFLIGHT
        uop.dispatch_cycle = cycle
        station.dispatches += 1
        self.stats.dispatches += 1
        if self.tracer is not None:
            self.tracer.emit(cycle, "dispatch", uop.seq, station.name)
        exec_start = cycle + self._exec_offset

        # Register on unconfirmed producers for cancel/confirm tracking.
        unconfirmed = 0
        for producer in uop.producers:
            if producer.state is _INFLIGHT and not producer.confirmed:
                producer.waiters.append((uop, uop.epoch))
                unconfirmed += 1
        uop.unconfirmed = unconfirmed
        uop.speculative = unconfirmed > 0

        if uop.is_load:
            addr_ready = exec_start + 1  # EAG latency
            predicted = addr_ready + self._l1d_hit
            uop.result_ready = predicted  # speculative prediction (§3.1)
            uop.confirmed = False
            if uop.consumers:
                self._ripple_ready(uop)
            self.lsu.address_generated(uop, addr_ready, predicted)
            if unconfirmed == 0:
                station.free(uop)
            self._wake(addr_ready)
            return
        if uop.is_store:
            addr_ready = exec_start + 1
            self.lsu.address_generated(uop, addr_ready, 0)
            uop.done_cycle = addr_ready
            uop.confirmed = unconfirmed == 0
            if uop.confirmed:
                station.free(uop)
            self._schedule_done(uop, addr_ready)
            return

        op = uop.op
        done = exec_start + self._latency[op]
        result_ready = done
        if not self.params.data_forwarding:
            result_ready += self.params.no_forwarding_penalty
        uop.result_ready = result_ready
        uop.done_cycle = done
        if uop.consumers:
            self._ripple_ready(uop)
        uop.confirmed = unconfirmed == 0
        if uop.confirmed:
            station.free(uop)
        if op == OpClass.INT_DIV or op == OpClass.FP_DIV:
            station.unit_busy[slot % station.dispatch_width] = done
        self._schedule_done(uop, done)

    # ------------------------------------------------------------------
    # Phase 5: decode.
    # ------------------------------------------------------------------

    def _decode(self, cycle: int) -> bool:
        """Decode up to ``issue_width`` delivered instructions into the window.

        Fetch delivers groups as runs of consecutive trace records (see
        :class:`~repro.frontend.fetch.FetchUnit`), so the next record is
        ``records[self._seq]``; a µop slot comes from the recycle pool
        when one is free.
        """
        fetch = self.fetch
        runs = fetch._runs
        if not runs or runs[0][0] > cycle:
            return False
        _, run_end, run_mispredicted = runs[0]
        records = fetch._records
        params = self.params
        window = self.window
        rename = self.rename
        lsu = self.lsu
        stalls = self._decode_stalls
        tracer = self.tracer
        seq = self._seq
        decoded = 0
        while decoded < params.issue_width:
            if len(window) - self._window_head >= params.window_size:
                stalls[cat.DECODE_WINDOW] += 1
                break
            record = records[seq]
            kind = _DEST_KIND[record.dest]
            if kind == "int" and rename.int_in_use >= params.int_rename:
                stalls[cat.DECODE_RENAME_INT] += 1
                break
            if kind == "fp" and rename.fp_in_use >= params.fp_rename:
                stalls[cat.DECODE_RENAME_FP] += 1
                break
            op = record.op
            station = self._station_source[op].station_for_insert()
            if station is None:
                stalls[cat.DECODE_RS] += 1
                break
            if op == OpClass.LOAD and not lsu.can_allocate_load():
                stalls[cat.DECODE_LQ] += 1
                break
            if op == OpClass.STORE and not lsu.can_allocate_store():
                stalls[cat.DECODE_SQ] += 1
                break

            if self._pool:
                uop = self._pool.pop()  # epoch already bumped at recycle
                uop.reset(seq, record, cycle)
            else:
                uop = Uop(seq, record, cycle)
            uop.mispredicted = run_mispredicted and seq + 1 == run_end

            # Producer edges.  For stores the final source is the data
            # operand, which gates the queue write, not the address
            # generation.
            srcs = record.srcs
            data_producer: Optional[Uop] = None
            if uop.is_store and srcs:
                data_producer = rename.producer_of(srcs[-1])
                srcs = srcs[:-1]
            if srcs:
                producers: List[Uop] = []
                for src in srcs:
                    producer = rename.producer_of(src)
                    if producer is not None and producer not in producers:
                        producers.append(producer)
                        producer.consumers.append(uop)
                uop.producers = tuple(producers)
                uop.ready_lb = self._ready_of(uop)

            rename.allocate(uop)
            station.insert(uop)
            station.dirty = True
            if uop.is_load or uop.is_store:
                lsu.allocate(uop, data_producer)
            window.append(uop)
            if tracer is not None:
                tracer.emit(cycle, "decode", seq, record.pc, op.name)
            seq += 1
            decoded += 1
            if seq == run_end:
                runs.popleft()
                if not runs or runs[0][0] > cycle:
                    break
                _, run_end, run_mispredicted = runs[0]
        if not decoded:
            return False
        fetch._buffered -= decoded
        self._seq = seq
        self._disp_clean = False
        return True
