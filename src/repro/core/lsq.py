"""Load/store queues and the operand-access port arbitration.

Models §3.2 "non-blocking dual operand access":

- every memory instruction allocates a load-queue (16) or store-queue
  (10) entry at decode, in order;
- addresses arrive from the EAG pipelines; up to two requests per cycle
  pass from the queues to the L1 operand cache;
- the L1 is organised as eight 4-byte banks: two same-cycle requests to
  the same bank conflict, and the lower-priority (younger) one aborts and
  retries in a later cycle;
- a request that misses stays in its queue entry until the line arrives
  (the entry is the miss's bookkeeping);
- stores write the cache after commit, draining the store queue;
- loads may forward from an older same-address store once its data is in
  the queue; loads conservatively wait for older stores with unresolved
  addresses (no memory-dependence speculation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.core.params import CoreParams
from repro.core.uop import FAR_FUTURE, Uop
from repro.memory.hierarchy import MemoryHierarchy


class _LoadEntry:
    __slots__ = ("uop", "addr_known_at", "issued", "predicted_ready")

    def __init__(self, uop: Uop) -> None:
        self.uop = uop
        self.addr_known_at = FAR_FUTURE
        self.issued = False
        self.predicted_ready = FAR_FUTURE


class _StoreEntry:
    __slots__ = ("uop", "addr_known_at", "data_producer", "committed_at", "write_done_at")

    def __init__(self, uop: Uop, data_producer: Optional[Uop]) -> None:
        self.uop = uop
        self.addr_known_at = FAR_FUTURE
        self.data_producer = data_producer
        self.committed_at = -1
        self.write_done_at = -1

    def data_ready_cycle(self) -> int:
        if self.data_producer is None:
            return 0
        return self.data_producer.result_ready


@dataclass
class LoadResolution:
    """Outcome of one load reaching the L1 (reported to the engine)."""

    uop: Uop
    issue_cycle: int
    ready_cycle: int
    #: True when the data came at the speculatively predicted time.
    prediction_held: bool
    level: str  # "l1" / "l2" / "remote" / "mem" / "forward"


class LoadStoreUnit:
    """The S-unit face of the core: LQ, SQ, and L1D port arbitration."""

    def __init__(self, params: CoreParams, hierarchy: MemoryHierarchy) -> None:
        self.params = params
        self.hierarchy = hierarchy
        self._loads: List[_LoadEntry] = []
        self._stores: List[_StoreEntry] = []
        self._by_uop: Dict[int, object] = {}
        # Statistics.
        self.bank_conflicts = 0
        self.forwards = 0
        self.order_stalls = 0
        self.lq_full_stalls = 0
        self.sq_full_stalls = 0
        # Last-event breadcrumbs for the CPI-stack accountant: cycle and
        # uop seq of the most recent bank-conflict abort / ordering hold.
        self.last_conflict_cycle = -1
        self.last_conflict_seq = -1
        self.last_order_stall_cycle = -1
        self.last_order_stall_seq = -1
        # Cached earliest-pending-work cycle (see pending_work_cycle).
        # _pending_min is the raw minimum over entry milestones — a
        # cycle-independent quantity — recomputed lazily when stale.
        self._pending_min = FAR_FUTURE
        self._pending_dirty = False

    # ------------------------------------------------------------------
    # Allocation (decode time).
    # ------------------------------------------------------------------

    def can_allocate_load(self) -> bool:
        if len(self._loads) >= self.params.load_queue:
            self.lq_full_stalls += 1
            return False
        return True

    def can_allocate_store(self) -> bool:
        if len(self._stores) >= self.params.store_queue:
            self.sq_full_stalls += 1
            return False
        return True

    def allocate(self, uop: Uop, data_producer: Optional[Uop] = None) -> None:
        if uop.is_load:
            entry: object = _LoadEntry(uop)
            self._loads.append(entry)  # type: ignore[arg-type]
        elif uop.is_store:
            entry = _StoreEntry(uop, data_producer)
            self._stores.append(entry)  # type: ignore[arg-type]
        else:
            raise SimulationError("LSQ allocate for non-memory uop")
        self._by_uop[uop.seq] = entry

    # ------------------------------------------------------------------
    # Address generation / replay hooks (engine-driven).
    # ------------------------------------------------------------------

    def address_generated(self, uop: Uop, cycle: int, predicted_ready: int) -> None:
        """EAG produced the effective address at ``cycle``."""
        entry = self._by_uop.get(uop.seq)
        if entry is None:
            raise SimulationError(f"address for unknown LSQ entry #{uop.seq}")
        if isinstance(entry, _LoadEntry):
            entry.addr_known_at = cycle
            entry.issued = False
            entry.predicted_ready = predicted_ready
            # The load became issuable at ``cycle``: fold it into the
            # cached minimum (exact even while other milestones hold).
            if cycle < self._pending_min:
                self._pending_min = cycle
        else:
            entry.addr_known_at = cycle  # type: ignore[union-attr]

    def load_cancelled(self, uop: Uop) -> None:
        """A load was cancelled before issue (its address was speculative)."""
        entry = self._by_uop.get(uop.seq)
        if isinstance(entry, _LoadEntry):
            entry.addr_known_at = FAR_FUTURE
            entry.issued = False
            self._pending_dirty = True  # a candidate disappeared

    def store_committed(self, uop: Uop, cycle: int) -> None:
        entry = self._by_uop.get(uop.seq)
        if not isinstance(entry, _StoreEntry):
            raise SimulationError(f"commit of unknown store #{uop.seq}")
        entry.committed_at = cycle
        if entry.addr_known_at < self._pending_min:
            self._pending_min = entry.addr_known_at

    def release(self, uop: Uop) -> None:
        """Free a load entry at commit (stores free after their write)."""
        entry = self._by_uop.pop(uop.seq, None)
        if isinstance(entry, _LoadEntry):
            self._loads.remove(entry)
            self._pending_dirty = True
        elif isinstance(entry, _StoreEntry):
            self._stores.remove(entry)
            self._pending_dirty = True

    # ------------------------------------------------------------------
    # Per-cycle operation.
    # ------------------------------------------------------------------

    def step(self, cycle: int) -> Tuple[List[LoadResolution], bool]:
        """Issue up to ``l1d_ports`` requests; returns (resolutions, activity).

        Committed stores drain and ready loads issue oldest first.  Both
        queues are seq-sorted by construction (allocation happens in
        decode order), so the oldest-first order is a two-pointer merge.
        Each candidate test reads only the entry's own fields, which
        processing an older candidate never changes, so the merge
        evaluates them lazily and stops when the ports run out.
        """
        resolutions: List[LoadResolution] = []
        activity = False
        ports_left = self.params.l1d_ports
        banks_used: Dict[int, bool] = {}
        banked = self.hierarchy.l1d.geometry.banks > 1
        loads = self._loads
        stores = self._stores
        li = si = 0
        load = store = None
        while ports_left > 0:
            while load is None and li < len(loads):
                candidate = loads[li]
                li += 1
                if (
                    not candidate.issued
                    and candidate.addr_known_at <= cycle
                    and candidate.uop.state.value < 2  # not DONE/COMMITTED
                ):
                    load = candidate
            while store is None and si < len(stores):
                candidate = stores[si]
                si += 1
                if (
                    candidate.committed_at >= 0
                    and candidate.write_done_at < 0
                    and candidate.addr_known_at <= cycle
                ):
                    store = candidate
            if load is not None and (store is None or load.uop.seq < store.uop.seq):
                entry, load = load, None
                outcome = self._try_issue_load(entry, cycle, banks_used, banked)
                if outcome == "conflict":
                    self.bank_conflicts += 1
                    self.last_conflict_cycle = cycle
                    self.last_conflict_seq = entry.uop.seq
                    continue
                if outcome == "blocked":
                    continue
                ports_left -= 1
                activity = True
                resolutions.append(outcome)  # type: ignore[arg-type]
            elif store is not None:
                entry, store = store, None
                bank = self.hierarchy.bank_of(entry.uop.record.ea)
                if banked and banks_used.get(bank):
                    self.bank_conflicts += 1
                    continue
                banks_used[bank] = True
                result = self.hierarchy.store(cycle, entry.uop.record.ea)
                entry.write_done_at = result.ready_cycle
                ports_left -= 1
                activity = True
            else:
                break

        # Lazily reap written-back stores.
        finished = [store for store in stores if 0 <= store.write_done_at <= cycle]
        for store in finished:
            stores.remove(store)
            self._by_uop.pop(store.uop.seq, None)
            activity = True

        if activity:
            # Issues, writes and reaps all consume or move milestones.
            self._pending_dirty = True
        return resolutions, activity

    def _try_issue_load(
        self, entry: _LoadEntry, cycle: int, banks_used: Dict[int, bool], banked: bool = True
    ):
        uop = entry.uop
        ea = uop.record.ea
        aligned = ea & ~0x7

        # Memory-order check against older stores.  The store queue is
        # allocated in decode order, so the first younger entry ends the
        # scan.
        blocking_store: Optional[_StoreEntry] = None
        forward_from: Optional[_StoreEntry] = None
        for store in self._stores:
            if store.uop.seq > uop.seq:
                break
            if store.addr_known_at > cycle:
                blocking_store = store
                break
            if store.uop.record.ea & ~0x7 == aligned:
                forward_from = store  # youngest older matching store wins
        if blocking_store is not None:
            self.order_stalls += 1
            self.last_order_stall_cycle = cycle
            self.last_order_stall_seq = uop.seq
            return "blocked"

        if forward_from is not None:
            data_ready = forward_from.data_ready_cycle()
            if data_ready >= FAR_FUTURE or data_ready > cycle:
                self.order_stalls += 1
                self.last_order_stall_cycle = cycle
                self.last_order_stall_seq = uop.seq
                return "blocked"
            entry.issued = True
            self.forwards += 1
            ready = cycle + 1
            return LoadResolution(
                uop=uop,
                issue_cycle=cycle,
                ready_cycle=ready,
                prediction_held=ready <= entry.predicted_ready,
                level="forward",
            )

        bank = self.hierarchy.bank_of(ea)
        if banked and banks_used.get(bank):
            return "conflict"
        banks_used[bank] = True
        result = self.hierarchy.load(cycle, ea)
        entry.issued = True
        return LoadResolution(
            uop=uop,
            issue_cycle=cycle,
            ready_cycle=result.ready_cycle,
            prediction_held=result.ready_cycle <= entry.predicted_ready,
            level=result.level,
        )

    # ------------------------------------------------------------------

    def _refresh_pending(self) -> int:
        """Recompute the raw pending-work minimum (cycle-independent)."""
        best = FAR_FUTURE
        for load in self._loads:
            if not load.issued and load.addr_known_at < best:
                best = load.addr_known_at
        for store in self._stores:
            if store.write_done_at >= 0:
                if store.write_done_at < best:
                    best = store.write_done_at
            elif store.committed_at >= 0 and store.addr_known_at < best:
                best = store.addr_known_at
        self._pending_min = best
        self._pending_dirty = False
        return best

    def pending_work_cycle(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which the LSU has something to do.

        The per-entry minimum is cached and invalidated on queue
        mutations, so idle-span jumps don't re-walk both queues on every
        call; ``max(min, cycle + 1)`` reproduces the eager per-entry
        clamping exactly.
        """
        best = self._refresh_pending() if self._pending_dirty else self._pending_min
        if best >= FAR_FUTURE:
            return None
        return max(best, cycle + 1)

    def has_work(self, cycle: int) -> bool:
        """True when :meth:`step` would find at least one candidate."""
        best = self._refresh_pending() if self._pending_dirty else self._pending_min
        return best <= cycle

    def occupancy(self) -> Tuple[int, int]:
        return len(self._loads), len(self._stores)
