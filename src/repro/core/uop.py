"""In-flight instruction state.

A :class:`Uop` is one dynamic instruction from decode to commit.  It
carries its producers (register-dependence edges to older in-flight
uops), its timing milestones, and the speculative-dispatch bookkeeping:
waiters registered on unresolved producers, and a cancellation epoch that
invalidates stale completion events after a replay (§3.1's "all
instructions that have read-after-write dependency must be cancelled at
every stage of the execution pipelines").
"""

from __future__ import annotations

from enum import IntEnum
from typing import List, Optional, Tuple

from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord

#: Sentinel "unknown/far future" cycle.
FAR_FUTURE = 1 << 60


class UopState(IntEnum):
    """Lifecycle of an in-flight instruction."""

    WAITING = 0  # in a reservation station, not yet dispatched
    INFLIGHT = 1  # dispatched; moving through an execution pipeline
    DONE = 2  # result produced (or branch resolved / store address ready)
    COMMITTED = 3


class Uop:
    """One dynamic instruction in flight."""

    __slots__ = (
        "seq",
        "record",
        "op",
        "state",
        "dest_kind",
        "producers",
        "consumers",
        "waiters",
        "unconfirmed",
        "station",
        "holds_rs_entry",
        "dispatch_cycle",
        "earliest_dispatch",
        "result_ready",
        "ready_lb",
        "done_cycle",
        "epoch",
        "replays",
        "speculative",
        "confirmed",
        "lsq_index",
        "mispredicted",
        "decode_cycle",
        "is_load",
        "is_store",
        "is_branch",
        "commit_cycle",
        "mem_level",
    )

    def __init__(self, seq: int, record: TraceRecord, decode_cycle: int) -> None:
        #: Bumped on every cancellation; stale events carry old epochs.
        self.epoch = 0
        self.reset(seq, record, decode_cycle)

    def reset(self, seq: int, record: TraceRecord, decode_cycle: int) -> None:
        """(Re)initialise as a freshly decoded instruction.

        The core recycles committed µop objects through this.  The
        ``epoch`` is deliberately kept: it only ever increases, so events
        and waiter registrations of an earlier incarnation stay stale.
        """
        op = record.op
        self.seq = seq
        self.record = record
        self.op = op
        self.state = UopState.WAITING
        #: "int" / "fp" / "cc" / None — which rename pool the dest uses.
        self.dest_kind: Optional[str] = None
        #: Producer uops for each source still in flight at decode.
        self.producers: Tuple["Uop", ...] = ()
        #: Younger uops that list this one among their producers.
        self.consumers: List["Uop"] = []
        #: (uop, epoch) of younger uops that dispatched against this
        #: uop's predicted result.
        self.waiters: List[Tuple["Uop", int]] = []
        #: Count of this uop's producers that are still unconfirmed.
        self.unconfirmed = 0
        #: Reservation station this uop was allocated into.
        self.station = None
        self.holds_rs_entry = False
        self.dispatch_cycle = -1
        #: Dispatch not useful before this cycle (set on replay).
        self.earliest_dispatch = 0
        #: Cycle the result is available to dependents (FAR_FUTURE until known).
        self.result_ready = FAR_FUTURE
        #: Earliest cycle at which the producers are speculatively ready,
        #: as of their current timing (maintained by the core).
        self.ready_lb = 0
        #: Cycle execution finishes and the uop can commit.
        self.done_cycle = FAR_FUTURE
        self.replays = 0
        #: True when dispatched against an unconfirmed producer.
        self.speculative = False
        #: True once this uop's completion timing can no longer change.
        self.confirmed = False
        self.lsq_index = -1
        self.mispredicted = False
        self.decode_cycle = decode_cycle
        self.is_load = op == OpClass.LOAD
        self.is_store = op == OpClass.STORE
        self.is_branch = record.is_branch
        self.commit_cycle = -1
        #: Memory level that serviced this load ("l1"/"l2"/"remote"/"mem"/
        #: "forward"), once its resolution is known; None before (and
        #: again after a cancellation).  Read by the CPI-stack accountant.
        self.mem_level: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<uop #{self.seq} {self.record.op.name} state={self.state.name} "
            f"ready={'?' if self.result_ready >= FAR_FUTURE else self.result_ready}>"
        )
