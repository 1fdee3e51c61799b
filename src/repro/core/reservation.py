"""Reservation stations.

The SPARC64 V has four station kinds (Table 1): RSE (2 × 8 for the
integer units), RSF (2 × 8 for the FP units), RSA (10, feeding two
address generators), and RSBR (10, feeding the branch unit).  §4.4.1
studies the RSE/RSF organisation: the production "2RS" shape ties each
buffer to a unique unit with one dispatch per buffer per cycle, versus a
"1RS" shape with one combined buffer dispatching up to two per cycle.

Dispatch selection is oldest-first among entries whose producers are
(speculatively) ready: with speculative dispatch (§3.1), a producer is
ready if its result *will be* available by the time this instruction
reaches its execution stage.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import SimulationError
from repro.core.uop import FAR_FUTURE, Uop, UopState

__all__ = ["ReservationStation", "StationGroup"]


class ReservationStation:
    """One buffer with a fixed dispatch width."""

    def __init__(self, name: str, capacity: int, dispatch_width: int) -> None:
        if capacity < 1 or dispatch_width < 1:
            raise SimulationError(f"{name}: bad station shape")
        self.name = name
        self.capacity = capacity
        self.dispatch_width = dispatch_width
        self.entries: List[Uop] = []
        #: Busy-until per attached unit slot (div-style unpipelined ops).
        self.unit_busy: List[int] = [0] * dispatch_width
        self.dispatches = 0
        self.full_stalls = 0
        #: Earliest future cycle an entry becomes dispatchable (scan hint
        #: for the engine's idle-cycle jump); None when unknown.
        self.next_eligible: Optional[int] = None
        #: False while the last selection scan found nothing and no
        #: entry's readiness has changed since (the core's dispatch memo).
        self.dirty = True

    def has_space(self) -> bool:
        if len(self.entries) >= self.capacity:
            self.full_stalls += 1
            return False
        return True

    def station_for_insert(self) -> Optional["ReservationStation"]:
        """This station if it has space, else None (cf. StationGroup)."""
        return self if self.has_space() else None

    def insert(self, uop: Uop) -> None:
        if len(self.entries) >= self.capacity:
            raise SimulationError(f"{self.name}: insert into full station")
        self.entries.append(uop)
        uop.station = self
        uop.holds_rs_entry = True

    def free(self, uop: Uop) -> None:
        """Release the entry (dispatch confirmed or commit)."""
        if uop.holds_rs_entry:
            self.entries.remove(uop)
            uop.holds_rs_entry = False

    def occupancy(self) -> int:
        return len(self.entries)

    def select(self, cycle: int, exec_offset: int, speculative: bool) -> List[Uop]:
        """Pick up to ``dispatch_width`` oldest dispatchable entries.

        ``exec_offset`` is the dispatch-to-execute distance: a producer is
        acceptable if its (predicted) result-ready cycle is no later than
        ``cycle + exec_offset``.  Without speculative dispatch the
        producer must already be DONE with its result available now.
        """
        selected: List[Uop] = []
        horizon = cycle + exec_offset
        self.next_eligible = None
        for slot in range(self.dispatch_width):
            if self.unit_busy[slot] > cycle:
                self._note_eligible(self.unit_busy[slot])
                continue
            best: Optional[Uop] = None
            for uop in self.entries:
                if uop.state != UopState.WAITING:
                    continue
                if uop in selected:
                    continue
                if uop.earliest_dispatch > cycle:
                    self._note_eligible(uop.earliest_dispatch)
                    continue
                ready_at = self._sources_ready_at(uop, speculative, exec_offset)
                if ready_at > cycle:
                    if ready_at < FAR_FUTURE:
                        self._note_eligible(ready_at)
                    continue
                if best is None or uop.seq < best.seq:
                    best = uop
            if best is not None:
                selected.append(best)
        return selected

    def _note_eligible(self, cycle: int) -> None:
        if self.next_eligible is None or cycle < self.next_eligible:
            self.next_eligible = cycle

    @staticmethod
    def _sources_ready_at(uop: Uop, speculative: bool, exec_offset: int) -> int:
        """Earliest dispatch cycle at which sources are (spec-)ready.

        Returns :data:`FAR_FUTURE` when unknown (a producer has not been
        dispatched, or speculation is off and a producer is in flight).
        """
        ready_at = 0
        for producer in uop.producers:
            state = producer.state
            if state == UopState.COMMITTED:
                continue
            if state == UopState.DONE:
                if speculative:
                    candidate = producer.result_ready - exec_offset
                else:
                    candidate = producer.result_ready
            elif state == UopState.INFLIGHT:
                if not speculative or producer.result_ready >= FAR_FUTURE:
                    return FAR_FUTURE
                candidate = producer.result_ready - exec_offset
            else:
                return FAR_FUTURE  # WAITING producer
            if candidate > ready_at:
                ready_at = candidate
        return ready_at


class StationGroup:
    """A set of buffers that share an instruction class (RSE or RSF)."""

    def __init__(self, name: str, stations: List[ReservationStation]) -> None:
        self.name = name
        self.stations = stations
        self._next_alloc = 0

    def station_for_insert(self) -> Optional[ReservationStation]:
        """Least-occupied buffer with space (ties to the earlier), or None."""
        best: Optional[ReservationStation] = None
        best_occupancy = 0
        for station in self.stations:
            occupancy = len(station.entries)
            if occupancy < station.capacity and (best is None or occupancy < best_occupancy):
                best = station
                best_occupancy = occupancy
        if best is None:
            for station in self.stations:
                station.full_stalls += 1
        return best

    def total_occupancy(self) -> int:
        return sum(station.occupancy() for station in self.stations)
