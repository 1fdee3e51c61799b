"""Set-associative cache with true LRU and coherence states.

This is the tag-array model shared by every cache level (L1I, L1D, L2).
It tracks hit/miss outcomes and line states; the *timing* of misses is
handled by the enclosing level in :mod:`repro.memory.hierarchy`, which
owns the MSHRs and the path to the next level.

States follow a MOESI-style protocol so the same model serves both the
uniprocessor runs and the SMP coherence domain (§3.3's "move-out"
requests are transfers of M/O lines between L2 caches).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.memory.params import CacheGeometry


class LineState(IntEnum):
    """MOESI coherence state of a cache line."""

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2
    OWNED = 3
    MODIFIED = 4

    @property
    def is_dirty(self) -> bool:
        return self in (LineState.MODIFIED, LineState.OWNED)

    @property
    def is_valid(self) -> bool:
        return self != LineState.INVALID


@dataclass
class CacheStats:
    """Hit/miss counters for one cache, split by request origin."""

    demand_accesses: int = 0
    demand_misses: int = 0
    prefetch_accesses: int = 0
    prefetch_misses: int = 0
    writebacks: int = 0
    invalidations_received: int = 0
    #: Demand misses that hit a line brought in by a prefetch.
    prefetch_useful: int = 0

    @property
    def demand_miss_ratio(self) -> float:
        """Demand miss ratio (the paper's per-cache miss figures)."""
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_misses / self.demand_accesses

    @property
    def total_miss_ratio(self) -> float:
        """Miss ratio over all requests including prefetches (Fig. 17 'with')."""
        total = self.demand_accesses + self.prefetch_accesses
        if total == 0:
            return 0.0
        return (self.demand_misses + self.prefetch_misses) / total

    def as_dict(self) -> Dict[str, float]:
        return {
            "demand_accesses": self.demand_accesses,
            "demand_misses": self.demand_misses,
            "demand_miss_ratio": round(self.demand_miss_ratio, 6),
            "prefetch_accesses": self.prefetch_accesses,
            "prefetch_misses": self.prefetch_misses,
            "total_miss_ratio": round(self.total_miss_ratio, 6),
            "writebacks": self.writebacks,
            "invalidations_received": self.invalidations_received,
            "prefetch_useful": self.prefetch_useful,
        }


class _Line:
    __slots__ = ("tag", "state", "lru", "from_prefetch")

    def __init__(self) -> None:
        self.tag = -1
        self.state = LineState.INVALID
        self.lru = 0
        self.from_prefetch = False


@dataclass
class EvictedLine:
    """Description of a line displaced by a fill."""

    line_addr: int
    state: LineState

    @property
    def dirty(self) -> bool:
        return self.state.is_dirty


class SetAssociativeCache:
    """Tag array with per-set true LRU replacement."""

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._sets: List[List[_Line]] = [
            [_Line() for _ in range(geometry.ways)] for _ in range(geometry.sets)
        ]
        self._set_mask = geometry.sets - 1
        self._set_bits = geometry.sets.bit_length() - 1
        self._line_shift = geometry.line_bytes.bit_length() - 1
        self._lru_clock = 0
        self.stats = CacheStats()

    # -- address helpers -------------------------------------------------

    def line_addr(self, addr: int) -> int:
        """Line-aligned address containing ``addr``."""
        return addr >> self._line_shift << self._line_shift

    def _index_tag(self, addr: int) -> Tuple[int, int]:
        line = addr >> self._line_shift
        # XOR-fold the upper line bits into the index.  The simulator works
        # on virtual addresses; real systems scatter page placement through
        # virtual-to-physical translation, so naturally-aligned region
        # bases (all powers of two here) would otherwise pathologically
        # collide in set 0 of large caches.  The fold stands in for that
        # translation scramble.  The tag stays the full line number, so
        # correctness is unaffected.
        index = (line ^ (line >> self._set_bits)) & self._set_mask
        return index, line

    def bank_of(self, addr: int) -> int:
        """Bank index for the L1 operand cache's 8 × 4 B interleave."""
        return (addr // self.geometry.bank_bytes) % self.geometry.banks

    # -- lookups ----------------------------------------------------------

    def probe(self, addr: int) -> Optional[LineState]:
        """State of the line containing ``addr`` without updating LRU."""
        index, tag = self._index_tag(addr)
        for line in self._sets[index]:
            if line.tag == tag and line.state.is_valid:
                return line.state
        return None

    def lookup(self, addr: int, is_write: bool = False, prefetch: bool = False) -> bool:
        """Access the cache; returns True on hit.

        Updates LRU and statistics.  A write hit upgrades the line to
        MODIFIED (write-allocate copy-back, as in the SPARC64 V's L1).
        Upgrade traffic for writes hitting SHARED lines is handled by the
        coherence domain, not here.
        """
        index, tag = self._index_tag(addr)
        self._lru_clock += 1
        hit = False
        for line in self._sets[index]:
            if line.tag == tag and line.state.is_valid:
                line.lru = self._lru_clock
                if is_write:
                    line.state = LineState.MODIFIED
                if line.from_prefetch and not prefetch:
                    self.stats.prefetch_useful += 1
                    line.from_prefetch = False
                hit = True
                break
        if prefetch:
            self.stats.prefetch_accesses += 1
            if not hit:
                self.stats.prefetch_misses += 1
        else:
            self.stats.demand_accesses += 1
            if not hit:
                self.stats.demand_misses += 1
        return hit

    # -- fills and removals ----------------------------------------------

    def fill(
        self,
        addr: int,
        state: LineState = LineState.EXCLUSIVE,
        from_prefetch: bool = False,
    ) -> Optional[EvictedLine]:
        """Install the line containing ``addr``; returns any eviction.

        Filling a line that is already present just updates its state
        (e.g. a fetch racing a prefetch) and evicts nothing.
        """
        if state == LineState.INVALID:
            raise SimulationError("cannot fill a line to INVALID")
        index, tag = self._index_tag(addr)
        self._lru_clock += 1
        bucket = self._sets[index]
        victim: Optional[_Line] = None
        for line in bucket:
            if line.tag == tag and line.state.is_valid:
                line.state = state
                line.lru = self._lru_clock
                return None
            if not line.state.is_valid and victim is None:
                victim = line
        if victim is None:
            victim = min(bucket, key=lambda line: line.lru)
        evicted: Optional[EvictedLine] = None
        if victim.state.is_valid:
            evicted = EvictedLine(
                line_addr=victim.tag << self._line_shift, state=victim.state
            )
            if evicted.dirty:
                self.stats.writebacks += 1
        victim.tag = tag
        victim.state = state
        victim.lru = self._lru_clock
        victim.from_prefetch = from_prefetch
        return evicted

    def install_touched(self, spans: Sequence[Tuple[int, int]]) -> None:
        """Write the state a cold cache reaches after touching ``spans``.

        ``spans`` lists ``(first_line, count)`` pairs in touch order; each
        touches the consecutive line numbers ``first_line`` to
        ``first_line + count - 1``.  Every touch stands for a demand
        :meth:`lookup` followed, on a miss, by an EXCLUSIVE :meth:`fill`.
        The result is that loop's: the same lines with the same LRU stamps
        in every set, the same ``_lru_clock`` and the same statistics.
        Only which way a line occupies may differ, and nothing reads way
        order: stamps are unique and invalid ways are interchangeable.

        The cost is O(capacity + re-touched lines), not O(touches):

        * A re-touch hits iff fewer than ``ways`` other lines of its set
          were touched since its previous touch (true LRU).  Only lines a
          later span touches again need that test, and each is counted in
          O(segments) from a map of last touches kept as disjoint line
          ranges (:meth:`_count_in_set`).
        * The survivors of a set are its ``ways`` most recently touched
          lines, so the map is walked newest first until every set is full.
        * A touch at position ``pos`` (from 0) advances the clock once,
          and once more on a miss, so a survivor's stamp is
          ``pos + 1 + misses(0..pos)`` above the starting clock.

        Raises :class:`SimulationError` if the cache holds a valid line.
        """
        if not self.is_cold():
            raise SimulationError(
                f"{self.geometry.name}: install_touched needs a cold cache"
            )
        ways = self.geometry.ways
        # Last-touch map: disjoint segments (lo, count, pos0) whose lines
        # lo + t were last touched at position pos0 + t, in position order.
        segments: List[Tuple[int, int, int]] = []
        # Positions of the touches that hit, ascending.
        hits: List[int] = []
        touches = 0
        for first, count in spans:
            if count <= 0:
                continue
            end = first + count
            # Split the map into this span's re-touches (index in the span,
            # how many, previous position of the first) and what it keeps.
            retouched = []
            kept = []
            for segment in segments:
                lo, n, pos0 = segment
                if lo + n <= first or lo >= end:
                    kept.append(segment)
                    continue
                low = max(lo, first)
                retouched.append((low - first, min(lo + n, end) - low, pos0 + low - lo))
                if lo < first:
                    kept.append((lo, first - lo, pos0))
                if lo + n > end:
                    kept.append((end, lo + n - end, pos0 + end - lo))
            for index, n, previous in sorted(retouched):
                for offset in range(n):
                    if self._still_resident(
                        segments, first, index + offset, previous + offset
                    ):
                        hits.append(touches + index + offset)
            kept.append((first, count, touches))
            segments = kept
            touches += count

        hit_count = len(hits)
        clock = self._lru_clock
        self._lru_clock = clock + 2 * touches - hit_count
        self.stats.demand_accesses += touches
        self.stats.demand_misses += touches - hit_count

        # Survivors, newest first.
        sets = self._sets
        set_bits = self._set_bits
        set_mask = self._set_mask
        exclusive = LineState.EXCLUSIVE
        filled = [0] * len(sets)
        room = len(sets) * ways
        for lo, n, pos0 in reversed(segments):
            for t in range(n - 1, -1, -1):
                line = lo + t
                index = (line ^ (line >> set_bits)) & set_mask
                way = filled[index]
                if way == ways:
                    continue
                position = pos0 + t
                slot = sets[index][way]
                slot.tag = line
                slot.state = exclusive
                slot.lru = clock + 2 * (position + 1) - bisect_right(hits, position)
                slot.from_prefetch = False
                filled[index] = way + 1
                room -= 1
                if not room:
                    return

    def _still_resident(
        self,
        segments: List[Tuple[int, int, int]],
        first: int,
        index: int,
        previous: int,
    ) -> bool:
        """Whether touch ``index`` of the span starting at ``first`` hits.

        ``segments`` is the last-touch map before the span, ``previous``
        the position of the line's previous touch.  The lines touched in
        between are the span's own head ``[first, line)`` plus every
        mapped line touched after ``previous`` that the head has not
        touched again.
        """
        ways = self.geometry.ways
        count_in_set = self._count_in_set
        line = first + index
        target = (line ^ (line >> self._set_bits)) & self._set_mask
        between = count_in_set(target, first, index)
        for lo, n, pos0 in reversed(segments):
            if pos0 + n - 1 <= previous:
                break
            # Lines [start, stop) were touched after ``previous``; those in
            # [first, line] are the head's.
            start = lo + max(0, previous - pos0 + 1)
            stop = lo + n
            after = max(start, line + 1)
            between += count_in_set(target, start, min(stop, first) - start)
            between += count_in_set(target, after, stop - after)
            if between >= ways:
                return False
        return between < ways

    def _count_in_set(self, target: int, first: int, count: int) -> int:
        """How many of the ``count`` lines from ``first`` index set ``target``.

        O(1) from the XOR fold in :meth:`_index_tag`: block ``u`` of
        ``2**set_bits`` consecutive lines holds exactly one line of each
        set, at offset ``target ^ (u & set_mask)``.
        """
        if count <= 0:
            return 0
        bits = self._set_bits
        last = first + count - 1
        first_block = first >> bits
        last_block = last >> bits
        # One line in every block strictly between the end blocks.
        total = max(0, last_block - first_block - 1)
        for block in {first_block, last_block}:
            candidate = (block << bits) | (target ^ (block & self._set_mask))
            if first <= candidate <= last:
                total += 1
        return total

    def downgrade(self, addr: int, state: LineState) -> Optional[LineState]:
        """Change the line's state (snoop response); returns prior state."""
        index, tag = self._index_tag(addr)
        for line in self._sets[index]:
            if line.tag == tag and line.state.is_valid:
                previous = line.state
                line.state = state
                if state == LineState.INVALID:
                    self.stats.invalidations_received += 1
                return previous
        return None

    def invalidate(self, addr: int) -> Optional[LineState]:
        """Invalidate the line containing ``addr``; returns prior state."""
        return self.downgrade(addr, LineState.INVALID)

    # -- introspection ----------------------------------------------------

    def valid_line_count(self) -> int:
        """Number of valid lines currently resident."""
        return sum(
            1 for bucket in self._sets for line in bucket if line.state.is_valid
        )

    def is_cold(self) -> bool:
        """True if no line is valid (INVALID is the only falsy state)."""
        return not any(line.state for bucket in self._sets for line in bucket)

    def resident(self, addr: int) -> bool:
        """True if the line containing ``addr`` is valid in the cache."""
        return self.probe(addr) is not None
