"""Host-speed ticks for calibrated times.

On a shared machine the speed the host gives one interpreter drifts by a
third over minutes, which swamps the differences a benchmark is for.  The
module times *ticks*: fixed pure-Python work of the model's kind (small
objects, dict and list traffic, a working set of a few MB).  The work
never changes and does not import the model, so a tick's time tracks only
the host's current speed.  An operation takes one tick just before and
one just after its timed part, and a calibrated time is

    raw seconds x TICK_NOMINAL_S / mean tick seconds,

that is, the time the operation would have taken on a host where a tick
takes ``TICK_NOMINAL_S``.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

#: Tick time on a quiet 2-vCPU Xeon under CPython 3.11.
TICK_NOMINAL_S = 0.08
#: Sized so a tick's working set (~5 MB) feels the contention for shared
#: caches that slows the model; a tick a tenth this size did not.
_TICK_ITERATIONS = 60_000


class _Cell:
    __slots__ = ("key", "value", "link")


def _reference_work() -> int:
    table: Dict[int, int] = {}
    cells: List[_Cell] = []
    x = 12345
    for _ in range(_TICK_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        cell = _Cell()
        cell.key = x & 0xFFFF
        cell.value = x >> 7
        cell.link = cells[-1] if cells else None
        cells.append(cell)
        table[cell.key] = table.get(cell.key, 0) + cell.value
    total = 0
    for cell in cells:
        total += table[cell.key] % 97
    cells.sort(key=lambda cell: cell.value)
    return total


def tick() -> float:
    """Seconds one pass of the reference work takes now.

    The collector is off during the pass, so the time does not depend on
    how many objects the caller holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _reference_work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
