"""Per-lane worker pools shared by the runner and the campaign service.

A lane is one single-worker :class:`~concurrent.futures.ProcessPoolExecutor`,
created on first use and kept across submissions so the worker's
workload and trace memos stay warm.  Giving every lane its own process
means a worker that crashes breaks only its own lane's pool, and a hung
worker can be killed without touching runs on other lanes.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Callable, Dict, Optional


class LanePools:
    """Lane index -> single-worker process pool, built lazily."""

    def __init__(self) -> None:
        self._executors: Dict[int, ProcessPoolExecutor] = {}

    def submit(self, lane: int, fn: Callable, *args) -> Future:
        executor = self._executors.get(lane)
        if executor is not None:
            try:
                return executor.submit(fn, *args)
            except BrokenExecutor:
                # Its worker died while idle: replace the lane's pool.
                self.discard(lane)
        executor = self._executors[lane] = ProcessPoolExecutor(max_workers=1)
        return executor.submit(fn, *args)

    def discard(self, lane: Optional[int] = None) -> bool:
        """Drop one lane's pool, or every pool; True if any existed."""
        lanes = list(self._executors) if lane is None else [lane]
        discarded = False
        for index in lanes:
            executor = self._executors.pop(index, None)
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
                discarded = True
        return discarded

    def kill(self, lane: int) -> None:
        """Hard-kill a lane's worker, then drop its pool.

        ``shutdown`` alone cannot reclaim a *hung* worker (it only stops
        feeding new work), so the process is killed first and the lane's
        next submission builds a fresh pool.
        """
        executor = self._executors.get(lane)
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # noqa: BLE001 - already-dead workers
                pass
        self.discard(lane)
