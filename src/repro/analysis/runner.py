"""Experiment runners: serial (in-process) and parallel (multi-process).

Several figures share runs (e.g. the Table 1 base configuration on all
five workloads appears in Figures 8, 9, 11, 14, 16 and 18 as the
baseline), so both runners memoise results — keyed by a *content hash*
of the configuration plus the workload's cache key, never by display
name alone, so two configs that share a name but differ in any
parameter cannot alias.

:class:`ParallelRunner` extends the serial runner with

- **fan-out**: :meth:`~ParallelRunner.prefetch` runs a batch of
  independent (config, workload[, cpu_count]) simulations across worker
  processes (``jobs=N``) via :class:`concurrent.futures.ProcessPoolExecutor`;
- **persistence**: results are memoised to disk through
  :class:`~repro.analysis.cache.ResultCache`, so regenerating a figure a
  second time is near-instant;
- **observability**: per-run wall-clock, worker id, and hit/miss
  counters, with a ``verbose`` progress line per event;
- **graceful degradation**: a crashed worker or corrupt cache entry
  falls back to a fresh in-process run instead of aborting the sweep;
- **fault tolerance**: a :class:`~repro.analysis.policy.RunPolicy`
  adds per-run wall-clock timeouts with a watchdog that kills and
  respawns a hung worker pool, bounded retries with deterministic
  jittered backoff, and a configurable last-resort policy
  (``retry`` in-process / ``fail`` loudly / ``skip`` and record);
- **resume**: an optional
  :class:`~repro.analysis.campaign.CampaignManifest` records every
  completed (config, workload) key, so an interrupted campaign
  restarted with the same manifest reports exactly what remains.

Determinism: the simulation depends only on (config, trace) and every
trace is regenerated in the worker from an explicit seed
(:mod:`repro.common.rng`), so serial and parallel execution produce
bit-identical statistics regardless of worker scheduling — and
regardless of retries, because a retried run is the same pure function
re-evaluated.  Placement is fixed too: a batch is dealt into lanes, one
single-worker process pool each, by the batch alone (see
:func:`_deal_lanes`), so which worker generates and keeps which trace —
and so a batch's wall-clock and memory — never depends on which run
happened to finish first.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.cache import ResultCache
from repro.analysis.campaign import CampaignManifest
from repro.analysis.policy import RunPolicy
from repro.analysis.workloads import Workload
from repro.common import faults
from repro.common.errors import ExperimentError
from repro.model.config import MachineConfig
from repro.model.simulator import PerformanceModel
from repro.model.stats import SimResult, sim_result_from_dict
from repro.smp.system import SmpResult, run_smp

#: (config, workload) pair for a uniprocessor prefetch.
UpRequest = Tuple[MachineConfig, Workload]
#: (config, workload, cpu_count) triple for an SMP prefetch.
SmpRequest = Tuple[MachineConfig, Workload, int]


def _run_up(config: MachineConfig, workload: Workload) -> SimResult:
    """One uniprocessor simulation, in whichever process this runs.

    A workload carrying a :class:`~repro.trace.sampling.SamplingPlan`
    runs sampled (the plan's per-window warm-up replaces the trace-prefix
    warm-up fraction); otherwise it runs in full detail.
    """
    model = PerformanceModel(config)
    if workload.sampling is not None:
        return model.run_sampled(
            workload.trace(), workload.sampling, regions=workload.regions()
        )
    return model.run(
        workload.trace(),
        warmup_fraction=workload.warmup_fraction,
        regions=workload.regions(),
    )


def _run_smp(config: MachineConfig, workload: Workload, cpu_count: int) -> SmpResult:
    """One SMP simulation, in whichever process this runs."""
    traces, regions = workload.smp_traces(cpu_count)
    return run_smp(
        config,
        traces,
        warmup_fraction=workload.warmup_fraction,
        regions_per_cpu=regions,
    )


#: Per-worker workload memo: workers live across tasks (the runner keeps
#: its pool), so reusing the Workload object lets its generated trace be
#: shared by every config simulated on the same worker.
_worker_workloads: Dict[str, Workload] = {}
_WORKER_WORKLOAD_LIMIT = 8


def _memoised_workload(workload: Workload) -> Workload:
    key = workload.cache_key()
    cached = _worker_workloads.get(key)
    if cached is not None and type(cached) is type(workload):
        return cached
    if len(_worker_workloads) >= _WORKER_WORKLOAD_LIMIT:
        _worker_workloads.pop(next(iter(_worker_workloads)))
    _worker_workloads[key] = workload
    return workload


#: A run waiting in a lane: (kind "up"/"smp", pending item, attempt).
LaneEntry = Tuple[str, Tuple, int]


def _deal_lanes(
    pending: Sequence[Tuple[str, Tuple]], jobs: int
) -> List[Deque[LaneEntry]]:
    """Deal a batch of (kind, item) runs into at most ``jobs`` lanes.

    Runs of the same workload are made adjacent (workloads in first-seen
    order, runs in request order within each) and the list is cut into
    contiguous chunks whose sizes differ by at most one.  Each lane runs
    on its own worker, so a worker generates each trace of its chunk once
    and reuses it from the workload memo.  The deal depends only on the
    batch: a free worker never takes another lane's run, because which
    worker frees up first is a matter of timing.
    """
    first_seen: Dict[str, int] = {}
    for _, item in pending:
        first_seen.setdefault(item[2].cache_key(), len(first_seen))
    ranked = sorted(pending, key=lambda entry: first_seen[entry[1][2].cache_key()])
    count = min(jobs, len(ranked))
    lanes: List[Deque[LaneEntry]] = []
    start = 0
    for lane in range(count):
        size = len(ranked) // count + (lane < len(ranked) % count)
        chunk = ranked[start:start + size]
        lanes.append(deque((kind, item, 0) for kind, item in chunk))
        start += size
    return lanes


def _up_worker(
    config: MachineConfig, workload: Workload, attempt: int = 0
) -> Tuple[dict, int, float]:
    """Worker entry point: returns (result dict, worker pid, seconds)."""
    faults.worker_fault(f"{workload.name}@{config.name}", attempt)
    started = time.perf_counter()
    result = _run_up(config, _memoised_workload(workload))
    return result.to_dict(), os.getpid(), time.perf_counter() - started


def _smp_worker(
    config: MachineConfig, workload: Workload, cpu_count: int, attempt: int = 0
) -> Tuple[dict, int, float]:
    """Worker entry point for SMP runs."""
    faults.worker_fault(f"{workload.name}x{cpu_count}P@{config.name}", attempt)
    started = time.perf_counter()
    result = _run_smp(config, _memoised_workload(workload), cpu_count)
    return result.to_dict(), os.getpid(), time.perf_counter() - started


@dataclass
class RunnerStats:
    """Observability counters for one runner instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    runs_in_process: int = 0
    runs_in_workers: int = 0
    worker_fallbacks: int = 0
    #: Worker-side re-submissions after a failure or timeout.
    retries: int = 0
    #: Runs whose wall-clock watchdog expired.
    timeouts: int = 0
    #: Times the hung/broken worker pool was killed and respawned.
    pool_restarts: int = 0
    #: Labels abandoned under the ``skip`` failure policy.
    skipped: List[str] = field(default_factory=list)
    total_run_seconds: float = 0.0
    #: (label, seconds, worker pid or None) per executed simulation.
    timings: List[Tuple[str, float, Optional[int]]] = field(default_factory=list)

    def record_run(self, label: str, seconds: float, pid: Optional[int]) -> None:
        self.total_run_seconds += seconds
        self.timings.append((label, seconds, pid))
        if pid is None:
            self.runs_in_process += 1
        else:
            self.runs_in_workers += 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "runs_in_process": self.runs_in_process,
            "runs_in_workers": self.runs_in_workers,
            "worker_fallbacks": self.worker_fallbacks,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_restarts": self.pool_restarts,
            "skipped": list(self.skipped),
            "total_run_seconds": round(self.total_run_seconds, 3),
        }


class ExperimentRunner:
    """Runs (config, workload) pairs serially, caching results in memory."""

    def __init__(self, verbose: bool = False) -> None:
        self.verbose = verbose
        self.stats = RunnerStats()
        self._up_cache: Dict[Tuple[str, str], SimResult] = {}
        self._smp_cache: Dict[Tuple[str, str, int], SmpResult] = {}

    # -- keys ------------------------------------------------------------
    #
    # Keys are always recomputed from content: memoising the hash by
    # ``id(config)`` is tempting but wrong — CPython reuses addresses
    # after garbage collection, so a transient config can inherit a
    # freed object's hash and silently alias a different machine.

    def _up_key(self, config: MachineConfig, workload: Workload) -> Tuple[str, str]:
        return (config.content_hash(), workload.cache_key())

    def _smp_key(
        self, config: MachineConfig, workload: Workload, cpu_count: int
    ) -> Tuple[str, str, int]:
        return (config.content_hash(), workload.cache_key(), cpu_count)

    # -- logging ---------------------------------------------------------

    def _log(self, message: str) -> None:
        if self.verbose:
            print(message)

    # -- execution -------------------------------------------------------

    def run(self, config: MachineConfig, workload: Workload) -> SimResult:
        """Uniprocessor run of ``workload`` on ``config`` (cached)."""
        key = self._up_key(config, workload)
        result = self._up_cache.get(key)
        if result is None:
            result = self._fetch_up(key, config, workload)
            self._up_cache[key] = result
        else:
            self.stats.memory_hits += 1
        return result

    def run_smp(
        self, config: MachineConfig, workload: Workload, cpu_count: int
    ) -> SmpResult:
        """SMP run with per-CPU traces of ``workload`` (cached)."""
        key = self._smp_key(config, workload, cpu_count)
        result = self._smp_cache.get(key)
        if result is None:
            result = self._fetch_smp(key, config, workload, cpu_count)
            self._smp_cache[key] = result
        else:
            self.stats.memory_hits += 1
        return result

    def _fetch_up(
        self, key: Tuple[str, str], config: MachineConfig, workload: Workload
    ) -> SimResult:
        """Produce an uncached uniprocessor result (serial: just run)."""
        self.stats.misses += 1
        self._log(f"  running {workload.name} on {config.name} ...")
        started = time.perf_counter()
        result = _run_up(config, workload)
        self.stats.record_run(
            f"{workload.name}@{config.name}", time.perf_counter() - started, None
        )
        return result

    def _fetch_smp(
        self,
        key: Tuple[str, str, int],
        config: MachineConfig,
        workload: Workload,
        cpu_count: int,
    ) -> SmpResult:
        """Produce an uncached SMP result (serial: just run)."""
        self.stats.misses += 1
        self._log(f"  running {workload.name} x{cpu_count}P on {config.name} ...")
        started = time.perf_counter()
        result = _run_smp(config, workload, cpu_count)
        self.stats.record_run(
            f"{workload.name}x{cpu_count}P@{config.name}",
            time.perf_counter() - started,
            None,
        )
        return result

    def prefetch(
        self,
        up: Sequence[UpRequest] = (),
        smp: Sequence[SmpRequest] = (),
    ) -> None:
        """Hint that these runs are coming.  Serial runner: no-op (lazy)."""

    def try_run(
        self, config: MachineConfig, workload: Workload
    ) -> Optional[SimResult]:
        """Like :meth:`run`, but ``None`` for a run abandoned by policy.

        The serial runner never abandons a run, so this is plain
        :meth:`run`; sweeps call it so the same code renders partial
        tables when a parallel runner skipped points.
        """
        return self.run(config, workload)

    def try_run_smp(
        self, config: MachineConfig, workload: Workload, cpu_count: int
    ) -> Optional[SmpResult]:
        """SMP counterpart of :meth:`try_run`."""
        return self.run_smp(config, workload, cpu_count)

    def cached_results(self) -> Dict[Tuple[str, str], SimResult]:
        """All uniprocessor results produced so far."""
        return dict(self._up_cache)

    def metrics(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Flat registry metrics for every uniprocessor result so far.

        Keyed like :meth:`cached_results`; each value is the result's
        :func:`repro.observe.registry.collect` dictionary (scalars plus
        ``decode_stalls.*`` and ``cpistack.*``), ready for tabulation or
        export without touching per-result attribute paths.
        """
        from repro.observe.registry import collect

        return {key: collect(result) for key, result in self._up_cache.items()}


class ParallelRunner(ExperimentRunner):
    """Multi-process experiment runner with a persistent disk cache.

    ``jobs`` bounds the worker processes used by :meth:`prefetch`, one
    single-worker pool per lane (:func:`_deal_lanes`); individual
    :meth:`run`/:meth:`run_smp` calls always execute
    in-process (one simulation cannot be split), so figure and sweep
    code prefetches its whole (config × workload) matrix first and then
    reads results back through the ordinary serial interface.

    ``policy`` governs failure handling for worker runs (timeouts,
    retries, backoff; see :class:`~repro.analysis.policy.RunPolicy`);
    ``manifest`` records completed keys for resumable campaigns.
    """

    def __init__(
        self,
        jobs: int = 1,
        verbose: bool = False,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        policy: Optional[RunPolicy] = None,
        manifest: Optional[CampaignManifest] = None,
    ) -> None:
        super().__init__(verbose=verbose)
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if use_cache else None
        self.policy = policy or RunPolicy()
        self.manifest = manifest
        #: Keys abandoned under the ``skip`` failure policy.
        self._skipped: Set[Tuple[str, Tuple]] = set()
        #: Lane -> single-worker pool, created lazily and reused across
        #: prefetch batches; workers stay warm (their workload/trace memos
        #: survive between figures).
        self._executors: Dict[int, ProcessPoolExecutor] = {}

    def _pool(self, lane: int) -> ProcessPoolExecutor:
        executor = self._executors.get(lane)
        if executor is None:
            executor = self._executors[lane] = ProcessPoolExecutor(max_workers=1)
        return executor

    def _discard_pool(self, lane: Optional[int] = None) -> bool:
        """Drop one lane's pool, or every pool; True if any existed."""
        lanes = list(self._executors) if lane is None else [lane]
        discarded = False
        for index in lanes:
            executor = self._executors.pop(index, None)
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
                discarded = True
        return discarded

    def _kill_pool(self) -> None:
        """Watchdog action: hard-kill every worker, then drop the pools.

        ``shutdown`` alone cannot reclaim a *hung* worker — it only
        stops feeding new work — so the watchdog kills the processes
        first and lets the next submission build fresh pools.
        """
        if not self._executors:
            return
        for executor in self._executors.values():
            processes = getattr(executor, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.kill()
                except Exception:  # noqa: BLE001 - already-dead workers
                    pass
        self._discard_pool()
        self.stats.pool_restarts += 1

    def close(self) -> None:
        """Shut the worker pool down (also safe to never call)."""
        self._discard_pool()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self._discard_pool()
        except Exception:
            pass

    # -- disk cache ------------------------------------------------------

    def _disk_load_up(self, key: Tuple[str, str]) -> Optional[SimResult]:
        if self.cache is None:
            return None
        payload = self.cache.load(self.cache.key("up", *key))
        if payload is None:
            return None
        try:
            return sim_result_from_dict(payload)
        except (ValueError, TypeError, KeyError):
            # Payload from an incompatible writer: treat as a miss.
            return None

    def _disk_load_smp(self, key: Tuple[str, str, int]) -> Optional[SmpResult]:
        if self.cache is None:
            return None
        payload = self.cache.load(self.cache.key("smp", key[0], key[1], key[2]))
        if payload is None:
            return None
        try:
            return SmpResult.from_dict(payload)
        except (ValueError, TypeError, KeyError):
            return None

    def _disk_store_up(
        self, key: Tuple[str, str], result: SimResult, workload: Workload
    ) -> None:
        if self.cache is not None:
            self.cache.store(
                self.cache.key("up", *key),
                result.to_dict(),
                meta={"config": result.config_name, "workload": workload.name},
            )

    def _disk_store_smp(
        self, key: Tuple[str, str, int], result: SmpResult, workload: Workload
    ) -> None:
        if self.cache is not None:
            self.cache.store(
                self.cache.key("smp", key[0], key[1], key[2]),
                result.to_dict(),
                meta={
                    "config": result.config_name,
                    "workload": workload.name,
                    "cpus": key[2],
                },
            )

    # -- campaign bookkeeping --------------------------------------------

    def _mark_complete(self, kind: str, key: Tuple, label: str) -> None:
        if self.manifest is not None:
            self.manifest.mark(self.manifest.key(kind, *key), label)

    # -- skip policy -----------------------------------------------------

    def _is_skipped(self, kind: str, key: Tuple) -> bool:
        return (kind, key) in self._skipped

    def run(self, config: MachineConfig, workload: Workload) -> SimResult:
        key = self._up_key(config, workload)
        if self._is_skipped("up", key):
            raise ExperimentError(
                f"{workload.name}@{config.name} was abandoned after repeated "
                f"failures (policy on_failure=skip); use try_run() to render "
                f"partial results"
            )
        return super().run(config, workload)

    def run_smp(
        self, config: MachineConfig, workload: Workload, cpu_count: int
    ) -> SmpResult:
        key = self._smp_key(config, workload, cpu_count)
        if self._is_skipped("smp", key):
            raise ExperimentError(
                f"{workload.name}x{cpu_count}P@{config.name} was abandoned "
                f"after repeated failures (policy on_failure=skip); use "
                f"try_run_smp() to render partial results"
            )
        return super().run_smp(config, workload, cpu_count)

    def try_run(
        self, config: MachineConfig, workload: Workload
    ) -> Optional[SimResult]:
        if self._is_skipped("up", self._up_key(config, workload)):
            return None
        return super().run(config, workload)

    def try_run_smp(
        self, config: MachineConfig, workload: Workload, cpu_count: int
    ) -> Optional[SmpResult]:
        if self._is_skipped("smp", self._smp_key(config, workload, cpu_count)):
            return None
        return super().run_smp(config, workload, cpu_count)

    # -- serial-path overrides (memo miss) -------------------------------

    def _fetch_up(
        self, key: Tuple[str, str], config: MachineConfig, workload: Workload
    ) -> SimResult:
        cached = self._disk_load_up(key)
        if cached is not None:
            self.stats.disk_hits += 1
            self._log(f"  [cache] {workload.name} on {config.name}")
            self._mark_complete("up", key, f"{workload.name}@{config.name}")
            return cached
        result = super()._fetch_up(key, config, workload)
        self._disk_store_up(key, result, workload)
        self._mark_complete("up", key, f"{workload.name}@{config.name}")
        return result

    def _fetch_smp(
        self,
        key: Tuple[str, str, int],
        config: MachineConfig,
        workload: Workload,
        cpu_count: int,
    ) -> SmpResult:
        cached = self._disk_load_smp(key)
        if cached is not None:
            self.stats.disk_hits += 1
            self._log(f"  [cache] {workload.name} x{cpu_count}P on {config.name}")
            self._mark_complete(
                "smp", key, f"{workload.name}x{cpu_count}P@{config.name}"
            )
            return cached
        result = super()._fetch_smp(key, config, workload, cpu_count)
        self._disk_store_smp(key, result, workload)
        self._mark_complete("smp", key, f"{workload.name}x{cpu_count}P@{config.name}")
        return result

    # -- parallel fan-out ------------------------------------------------

    def prefetch(
        self,
        up: Sequence[UpRequest] = (),
        smp: Sequence[SmpRequest] = (),
    ) -> None:
        """Execute a batch of runs across workers, filling the caches.

        Requests already satisfied by the in-memory memo or the disk
        cache are skipped; the rest fan out over ``jobs`` processes.
        Worker failures and timeouts are retried with backoff up to the
        policy's budget, then handled per ``policy.on_failure``; a
        single crash or hang never loses the whole batch.
        """
        pending_up: List[Tuple[Tuple[str, str], MachineConfig, Workload]] = []
        seen_keys = set()
        for config, workload in up:
            key = self._up_key(config, workload)
            if key in seen_keys or key in self._up_cache:
                continue
            if self._is_skipped("up", key):
                continue
            cached = self._disk_load_up(key)
            if cached is not None:
                self.stats.disk_hits += 1
                self._up_cache[key] = cached
                self._mark_complete("up", key, f"{workload.name}@{config.name}")
                continue
            seen_keys.add(key)
            pending_up.append((key, config, workload))

        pending_smp: List[
            Tuple[Tuple[str, str, int], MachineConfig, Workload, int]
        ] = []
        for config, workload, cpu_count in smp:
            key = self._smp_key(config, workload, cpu_count)
            if key in seen_keys or key in self._smp_cache:
                continue
            if self._is_skipped("smp", key):
                continue
            cached = self._disk_load_smp(key)
            if cached is not None:
                self.stats.disk_hits += 1
                self._smp_cache[key] = cached
                self._mark_complete(
                    "smp", key, f"{workload.name}x{cpu_count}P@{config.name}"
                )
                continue
            seen_keys.add(key)
            pending_smp.append((key, config, workload, cpu_count))

        total = len(pending_up) + len(pending_smp)
        if total == 0:
            return
        self.stats.misses += total

        if self.jobs == 1 and total == 1:
            # Nothing to overlap; skip the pool entirely.
            self._run_pending_inline(pending_up, pending_smp)
            return
        self._run_pending_pool(pending_up, pending_smp)

    def _run_pending_inline(self, pending_up, pending_smp) -> None:
        for key, config, workload in pending_up:
            self._log(f"  running {workload.name} on {config.name} ...")
            started = time.perf_counter()
            result = _run_up(config, workload)
            self.stats.record_run(
                f"{workload.name}@{config.name}",
                time.perf_counter() - started,
                None,
            )
            self._up_cache[key] = result
            self._disk_store_up(key, result, workload)
            self._mark_complete("up", key, f"{workload.name}@{config.name}")
        for key, config, workload, cpu_count in pending_smp:
            self._log(f"  running {workload.name} x{cpu_count}P on {config.name} ...")
            started = time.perf_counter()
            result = _run_smp(config, workload, cpu_count)
            self.stats.record_run(
                f"{workload.name}x{cpu_count}P@{config.name}",
                time.perf_counter() - started,
                None,
            )
            self._smp_cache[key] = result
            self._disk_store_smp(key, result, workload)
            self._mark_complete(
                "smp", key, f"{workload.name}x{cpu_count}P@{config.name}"
            )

    @staticmethod
    def _label(kind: str, item) -> str:
        if kind == "up":
            _, config, workload = item
            return f"{workload.name}@{config.name}"
        _, config, workload, cpu_count = item
        return f"{workload.name}x{cpu_count}P@{config.name}"

    def _submit(self, pool: ProcessPoolExecutor, kind: str, item, attempt: int):
        if kind == "up":
            _, config, workload = item
            return pool.submit(_up_worker, config, workload, attempt)
        _, config, workload, cpu_count = item
        return pool.submit(_smp_worker, config, workload, cpu_count, attempt)

    def _run_pending_pool(self, pending_up, pending_smp) -> None:
        """Fan pending runs out over per-lane workers, with fault tolerance.

        The batch is dealt into lanes (:func:`_deal_lanes`) and each lane
        has at most one request in flight on its own worker, so the
        per-run wall-clock watchdog measures execution, not queueing.
        A worker failure charges that run one attempt and re-submits it
        to its lane (after deterministic jittered backoff) until the
        policy's retry budget is spent; a watchdog expiry additionally
        kills and respawns the workers, because a hung worker cannot be
        cancelled.  Requests that were merely in flight on a worker that
        had to be killed are re-queued without being charged an attempt.
        """
        total = len(pending_up) + len(pending_smp)
        lanes = _deal_lanes(
            [("up", item) for item in pending_up]
            + [("smp", item) for item in pending_smp],
            self.jobs,
        )
        self._log(f"  fanning {total} runs out over {len(lanes)} workers ...")
        #: future -> (lane, kind, item, attempt, deadline or None)
        inflight: Dict[object, Tuple[int, str, Tuple, int, Optional[float]]] = {}
        done_count = 0
        try:
            while inflight or any(lanes):
                busy = {meta[0] for meta in inflight.values()}
                for lane, queue in enumerate(lanes):
                    if not queue or lane in busy:
                        continue
                    kind, item, attempt = queue.popleft()
                    future = self._submit(self._pool(lane), kind, item, attempt)
                    deadline = (
                        time.monotonic() + self.policy.timeout
                        if self.policy.timeout
                        else None
                    )
                    inflight[future] = (lane, kind, item, attempt, deadline)

                deadlines = [
                    meta[4] for meta in inflight.values() if meta[4] is not None
                ]
                wait_timeout = (
                    max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
                )
                finished, _ = wait(
                    set(inflight), timeout=wait_timeout, return_when=FIRST_COMPLETED
                )

                for future in finished:
                    lane, kind, item, attempt, _deadline = inflight.pop(future)
                    try:
                        payload, pid, seconds = future.result()
                    except Exception as error:  # noqa: BLE001
                        # A dead pool stays dead; drop it so the lane's
                        # next submission builds a fresh one.
                        broken = isinstance(error, BrokenExecutor)
                        if broken and self._discard_pool(lane):
                            self.stats.pool_restarts += 1
                        self._handle_failure(kind, item, attempt, error, lanes[lane])
                        continue
                    done_count += 1
                    self._install(kind, item, payload, pid, seconds, done_count, total)

                if finished:
                    continue

                # Nothing completed before the nearest deadline: check
                # for expired runs and, if any, assume their workers are
                # hung — kill the workers and re-drive everything.
                now = time.monotonic()
                expired = [
                    meta for meta in inflight.values()
                    if meta[4] is not None and meta[4] <= now
                ]
                if not expired:
                    continue
                self._kill_pool()
                for lane, kind, item, attempt, deadline in inflight.values():
                    is_expired = deadline is not None and deadline <= now
                    if is_expired:
                        self.stats.timeouts += 1
                        self._log(
                            f"  watchdog: {self._label(kind, item)} exceeded "
                            f"{self.policy.timeout:.1f}s; killing worker pool"
                        )
                        self._handle_failure(
                            kind,
                            item,
                            attempt,
                            TimeoutError(
                                f"run exceeded {self.policy.timeout}s wall-clock"
                            ),
                            lanes[lane],
                        )
                    else:
                        # Collateral of the kill: not this run's fault,
                        # so its attempt budget is untouched.
                        lanes[lane].appendleft((kind, item, attempt))
                inflight.clear()
        except ExperimentError:
            raise
        except Exception as error:  # noqa: BLE001
            # Pool-level failure (e.g. the executor itself cannot start,
            # or it broke mid-batch): discard it and rerun whatever was
            # never installed, in-process.
            self._discard_pool()
            self._log(f"  worker pool failed ({error!r}); completing in-process")
            leftovers_up = [
                item for item in pending_up
                if item[0] not in self._up_cache
                and not self._is_skipped("up", item[0])
            ]
            leftovers_smp = [
                item for item in pending_smp
                if item[0] not in self._smp_cache
                and not self._is_skipped("smp", item[0])
            ]
            self.stats.worker_fallbacks += len(leftovers_up) + len(leftovers_smp)
            self._run_pending_inline(leftovers_up, leftovers_smp)

    def _handle_failure(self, kind, item, attempt, error, queue) -> None:
        """One run failed (crash, raise, or timeout): retry or give up."""
        label = self._label(kind, item)
        next_attempt = attempt + 1
        if next_attempt <= self.policy.retries:
            self.stats.retries += 1
            delay = self.policy.backoff_delay(label, next_attempt)
            self._log(
                f"  worker failed on {label} ({error!r}); retry "
                f"{next_attempt}/{self.policy.retries} after {delay:.2f}s"
            )
            if delay > 0:
                time.sleep(delay)
            queue.append((kind, item, next_attempt))
            return
        # Retry budget exhausted: apply the policy.
        if self.policy.on_failure == "fail":
            raise ExperimentError(
                f"{label} failed after {next_attempt} attempts: {error!r}"
            ) from (error if isinstance(error, BaseException) else None)
        if self.policy.on_failure == "skip":
            self.stats.skipped.append(label)
            self._skipped.add((kind, item[0]))
            self._log(f"  giving up on {label} ({error!r}); recorded as skipped")
            return
        # Default policy: last-resort rerun in the parent process, which
        # is observable and interruptible (no timeout applies there).
        self.stats.worker_fallbacks += 1
        self._log(f"  worker failed on {label} ({error!r}); rerunning in-process")
        if kind == "up":
            self._run_pending_inline([item], [])
        else:
            self._run_pending_inline([], [item])

    def _install(
        self, kind, item, payload, pid, seconds, done_count, total
    ) -> None:
        if kind == "up":
            key, config, workload = item
            result = sim_result_from_dict(payload)
            label = f"{workload.name}@{config.name}"
            self._up_cache[key] = result
            self._disk_store_up(key, result, workload)
            self._mark_complete("up", key, label)
        else:
            key, config, workload, cpu_count = item
            result = SmpResult.from_dict(payload)
            label = f"{workload.name}x{cpu_count}P@{config.name}"
            self._smp_cache[key] = result
            self._disk_store_smp(key, result, workload)
            self._mark_complete("smp", key, label)
        self.stats.record_run(label, seconds, pid)
        self._log(
            f"  [{done_count}/{total}] worker {pid} finished {label} "
            f"in {seconds:.2f}s"
        )

    def summary(self) -> str:
        """One-line observability summary (cache + execution counters)."""
        stats = self.stats
        parts = [
            f"memory hits {stats.memory_hits}",
            f"disk hits {stats.disk_hits}",
            f"misses {stats.misses}",
            f"in-process runs {stats.runs_in_process}",
            f"worker runs {stats.runs_in_workers}",
            f"fallbacks {stats.worker_fallbacks}",
            f"sim time {stats.total_run_seconds:.1f}s",
        ]
        if stats.retries:
            parts.append(f"retries {stats.retries}")
        if stats.timeouts:
            parts.append(f"timeouts {stats.timeouts}")
        if stats.pool_restarts:
            parts.append(f"pool restarts {stats.pool_restarts}")
        if stats.skipped:
            parts.append(f"skipped {len(stats.skipped)}")
        if self.cache is not None:
            parts.append(f"cache corrupt {self.cache.stats.corrupt}")
        return ", ".join(parts)
