"""Experiment runners: serial (in-process) and parallel (multi-process).

Several figures share runs (e.g. the Table 1 base configuration on all
five workloads appears in Figures 8, 9, 11, 14, 16 and 18 as the
baseline), so both runners memoise results — keyed by a *content hash*
of the configuration plus the workload's cache key, never by display
name alone, so two configs that share a name but differ in any
parameter cannot alias.

A run is one (config, workload, cpus) point: a uniprocessor run when
``cpus`` is None, an SMP run otherwise.  Both kinds share one key
(:func:`run_key`), one label (:func:`run_label`), one simulation entry
(:func:`simulate`) and one result decoder (:func:`decode_result`), which
the campaign service (:mod:`repro.service.jobs`) reuses as well.

:class:`ParallelRunner` extends the serial runner with

- **fan-out**: :meth:`~ParallelRunner.prefetch` runs a batch of
  independent (config, workload[, cpu_count]) simulations across worker
  processes (``jobs=N``), one single-worker pool per lane
  (:class:`~repro.analysis.pools.LanePools`);
- **persistence**: results are memoised to disk through
  :class:`~repro.analysis.cache.ResultCache`, so regenerating a figure a
  second time is near-instant;
- **observability**: per-run wall-clock, worker id, and hit/miss
  counters, with a ``verbose`` progress line per event;
- **graceful degradation**: a crashed worker or corrupt cache entry
  falls back to a fresh in-process run instead of aborting the sweep;
- **fault tolerance**: a :class:`~repro.analysis.policy.RunPolicy`
  adds per-run wall-clock timeouts with a watchdog that kills and
  respawns a hung worker, bounded retries with deterministic
  jittered backoff, and a configurable last-resort policy
  (``retry`` in-process / ``fail`` loudly / ``skip`` and record);
- **resume**: an interrupted campaign rerun with the same cache
  directory replays every finished run from disk (counted as
  ``disk hits`` in :meth:`~ParallelRunner.summary`) and simulates only
  what remains.

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
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.cache import ResultCache
from repro.analysis.policy import RunPolicy
from repro.analysis.pools import LanePools
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
#: (config content hash, workload cache key, cpu count or None).
RunKey = Tuple[str, str, Optional[int]]
#: A run to execute: (key, config, workload, cpu count or None).
PendingRun = Tuple[RunKey, MachineConfig, Workload, Optional[int]]
Result = Union[SimResult, SmpResult]


def run_key(
    config: MachineConfig, workload: Workload, cpus: Optional[int] = None
) -> RunKey:
    """Memo key of one run.

    Keys are always recomputed from content: memoising the hash by
    ``id(config)`` is tempting but wrong — CPython reuses addresses
    after garbage collection, so a transient config can inherit a freed
    object's hash and silently alias a different machine.
    """
    return (config.content_hash(), workload.cache_key(), cpus)


def store_key(cache: ResultCache, key: RunKey) -> str:
    """The :class:`ResultCache` key of a run."""
    return cache.key("up" if key[2] is None else "smp", *key)


def run_label(workload_name: str, config_name: str, cpus: Optional[int] = None) -> str:
    """``workload@config`` or ``workloadxNP@config``; ``REPRO_FAULTS``
    ``match=`` patterns select runs by this label."""
    if cpus is None:
        return f"{workload_name}@{config_name}"
    return f"{workload_name}x{cpus}P@{config_name}"


def simulate(
    config: MachineConfig, workload: Workload, cpus: Optional[int] = None
) -> Result:
    """One simulation, in whichever process this runs.

    An SMP run simulates ``cpus`` per-CPU traces of the workload.  A
    uniprocessor workload carrying a
    :class:`~repro.trace.sampling.SamplingPlan` runs sampled (the plan's
    per-window warm-up replaces the trace-prefix warm-up fraction);
    otherwise it runs in full detail.
    """
    if cpus is not None:
        traces, regions = workload.smp_traces(cpus)
        return run_smp(
            config,
            traces,
            warmup_fraction=workload.warmup_fraction,
            regions_per_cpu=regions,
        )
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


def decode_result(payload: dict, cpus: Optional[int]) -> Result:
    """Rebuild a result from its :meth:`to_dict` payload."""
    if cpus is None:
        return sim_result_from_dict(payload)
    return SmpResult.from_dict(payload)


def result_meta(result: Result, workload_name: str, cpus: Optional[int]) -> dict:
    """The metadata stored beside a cached result."""
    meta = {"config": result.config_name, "workload": workload_name}
    if cpus is not None:
        meta["cpus"] = cpus
    return meta


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


#: A run waiting in a lane: (kind "up"/"smp", pending run, attempt).
LaneEntry = Tuple[str, PendingRun, int]


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


def _worker(
    config: MachineConfig, workload: Workload, cpus: Optional[int], attempt: int
) -> Tuple[dict, int, float]:
    """Worker entry point: returns (result dict, worker pid, seconds)."""
    faults.worker_fault(run_label(workload.name, config.name, cpus), attempt)
    started = time.perf_counter()
    result = simulate(config, _memoised_workload(workload), cpus)
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
    #: Times a hung or broken worker was killed or dropped and respawned.
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

    #: Persistent result store; the serial runner keeps memory only.
    cache: Optional[ResultCache] = None

    def __init__(self, verbose: bool = False) -> None:
        self.verbose = verbose
        self.stats = RunnerStats()
        self._results: Dict[RunKey, Result] = {}
        #: Keys abandoned under the ``skip`` failure policy; the serial
        #: runner never abandons a run.
        self._skipped: Set[RunKey] = set()

    def _log(self, message: str) -> None:
        if self.verbose:
            print(message)

    # -- execution -------------------------------------------------------

    def run(self, config: MachineConfig, workload: Workload) -> SimResult:
        """Uniprocessor run of ``workload`` on ``config`` (cached)."""
        return self._get(config, workload, None)

    def run_smp(
        self, config: MachineConfig, workload: Workload, cpu_count: int
    ) -> SmpResult:
        """SMP run with per-CPU traces of ``workload`` (cached)."""
        return self._get(config, workload, cpu_count)

    def try_run(
        self, config: MachineConfig, workload: Workload
    ) -> Optional[SimResult]:
        """Like :meth:`run`, but ``None`` for a run abandoned by policy.

        Sweeps call it so the same code renders partial tables when a
        parallel runner skipped points.
        """
        return self._get(config, workload, None, abandoned_ok=True)

    def try_run_smp(
        self, config: MachineConfig, workload: Workload, cpu_count: int
    ) -> Optional[SmpResult]:
        """SMP counterpart of :meth:`try_run`."""
        return self._get(config, workload, cpu_count, abandoned_ok=True)

    def _get(
        self,
        config: MachineConfig,
        workload: Workload,
        cpus: Optional[int],
        abandoned_ok: bool = False,
    ) -> Optional[Result]:
        """Memo, then disk, then a fresh in-process run."""
        key = run_key(config, workload, cpus)
        if key in self._skipped:
            if abandoned_ok:
                return None
            raise ExperimentError(
                f"{run_label(workload.name, config.name, cpus)} was abandoned "
                f"after repeated failures (policy on_failure=skip); use "
                f"try_run() or try_run_smp() to render partial results"
            )
        result = self._results.get(key)
        if result is not None:
            self.stats.memory_hits += 1
            return result
        result = self._load(key)
        if result is not None:
            self.stats.disk_hits += 1
            self._log(f"  [cache] {run_label(workload.name, config.name, cpus)}")
            self._results[key] = result
            return result
        self.stats.misses += 1
        return self._execute((key, config, workload, cpus))

    def _load(self, key: RunKey) -> Optional[Result]:
        if self.cache is None:
            return None
        payload = self.cache.load(store_key(self.cache, key))
        if payload is None:
            return None
        try:
            return decode_result(payload, key[2])
        except (ValueError, TypeError, KeyError):
            # Payload from an incompatible writer: treat as a miss.
            return None

    def _execute(self, run: PendingRun) -> Result:
        """Simulate one run in this process and install its result."""
        _key, config, workload, cpus = run
        self._log(f"  running {run_label(workload.name, config.name, cpus)} ...")
        started = time.perf_counter()
        result = simulate(config, workload, cpus)
        self._install(run, result, time.perf_counter() - started, None)
        return result

    def _install(
        self, run: PendingRun, result: Result, seconds: float, pid: Optional[int]
    ) -> None:
        """Memoise a fresh result, store it on disk, and record its cost."""
        key, config, workload, cpus = run
        self._results[key] = result
        if self.cache is not None:
            self.cache.store(
                store_key(self.cache, key),
                result.to_dict(),
                meta=result_meta(result, workload.name, cpus),
            )
        self.stats.record_run(run_label(workload.name, config.name, cpus), seconds, pid)

    def prefetch(
        self,
        up: Sequence[UpRequest] = (),
        smp: Sequence[SmpRequest] = (),
    ) -> None:
        """Hint that these runs are coming.  Serial runner: no-op (lazy)."""

    def cached_results(self) -> Dict[Tuple[str, str], SimResult]:
        """All uniprocessor results produced so far, keyed by
        (config content hash, workload cache key)."""
        return {
            key[:2]: result
            for key, result in self._results.items()
            if key[2] is None
        }

    def metrics(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Flat registry metrics for every uniprocessor result so far.

        Keyed like :meth:`cached_results`; each value is the result's
        :func:`repro.observe.registry.collect` dictionary (scalars plus
        ``decode_stalls.*`` and ``cpistack.*``), ready for tabulation or
        export without touching per-result attribute paths.
        """
        from repro.observe.registry import collect

        return {key: collect(result) for key, result in self.cached_results().items()}


class ParallelRunner(ExperimentRunner):
    """Multi-process experiment runner with a persistent disk cache.

    ``jobs`` bounds the worker processes used by :meth:`prefetch`, one
    single-worker pool per lane (:func:`_deal_lanes`); individual
    :meth:`run`/:meth:`run_smp` calls always execute
    in-process (one simulation cannot be split), so figure and sweep
    code prefetches its whole (config × workload) matrix first and then
    reads results back through the ordinary serial interface.

    ``policy`` governs failure handling for worker runs (timeouts,
    retries, backoff; see :class:`~repro.analysis.policy.RunPolicy`).
    """

    def __init__(
        self,
        jobs: int = 1,
        verbose: bool = False,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        policy: Optional[RunPolicy] = None,
    ) -> None:
        super().__init__(verbose=verbose)
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if use_cache else None
        self.policy = policy or RunPolicy()
        #: Reused across prefetch batches, so workers stay warm (their
        #: workload/trace memos survive between figures).
        self._pools = LanePools()

    def close(self) -> None:
        """Shut the worker pools down (also safe to never call)."""
        self._pools.discard()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self._pools.discard()
        except Exception:
            pass

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
        requests = [(config, workload, None) for config, workload in up]
        requests += list(smp)
        pending: List[Tuple[str, PendingRun]] = []
        seen: Set[RunKey] = set()
        for config, workload, cpus in requests:
            key = run_key(config, workload, cpus)
            if key in seen or key in self._results or key in self._skipped:
                continue
            cached = self._load(key)
            if cached is not None:
                self.stats.disk_hits += 1
                self._results[key] = cached
                continue
            seen.add(key)
            kind = "up" if cpus is None else "smp"
            pending.append((kind, (key, config, workload, cpus)))

        if not pending:
            return
        self.stats.misses += len(pending)
        if self.jobs == 1 and len(pending) == 1:
            # Nothing to overlap; skip the pool entirely.
            self._execute(pending[0][1])
            return
        self._run_pool(pending)

    def _run_pool(self, pending: List[Tuple[str, PendingRun]]) -> None:
        """Fan pending runs out over per-lane workers, with fault tolerance.

        The batch is dealt into lanes (:func:`_deal_lanes`) and each lane
        has at most one request in flight on its own worker, so the
        per-run wall-clock watchdog measures execution, not queueing.
        A worker failure charges that run one attempt and re-submits it
        to its lane (after deterministic jittered backoff) until the
        policy's retry budget is spent; a watchdog expiry additionally
        kills and respawns that lane's worker, because a hung worker
        cannot be cancelled.  Other lanes keep running.
        """
        lanes = _deal_lanes(pending, self.jobs)
        self._log(f"  fanning {len(pending)} runs out over {len(lanes)} workers ...")
        #: future -> (lane, lane entry, deadline or None)
        inflight: Dict[object, Tuple[int, LaneEntry, Optional[float]]] = {}
        done_count = 0
        try:
            while inflight or any(lanes):
                busy = {meta[0] for meta in inflight.values()}
                for lane, queue in enumerate(lanes):
                    if not queue or lane in busy:
                        continue
                    entry = queue.popleft()
                    _key, config, workload, cpus = entry[1]
                    future = self._pools.submit(
                        lane, _worker, config, workload, cpus, entry[2]
                    )
                    deadline = (
                        time.monotonic() + self.policy.timeout
                        if self.policy.timeout
                        else None
                    )
                    inflight[future] = (lane, entry, deadline)

                deadlines = [
                    meta[2] for meta in inflight.values() if meta[2] is not None
                ]
                wait_timeout = (
                    max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
                )
                finished, _ = wait(
                    set(inflight), timeout=wait_timeout, return_when=FIRST_COMPLETED
                )

                for future in finished:
                    lane, entry, _deadline = inflight.pop(future)
                    try:
                        payload, pid, seconds = future.result()
                    except Exception as error:  # noqa: BLE001
                        # A dead pool stays dead; drop it so the lane's
                        # next submission builds a fresh one.
                        broken = isinstance(error, BrokenExecutor)
                        if broken and self._pools.discard(lane):
                            self.stats.pool_restarts += 1
                        self._handle_failure(entry, error, lanes[lane])
                        continue
                    done_count += 1
                    run = entry[1]
                    self._install(run, decode_result(payload, run[3]), seconds, pid)
                    self._log(
                        f"  [{done_count}/{len(pending)}] worker {pid} finished "
                        f"{self._label(run)} in {seconds:.2f}s"
                    )

                if finished:
                    continue

                # Nothing completed before the nearest deadline: a run
                # past its deadline has a hung worker — kill that lane's
                # worker and charge the run.
                now = time.monotonic()
                for future, (lane, entry, deadline) in list(inflight.items()):
                    if deadline is None or deadline > now:
                        continue
                    del inflight[future]
                    self._pools.kill(lane)
                    self.stats.pool_restarts += 1
                    self.stats.timeouts += 1
                    self._log(
                        f"  watchdog: {self._label(entry[1])} exceeded "
                        f"{self.policy.timeout:.1f}s; killing its worker"
                    )
                    self._handle_failure(
                        entry,
                        TimeoutError(f"run exceeded {self.policy.timeout}s wall-clock"),
                        lanes[lane],
                    )
        except ExperimentError:
            raise
        except Exception as error:  # noqa: BLE001
            # Pool-level failure (e.g. an executor cannot start): discard
            # the pools and rerun whatever was never installed, in-process.
            self._pools.discard()
            self._log(f"  worker pool failed ({error!r}); completing in-process")
            leftovers = [
                run for _, run in pending
                if run[0] not in self._results and run[0] not in self._skipped
            ]
            self.stats.worker_fallbacks += len(leftovers)
            for run in leftovers:
                self._execute(run)

    @staticmethod
    def _label(run: PendingRun) -> str:
        _key, config, workload, cpus = run
        return run_label(workload.name, config.name, cpus)

    def _handle_failure(
        self, entry: LaneEntry, error: BaseException, queue: Deque[LaneEntry]
    ) -> None:
        """One run failed (crash, raise, or timeout): retry or give up."""
        kind, run, attempt = entry
        label = self._label(run)
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
            queue.append((kind, run, next_attempt))
            return
        # Retry budget exhausted: apply the policy.
        if self.policy.on_failure == "fail":
            raise ExperimentError(
                f"{label} failed after {next_attempt} attempts: {error!r}"
            ) from error
        if self.policy.on_failure == "skip":
            self.stats.skipped.append(label)
            self._skipped.add(run[0])
            self._log(f"  giving up on {label} ({error!r}); recorded as skipped")
            return
        # Default policy: last-resort rerun in the parent process, which
        # is observable and interruptible (no timeout applies there).
        self.stats.worker_fallbacks += 1
        self._log(f"  worker failed on {label} ({error!r}); rerunning in-process")
        try:
            self._execute(run)
        except Exception as final_error:  # noqa: BLE001
            raise ExperimentError(
                f"{label} failed in-process after {next_attempt} worker "
                f"attempts: {final_error!r}"
            ) from final_error

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
