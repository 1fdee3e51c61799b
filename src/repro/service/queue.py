"""Durable, lease-based job queue for the campaign service.

The queue is an *event-sourced* append-only JSONL journal: every state
transition — submit, claim, lease renewal, requeue, completion, failure,
shed — is one fsync'd line, and the in-memory job table is a pure fold
over those lines.  That single decision buys the robustness properties
the service advertises:

- **crash recovery** — a killed service replays the journal and sees
  exactly which jobs were pending, running (with what lease), done, or
  dead; nothing is lost, nothing is double-counted;
- **lease-based claims** — a claim grants a time-bounded lease
  (wall-clock, so it stays meaningful across restarts).  Leases are
  renewed by heartbeats; :meth:`expire_leases` requeues any job whose
  lease lapsed, so a killed or hung worker never strands a job;
- **single-flight dedup** — jobs are keyed by result-cache content
  hash; a duplicate submission increments a waiter count on the
  existing job instead of creating a second one.  N submissions of the
  same sweep point trigger exactly one simulation;
- **bounded backlog** — an optional capacity sheds load explicitly
  (:class:`~repro.common.errors.QueueFull` for local submitters, a
  journaled ``shed`` event for foreign ones) instead of growing without
  bound;
- **multi-process submission** — the journal is opened ``O_APPEND`` and
  records are single-``write`` ``\\n``-terminated lines, so independent
  ``repro submit`` processes append concurrently at line granularity;
  the serving process picks their records up with :meth:`poll` (events
  it wrote itself are tagged with a per-instance ``src`` id and
  skipped).

Torn final lines (a writer crash) are sealed by the next append and
dropped on replay, and a journal written by a different simulator
version is quarantined (``*.stale``) because its content-hash keys are
unreachable anyway.

The queue never runs simulations itself; result payloads live in the
content-addressed :class:`~repro.analysis.cache.ResultCache`, keeping
the journal small enough to replay in milliseconds.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.common import faults
from repro.common.errors import QueueFull, ServiceError
from repro.common.hashing import code_version

#: Journal header format version; bump when the record layout changes.
JOURNAL_FORMAT = 1

#: Job states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
DEAD = "dead"
STATES = (PENDING, RUNNING, DONE, DEAD)


@dataclass
class Job:
    """One queued simulation point (see :mod:`repro.service.jobs`)."""

    key: str
    kind: str
    spec: dict
    label: str
    state: str = PENDING
    #: Charged failures so far (attempt number of the *next* run).
    attempts: int = 0
    #: Total submissions seen; ``submissions - 1`` were deduplicated.
    submissions: int = 1
    worker: Optional[str] = None
    #: Wall-clock lease deadline while RUNNING (time.time seconds).
    lease_deadline: Optional[float] = None
    #: Earliest wall-clock time the job may be claimed (retry backoff).
    not_before: float = 0.0
    error: str = ""
    #: "run" for a fresh simulation, "cache" for a store hit.
    source: str = ""


@dataclass
class QueueStats:
    """Counters over the whole journal history (survive restarts)."""

    submitted: int = 0
    deduped: int = 0
    shed: int = 0
    claims: int = 0
    duplicate_deliveries: int = 0
    completions: int = 0
    duplicate_completions: int = 0
    failures: int = 0
    requeues: int = 0
    lease_expiries: int = 0
    recovered_drops: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class JobQueue:
    """Append-only JSONL journal + in-memory job table."""

    def __init__(
        self,
        path: Union[str, Path],
        lease_seconds: float = 30.0,
        capacity: Optional[int] = None,
        code_hash: Optional[str] = None,
    ) -> None:
        if lease_seconds <= 0:
            raise ServiceError("lease_seconds must be positive")
        if capacity is not None and capacity < 1:
            raise ServiceError("capacity must be >= 1 (or None for unbounded)")
        self.path = Path(path)
        self.lease_seconds = float(lease_seconds)
        self.capacity = capacity
        self.code_hash = code_hash or code_version()
        self.jobs: Dict[str, Job] = {}
        #: Submission order; claim scans it FIFO.
        self._order: List[str] = []
        self.stats = QueueStats()
        #: True when this instance resumed a non-empty journal.
        self.resumed = False
        self._src = uuid.uuid4().hex[:8]
        self._handle = None
        #: Byte offset up to which the journal has been consumed.
        self._offset = 0
        #: Partial final line carried between polls (a writer mid-append).
        self._tail = ""
        self._replay()

    # -- load / replay ---------------------------------------------------

    def _quarantine(self, reason: str) -> None:
        stale = self.path.with_suffix(self.path.suffix + ".stale")
        try:
            os.replace(self.path, stale)
        except OSError:
            try:
                self.path.unlink()
            except OSError:
                pass
        self.jobs = {}
        self._order = []
        self._offset = 0
        self._tail = ""

    def _replay(self) -> None:
        """Validate the header, then fold every event into the table."""
        if not self.path.exists():
            return
        try:
            with open(self.path, "rb") as handle:
                head = handle.readline()
        except OSError:
            self._quarantine("unreadable")
            return
        if not head.endswith(b"\n"):
            # No complete header: an empty or crashed-at-birth journal.
            self._quarantine("headerless")
            return
        try:
            header = json.loads(head.decode("utf-8"))
            if header.get("service") != JOURNAL_FORMAT:
                raise ValueError("format mismatch")
        except (ValueError, AttributeError, UnicodeDecodeError):
            self._quarantine("unrecognised header")
            return
        if header.get("code") != self.code_hash:
            # The simulator changed: every key in this journal points at
            # unreachable cache entries, so the bookkeeping is moot.
            self._quarantine(
                f"written by code version {header.get('code')!r}, "
                f"current is {self.code_hash!r}"
            )
            return
        self._offset = len(head)
        applied = self.poll(_replaying=True)
        self.resumed = applied > 0

    def poll(self, _replaying: bool = False) -> int:
        """Consume journal lines appended since the last poll.

        Applies events written by *other* processes (submitters, a
        previous service incarnation); events this instance wrote are
        already applied at append time and are skipped by their ``src``
        tag.  A partial final line — some writer caught mid-append — is
        carried over and completed by a later poll, so no record is ever
        split in half.  Returns the number of events applied.
        """
        if not self.path.exists():
            return 0
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                chunk = handle.read()
        except OSError:
            return 0
        if not chunk:
            return 0
        self._offset += len(chunk)
        text = self._tail + chunk.decode("utf-8", errors="replace")
        lines = text.split("\n")
        self._tail = lines.pop()  # "" when the chunk ended on a newline
        applied = 0
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                self.stats.recovered_drops += 1
                continue
            if not isinstance(record, dict) or "ev" not in record:
                if isinstance(record, dict) and "service" in record:
                    continue  # duplicate header from a racing fresh writer
                self.stats.recovered_drops += 1
                continue
            if not _replaying and record.get("src") == self._src:
                continue
            self._apply(record)
            applied += 1
        return applied

    # -- event fold ------------------------------------------------------

    def _apply(self, record: dict) -> None:
        event = record.get("ev")
        key = str(record.get("job", ""))
        if event == "submit":
            job = self.jobs.get(key)
            self.stats.submitted += 1
            if job is not None:
                job.submissions += 1
                self.stats.deduped += 1
                return
            self.jobs[key] = Job(
                key=key,
                kind=str(record.get("kind", "up")),
                spec=record.get("spec") or {},
                label=str(record.get("label", key)),
            )
            self._order.append(key)
            return
        job = self.jobs.get(key)
        if event == "shed":
            self.stats.shed += 1
            if job is not None:
                self.jobs.pop(key, None)
                try:
                    self._order.remove(key)
                except ValueError:
                    pass
            return
        if job is None:
            # An event for a job this journal never submitted (foreign
            # garbage or a sheared record): count and move on.
            self.stats.recovered_drops += 1
            return
        if event == "claim":
            self.stats.claims += 1
            if record.get("dup"):
                self.stats.duplicate_deliveries += 1
            job.state = RUNNING
            job.worker = str(record.get("worker", ""))
            job.lease_deadline = float(record.get("lease", 0.0))
        elif event == "renew":
            job.lease_deadline = float(record.get("lease", 0.0))
        elif event == "requeue":
            self.stats.requeues += 1
            if record.get("reason") == "lease-expired":
                self.stats.lease_expiries += 1
            job.state = PENDING
            job.worker = None
            job.lease_deadline = None
        elif event == "done":
            if job.state == DONE:
                self.stats.duplicate_completions += 1
                return
            self.stats.completions += 1
            job.state = DONE
            job.worker = str(record.get("worker", ""))
            job.source = str(record.get("source", "run"))
            job.lease_deadline = None
            job.error = ""
        elif event == "fail":
            self.stats.failures += 1
            job.attempts = int(record.get("attempts", job.attempts + 1))
            job.error = str(record.get("error", ""))
            job.worker = None
            job.lease_deadline = None
            if record.get("requeue"):
                job.state = PENDING
                job.not_before = float(record.get("not_before", 0.0))
            else:
                job.state = DEAD
        else:
            self.stats.recovered_drops += 1

    # -- append ----------------------------------------------------------

    def _open(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            torn_tail = False
            if not fresh:
                with open(self.path, "rb") as peek:
                    peek.seek(-1, os.SEEK_END)
                    torn_tail = peek.read(1) != b"\n"
            self._handle = open(self.path, "a", encoding="utf-8")
            if torn_tail:
                # Seal a torn final line (writer crash) so our record
                # starts cleanly; the torn line is dropped on load.
                self._handle.write("\n")
            if fresh:
                self._raw_line(
                    {"service": JOURNAL_FORMAT, "code": self.code_hash},
                    sync=True,
                )
        return self._handle

    def _raw_line(self, record: dict, sync: bool) -> None:
        handle = self._handle
        handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        handle.flush()
        if sync:
            os.fsync(handle.fileno())

    def _append(self, record: dict, sync: bool = True) -> None:
        self._open()
        record = dict(record)
        record["src"] = self._src
        self._raw_line(record, sync=sync)
        self._apply(record)

    # -- operations ------------------------------------------------------

    def pending_count(self, now: Optional[float] = None) -> int:
        return sum(1 for job in self.jobs.values() if job.state == PENDING)

    def claimable(self, now: Optional[float] = None) -> bool:
        """Any pending job whose backoff gate has opened?"""
        now = time.time() if now is None else now
        return any(
            job.state == PENDING and job.not_before <= now
            for job in self.jobs.values()
        )

    def drained(self) -> bool:
        """Every known job reached a terminal state (done or dead)."""
        return all(job.state in (DONE, DEAD) for job in self.jobs.values())

    def submit(self, kind: str, spec: dict, label: str, key: str) -> Job:
        """Enqueue (or single-flight onto) the job identified by ``key``.

        Raises :class:`QueueFull` when the backlog is at capacity and
        ``key`` is not already known — explicit load shedding.
        """
        existing = self.jobs.get(key)
        if (
            existing is None
            and self.capacity is not None
            and self.pending_count() >= self.capacity
        ):
            raise QueueFull(
                f"queue at capacity ({self.capacity} pending); shed {label}"
            )
        self._append(
            {
                "ev": "submit",
                "job": key,
                "kind": kind,
                "label": label,
                "spec": spec,
                "t": time.time(),
            }
        )
        return self.jobs[key]

    def enforce_capacity(self) -> List[str]:
        """Shed newest pending jobs beyond capacity (foreign submits).

        Local submits are refused up-front with :class:`QueueFull`, but
        a ``repro submit`` in another process has already journaled its
        record by the time :meth:`poll` sees it; the service calls this
        after polling to shed the overflow explicitly (journaled, so a
        replay reaches the same state).  Returns the shed keys.
        """
        if self.capacity is None:
            return []
        pending = [key for key in self._order if self.jobs[key].state == PENDING]
        shed = []
        while len(pending) > self.capacity:
            key = pending.pop()  # newest first: earlier submits keep their spot
            self._append({"ev": "shed", "job": key})
            shed.append(key)
        return shed

    def claim(self, worker: str, now: Optional[float] = None) -> Optional[Job]:
        """Claim the oldest ready job under a fresh lease, if any.

        Under an injected ``duplicate-delivery`` fault this may instead
        hand out a job that is *already running* — the at-least-once
        delivery case a distributed queue can always hit; completion
        idempotency (and content-addressed stores) make it harmless.
        """
        now = time.time() if now is None else now
        running = [
            key for key in self._order if self.jobs[key].state == RUNNING
        ]
        if running and faults.duplicate_delivery(self.jobs[running[0]].label):
            job = self.jobs[running[0]]
            self._append(
                {
                    "ev": "claim",
                    "job": job.key,
                    "worker": worker,
                    "lease": now + self.lease_seconds,
                    "dup": True,
                }
            )
            return job
        for key in self._order:
            job = self.jobs[key]
            if job.state != PENDING or job.not_before > now:
                continue
            self._append(
                {
                    "ev": "claim",
                    "job": key,
                    "worker": worker,
                    "lease": now + self.lease_seconds,
                }
            )
            return job
        return None

    def heartbeat(
        self, key: str, now: Optional[float] = None, force: bool = False
    ) -> bool:
        """Renew a running job's lease; False when the renewal was lost.

        Renewals are journaled flush-only (no fsync — losing one to a
        power cut merely expires a lease early, which the requeue path
        already handles) and skipped while the lease is still young,
        keeping journal noise proportional to lease length rather than
        scheduler tick rate.  The ``heartbeat-stall`` fault swallows the
        renewal entirely, modelling a worker partitioned from the
        coordinator.
        """
        job = self.jobs.get(key)
        if job is None or job.state != RUNNING:
            return False
        if faults.stall_heartbeat(job.label):
            return False
        now = time.time() if now is None else now
        deadline = job.lease_deadline or 0.0
        if not force and deadline - now > self.lease_seconds / 2:
            return True  # lease still fresh; don't spam the journal
        self._append(
            {"ev": "renew", "job": key, "lease": now + self.lease_seconds},
            sync=False,
        )
        return True

    def expire_leases(self, now: Optional[float] = None) -> List[str]:
        """Requeue every running job whose lease lapsed (or was forced
        to by an injected ``lease-expiry`` fault).  Returns their keys."""
        now = time.time() if now is None else now
        expired = []
        for key in self._order:
            job = self.jobs[key]
            if job.state != RUNNING:
                continue
            lapsed = job.lease_deadline is not None and job.lease_deadline <= now
            if lapsed or faults.lease_expired(job.label):
                self._append(
                    {"ev": "requeue", "job": key, "reason": "lease-expired"}
                )
                expired.append(key)
        return expired

    def release(self, key: str, reason: str) -> None:
        """Return a running job to pending *without* charging an attempt
        (e.g. collateral of a worker-pool restart)."""
        job = self.jobs.get(key)
        if job is not None and job.state == RUNNING:
            self._append({"ev": "requeue", "job": key, "reason": reason})

    def reopen(self, key: str, reason: str) -> None:
        """Put a finished job back to pending (its stored result was
        found unreadable after completion — recompute it)."""
        job = self.jobs.get(key)
        if job is not None and job.state in (DONE, DEAD):
            self._append({"ev": "requeue", "job": key, "reason": reason})

    def complete(self, key: str, worker: str, source: str = "run") -> bool:
        """Mark a job done (idempotent: a second completion is a no-op).

        Duplicate completions are the signature of duplicate delivery or
        an orphaned worker finishing after its lease expired; the result
        store is content-addressed, so the late write is bit-identical
        and only the first completion is counted.
        """
        job = self.jobs.get(key)
        if job is None:
            raise ServiceError(f"complete() for unknown job {key!r}")
        if job.state == DONE:
            self.stats.duplicate_completions += 1
            return False
        self._append(
            {"ev": "done", "job": key, "worker": worker, "source": source}
        )
        return True

    def fail(
        self,
        key: str,
        worker: str,
        error: object,
        retries: int,
        not_before: float = 0.0,
    ) -> str:
        """Charge a failed attempt; requeue within budget, else dead.

        Returns ``"requeued"`` or ``"dead"``.  ``not_before`` gates the
        next claim (deterministic backoff computed by the caller).
        """
        job = self.jobs.get(key)
        if job is None:
            raise ServiceError(f"fail() for unknown job {key!r}")
        attempts = job.attempts + 1
        requeue = attempts <= retries
        self._append(
            {
                "ev": "fail",
                "job": key,
                "worker": worker,
                "attempts": attempts,
                "error": str(error)[:200],
                "requeue": requeue,
                "not_before": not_before,
            }
        )
        return "requeued" if requeue else "dead"

    # -- inspection ------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        tally = {state: 0 for state in STATES}
        for job in self.jobs.values():
            tally[job.state] += 1
        return tally

    def summary(self) -> str:
        counts = self.counts()
        stats = self.stats
        parts = [
            f"{counts[PENDING]} pending",
            f"{counts[RUNNING]} running",
            f"{counts[DONE]} done",
            f"{counts[DEAD]} dead",
            f"submitted {stats.submitted}",
            f"dedup {stats.deduped}",
        ]
        if stats.shed:
            parts.append(f"shed {stats.shed}")
        if stats.requeues:
            parts.append(f"requeues {stats.requeues}")
        if stats.lease_expiries:
            parts.append(f"lease expiries {stats.lease_expiries}")
        if stats.duplicate_deliveries:
            parts.append(f"duplicate deliveries {stats.duplicate_deliveries}")
        if stats.duplicate_completions:
            parts.append(f"duplicate completions {stats.duplicate_completions}")
        if stats.recovered_drops:
            parts.append(f"{stats.recovered_drops} torn line(s) dropped")
        return f"queue {self.path}: " + ", ".join(parts)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
