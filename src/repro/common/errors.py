"""Exception hierarchy for the repro package.

All exceptions raised deliberately by the simulator derive from
:class:`ReproError` so callers can catch simulator problems without also
swallowing programming errors such as ``TypeError``.
"""


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigError(ReproError):
    """An invalid or inconsistent machine configuration was supplied."""


class TraceError(ReproError):
    """A trace file or trace record is malformed or inconsistent."""


class SimulationError(ReproError):
    """The simulator reached an internal state that should be impossible.

    Raising this (rather than silently continuing) mirrors the paper's
    methodology of treating model/logic mismatches as bugs to be fixed.
    """


class VerificationError(ReproError):
    """A cross-check between two simulation paths failed.

    Used by :mod:`repro.verify` when the trace-driven model and the
    execution-driven logic simulator disagree.
    """


class ExperimentError(ReproError):
    """An experiment run failed permanently in the harness.

    Raised by :class:`~repro.analysis.runner.ParallelRunner` when a run
    exhausts its retry budget under the ``fail`` policy, when the
    ``retry`` policy's last-resort in-process rerun fails as well, or
    when a result is requested for a run that the ``skip`` policy
    recorded as abandoned.  The message always names the (workload, config) pair so
    a campaign log points straight at the offending run.
    """


class ServiceError(ReproError):
    """The campaign service reached an unusable state.

    Raised by :mod:`repro.service` for conditions the scheduler cannot
    degrade around — e.g. a stored result that reads back unreadable
    after every retry, or an operation on a job the journal has never
    seen.  Transient failures (worker death, lease expiry) are handled
    by requeueing and never surface as exceptions.
    """


class QueueFull(ServiceError):
    """A bounded job queue refused a submission (load shedding).

    Raised by :meth:`repro.service.queue.JobQueue.submit` when the
    pending backlog has reached the configured capacity.  Callers are
    expected to back off and resubmit; the refusal is deliberate
    (bounded memory and bounded completion latency for accepted jobs)
    rather than a failure of the service.
    """


class InjectedFault(ReproError):
    """A deliberately injected fault (testing only).

    Raised by :mod:`repro.common.faults` when a fault site is configured
    to raise rather than crash or hang.  Deriving from
    :class:`ReproError` lets recovery paths treat it exactly like a real
    failure while tests can still assert on the specific type.
    """
