"""Exception hierarchy for the CPPE reproduction.

Two families matter to the experiment harness:

* **simulation-level** errors (:class:`SimulationError`, :class:`WorkloadError`,
  :class:`ConfigError`, :class:`CapacityError`, or any non-Repro exception a
  buggy simulation raises) mean *this spec's simulation is wrong* — rerunning
  it elsewhere reproduces the same failure;
* **harness-level** errors (:class:`HarnessError` and below) mean the
  *infrastructure* failed: :class:`PoolError` when the process pool broke or
  could not start (worth a bounded retry), :class:`WorkerTimeout` when a
  worker stopped making progress, :class:`WorkerFailure` as the picklable
  envelope the coordinator raises for a failure that happened inside a
  worker (carrying the spec label and the remote traceback).

:func:`classify_failure` is the single authority on which family an
exception caught around a simulation belongs to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class CapacityError(ReproError):
    """Device memory cannot satisfy an allocation request."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""


class WorkloadError(ReproError):
    """A workload/trace definition is invalid."""


class HarnessError(ReproError):
    """The experiment harness (not a simulation) failed."""


class PoolError(HarnessError):
    """The process pool broke or could not be started.

    Distinct from a simulation failing *inside* a worker: a pool error says
    nothing about any spec, so the remedy is a bounded pool retry and then
    a serial fallback — never blaming (or skipping) a spec.
    """


class ServiceError(HarnessError):
    """The experiment service (queue, scheduler, HTTP layer) failed.

    Like every :class:`HarnessError`, a service error says nothing about
    any simulation: the specs behind a rejected or lost job are simply not
    run (yet), never misreported as failed simulations.  Subclasses carry
    the HTTP status the server maps them to.
    """

    #: HTTP status code the service layer renders this error as.
    http_status = 500


class UnknownJob(ServiceError):
    """A batch/job id that the service has no record of."""

    http_status = 404

    def __init__(self, job_id: str):
        super().__init__(f"unknown batch {job_id!r}")
        self.job_id = job_id

    def __reduce__(self):
        return (UnknownJob, (self.job_id,))


class InvalidJobRequest(ServiceError):
    """A submission payload that cannot be turned into a job."""

    http_status = 400


class WorkerTimeout(HarnessError):
    """A worker stopped making progress within the configured timeout."""

    def __init__(self, label: str, timeout_s: float):
        super().__init__(
            f"spec {label!r} still running after {timeout_s:g}s with no "
            "worker completing; worker terminated"
        )
        self.label = label
        self.timeout_s = timeout_s

    def __reduce__(self):
        return (WorkerTimeout, (self.label, self.timeout_s))


def classify_failure(exc: BaseException) -> str:
    """``"harness"`` or ``"simulation"`` for an exception caught around a
    simulation execution.

    Anything that is not explicitly harness-side infrastructure — including
    bare ``RuntimeError``/``OSError``/``KeyError`` raised by a buggy
    simulation — classifies as ``"simulation"``: rerunning the spec will
    reproduce it, so it must surface, not trigger infra fallbacks.
    """
    return "harness" if isinstance(exc, HarnessError) else "simulation"


class WorkerFailure(HarnessError):
    """Picklable envelope for an exception raised inside a worker.

    Raised by the coordinator (``ParallelRunner``) so the caller sees *which
    spec* failed and the *remote* traceback, instead of either a bare
    exception with no context or — worse — a silent serial re-run of the
    whole batch.  ``kind`` is :func:`classify_failure` of the original
    exception; ``exc_type`` its class name; ``remote_traceback`` the
    formatted traceback captured in the worker process.
    """

    def __init__(
        self,
        label: str,
        exc_type: str,
        message: str,
        remote_traceback: str = "",
        kind: str = "simulation",
    ):
        detail = f"spec {label!r} failed in worker: {exc_type}: {message}"
        if remote_traceback:
            detail += f"\n--- remote traceback ---\n{remote_traceback}"
        super().__init__(detail)
        self.label = label
        self.exc_type = exc_type
        self.message = message
        self.remote_traceback = remote_traceback
        self.kind = kind

    @classmethod
    def from_exception(
        cls, label: str, exc: BaseException, remote_traceback: str = ""
    ) -> "WorkerFailure":
        return cls(
            label=label,
            exc_type=type(exc).__name__,
            message=str(exc),
            remote_traceback=remote_traceback,
            kind=classify_failure(exc),
        )

    def __reduce__(self):
        return (
            WorkerFailure,
            (
                self.label,
                self.exc_type,
                self.message,
                self.remote_traceback,
                self.kind,
            ),
        )


class ThrashingCrash(SimulationError):
    """Raised when a run exceeds its eviction budget (models the paper's
    observation that MVT/BIC *crash* in the baseline due to severe thrashing).

    The harness catches this and reports the configuration as ``crashed``
    instead of producing a speedup number, mirroring the 'X' marks in
    Fig. 10 of the paper.
    """

    def __init__(self, evictions: int, budget: int):
        super().__init__(
            f"runaway thrashing: {evictions} chunk evictions exceeded the "
            f"crash budget of {budget}"
        )
        self.evictions = evictions
        self.budget = budget
