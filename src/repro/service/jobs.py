"""Job lifecycle for the experiment service: state machine, queue, store.

A *job* is one submitted batch (``POST /batches``): a list of run specs,
optional config overrides, a tenant and a priority.  Its life is the
state machine::

    queued -> running -> done | failed
    queued -> cancelled
    running -> queued        (restart recovery only)

``done`` / ``failed`` / ``cancelled`` are terminal.  The only legal way
back from ``running`` is the restart path: a job found ``running`` in a
loaded snapshot belonged to a service process that died mid-drain, so the
store re-queues it (results already in the persistent cache make the
replay cheap — completed specs are not re-simulated).

Persistence is one JSON snapshot per job under ``<state_dir>/jobs/``,
written with :func:`repro.harness.store.atomic_write_text` so a crash
mid-write can never leave a truncated snapshot for the next boot to trip
over.
"""

from __future__ import annotations

import heapq
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Union

from ..errors import InvalidJobRequest, ServiceError, UnknownJob
from ..harness.experiment import RunSpec
from ..harness.store import atomic_write_text
from .wire import JSONDict, spec_from_dict, spec_to_dict

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobQueue",
    "JobStore",
]

#: Every job state, in lifecycle order.
JOB_STATES: Tuple[str, ...] = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES: Tuple[str, ...] = ("done", "failed", "cancelled")

#: Legal transitions.  ``running -> queued`` exists only for restart
#: recovery (see :meth:`JobStore.load_all`).
_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    "queued": ("running", "cancelled"),
    "running": ("done", "failed", "cancelled", "queued"),
    "done": (),
    "failed": (),
    "cancelled": (),
}

_SNAPSHOT_VERSION = 1


@dataclass
class Job:
    """One submitted batch and everything the API reports about it."""

    job_id: str
    specs: List[RunSpec]
    tenant: str = "default"
    priority: int = 0
    #: Raw (already-validated) config override mapping, kept in JSON form so
    #: snapshots round-trip without re-deriving a SimConfig.
    overrides: Optional[JSONDict] = None
    state: str = "queued"
    #: FIFO tiebreak within a priority class; assigned by the queue.
    enqueue_seq: int = 0
    #: Wall-clock timestamps (epoch seconds), supplied by the service layer.
    created_ts: float = 0.0
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    #: Times this job entered ``running`` (> 1 means restart recovery).
    attempts: int = 0
    #: Per-spec terminal outcomes: label / status / retries / error.
    outcomes: List[JSONDict] = field(default_factory=list)
    #: Per-spec result summaries (position-aligned with ``specs``; ``None``
    #: for specs that failed or have not finished).
    results: List[Optional[JSONDict]] = field(default_factory=list)
    #: The batch's ``BatchStats`` as a dict (set when the job finishes).
    stats: Optional[JSONDict] = None
    #: Failure description for ``failed`` jobs.
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ServiceError(f"unknown job state {self.state!r}")
        if not self.specs:
            raise InvalidJobRequest("a job needs at least one spec")

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, new_state: str) -> None:
        """Move to ``new_state``; illegal moves raise :class:`ServiceError`."""
        if new_state not in JOB_STATES:
            raise ServiceError(f"unknown job state {new_state!r}")
        if new_state not in _TRANSITIONS[self.state]:
            raise ServiceError(
                f"job {self.job_id}: illegal transition "
                f"{self.state!r} -> {new_state!r}"
            )
        if new_state == "running":
            self.attempts += 1
        self.state = new_state

    # --- persistence ------------------------------------------------------

    def to_dict(self) -> JSONDict:
        return {
            "version": _SNAPSHOT_VERSION,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "specs": [spec_to_dict(s) for s in self.specs],
            "overrides": self.overrides,
            "state": self.state,
            "enqueue_seq": self.enqueue_seq,
            "created_ts": self.created_ts,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
            "attempts": self.attempts,
            "outcomes": self.outcomes,
            "results": self.results,
            "stats": self.stats,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "Job":
        version = raw.get("version")
        if version != _SNAPSHOT_VERSION:
            raise ServiceError(
                f"job snapshot version {version!r} != {_SNAPSHOT_VERSION}"
            )
        specs = [spec_from_dict(entry) for entry in raw["specs"]]
        return cls(
            job_id=str(raw["job_id"]),
            specs=specs,
            tenant=str(raw.get("tenant", "default")),
            priority=int(raw.get("priority", 0)),
            overrides=raw.get("overrides"),
            state=str(raw.get("state", "queued")),
            enqueue_seq=int(raw.get("enqueue_seq", 0)),
            created_ts=float(raw.get("created_ts", 0.0)),
            started_ts=raw.get("started_ts"),
            finished_ts=raw.get("finished_ts"),
            attempts=int(raw.get("attempts", 0)),
            outcomes=list(raw.get("outcomes", [])),
            results=list(raw.get("results", [])),
            stats=raw.get("stats"),
            error=raw.get("error"),
        )


class JobQueue:
    """Priority queue of job ids: higher ``priority`` first, FIFO within a
    priority class (by ``enqueue_seq``).  Thread-safe; ``pop`` blocks."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._heap: List[Tuple[int, int, str]] = []
        self._cancelled: Set[str] = set()
        self._next_seq = 1
        self._closed = False

    def reserve_seq(self) -> int:
        """Pre-assign an enqueue sequence number, so a job can be persisted
        *before* it is pushed (the scheduler must never pop a job the store
        has not yet saved)."""
        with self._cond:
            seq = self._next_seq
            self._next_seq += 1
            return seq

    def push(self, job: Job) -> None:
        with self._cond:
            if self._closed:
                raise ServiceError("push on a closed JobQueue")
            if job.enqueue_seq == 0:
                job.enqueue_seq = self._next_seq
            self._next_seq = max(self._next_seq, job.enqueue_seq) + 1
            self._cancelled.discard(job.job_id)
            heapq.heappush(
                self._heap, (-job.priority, job.enqueue_seq, job.job_id)
            )
            self._cond.notify()

    def remove(self, job_id: str) -> bool:
        """Lazily drop a queued job (cancellation); True if it was queued."""
        with self._cond:
            if any(entry[2] == job_id for entry in self._heap):
                self._cancelled.add(job_id)
                return True
            return False

    def pop(self, timeout: Optional[float] = None) -> Optional[str]:
        """Next job id by priority, or ``None`` on close/timeout."""
        with self._cond:
            while True:
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    if job_id in self._cancelled:
                        self._cancelled.discard(job_id)
                        continue
                    return job_id
                if self._closed:
                    return None
                if not self._cond.wait(timeout):
                    return None

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return sum(
                1 for entry in self._heap if entry[2] not in self._cancelled
            )


class JobStore:
    """All known jobs, mirrored to one JSON snapshot per job on disk."""

    def __init__(self, state_dir: Union[str, Path]) -> None:
        self._dir = Path(state_dir) / "jobs"
        self._dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}

    @property
    def directory(self) -> Path:
        return self._dir

    def _path(self, job_id: str) -> Path:
        return self._dir / f"{job_id}.json"

    def save(self, job: Job) -> None:
        """Register (or update) ``job`` and persist its snapshot atomically."""
        with self._lock:
            self._jobs[job.job_id] = job
            atomic_write_text(
                self._path(job.job_id),
                json.dumps(job.to_dict(), indent=2, sort_keys=True),
            )

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJob(job_id) from None

    def all_jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.enqueue_seq)

    def counts(self) -> Dict[str, int]:
        """Jobs per state."""
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    def load_all(self) -> List[Job]:
        """Load every snapshot from disk; returns jobs needing re-queue.

        Jobs found ``running`` belonged to a dead service process: they are
        moved back to ``queued`` (the restart-recovery transition) and
        re-persisted.  The returned list is every non-terminal job, in
        original enqueue order, ready to be pushed onto a fresh queue.
        """
        pending: List[Job] = []
        for path in sorted(self._dir.glob("*.json")):
            raw = json.loads(path.read_text(encoding="utf-8"))
            job = Job.from_dict(raw)
            if job.state == "running":
                job.transition("queued")
                self.save(job)
            else:
                with self._lock:
                    self._jobs[job.job_id] = job
            if not job.terminal:
                pending.append(job)
        pending.sort(key=lambda j: j.enqueue_seq)
        return pending
