"""The experiment service façade: submit / status / cancel / events.

:class:`ExperimentService` wires the pieces together — the persistent
:class:`~repro.service.jobs.JobStore`, the prioritized
:class:`~repro.service.jobs.JobQueue`, one per-job
:class:`~repro.obs.bus.EventBus` and the
:class:`~repro.service.scheduler.Scheduler` thread — behind a small
in-process API.

Restart semantics: :meth:`resume` reloads every job snapshot.  Jobs that
were ``queued`` or ``running`` when the previous process died go back on
the queue (the ``running -> queued`` recovery transition); because results
live in the persistent cache, replaying a half-finished batch re-simulates
only the specs that never completed.  Terminal jobs stay terminal and
their event streams are *replayed* from the snapshot on demand, marked
``resumed: true``, so a job's stream read after a service restart is
still complete and schema-valid.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from ..errors import InvalidJobRequest, ServiceError
from ..harness.experiment import spec_label
from ..obs import EventBus, Observability
from .jobs import Job, JobQueue, JobStore
from .scheduler import Scheduler
from .wire import JSONDict, config_from_overrides, specs_from_payload, spec_to_dict

__all__ = ["ServiceConfig", "ExperimentService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service instance."""

    #: Directory holding job snapshots (and the once-flags of fault drills).
    state_dir: Union[str, Path] = "service-state"
    #: Worker processes per batch (1 = serial in-process).
    jobs: int = 1
    #: Thread the persistent result cache through every batch.
    use_cache: bool = True
    #: Pool-rebuild retries per spec (see FaultTolerance.retries).
    fault_retries: int = 2
    #: Per-batch worker stall timeout (None = wait forever).
    spec_timeout_s: Optional[float] = None
    #: Clamp on the pool-rebuild backoff schedule.
    max_backoff_s: float = 2.0
    #: Per-job event journal bound (None = unbounded).
    history_limit: Optional[int] = None


class ExperimentService:
    """Submit, track, cancel and replay batches in-process."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        obs: Optional[Observability] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.config = config or ServiceConfig()
        self._clock = clock
        self._obs = obs
        self.store = JobStore(self.config.state_dir)
        self.queue = JobQueue()
        self._buses: Dict[str, EventBus] = {}
        self._bus_lock = threading.Lock()
        self.scheduler = Scheduler(
            self.queue,
            self.store,
            self._bus_for,
            jobs=self.config.jobs,
            use_cache=self.config.use_cache,
            fault_retries=self.config.fault_retries,
            spec_timeout_s=self.config.spec_timeout_s,
            max_backoff_s=self.config.max_backoff_s,
            obs=obs,
            clock=clock,
            on_terminal=self._job_finished,
        )

    # --- lifecycle --------------------------------------------------------

    def resume(self) -> List[Job]:
        """Reload snapshots; re-queue unfinished jobs.  Returns them."""
        pending = self.store.load_all()
        for job in pending:
            self.queue.push(job)
        return pending

    def start(self) -> None:
        self.scheduler.start()

    def stop(self) -> None:
        self.scheduler.stop()
        with self._bus_lock:
            for bus in self._buses.values():
                bus.close()

    def __enter__(self) -> "ExperimentService":
        self.resume()
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # --- internals --------------------------------------------------------

    def _bus_for(self, job_id: str) -> EventBus:
        with self._bus_lock:
            bus = self._buses.get(job_id)
            if bus is None:
                bus = EventBus(history_limit=self.config.history_limit)
                self._buses[job_id] = bus
            return bus

    def _job_finished(self, job: Job) -> None:
        if self._obs is not None and self._obs.enabled:
            self._obs.metrics.counter("service/jobs_finished").inc()

    def _replay_bus(self, job: Job) -> EventBus:
        """Synthesize a terminal job's event stream from its snapshot.

        Used after a restart, when the live bus died with the old process.
        Replayed events carry ``resumed: true`` and the snapshot's stored
        timestamps, so the stream stays schema-valid and honest about when
        things actually happened.
        """
        bus = EventBus()
        base: JSONDict = {"job": job.job_id, "resumed": True}
        created = job.created_ts
        finished = job.finished_ts if job.finished_ts is not None else created
        bus.publish(
            "queued",
            {
                **base,
                "ts": created,
                "tenant": job.tenant,
                "priority": job.priority,
                "specs": len(job.specs),
            },
        )
        if job.started_ts is not None:
            bus.publish(
                "started",
                {**base, "ts": job.started_ts, "attempt": job.attempts},
            )
        for outcome in job.outcomes:
            bus.publish("spec_outcome", {**base, "ts": finished, **outcome})
        if job.stats is not None:
            bus.publish("batch_stats", {**base, "ts": finished, **job.stats})
        terminal: JSONDict = {**base, "ts": finished, "state": job.state}
        if job.state == "failed":
            bus.publish("failed", {**terminal, "error": job.error})
        elif job.state == "cancelled":
            bus.publish("cancelled", terminal)
        else:
            bus.publish("done", terminal)
        bus.close()
        return bus

    # --- API --------------------------------------------------------------

    def submit(self, payload: Mapping[str, Any]) -> JSONDict:
        """Accept one submission; returns the job's status view.

        ``payload``: ``{"specs": [...], "config": {...}, "tenant": str,
        "priority": int}`` (``config``/``tenant``/``priority`` optional).
        Raises :class:`~repro.errors.InvalidJobRequest` on bad input.
        """
        if not isinstance(payload, Mapping):
            raise InvalidJobRequest("submission payload must be a JSON object")
        unknown = sorted(set(payload) - {"specs", "config", "tenant", "priority"})
        if unknown:
            raise InvalidJobRequest(
                f"unknown submission field(s): {', '.join(unknown)}"
            )
        specs = specs_from_payload(payload.get("specs"))
        overrides = payload.get("config")
        if overrides is not None and not isinstance(overrides, Mapping):
            raise InvalidJobRequest("'config' must be a JSON object")
        config_from_overrides(overrides)  # validate eagerly: reject at submit
        tenant = payload.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise InvalidJobRequest(f"'tenant' must be a non-empty string, got {tenant!r}")
        priority = payload.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise InvalidJobRequest(f"'priority' must be an integer, got {priority!r}")

        job = Job(
            job_id=f"b-{uuid.uuid4().hex[:12]}",
            specs=specs,
            tenant=tenant,
            priority=priority,
            overrides=dict(overrides) if overrides else None,
            created_ts=self._clock(),
            enqueue_seq=self.queue.reserve_seq(),
        )
        # Persist before pushing: the scheduler must never pop a job id the
        # store cannot resolve.
        self.store.save(job)
        self.queue.push(job)
        if self._obs is not None and self._obs.enabled:
            self._obs.metrics.counter("service/jobs_submitted").inc()
        self._bus_for(job.job_id).publish(
            "queued",
            {
                "job": job.job_id,
                "ts": job.created_ts,
                "tenant": tenant,
                "priority": priority,
                "specs": len(specs),
            },
        )
        return self.status(job.job_id)

    def status(self, job_id: str) -> JSONDict:
        """The job's full status view."""
        job = self.store.get(job_id)
        per_spec: List[JSONDict] = []
        for i, spec in enumerate(job.specs):
            entry: JSONDict = {
                "spec": spec_to_dict(spec),
                "label": spec_label(spec),
                "status": job.state if not job.terminal else "failed",
                "retries": 0,
                "error": None,
                "result": None,
            }
            if job.terminal and i < len(job.outcomes):
                outcome = job.outcomes[i]
                entry["status"] = outcome.get("status", entry["status"])
                entry["retries"] = outcome.get("retries", 0)
                entry["error"] = outcome.get("error")
            if job.state == "cancelled":
                entry["status"] = "cancelled"
            if i < len(job.results):
                entry["result"] = job.results[i]
            per_spec.append(entry)
        return {
            "job": job.job_id,
            "state": job.state,
            "tenant": job.tenant,
            "priority": job.priority,
            "created_ts": job.created_ts,
            "started_ts": job.started_ts,
            "finished_ts": job.finished_ts,
            "attempts": job.attempts,
            "error": job.error,
            "stats": job.stats,
            "specs": per_spec,
        }

    def cancel(self, job_id: str) -> JSONDict:
        """Cancel a *queued* job."""
        job = self.store.get(job_id)
        if job.terminal:
            return self.status(job_id)
        if job.state != "queued" or not self.queue.remove(job_id):
            raise ServiceError(
                f"batch {job_id!r} is {job.state}; only queued batches "
                "can be cancelled"
            )
        job.transition("cancelled")
        job.finished_ts = self._clock()
        self.store.save(job)
        bus = self._bus_for(job_id)
        bus.publish(
            "cancelled",
            {"job": job_id, "ts": job.finished_ts, "state": job.state},
        )
        bus.close()
        self._job_finished(job)
        return self.status(job_id)

    def events_bus(self, job_id: str) -> EventBus:
        """The job's event bus, replaying from the snapshot if the live bus
        belonged to a previous service process."""
        job = self.store.get(job_id)
        with self._bus_lock:
            bus = self._buses.get(job_id)
            if bus is None and job.terminal:
                bus = self._replay_bus(job)
                self._buses[job_id] = bus
        if bus is None:
            bus = self._bus_for(job_id)
        return bus
