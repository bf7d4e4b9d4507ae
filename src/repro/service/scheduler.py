"""The service's drain loop: queued jobs -> ``submit_batch`` -> outcomes.

One :class:`Scheduler` owns one worker thread.  It pops job ids off the
:class:`~repro.service.jobs.JobQueue` in priority order and executes each
batch through :func:`repro.harness.experiment.submit_batch` — deliberately
the *same* entry point the CLI uses, so a service job inherits the whole
harness stack for free: the process pool (``jobs > 1``), fault tolerance
(``keep_going`` + pool retries + worker timeouts + the ``REPRO_FAULT_PLAN``
injection hook) and both result-cache layers.  Re-submitting a batch the
cache already holds therefore comes back with ``BatchStats.simulated == 0``
— the warm path a job's status view reports verbatim.

Progress and outcomes are published to the job's
:class:`~repro.obs.bus.EventBus`; the bus assigns sequence numbers but no
timestamps (it lives on the simulation side of the determinism boundary),
so this module stamps wall-clock ``ts`` into every payload itself.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from ..engine.simulator import SimulationResult
from ..errors import ReproError
from ..harness.experiment import BatchStats, spec_label, submit_batch
from ..harness.faults import FaultTolerance, SpecOutcome, summarize_outcomes
from ..obs import EventBus, Observability
from .jobs import Job, JobQueue, JobStore
from .wire import JSONDict, config_from_overrides, result_to_dict

__all__ = ["Scheduler"]


def _outcome_to_dict(outcome: SpecOutcome) -> JSONDict:
    error: Optional[str] = None
    if outcome.error is not None:
        error = f"{outcome.error.exc_type}: {outcome.error.message}"
    return {
        "label": outcome.label,
        "status": outcome.status,
        "retries": outcome.retries,
        "error": error,
    }


class Scheduler:
    """Single worker thread draining the job queue through the harness."""

    def __init__(
        self,
        queue: JobQueue,
        store: JobStore,
        bus_for: Callable[[str], EventBus],
        jobs: int = 1,
        use_cache: bool = True,
        fault_retries: int = 2,
        spec_timeout_s: Optional[float] = None,
        max_backoff_s: float = 2.0,
        obs: Optional[Observability] = None,
        clock: Callable[[], float] = time.time,
        on_terminal: Optional[Callable[[Job], None]] = None,
    ) -> None:
        self._queue = queue
        self._store = store
        self._bus_for = bus_for
        self._jobs = jobs
        self._use_cache = use_cache
        self._fault_retries = fault_retries
        self._spec_timeout_s = spec_timeout_s
        self._max_backoff_s = max_backoff_s
        self._obs = obs
        self._clock = clock
        self._on_terminal = on_terminal
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # --- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._drain, name="repro-service-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        self._stop.set()
        self._queue.close()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    # --- drain loop -------------------------------------------------------

    def _drain(self) -> None:
        while not self._stop.is_set():
            job_id = self._queue.pop(timeout=0.2)
            if job_id is None:
                continue
            try:
                job = self._store.get(job_id)
            except ReproError:
                continue
            if job.state != "queued":  # cancelled while queued
                continue
            self._execute(job)

    def _publish(self, job: Job, kind: str, payload: JSONDict) -> None:
        bus = self._bus_for(job.job_id)
        if bus.closed:
            return
        body = dict(payload)
        body.setdefault("job", job.job_id)
        body.setdefault("ts", self._clock())
        bus.publish(kind, body)

    def _count(self, name: str) -> None:
        if self._obs is not None and self._obs.enabled:
            self._obs.metrics.counter(name).inc()

    def _execute(self, job: Job) -> None:
        job.transition("running")
        job.started_ts = self._clock()
        self._store.save(job)
        self._count("service/jobs_started")
        self._publish(job, "started", {"attempt": job.attempts})

        ft = FaultTolerance(
            keep_going=True,
            retries=self._fault_retries,
            timeout_s=self._spec_timeout_s,
            max_backoff_s=self._max_backoff_s,
        )

        def progress(done: int, total: int) -> None:
            self._publish(job, "progress", {"done": done, "total": total})

        try:
            results, stats = submit_batch(
                job.specs,
                config=config_from_overrides(job.overrides),
                use_cache=self._use_cache,
                jobs=self._jobs,
                progress=progress,
                fault_tolerance=ft,
            )
        except ReproError as exc:
            self._finish_crashed(job, f"{type(exc).__name__}: {exc}")
            return
        except Exception:
            self._finish_crashed(job, traceback.format_exc(limit=3))
            return
        self._finish(job, results, stats, ft.outcomes)

    def _finish(
        self,
        job: Job,
        results: Dict[Tuple, Optional[SimulationResult]],
        stats: BatchStats,
        outcomes: List[SpecOutcome],
    ) -> None:
        by_label = summarize_outcomes(outcomes)
        job.outcomes = []
        job.results = []
        failed_specs = 0
        for spec in job.specs:
            label = spec_label(spec)
            outcome = by_label.get(label)
            if outcome is None:
                # Cache/memo hits never reach the fault-tolerance layer;
                # a missing outcome is a success served from a cache.
                outcome = SpecOutcome(label=label, status="ok")
            record = _outcome_to_dict(outcome)
            self._publish(job, "spec_outcome", record)
            job.outcomes.append(record)
            result = results.get(spec.key())
            if result is None or outcome.status in ("failed", "timed_out"):
                failed_specs += 1
                job.results.append(None)
            else:
                job.results.append(result_to_dict(result))
        job.stats = {
            "simulated": stats.simulated,
            "memo_hits": stats.memo_hits,
            "cache_hits": stats.cache_hits,
            "failed": stats.failed,
            "timed_out": stats.timed_out,
        }
        self._publish(job, "batch_stats", dict(job.stats))
        job.finished_ts = self._clock()
        if failed_specs:
            job.error = f"{failed_specs} of {len(job.specs)} spec(s) failed"
            job.transition("failed")
            self._count("service/jobs_failed")
            self._publish(
                job, "failed", {"state": job.state, "error": job.error}
            )
        else:
            job.transition("done")
            self._count("service/jobs_done")
            self._publish(job, "done", {"state": job.state})
        self._store.save(job)
        self._bus_for(job.job_id).close()
        if self._on_terminal is not None:
            self._on_terminal(job)

    def _finish_crashed(self, job: Job, error: str) -> None:
        """The batch machinery itself raised — the job fails wholesale."""
        job.error = error.strip()
        job.finished_ts = self._clock()
        job.transition("failed")
        self._count("service/jobs_failed")
        self._publish(job, "failed", {"state": job.state, "error": job.error})
        self._store.save(job)
        self._bus_for(job.job_id).close()
        if self._on_terminal is not None:
            self._on_terminal(job)
