"""Parallel experiment execution engine.

:class:`ParallelRunner` fans a batch of :class:`~repro.harness.experiment.RunSpec`
simulations out over a :class:`concurrent.futures.ProcessPoolExecutor`
(worker count configurable, default ``os.cpu_count()``), layered on the same
two caches as the serial path:

* specs already in the in-process memo or the persistent disk cache are
  served without touching the pool (counted in ``memo_hits`` /
  ``cache_hits``);
* the remainder are simulated in worker processes via the *same*
  ``experiment._execute`` code path the serial runner uses, then written to
  the disk cache and seeded into the memo (counted in ``simulated``).

Because simulations are seeded and deterministic, the runner's results are
field-for-field identical to serial ``run_matrix`` output — enforced by the
differential suite in ``tests/test_parallel_runner.py``.

Failure handling (``tests/test_fault_tolerance.py``) distinguishes two
families, and the distinction is structural, not type-based:

* the worker entry point (:func:`_pool_entry`) never lets an exception
  escape — it returns a :class:`_WorkerReply` envelope carrying either the
  payload or a picklable :class:`~repro.errors.WorkerFailure` with the spec
  label and remote traceback.  A *simulation-level* ``RuntimeError`` or
  ``OSError`` therefore surfaces as that spec's failure (fail fast, or
  record-and-continue under ``keep_going``), never as pool breakage;
* any exception that *does* cross the future boundary is by construction
  infrastructure-level: the pool is rebuilt with bounded backoff
  (``FaultTolerance.retries``) and, past the budget, the batch degrades to
  serial in-process execution.  A pool that cannot be created at all
  (platforms without working process semaphores) short-circuits to serial;
  ``jobs=1`` requests serial execution outright.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..config import SimConfig
from ..engine.simulator import SimulationResult
from ..errors import PoolError, WorkerFailure, WorkerTimeout
from ..obs import Observability, ObsConfig
from . import experiment
from .cache import ResultCache
from .experiment import (
    RunSpec,
    _execute,
    _execute_traced,
    _memo_key,
    _resolve_cache,
    _spec_label,
)
from .faults import FaultTolerance, SpecOutcome, active_fault_plan, backoff_delay

__all__ = ["ParallelRunner", "default_jobs", "stderr_progress"]

#: Errors that mean "no usable process pool can be created here" -> serial
#: fallback.  Consulted around pool *construction* only: once workers run,
#: every worker-side exception travels back inside a ``_WorkerReply``
#: envelope, so an exception crossing the future boundary is always
#: infrastructure-level (see ``_dispatch``) — the old over-broad tuple that
#: also caught ``RuntimeError`` here silently reclassified simulation bugs
#: as pool breakage and re-ran whole batches serially to mask them.
_POOL_UNAVAILABLE = (OSError, NotImplementedError, ImportError)


def default_jobs() -> int:
    """Default worker count: ``os.cpu_count()`` (at least 1)."""
    return os.cpu_count() or 1


def stderr_progress(label: str = "runs") -> Callable[[int, int], None]:
    """A progress callback that renders ``label: done/total`` on stderr."""

    def report(done: int, total: int) -> None:
        end = "\n" if done >= total else ""
        print(f"\r{label}: {done}/{total}", end=end, file=sys.stderr, flush=True)

    return report


class _WorkerReply:
    """Picklable envelope a worker returns: payload or failure, never raise."""

    __slots__ = ("label", "payload", "failure")

    def __init__(self, label, payload=None, failure=None):
        self.label = label
        self.payload = payload
        self.failure = failure

    def __reduce__(self):
        return (_WorkerReply, (self.label, self.payload, self.failure))


def _pool_entry(
    spec: RunSpec,
    config: Optional[SimConfig],
    obs_config: Optional[ObsConfig] = None,
    in_worker: bool = True,
) -> _WorkerReply:
    """Guarded execution entry point (top-level, picklable).

    Shared by the pool workers and the serial/fallback path (with
    ``in_worker=False``), so fault-injection and failure classification
    behave identically under serial and parallel execution.  Consults the
    ``REPRO_FAULT_PLAN`` fault-injection hook before executing.
    """
    label = _spec_label(spec)
    try:
        plan = active_fault_plan()
        corrupt = (
            plan.apply(label, allow_hard_exit=in_worker)
            if plan is not None
            else False
        )
        if obs_config is not None:
            payload: object = _execute_traced(spec, config, obs_config)
        else:
            payload = _execute(spec, config)
        if corrupt:
            payload = "corrupted-payload"
        return _WorkerReply(label, payload=payload)
    except Exception as exc:
        import traceback

        return _WorkerReply(
            label,
            failure=WorkerFailure.from_exception(
                label, exc, remote_traceback=traceback.format_exc()
            ),
        )


def _validate_reply(reply: _WorkerReply, traced: bool) -> Optional[WorkerFailure]:
    """The reply's failure, or a synthesized one for a corrupted payload."""
    if reply.failure is not None:
        return reply.failure
    payload = reply.payload
    ok = (
        isinstance(payload, tuple)
        and len(payload) == 3
        and isinstance(payload[0], SimulationResult)
        if traced
        else isinstance(payload, SimulationResult)
    )
    if ok:
        return None
    return WorkerFailure(
        label=reply.label,
        exc_type="CorruptedResult",
        message=f"worker returned a corrupted payload ({type(payload).__name__})",
        kind="harness",
    )


class ParallelRunner:
    """Run batches of specs concurrently, with persistent caching.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means :func:`default_jobs`, ``1`` means
        serial in-process execution (no pool).  Zero or negative raises
        ``ValueError`` (it used to silently become the default).
    cache:
        A :class:`ResultCache`, ``None`` to disable the disk layer, or the
        default (the process-wide active cache).
    progress:
        ``progress(done, total)`` called after every resolved spec
        (including cache hits; duplicate specs count the moment their
        shared result resolves).
    fault_tolerance:
        A :class:`~repro.harness.faults.FaultTolerance` policy; the default
        fails fast on the first spec failure and retries a broken pool
        twice.  Per-spec :class:`SpecOutcome` records accumulate on the
        policy object (and on ``self.outcomes``).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache=experiment._ACTIVE,
        progress: Optional[Callable[[int, int], None]] = None,
        fault_tolerance: Optional[FaultTolerance] = None,
    ):
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs if jobs is not None else default_jobs()
        self._cache_arg = cache
        self.progress = progress
        self.fault_tolerance = fault_tolerance or FaultTolerance()
        # Lifetime counters (across run() calls on this instance):
        self.simulated = 0  # simulations actually executed
        self.memo_hits = 0  # served from the in-process memo
        self.cache_hits = 0  # served from the disk cache
        self.failed = 0  # specs whose simulation failed
        self.timed_out = 0  # specs reaped by the progress timeout
        self.pool_retries = 0  # broken-pool rebuild attempts
        self.fell_back_serial = False  # pool unavailable/broken at least once
        #: How many times each key was dispatched (retries = dispatches - 1).
        self._dispatches: Dict[Tuple, int] = {}

    @property
    def cache(self) -> Optional[ResultCache]:
        return _resolve_cache(self._cache_arg)

    @property
    def outcomes(self) -> List[SpecOutcome]:
        return self.fault_tolerance.outcomes

    # ------------------------------------------------------------------

    def run(
        self,
        specs: Sequence[RunSpec],
        config: Optional[SimConfig] = None,
        use_cache: bool = True,
        obs: Optional[Observability] = None,
    ) -> List[Optional[SimulationResult]]:
        """Resolve every spec; returns results aligned with ``specs``.

        Duplicate specs are simulated once.  With ``use_cache=False`` both
        cache layers are bypassed (every distinct spec simulates).

        A failing spec raises :class:`~repro.errors.WorkerFailure` (carrying
        the spec label and the remote traceback); under
        ``fault_tolerance.keep_going`` it instead records a ``failed`` /
        ``timed_out`` outcome and yields ``None`` at that spec's positions,
        while every other spec still resolves (and successful results still
        checkpoint into the disk cache, so a re-invocation resumes from
        cache instead of restarting).

        An enabled ``obs`` traces every distinct spec: caching is forced off
        (cached results have no trace; traced results must not pollute the
        cache), workers return their event lists and metrics snapshots, and
        the parent absorbs them in *input-spec order* once every run has
        finished — the merged trace never depends on pool scheduling.
        Worker failures are mirrored into ``obs`` as ``harness/...``
        counters and ``worker_failure`` events (also in input-spec order).
        """
        obs_config: Optional[ObsConfig] = None
        if obs is not None and obs.enabled:
            obs_config = obs.config()
            use_cache = False
        traced = obs_config is not None
        specs = list(specs)
        total = len(specs)
        done = 0
        keys = [_memo_key(spec, config) for spec in specs]
        multiplicity: Dict[Tuple, int] = {}
        for key in keys:
            multiplicity[key] = multiplicity.get(key, 0) + 1
        resolved: Dict[Tuple, Optional[SimulationResult]] = {}
        pending: List[Tuple] = []  # distinct memo keys needing simulation
        pending_specs: Dict[Tuple, RunSpec] = {}
        traced_payloads: Dict[Tuple, Tuple[list, dict]] = {}
        failures: Dict[Tuple, WorkerFailure] = {}
        statuses: Dict[Tuple, str] = {}
        disk = self.cache if use_cache else None
        ft = self.fault_tolerance

        for spec, key in zip(specs, keys):
            if key in resolved or key in pending_specs:
                continue
            if use_cache and key in experiment._CACHE:
                resolved[key] = experiment._CACHE[key]
                self.memo_hits += 1
                done += multiplicity[key]
                self._record_ok(key, spec)
                self._report(done, total)
                continue
            if disk is not None:
                hit = disk.get(spec, config)
                if hit is not None:
                    resolved[key] = hit
                    experiment._CACHE[key] = hit
                    self.cache_hits += 1
                    done += multiplicity[key]
                    self._record_ok(key, spec)
                    self._report(done, total)
                    continue
            pending.append(key)
            pending_specs[key] = spec

        def finish(key: Tuple, payload) -> None:
            nonlocal done
            spec = pending_specs[key]
            if traced:
                result, events, snapshot = payload
                traced_payloads[key] = (events, snapshot)
            else:
                result = payload
            resolved[key] = result
            self.simulated += 1
            if disk is not None:
                disk.put(spec, config, result)
            if use_cache:
                experiment._CACHE[key] = result
            done += multiplicity[key]
            self._record_ok(key, spec)
            self._report(done, total)

        def fail(key: Tuple, failure: WorkerFailure, status: str = "failed") -> None:
            nonlocal done
            retries = max(0, self._dispatches.get(key, 1) - 1)
            if status == "timed_out":
                self.timed_out += 1
            else:
                self.failed += 1
            failures[key] = failure
            statuses[key] = status
            ft.record(
                SpecOutcome(
                    label=_spec_label(pending_specs[key]),
                    status=status,
                    retries=retries,
                    error=failure,
                )
            )
            if not ft.keep_going:
                raise failure
            resolved[key] = None
            done += multiplicity[key]
            self._report(done, total)

        if pending:
            remaining = list(pending)
            if self.jobs > 1:
                remaining = self._run_pool(
                    remaining, pending_specs, config, finish, fail, obs_config
                )
            for key in remaining:  # serial path / fallback
                self._dispatches[key] = self._dispatches.get(key, 0) + 1
                reply = _pool_entry(
                    pending_specs[key], config, obs_config, in_worker=False
                )
                failure = _validate_reply(reply, traced)
                if failure is not None:
                    fail(key, failure)
                else:
                    finish(key, reply.payload)

        if obs is not None and traced:
            # Absorb in first-appearance input order, never pool completion
            # order: the merged trace must be reproducible run-to-run.
            for key in pending:
                if key in failures:
                    if statuses[key] == "timed_out":
                        obs.metrics.counter("harness/worker_timeouts").inc()
                    else:
                        obs.metrics.counter("harness/worker_failures").inc()
                    obs.tracer.emit(
                        "worker_failure",
                        time=0,
                        label=_spec_label(pending_specs[key]),
                        status=statuses[key],
                        error=str(failures[key].message),
                    )
                    continue
                events, snapshot = traced_payloads[key]
                obs.absorb(_spec_label(pending_specs[key]), events, snapshot)
            if self.pool_retries:
                obs.metrics.counter("harness/pool_retries").inc(self.pool_retries)

        return [resolved[key] for key in keys]

    # ------------------------------------------------------------------

    def _record_ok(self, key: Tuple, spec: RunSpec) -> None:
        retries = max(0, self._dispatches.get(key, 1) - 1)
        self.fault_tolerance.record(
            SpecOutcome(
                label=_spec_label(spec),
                status="retried" if retries else "ok",
                retries=retries,
            )
        )

    def _make_pool(self, workers: int) -> Optional[ProcessPoolExecutor]:
        """A fresh pool, or ``None`` when this platform cannot make one."""
        try:
            return ProcessPoolExecutor(max_workers=workers)
        except _POOL_UNAVAILABLE:
            return None

    def _run_pool(
        self,
        keys: List[Tuple],
        specs: Dict[Tuple, RunSpec],
        config: Optional[SimConfig],
        finish: Callable[[Tuple, object], None],
        fail: Callable[..., None],
        obs_config: Optional[ObsConfig] = None,
    ) -> List[Tuple]:
        """Simulate ``keys`` on process pools; returns keys still pending
        for the serial fallback (all of them when no pool is available).

        A broken pool is rebuilt up to ``fault_tolerance.retries`` times
        with exponential backoff; the keys that settled (finished, failed,
        or timed out) before each breakage are never re-dispatched.
        """
        ft = self.fault_tolerance
        remaining = list(keys)
        attempt = 0
        while remaining:
            pool = self._make_pool(min(self.jobs, len(remaining)))
            if pool is None:
                self.fell_back_serial = True
                return remaining
            settled, broke = self._dispatch(
                pool, remaining, specs, config, finish, fail, obs_config
            )
            remaining = [k for k in remaining if k not in settled]
            if not remaining:
                return []
            if not broke:  # pragma: no cover - defensive: cannot currently happen
                return remaining
            attempt += 1
            self.pool_retries += 1
            if attempt > ft.retries:
                self.fell_back_serial = True
                return remaining
            # Harness-side wall clock: backoff before rebuilding the pool
            # (never reachable from simulation state).  The delay is
            # clamped by faults.MAX_BACKOFF_S so a deep retry budget
            # cannot stall the batch for minutes.
            time.sleep(backoff_delay(attempt))
        return []

    def _dispatch(
        self,
        pool: ProcessPoolExecutor,
        keys: List[Tuple],
        specs: Dict[Tuple, RunSpec],
        config: Optional[SimConfig],
        finish: Callable[[Tuple, object], None],
        fail: Callable[..., None],
        obs_config: Optional[ObsConfig],
    ) -> Tuple[Set[Tuple], bool]:
        """One pool lifetime: returns (settled keys, pool broke?).

        "Settled" covers finished, failed and timed-out specs — anything
        that must not be re-dispatched.  Worker-side errors arrive inside
        ``_WorkerReply`` envelopes; an exception surfacing through a future
        is therefore infrastructure-level and flips ``broke``.
        """
        ft = self.fault_tolerance
        traced = obs_config is not None
        settled: Set[Tuple] = set()
        try:
            with pool:
                futures: Dict[Future, Tuple] = {}
                for key in keys:
                    self._dispatches[key] = self._dispatches.get(key, 0) + 1
                    futures[
                        pool.submit(_pool_entry, specs[key], config, obs_config)
                    ] = key
                not_done = set(futures)
                while not_done:
                    just_done, not_done = wait(
                        not_done,
                        timeout=ft.timeout_s,
                        return_when=FIRST_COMPLETED,
                    )
                    if not just_done:  # no progress within timeout_s: reap
                        settled |= self._reap_stalled(
                            pool, not_done, futures, specs, fail
                        )
                        return settled, True
                    for future in just_done:
                        key = futures[future]
                        exc = future.exception()
                        if exc is not None:
                            # Envelope discipline: this is pool breakage
                            # (worker died, pickling infra failed), never a
                            # simulation error — those come back as replies.
                            raise PoolError(
                                f"process pool broke: {type(exc).__name__}: {exc}"
                            ) from exc
                        reply = future.result()
                        failure = _validate_reply(reply, traced)
                        if failure is not None:
                            settled.add(key)
                            fail(key, failure)
                        else:
                            finish(key, reply.payload)
                            settled.add(key)
        except (BrokenProcessPool, PoolError):
            return settled, True
        return settled, False

    def _reap_stalled(
        self,
        pool: ProcessPoolExecutor,
        not_done: Set[Future],
        futures: Dict[Future, Tuple],
        specs: Dict[Tuple, RunSpec],
        fail: Callable[..., None],
    ) -> Set[Tuple]:
        """Terminate the pool's workers and settle the stalled futures.

        Futures that never started cancel cleanly and stay pending (they
        get re-dispatched on a fresh pool / the serial fallback); the ones
        actually running are the stalled workers — their specs settle as
        ``timed_out``.
        """
        ft = self.fault_tolerance
        stalled = [f for f in not_done if not f.cancel()]
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except OSError:  # pragma: no cover - already-dead worker
                pass
        settled: Set[Tuple] = set()
        timeout = ft.timeout_s if ft.timeout_s is not None else 0.0
        for future in stalled:
            key = futures[future]
            settled.add(key)
            label = _spec_label(specs[key])
            fail(
                key,
                WorkerFailure(
                    label=label,
                    exc_type="WorkerTimeout",
                    message=str(WorkerTimeout(label, timeout)),
                    kind="harness",
                ),
                status="timed_out",
            )
        return settled

    def _report(self, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(done, total)

    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Counters snapshot (what ``repro regen`` prints per batch)."""
        return {
            "jobs": self.jobs,
            "simulated": self.simulated,
            "memo_hits": self.memo_hits,
            "cache_hits": self.cache_hits,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "pool_retries": self.pool_retries,
            "fell_back_serial": self.fell_back_serial,
        }
