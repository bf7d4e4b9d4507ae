"""Experiment runner: declarative run specs + layered result caching.

Figures share many runs (e.g. the baseline at 50% appears in Figs. 8, 9 and
10), and whole regenerations repeat across sessions, so results are cached
at two layers:

* an in-process memo (``_CACHE``) keyed by ``(spec.key(), config hash)`` —
  each configuration simulates at most once per process;
* the persistent disk cache of :mod:`repro.harness.cache` — repeated
  regenerations in fresh processes read results from disk instead of
  re-simulating.

``run_matrix`` fans batches out over a process pool when ``jobs > 1``
(see :mod:`repro.harness.parallel`); because simulations are seeded and
deterministic, parallel and serial execution produce identical results
(enforced by ``tests/test_parallel_runner.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..config import SimConfig
from ..engine.simulator import SimulationResult, Simulator
from ..obs import Observability, ObsConfig, TraceEvent, make_observability
from ..workloads.suite import make_workload
from .baselines import build_setup
from .cache import ResultCache, config_fingerprint, get_active_cache

__all__ = [
    "RunSpec",
    "BatchStats",
    "run_one",
    "run_matrix",
    "submit_batch",
    "collapse_results",
    "spec_label",
    "clear_cache",
    "execution_count",
]


@dataclass(frozen=True)
class RunSpec:
    """One simulation to run: application x setup x oversubscription."""

    app: str
    setup: str  # a key of harness.baselines.SETUPS
    oversubscription: Optional[float]
    scale: float = 1.0
    seed: Optional[int] = None
    #: Enable the runaway-thrashing crash model with this eviction budget
    #: (multiples of the footprint's chunk count); None disables it.
    crash_budget_factor: Optional[float] = None

    def key(self) -> Tuple:
        return (
            self.app,
            self.setup,
            self.oversubscription,
            self.scale,
            self.seed,
            self.crash_budget_factor,
        )


_CACHE: Dict[Tuple, SimulationResult] = {}

#: Simulations actually executed by this process (not served from any cache).
_EXECUTIONS = 0

#: Sentinel: "use the process-wide active disk cache".
_ACTIVE = object()


def execution_count() -> int:
    """Number of simulations this process has actually executed."""
    return _EXECUTIONS


def clear_cache(disk: bool = True) -> None:
    """Drop all memoised results (tests use this for isolation).

    With ``disk=True`` (the default) the active on-disk cache is emptied as
    well — required whenever simulator semantics change without a schema
    bump, and what ``repro cache clear`` calls.  Pass ``disk=False`` to drop
    only the in-process memo (e.g. to force disk-cache reads).
    """
    _CACHE.clear()
    if disk:
        active = get_active_cache()
        if active is not None:
            active.clear()


def _resolve_cache(cache) -> Optional[ResultCache]:
    if cache is _ACTIVE:
        return get_active_cache()
    return cache


def _memo_key(spec: RunSpec, config: Optional[SimConfig]) -> Tuple:
    return (spec.key(), config_fingerprint(config))


def _execute(
    spec: RunSpec,
    config: Optional[SimConfig] = None,
    obs: Optional[Observability] = None,
) -> SimulationResult:
    """Actually simulate ``spec`` (no caching).

    This is the single execution path shared by the serial runner and the
    process-pool workers, which is what makes serial-vs-parallel differential
    testing meaningful.
    """
    global _EXECUTIONS
    # Per-process diagnostic counter, read only via execution_count() in the
    # owning process; workers never aggregate it, so serial/parallel parity
    # is unaffected.
    _EXECUTIONS += 1  # repro-lint: disable=REPRO301
    cfg = config or SimConfig()
    if spec.crash_budget_factor is not None:
        cfg = cfg.with_(
            uvm=replace(
                cfg.uvm, crash_eviction_budget_factor=spec.crash_budget_factor
            )
        )
    workload = make_workload(spec.app, scale=spec.scale, seed=spec.seed)
    policy, prefetcher = build_setup(spec.setup)
    return Simulator(
        workload,
        policy=policy,
        prefetcher=prefetcher,
        oversubscription=spec.oversubscription,
        config=cfg,
        obs=obs,
    ).run()


def _spec_label(spec: RunSpec) -> str:
    """Deterministic run label used to tag merged trace events."""
    rate = (
        "unl"
        if spec.oversubscription is None
        else f"{spec.oversubscription:.0%}"
    )
    label = f"{spec.app}@{rate}/{spec.setup}"
    if spec.scale != 1.0:
        label += f"/x{spec.scale:g}"
    if spec.seed is not None:
        label += f"/s{spec.seed}"
    return label


def spec_label(spec: RunSpec) -> str:
    """Public alias of :func:`_spec_label`: the deterministic label under
    which a spec's trace events, fault-tolerance outcomes
    (:class:`~repro.harness.faults.SpecOutcome`) and fault-plan matches are
    recorded.  The experiment service joins API responses to outcomes
    through this label."""
    return _spec_label(spec)


def _execute_traced(
    spec: RunSpec,
    config: Optional[SimConfig],
    obs_config: ObsConfig,
) -> Tuple[SimulationResult, List[TraceEvent], Dict[str, Dict[str, object]]]:
    """Traced execution entry point (top-level, picklable: this exact
    function is submitted to process pools *and* called on the serial path,
    so merged traces are identical either way).  Returns the result plus the
    run's raw events and metrics snapshot for the parent to absorb."""
    obs = make_observability(obs_config)
    result = _execute(spec, config, obs=obs)
    return result, obs.tracer.events, obs.metrics.snapshot()


def run_one(
    spec: RunSpec,
    config: Optional[SimConfig] = None,
    use_cache: bool = True,
    cache=_ACTIVE,
    obs: Optional[Observability] = None,
) -> SimulationResult:
    """Run (or fetch from a cache layer) a single simulation.

    Lookup order: in-process memo, then the disk ``cache`` (the active one
    by default; pass ``None`` to skip disk).  ``use_cache=False`` bypasses
    and updates neither layer.

    Passing an enabled ``obs`` forces a live simulation (both cache layers
    are bypassed and left untouched: a cached result has no trace, and a
    traced run must not overwrite cache entries produced untraced); the
    run's events and metrics are absorbed into ``obs`` under the spec's
    label.
    """
    if obs is not None and obs.enabled:
        result, events, snapshot = _execute_traced(spec, config, obs.config())
        obs.absorb(_spec_label(spec), events, snapshot)
        return result
    if not use_cache:
        return _execute(spec, config)
    memo_key = _memo_key(spec, config)
    if memo_key in _CACHE:
        return _CACHE[memo_key]
    disk = _resolve_cache(cache)
    if disk is not None:
        result = disk.get(spec, config)
        if result is not None:
            _CACHE[memo_key] = result
            return result
    result = _execute(spec, config)
    if disk is not None:
        disk.put(spec, config, result)
    _CACHE[memo_key] = result
    return result


def _seed_memo(
    spec: RunSpec, config: Optional[SimConfig], result: SimulationResult
) -> None:
    """Install a result produced elsewhere (worker process / disk) in the
    in-process memo, so subsequent ``run_one`` calls hit it."""
    _CACHE[_memo_key(spec, config)] = result


@dataclass(frozen=True)
class BatchStats:
    """Where one batch's results came from (per :func:`submit_batch`)."""

    simulated: int  # executed fresh (serially or in workers)
    memo_hits: int  # served from the in-process memo
    cache_hits: int  # served from the persistent disk cache
    failed: int  # specs whose simulation failed (keep_going)
    timed_out: int  # specs reaped by the worker timeout

    @property
    def cached(self) -> int:
        """Specs served from either cache layer."""
        return self.memo_hits + self.cache_hits


def collapse_results(
    specs: Sequence[RunSpec],
    results: Sequence[Optional[SimulationResult]],
) -> Dict[Tuple, Optional[SimulationResult]]:
    """Collapse position-aligned ``(spec, result)`` pairs to ``{key: result}``.

    A batch may legitimately contain the same spec more than once (service
    clients concatenate overlapping sweeps; figures share baselines).  The
    old ``{spec.key(): r for ...}`` comprehension let *zip order* decide
    which occurrence's value survived for a shared key — so under
    ``keep_going`` a key whose occurrences resolved to both a result and a
    ``None`` (failed) could collapse to either, depending on input order.
    The mapping is now order-independent: a successful result always wins
    over ``None``; a key maps to ``None`` only when **every** occurrence
    failed.  Both outcomes remain visible to the caller — the failure is
    still recorded in the batch's :class:`SpecOutcome` list and counted in
    :class:`BatchStats`; only the *result* mapping prefers the success.
    """
    out: Dict[Tuple, Optional[SimulationResult]] = {}
    for spec, result in zip(specs, results):
        key = spec.key()
        if key not in out or out[key] is None:
            out[key] = result
    return out


def submit_batch(
    specs: Iterable[RunSpec],
    config: Optional[SimConfig] = None,
    use_cache: bool = True,
    jobs: Optional[int] = None,
    cache=_ACTIVE,
    progress: Optional[Callable[[int, int], None]] = None,
    obs: Optional[Observability] = None,
    fault_tolerance=None,
) -> Tuple[Dict[Tuple, SimulationResult], BatchStats]:
    """Run a batch through the parallel engine; also report cache traffic.

    Same contract as :func:`run_matrix` (which delegates here whenever a
    runner is needed), but always routes through
    :class:`~repro.harness.parallel.ParallelRunner` — even at ``jobs=1``,
    where the runner executes serially in-process — and returns the
    runner's per-batch :class:`BatchStats` alongside the results.  Batch
    drivers that adapt to how much work a round actually cost (e.g. the
    adaptive sweep loop) need the simulated/cached split; plain callers can
    keep using :func:`run_matrix`.
    """
    specs = list(specs)
    from .parallel import ParallelRunner  # deferred: avoids import cycle

    runner = ParallelRunner(
        jobs=jobs if jobs is not None else 1,
        cache=cache,
        progress=progress,
        fault_tolerance=fault_tolerance,
    )
    results = runner.run(specs, config=config, use_cache=use_cache, obs=obs)
    stats = BatchStats(
        simulated=runner.simulated,
        memo_hits=runner.memo_hits,
        cache_hits=runner.cache_hits,
        failed=runner.failed,
        timed_out=runner.timed_out,
    )
    return collapse_results(specs, results), stats


def run_matrix(
    specs: Iterable[RunSpec],
    config: Optional[SimConfig] = None,
    use_cache: bool = True,
    jobs: Optional[int] = None,
    cache=_ACTIVE,
    progress: Optional[Callable[[int, int], None]] = None,
    obs: Optional[Observability] = None,
    fault_tolerance=None,
) -> Dict[Tuple, SimulationResult]:
    """Run a batch of specs; returns ``{spec.key(): result}``.

    ``jobs > 1`` fans the batch out over a process pool (falling back to
    serial execution if no pool can be started); ``jobs`` of ``None``/``1``
    runs serially in-process.  ``progress(done, total)`` is invoked after
    each completed spec.  An enabled ``obs`` traces every run (cache layers
    bypassed); worker traces merge into ``obs`` in input-spec order, so the
    merged trace is identical however the batch was scheduled.

    A ``fault_tolerance`` policy (:class:`~repro.harness.faults.FaultTolerance`)
    always routes through :class:`~repro.harness.parallel.ParallelRunner` —
    even for serial batches — so per-spec outcome recording, ``keep_going``
    (failed specs map to ``None`` instead of aborting the batch), and the
    fault-injection hook behave identically at any job count.
    """
    specs = list(specs)
    if fault_tolerance is not None or (jobs is not None and jobs > 1):
        results, _ = submit_batch(
            specs,
            config=config,
            use_cache=use_cache,
            jobs=jobs,
            cache=cache,
            progress=progress,
            obs=obs,
            fault_tolerance=fault_tolerance,
        )
        return results
    out: Dict[Tuple, SimulationResult] = {}
    for i, spec in enumerate(specs):
        out[spec.key()] = run_one(
            spec, config=config, use_cache=use_cache, cache=cache, obs=obs
        )
        if progress is not None:
            progress(i + 1, len(specs))
    return out
