"""The harness-vs-simulation boundary, made explicit.

Determinism rules must not fire on *harness* code: timing a regeneration
batch with ``time.time()`` (``repro.cli``, ``repro.harness.docgen``) is
legitimate — the wall clock feeds progress display only, never simulation
state, so it cannot perturb cached results.  The same call inside
``repro.engine`` would be a reproducibility bug.  Rather than leaving that
distinction to accident (or to scattered suppression comments), this module
is the single authority on which packages are *simulation* code (strict
determinism applies), which are *harness* code (wall clock and environment
reads allowed), and which code is reachable from
:class:`~repro.harness.parallel.ParallelRunner` worker processes
(parallel-safety rules apply).

A module's classification follows its dotted name; corpus/test files can
override their module name with a ``# repro-lint: module=...`` directive
(see :mod:`repro.devtools.checker`).

Two layers use this partition:

* the per-file rules (``REPRO1xx``/``REPRO3xx``) gate on the *package*
  sets below — a fast approximation that needs no whole-program view;
* the ``--deep`` pass (:mod:`repro.devtools.reachability`) computes the
  *true* transitive closure from the entry points below and checks the
  approximation against it (``REPRO604`` flags drift), so a package that
  becomes worker-reachable cannot silently fall out of scope.

``tests/test_boundary.py`` pins this partition against the real package
tree: renaming or adding a package without classifying it here fails the
suite, not just the intent.
"""

from __future__ import annotations

from typing import FrozenSet

__all__ = [
    "SIMULATION_PACKAGES",
    "HARNESS_PACKAGES",
    "SHARED_MODULES",
    "PARALLEL_SCOPE",
    "HASHED_CONFIG_MODULES",
    "WORKER_ENTRY_POINTS",
    "SIMULATION_ENTRY_POINTS",
    "CLI_ENTRY_POINTS",
    "is_simulation_module",
    "is_harness_module",
    "is_parallel_scope",
    "is_hashed_config_module",
]

#: Packages whose code *is* the simulation: anything nondeterministic here
#: (wall clock, unseeded RNG, env reads, set ordering, id() keys) can reach
#: simulation state and silently poison cached Figures 7-10.
SIMULATION_PACKAGES: FrozenSet[str] = frozenset(
    {
        "repro.engine",
        "repro.policies",
        "repro.prefetch",
        "repro.memsim",
        "repro.core",
        "repro.translation",
        "repro.workloads",
        # Observability runs *inside* the simulation (components emit trace
        # events and metrics from hot paths), so it is held to the same
        # determinism bar: sim-time stamps only, no wall clock, no env.
        "repro.obs",
    }
)

#: Harness-side code: drives simulations, renders artifacts, talks to the
#: OS.  Wall-clock reads (timing display), ``os.environ`` (cache location
#: knobs) and similar are *allowed* here — audited call sites:
#: ``repro.cli`` regen batch timing and ``repro.harness.docgen`` per-artifact
#: timing read the clock for stderr logging only.
HARNESS_PACKAGES: FrozenSet[str] = frozenset(
    {
        "repro.cli",
        "repro.__main__",
        "repro.harness",
        "repro.analysis",
        "repro.devtools",
        # What remains of the experiment service: the job state machine,
        # queue and store, and the JSON wire format.  Pure harness — it
        # parses and persists specs but runs no simulation.
        "repro.service",
    }
)

#: Leaf modules shared by both sides of the boundary: configuration
#: dataclasses, the error taxonomy, and unit conversions.  They carry no
#: side effects of their own, but they *are* imported into worker
#: processes, so they sit inside :data:`PARALLEL_SCOPE` (and
#: ``tests/test_boundary.py`` requires every real module to appear in
#: exactly one of the three classification sets).
SHARED_MODULES: FrozenSet[str] = frozenset(
    {
        "repro",
        "repro.config",
        "repro.errors",
        "repro.registry",
        "repro.units",
    }
)

#: Modules whose code runs inside ``ParallelRunner`` worker processes (or is
#: imported by it): worker entry points must be top-level picklables and must
#: not mutate module globals or shared config objects, or serial and parallel
#: runs diverge.  The simulation packages are all in scope — ``_execute``
#: imports them into every worker — plus the harness modules on the worker
#: execution path (``_pool_entry`` -> ``_execute`` -> ``build_setup``) and
#: the shared leaf modules they pull in.  The ``--deep`` reachability pass
#: (REPRO604) checks this set against the actual call-graph closure.
PARALLEL_SCOPE: FrozenSet[str] = SIMULATION_PACKAGES | frozenset(
    {
        "repro.harness.experiment",
        "repro.harness.parallel",
        "repro.harness.faults",
        "repro.harness.baselines",
        "repro.config",
        "repro.errors",
        "repro.registry",
        "repro.units",
    }
)

#: Modules whose dataclasses feed the persistent result-cache content hash
#: (:func:`repro.harness.cache.spec_fingerprint`).  Every field of every
#: dataclass here must be reachable from the fingerprint; mutable or
#: non-field state on them escapes the hash.
HASHED_CONFIG_MODULES: FrozenSet[str] = frozenset(
    {
        "repro.config",
        "repro.harness.experiment",
    }
)

#: The guarded worker entry point: everything transitively callable from
#: here executes inside pool worker processes.  The ``--deep`` pass seeds
#: its worker-reachability closure at these exact qualified names.
WORKER_ENTRY_POINTS: FrozenSet[str] = frozenset(
    {"repro.harness.parallel._pool_entry"}
)

#: The simulation execution seams: the single code path every simulation
#: (serial, pool worker, traced) funnels through.  The ``--deep`` cache-key
#: taint analysis treats config/spec attribute reads reachable from here as
#: behaviour-affecting.
SIMULATION_ENTRY_POINTS: FrozenSet[str] = frozenset(
    {
        "repro.harness.experiment._execute",
        "repro.harness.experiment._execute_traced",
    }
)

#: The outermost entry point of the program (``python -m repro``); useful as
#: a whole-program reachability root for ad-hoc call-graph queries
#: (:meth:`repro.devtools.callgraph.CallGraph.reachable_from`).
CLI_ENTRY_POINTS: FrozenSet[str] = frozenset({"repro.cli.main"})


def _in_packages(module: str, packages: FrozenSet[str]) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in packages
    )


def is_simulation_module(module: str) -> bool:
    """True when ``module`` is simulation code (strict determinism rules)."""
    return _in_packages(module, SIMULATION_PACKAGES)


def is_harness_module(module: str) -> bool:
    """True when ``module`` is harness code (wall clock / env reads allowed)."""
    return _in_packages(module, HARNESS_PACKAGES)


def is_parallel_scope(module: str) -> bool:
    """True when ``module``'s code can run inside pool worker processes."""
    return _in_packages(module, PARALLEL_SCOPE)


def is_hashed_config_module(module: str) -> bool:
    """True when ``module``'s dataclasses feed the result-cache hash."""
    return _in_packages(module, HASHED_CONFIG_MODULES)
