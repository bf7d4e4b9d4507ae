"""The benchmark's three workloads and their correctness checks.

* ``fig8`` — the paper's headline matrix (CPPE vs baseline at 75% and 50%
  oversubscription) through ``submit_batch(jobs=1)`` on an empty
  ``ResultCache``, then replayed warm from disk with the memo cleared;
* ``resident-reuse`` — each suite application's trace replayed several
  times back to back with unlimited memory, through ``Simulator.run``;
* ``shootout`` — ``run_shootout`` (every registered policy x prefetcher)
  for one application per access-pattern type, serially (the traced run
  adds one pass on a process pool).

Every workload takes the benchmark seed: seed 0 keeps the suite's own
per-application seeds, any other seed derives a fresh seed per application.
The default ``SimConfig`` is used throughout, so the default backend is
what gets measured.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.engine.simulator import SimulationResult, Simulator
from repro.engine.stats import SimStats
from repro.harness.baselines import build_setup
from repro.harness.cache import ResultCache, serialize_result, set_active_cache
from repro.harness.experiment import (
    BatchStats,
    RunSpec,
    clear_cache,
    run_one,
    spec_label,
    submit_batch,
)
from repro.harness.shootout import run_shootout, shootout_setups
from repro.workloads.base import Workload
from repro.workloads.suite import BENCHMARKS, get_benchmark, make_workload

#: The paper's average CPPE speedups over the baseline (Fig. 8).
PAPER_SPEEDUP = {0.75: 1.56, 0.5: 1.64}

#: Simulated totals emitted as the exact-count record.
COUNT_FIELDS = (
    "accesses", "far_faults", "merged_faults", "chunks_evicted",
    "pages_migrated", "prefetched_pages", "prefetched_pages_touched",
    "wrong_evictions", "tlb_shootdowns",
)
#: Further totals the per-layer metrics are derived from.
LAYER_FIELDS = (
    "sm_stall_events", "l1_tlb_hits", "l1_tlb_misses", "l2_tlb_hits",
    "l2_tlb_misses", "page_walks", "pattern_hits",
)


def app_seed(app: str, seed: int) -> Optional[int]:
    """The trace seed of ``app`` under benchmark seed ``seed``."""
    if seed == 0:
        return None
    return (get_benchmark(app).seed + 7919 * seed) % (2 ** 31)


def trace_digest(workload: Workload) -> str:
    """sha256 of a workload's generated access stream (write flags aside)."""
    return hashlib.sha256(workload.accesses.tobytes()).hexdigest()


def result_digests(results: Dict[str, SimulationResult]) -> Dict[str, str]:
    """Per-label sha256 of the pickled result (what the cache stores)."""
    return {
        label: hashlib.sha256(serialize_result(r)).hexdigest()
        for label, r in results.items()
    }


def results_digest(digests: Dict[str, str]) -> str:
    """One digest over every per-result digest, in label order."""
    lines = "\n".join(f"{k} {v}" for k, v in digests.items())
    return hashlib.sha256(lines.encode()).hexdigest()


def totals(stats: Iterable[SimStats]) -> Dict[str, int]:
    """Simulated totals over runs (``chain_length_peak`` is a maximum)."""
    stats = list(stats)
    out = {f: sum(getattr(s, f) for s in stats)
           for f in COUNT_FIELDS + LAYER_FIELDS}
    out["chain_length_peak"] = max((s.chain_length_peak for s in stats), default=0)
    return out


def paper_errors(results: Dict[str, SimulationResult], specs: List[RunSpec]) -> Dict[str, float]:
    """|mean CPPE-over-baseline speedup - paper| / paper, per rate.

    Crashed pairs are excluded, as in ``figures.fig8``.
    """
    by_key = {(s.app, s.setup, s.oversubscription): results[spec_label(s)]
              for s in specs}
    out = {}
    for rate, paper in PAPER_SPEEDUP.items():
        speedups = []
        for app in dict.fromkeys(s.app for s in specs):
            base = by_key[(app, "baseline", rate)]
            cppe = by_key[(app, "cppe", rate)]
            if not (base.crashed or cppe.crashed):
                speedups.append(cppe.speedup_over(base))
        mean = sum(speedups) / len(speedups)
        out[f"paper_err_{round(rate * 100)}"] = abs(mean - paper) / paper
    return out


@dataclass
class Pass:
    """One pass over a workload: results by label, in workload order.

    ``marks`` are clock readings at the start, at every unit boundary and
    at the end of the pass.  A unit (one spec, one simulation or one batch)
    is the same work in every pass, so passes can be compared unit by unit.
    """

    results: Dict[str, SimulationResult]
    marks: List[float]
    batches: List[BatchStats] = field(default_factory=list)
    #: Per batch: seconds from submit to the first progress callback.
    first_result_s: List[float] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.marks[-1] - self.marks[0]

    @property
    def units(self) -> List[float]:
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


def fastest_units_s(passes: List[List[float]]) -> float:
    """Pass time with each unit at its fastest over ``passes``.

    Work is deterministic and a busy host only ever slows it down, so the
    fastest reading of each unit is its least disturbed one; summing them
    rebuilds a pass free of the host's slow phases.
    """
    return sum(min(unit) for unit in zip(*passes))


def _quiesce() -> None:
    """Drop the in-process memo and collect garbage before a timed pass, so
    every pass starts from the same heap."""
    clear_cache(disk=False)
    gc.collect()


class _Marks(list):
    """Progress callback that records the clock at every call."""

    def stamp(self) -> "_Marks":
        self.append(time.perf_counter())
        return self

    def __call__(self, done: int, total: int) -> None:
        self.stamp()


class Case:
    """A workload: set up in the constructor, then cold and warm passes."""

    name = ""
    has_warm = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.jobs = 1
        #: Workers of the pool pass the traced run times first_result_s on.
        self.pool_jobs = 1
        #: Generated traces by group label (the duplicate-input report).
        self.traces: Dict[str, Workload] = {}
        #: Expected simulated accesses by result label.
        self.expected_accesses: Dict[str, int] = {}
        #: Distinct specs per batch of one pass.
        self.batch_sizes: List[int] = []
        #: Told the label of each simulation run outside the harness.
        self.label_sink: Callable[[str], None] = lambda label: None
        self._cache_dir: Optional[Path] = None

    def _fresh_cache(self) -> ResultCache:
        self.close()
        self._cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))
        return ResultCache(self._cache_dir)

    def close(self) -> None:
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = None

    def cold(self, jobs: Optional[int] = None) -> Pass:
        raise NotImplementedError

    def warm(self) -> Pass:
        raise NotImplementedError

    def duplicates(self) -> List[List[str]]:
        """Groups of trace labels whose access streams are byte-identical."""
        groups: Dict[str, List[str]] = {}
        for label, workload in self.traces.items():
            groups.setdefault(trace_digest(workload), []).append(label)
        return [labels for labels in groups.values() if len(labels) > 1]

    # --- correctness ------------------------------------------------------

    def check_results(self, p: Pass) -> List[str]:
        problems = []
        for label, result in p.results.items():
            if result.stats.accesses != self.expected_accesses[label]:
                problems.append(
                    f"{label}: simulated {result.stats.accesses} accesses, "
                    f"trace has {self.expected_accesses[label]}"
                )
        return problems

    def check_cold(self, p: Pass) -> List[str]:
        problems = self.check_results(p)
        for size, stats in zip(self.batch_sizes, p.batches):
            if (stats.simulated, stats.cached, stats.failed, stats.timed_out) != (size, 0, 0, 0):
                problems.append(f"cold batch of {size} specs: {stats}")
        return problems

    def check_warm(self, p: Pass, cold_digests: Dict[str, str]) -> List[str]:
        """Warm replay checks against the cold pass's per-result digests."""
        problems = self.check_results(p)
        for size, stats in zip(self.batch_sizes, p.batches):
            if (stats.cache_hits, stats.simulated, stats.failed) != (size, 0, 0):
                problems.append(f"warm batch of {size} specs: {stats}")
        warm_d = result_digests(p.results)
        for label, digest in cold_digests.items():
            if warm_d.get(label) != digest:
                problems.append(f"{label}: warm replay differs from cold result")
        return problems


class Fig8(Case):
    """The fig8 matrix: every pattern type, both setups, both rates."""

    name = "fig8"
    has_warm = True
    #: One application per pattern type, the eviction-heaviest of its type
    #: where the cost allows (MVT, SRD).
    APPS = ("HOT", "BKP", "MVT", "SRD", "HWL", "B+T")
    SETUPS = ("baseline", "cppe")
    RATES = (0.75, 0.5)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.specs = [
            RunSpec(app, setup, rate, seed=app_seed(app, seed))
            for rate in self.RATES for app in self.APPS for setup in self.SETUPS
        ]
        self.traces = {app: make_workload(app, seed=app_seed(app, seed))
                       for app in self.APPS}
        self.expected_accesses = {
            spec_label(s): self.traces[s.app].num_accesses for s in self.specs
        }
        self.batch_sizes = [len(self.specs)]
        self.cache = self._fresh_cache()

    def _batch(self) -> Pass:
        _quiesce()
        marks = _Marks().stamp()  # then one mark per resolved spec
        results, stats = submit_batch(self.specs, jobs=1, cache=self.cache,
                                      progress=marks)
        marks.stamp()
        return Pass(
            {spec_label(s): results[s.key()] for s in self.specs},
            marks, [stats], [marks[1] - marks[0]],
        )

    def cold(self, jobs: Optional[int] = None) -> Pass:
        self.cache = self._fresh_cache()
        return self._batch()

    def warm(self) -> Pass:
        return self._batch()


class ResidentReuse(Case):
    """Suite traces replayed back to back with no oversubscription."""

    name = "resident-reuse"
    SETUPS = ("baseline", "cppe")
    SCALE = 0.25
    PASSES = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.traces = {app: make_workload(app, scale=self.SCALE,
                                          seed=app_seed(app, seed))
                       for app in BENCHMARKS}
        self.replayed = {
            app: Workload(
                name=w.name,
                pattern_type=w.pattern_type,
                footprint_pages=w.footprint_pages,
                accesses=np.tile(w.accesses, self.PASSES),
                writes=None if w.writes is None else np.tile(w.writes, self.PASSES),
                base_vpn=w.base_vpn,
                distribution=w.distribution,
                description=w.description,
                params={**w.params, "passes": self.PASSES},
            )
            for app, w in self.traces.items()
        }
        self.expected_accesses = {
            self._label(app, setup): w.num_accesses
            for app, w in self.replayed.items() for setup in self.SETUPS
        }

    def _label(self, app: str, setup: str) -> str:
        return f"{app}@unl/{setup}/x{self.SCALE:g}/p{self.PASSES}"

    def cold(self, jobs: Optional[int] = None) -> Pass:
        results = {}
        _quiesce()
        marks = _Marks().stamp()
        for app, workload in self.replayed.items():
            for setup in self.SETUPS:
                label = self._label(app, setup)
                self.label_sink(label)
                policy, prefetcher = build_setup(setup)
                results[label] = Simulator(
                    workload, policy=policy, prefetcher=prefetcher,
                    oversubscription=None,
                ).run()
                marks.stamp()
        return Pass(results, marks)

    def check_results(self, p: Pass) -> List[str]:
        problems = super().check_results(p)
        problems.extend(
            f"{label}: {r.stats.chunks_evicted} chunk evictions with unlimited memory"
            for label, r in p.results.items() if r.stats.chunks_evicted
        )
        return problems


class Shootout(Case):
    """Every policy x prefetcher combo on one app per pattern type."""

    name = "shootout"
    has_warm = True
    APPS = ("HOT", "BKP", "NW", "SRD", "HWL", "B+T")
    RATE = 0.5
    SCALE = 0.05

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        # Timed passes run serially: on a host with few cores a pool's
        # speed-up changes with the load of other tenants.  Only the traced
        # run's first_result_s pass uses the pool.
        self.pool_jobs = min(2, os.cpu_count() or 1)
        setups = shootout_setups()
        self.specs = [
            RunSpec(app, setup, self.RATE, scale=self.SCALE, seed=app_seed(app, seed))
            for app in self.APPS for setup in setups
        ]
        self.traces = {app: make_workload(app, scale=self.SCALE,
                                          seed=app_seed(app, seed))
                       for app in self.APPS}
        self.expected_accesses = {
            spec_label(s): self.traces[s.app].num_accesses for s in self.specs
        }
        self.batch_sizes = [len(setups)] * len(self.APPS)
        self._fresh_cache()

    def _fresh_cache(self) -> ResultCache:
        cache = super()._fresh_cache()
        set_active_cache(cache)  # run_shootout reads the active cache
        return cache

    def _batches(self, jobs: int) -> Pass:
        _quiesce()
        batches, firsts = [], []
        # One mark per resolved spec and one at the end of each batch.
        marks = _Marks().stamp()
        for app in self.APPS:
            submitted = len(marks)
            shootout = run_shootout(app, rate=self.RATE, scale=self.SCALE,
                                    seed=app_seed(app, self.seed), jobs=jobs,
                                    progress=marks)
            marks.stamp()
            batches.append(shootout.stats)
            firsts.append(marks[submitted] - marks[submitted - 1])
        # Memo lookups: run_shootout left every result in the memo.
        results = {spec_label(s): run_one(s) for s in self.specs}
        return Pass(results, marks, batches, firsts)

    def cold(self, jobs: Optional[int] = None) -> Pass:
        self._fresh_cache()
        return self._batches(self.jobs if jobs is None else jobs)

    def warm(self) -> Pass:
        return self._batches(self.jobs)


CASES = {case.name: case for case in (Fig8, ResidentReuse, Shootout)}


def make_case(name: str, seed: int, workdir: Path) -> Case:
    """Set up workload ``name``: import-time registry, cache dir, traces."""
    return CASES[name](seed, workdir)
