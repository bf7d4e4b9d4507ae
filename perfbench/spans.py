"""Span recorder for the traced benchmark run.

The recorder wraps the public methods of each pipeline layer from outside
the program (class attributes and module globals are replaced in this
process only).  Every wrapped call becomes a span: name, start, end,
parent span and the label of the simulation it belongs to.  Self time (a
span's duration minus the part its child spans cover) and call counts are
accumulated exactly for every span; the span records themselves are kept
in memory up to ``SPAN_CAP`` and written out when the benchmark ends.

Nothing here changes what the wrapped code computes: the traced run's
simulated results must stay byte-identical to the untraced run's.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept for the span file; self times and counts cover every span.
SPAN_CAP = 100_000

#: Per-layer spans: (module, attribute path, span name).  Two entries may
#: share a span name (both chain scans, both PCIe directions).
LAYER_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.engine.events", "EventQueue.schedule", "engine.events.schedule"),
    ("repro.engine.events", "EventQueue.pop", "engine.events.pop"),
    ("repro.engine.simulator", "Simulator.__init__", "engine.init"),
    ("repro.engine.simulator", "Simulator.run", "engine.sm"),
    ("repro.translation.hierarchy", "TranslationHierarchy.translate",
     "translation.translate"),
    ("repro.translation.hierarchy", "TranslationHierarchy.shootdown",
     "translation.shootdown"),
    ("repro.translation.hierarchy", "TranslationHierarchy.fill",
     "translation.fill"),
    ("repro.memsim.system", "MemorySystem.touch_page", "memsim.touch"),
    ("repro.memsim.system", "MemorySystem.handle_fault", "memsim.fault"),
    ("repro.memsim.system", "MigrationScheduler.begin_service",
     "memsim.scheduler.begin_service"),
    ("repro.memsim.system", "MigrationScheduler.complete_migration",
     "memsim.scheduler.complete"),
    ("repro.memsim.system", "EvictionService.ensure_capacity",
     "memsim.evict.ensure_capacity"),
    ("repro.memsim.system", "EvictionService.evict_chunk",
     "memsim.evict.evict_chunk"),
    ("repro.memsim.chunk_chain", "ChunkChain.candidates_from_tail",
     "memsim.chunk_chain.candidates"),
    ("repro.memsim.chunk_chain", "ChunkChain.candidates_from_head",
     "memsim.chunk_chain.candidates"),
    ("repro.memsim.pcie", "PCIeLink.transfer_to_device", "memsim.pcie.transfer"),
    ("repro.memsim.pcie", "PCIeLink.transfer_to_host", "memsim.pcie.transfer"),
    ("repro.harness.experiment", "make_workload", "workloads.make"),
    ("repro.harness.cache", "ResultCache.get", "harness.cache.get"),
    ("repro.harness.cache", "ResultCache.put", "harness.cache.put"),
    ("repro.harness.parallel", "ParallelRunner.run", "harness.parallel"),
)

#: Policy hooks whose self time is ``policies.hooks_s``.
POLICY_HOOKS = (
    "on_fault", "on_page_touched", "on_interval_end", "insert_chunk",
    "on_chunk_evicted",
)


class SpanRecorder:
    """In-memory spans with exact per-name self time and call counts."""

    def __init__(self) -> None:
        self.label = ""
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._self_s: List[float] = []
        self._calls: List[int] = []
        self.counters: Dict[str, int] = defaultdict(int)
        #: (span id, parent id, name id, start, end, label); parent 0 = root.
        self.spans: List[Tuple[int, int, int, float, float, str]] = []
        self._next_id = itertools.count(1).__next__
        # Frames are [span id, seconds covered by child spans].
        self._stack: List[List[Any]] = [[0, 0.0]]
        self._root_start = 0.0
        self._root_end = 0.0

    # --- measurement window -------------------------------------------------

    def start(self) -> None:
        self._stack[:] = [[0, 0.0]]
        self._root_start = time.perf_counter()

    def stop(self) -> None:
        self._root_end = time.perf_counter()

    @property
    def wall_s(self) -> float:
        return self._root_end - self._root_start

    @property
    def covered_s(self) -> float:
        """Wall time inside some top-level layer span."""
        return self._stack[0][1]

    # --- wrappers -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._self_s.append(0.0)
            self._calls.append(0)
        return self._ids[name]

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call records one span named ``name``."""
        nid = self._name_id(name)
        stack = self._stack
        self_s = self._self_s
        calls = self._calls
        spans = self.spans
        next_id = self._next_id
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [next_id(), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[nid] += dur - frame[1]
                calls[nid] += 1
                parent[1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], parent[0], nid, t0, t1, rec.label))

        return wrapper

    def counted(
        self, name: str, fn: Callable, tally: Optional[Callable] = None
    ) -> Callable:
        """``fn`` wrapped to count calls (and ``tally(result)``), no span."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[name] += 1
            if tally is not None:
                tally(result)
            return result

        return wrapper

    # --- results ------------------------------------------------------------

    def self_s(self, *names: str) -> float:
        return sum(self._self_s[self._ids[n]] for n in names if n in self._ids)

    def calls(self, *names: str) -> int:
        return sum(self._calls[self._ids[n]] for n in names if n in self._ids)

    def write(self, path: Path, header: Dict[str, Any]) -> None:
        """Span file: one JSON header line, then one line per kept span
        ``[id, parent, name, start_s, end_s, label]`` (times from the
        window start)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self._root_start
        with open(path, "w") as fh:
            fh.write(json.dumps({
                **header,
                "total_spans": sum(self._calls),
                "kept_spans": len(self.spans),
            }) + "\n")
            for sid, parent, nid, start, end, label in self.spans:
                fh.write(json.dumps([
                    sid, parent, self.names[nid], round(start - t0, 9),
                    round(end - t0, 9), label,
                ]) + "\n")


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class LayerTrace:
    """Installs the layer wrappers on the live program, once per process."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        #: Simulation totals of every run that finished while installed.
        self.run_stats: List[Any] = []
        self.scan_entries = 0
        self.scan_victims = 0

    def install(self) -> None:
        rec = self.rec
        from repro.engine.events import EventQueue
        from repro.engine.simulator import Simulator
        from repro.harness import parallel
        from repro.harness.baselines import build_policy, build_prefetcher
        from repro.memsim.chunk_chain import ChunkChain
        from repro.registry import names

        for module, path, name in LAYER_SPANS:
            owner, attr = _resolve(module, path)
            setattr(owner, attr, rec.span(name, getattr(owner, attr)))

        def note_dispatched(n: int) -> None:
            rec.counters["engine.events.dispatched"] += n

        EventQueue.run = rec.counted("engine.events.run", EventQueue.run,
                                     note_dispatched)
        ChunkChain.move_to_tail = rec.counted(
            "memsim.chunk_chain.move_to_tail", ChunkChain.move_to_tail
        )

        def note_scan(entries: list) -> None:
            self.scan_entries += len(entries)

        for attr in ("candidates_from_tail", "candidates_from_head"):
            setattr(ChunkChain, attr,
                    rec.counted("memsim.chunk_chain.scan_entries",
                                getattr(ChunkChain, attr), note_scan))

        def note_hit(result: Any) -> None:
            if result is not None:
                rec.counters["harness.cache.hits"] += 1

        from repro.harness.cache import ResultCache
        ResultCache.get = rec.counted("harness.cache.get_returns",
                                      ResultCache.get, note_hit)

        # Simulation boundary: collect each finished run's statistics, and
        # the victims of runs whose policy scanned the chain.
        inner_run = Simulator.run
        trace = self

        @functools.wraps(inner_run)
        def run(sim):
            scans_before = rec.calls("memsim.chunk_chain.candidates")
            result = inner_run(sim)
            trace.run_stats.append(result.stats)
            if rec.calls("memsim.chunk_chain.candidates") > scans_before:
                trace.scan_victims += result.stats.chunks_evicted
            return result

        Simulator.run = run

        # Every simulation label comes through the guarded entry point.
        execute = parallel._execute

        @functools.wraps(execute)
        def labelled(spec, config=None, obs=None):
            rec.label = parallel._spec_label(spec)
            return execute(spec, config, obs)

        parallel._execute = rec.span("harness.execute", labelled)

        policy_classes = {type(build_policy(n)) for n in names("policy")}
        for cls in sorted(policy_classes, key=lambda c: c.__name__):
            cls.select_victims = rec.span("policies.select_victims",
                                          cls.select_victims)
            for hook in POLICY_HOOKS:
                setattr(cls, hook, rec.span("policies.hooks", getattr(cls, hook)))
        prefetcher_classes = {type(build_prefetcher(n)) for n in names("prefetcher")}
        for cls in sorted(prefetcher_classes, key=lambda c: c.__name__):
            cls.pages_to_migrate = rec.span("prefetch.pages_to_migrate",
                                            cls.pages_to_migrate)

    def metrics(self, sim: Dict[str, int]) -> Dict[str, float]:
        """Per-layer metrics; ``sim`` holds the simulated totals."""
        rec = self.rec
        c = rec.counters

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "engine.events.dispatched": c["engine.events.dispatched"],
            "engine.events.schedule_calls": rec.calls("engine.events.schedule"),
            "engine.events.self_s": rec.self_s("engine.events.schedule",
                                               "engine.events.pop"),
            "engine.init_s": rec.self_s("engine.init"),
            "engine.sm.self_s": rec.self_s("engine.sm"),
            "engine.sm.accesses": sim["accesses"],
            "engine.sm.stall_events": sim["sm_stall_events"],
            "translation.translate_calls": rec.calls("translation.translate"),
            "translation.translate_s": rec.self_s("translation.translate"),
            "translation.shootdown_calls": rec.calls("translation.shootdown"),
            "translation.shootdown_s": rec.self_s("translation.shootdown"),
            "translation.fill_s": rec.self_s("translation.fill"),
            "translation.l1_hit_rate": ratio(
                sim["l1_tlb_hits"], sim["l1_tlb_hits"] + sim["l1_tlb_misses"]),
            "translation.l2_hit_rate": ratio(
                sim["l2_tlb_hits"], sim["l2_tlb_hits"] + sim["l2_tlb_misses"]),
            "translation.walks": sim["page_walks"],
            "memsim.touch_calls": rec.calls("memsim.touch"),
            "memsim.touch_s": rec.self_s("memsim.touch"),
            "memsim.fault_calls": rec.calls("memsim.fault"),
            "memsim.fault_s": rec.self_s("memsim.fault"),
            "memsim.merged_ratio": ratio(sim["merged_faults"], sim["far_faults"]),
            "memsim.scheduler.begin_service_calls": rec.calls(
                "memsim.scheduler.begin_service"),
            "memsim.scheduler.begin_service_s": rec.self_s(
                "memsim.scheduler.begin_service"),
            "memsim.scheduler.complete_s": rec.self_s("memsim.scheduler.complete"),
            "memsim.scheduler.pages_migrated": sim["pages_migrated"],
            "memsim.evict.ensure_capacity_s": rec.self_s(
                "memsim.evict.ensure_capacity"),
            "memsim.evict.chunks": sim["chunks_evicted"],
            "memsim.evict.evict_chunk_s": rec.self_s("memsim.evict.evict_chunk"),
            "memsim.evict.wrong_evictions": sim["wrong_evictions"],
            "memsim.chunk_chain.candidates_calls": rec.calls(
                "memsim.chunk_chain.candidates"),
            "memsim.chunk_chain.candidates_s": rec.self_s(
                "memsim.chunk_chain.candidates"),
            "memsim.chunk_chain.candidates_per_victim": ratio(
                self.scan_entries, self.scan_victims),
            "memsim.chunk_chain.move_to_tail_calls": c[
                "memsim.chunk_chain.move_to_tail"],
            "memsim.chunk_chain.peak_length": sim["chain_length_peak"],
            "memsim.pcie.transfer_calls": rec.calls("memsim.pcie.transfer"),
            "memsim.pcie.transfer_s": rec.self_s("memsim.pcie.transfer"),
            "policies.select_victims_calls": rec.calls("policies.select_victims"),
            "policies.select_victims_s": rec.self_s("policies.select_victims"),
            "policies.hooks_s": rec.self_s("policies.hooks"),
            "prefetch.calls": rec.calls("prefetch.pages_to_migrate"),
            "prefetch.s": rec.self_s("prefetch.pages_to_migrate"),
            "prefetch.accuracy": ratio(sim["prefetched_pages_touched"],
                                       sim["prefetched_pages"]),
            "prefetch.pattern_hits": sim["pattern_hits"],
            "workloads.make_calls": rec.calls("workloads.make"),
            "workloads.make_s": rec.self_s("workloads.make"),
            "harness.cache.get_calls": rec.calls("harness.cache.get"),
            "harness.cache.get_s": rec.self_s("harness.cache.get"),
            "harness.cache.put_calls": rec.calls("harness.cache.put"),
            "harness.cache.put_s": rec.self_s("harness.cache.put"),
            "harness.cache.hit_ratio": ratio(c["harness.cache.hits"],
                                             rec.calls("harness.cache.get")),
            "harness.parallel.self_s": rec.self_s("harness.parallel"),
            "harness.execute_s": rec.self_s("harness.execute"),
            "trace.unattributed_frac": ratio(rec.wall_s - rec.covered_s,
                                             rec.wall_s),
        }
