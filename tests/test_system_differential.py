"""Differential proof that the memory system is the old monolith.

The staged :class:`~repro.memsim.system.MemorySystem` over its flat-list
structures must be *behavior preserving*: same results, same traces, same
cache keys.  These tests run it and the frozen pre-refactor god-object
(``tests/_legacy_gmmu.py``, on the object-graph reference structures of
``tests/_legacy_structures.py``) over a workload × policy ×
oversubscription matrix and require **byte-identical** pickled
``SimulationResult``s and byte-identical JSONL traces.  The runner,
``helpers.simulate``, injects the monolith by monkeypatching the engine's
construction-time names.
"""

from __future__ import annotations

import dataclasses

import pytest

from helpers import result_bytes, simulate
from repro.config import SimConfig, SMConfig, TLBConfig
from repro.obs import Observability, write_jsonl

#: The paper's policy families: LRU (baseline), HPE, MHPE alone, full CPPE,
#: and reserved LRU (LRU-20%).
SETUPS = ["baseline", "hpe", "mhpe-naive", "cppe", "lru-20"]
RATES = [None, 0.75, 0.5]
#: One app per regularity regime: NW (strided thrasher, pattern-prefetch
#: target), SRD (MRU-friendly regular), BFS (irregular).
APPS = ["NW", "SRD", "BFS"]


class TestByteIdenticalResults:
    @pytest.mark.parametrize("setup", SETUPS)
    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("app", APPS)
    def test_result_bytes_match_monolith(self, app, setup, rate, monkeypatch):
        staged = simulate(app, setup, rate, monkeypatch, legacy=False)
        legacy = simulate(app, setup, rate, monkeypatch, legacy=True)
        assert result_bytes(staged) == result_bytes(legacy)

    def test_crash_outcome_matches_monolith(self, monkeypatch):
        # The runaway-thrashing crash model lives in the EvictionService now;
        # the budget accounting must trip at the exact same eviction.
        base = SimConfig()
        config = base.with_(
            uvm=dataclasses.replace(base.uvm, crash_eviction_budget_factor=0.5)
        )
        staged = simulate("NW", "baseline", 0.5, monkeypatch, False, config=config)
        legacy = simulate("NW", "baseline", 0.5, monkeypatch, True, config=config)
        assert staged.crashed and legacy.crashed
        assert result_bytes(staged) == result_bytes(legacy)

    @pytest.mark.parametrize("num_sms", [1, 2])
    def test_crash_inside_burst_matches_monolith(self, num_sms, monkeypatch):
        # With one or two SMs the budget trips inside a handle_fault that
        # the fused burst loop called, not in an event callback: the loop's
        # counters must reach the stats on that exception path too.
        base = SimConfig()
        config = base.with_(
            sm=SMConfig(num_sms=num_sms),
            uvm=dataclasses.replace(base.uvm, crash_eviction_budget_factor=0.5),
        )
        staged = simulate("NW", "baseline", 0.5, monkeypatch, False, config=config)
        legacy = simulate("NW", "baseline", 0.5, monkeypatch, True, config=config)
        assert staged.crashed and legacy.crashed
        assert result_bytes(staged) == result_bytes(legacy)

    @pytest.mark.parametrize("setup", ["cppe", "tree", "no-prefetch"])
    @pytest.mark.parametrize("app", ["NW", "BFS"])
    @pytest.mark.parametrize(
        "uvm", [{"fault_parallelism": 2}, {"fault_batch_size": 4}],
        ids=["parallel2", "batch4"],
    )
    def test_concurrent_migrations_match_monolith(self, uvm, app, setup,
                                                  monkeypatch):
        # The default settings keep at most one migration in flight; these
        # put several in flight (and two in one chunk) or batch several
        # fault groups into one op, through the in-flight index.
        base = SimConfig()
        config = base.with_(uvm=dataclasses.replace(base.uvm, **uvm))
        staged = simulate(app, setup, 0.5, monkeypatch, False, config=config)
        legacy = simulate(app, setup, 0.5, monkeypatch, True, config=config)
        assert result_bytes(staged) == result_bytes(legacy)

    @pytest.mark.parametrize("app", ["NW", "BFS"])
    def test_set_associative_l1_matches_monolith(self, app, monkeypatch):
        # The eviction service shoots a chunk's pages down per L1 set index;
        # the monolith invalidates page by page.  An 8-way L1 spreads one
        # chunk's pages over several sets.  NW evicts pages that only the
        # L2 still caches (the shootdown count must include them); BFS
        # re-hits its L1 entries, so an L1 entry the shootdown missed would
        # be hit after its page left.
        base = SimConfig()
        config = base.with_(
            translation=dataclasses.replace(
                base.translation, l1=TLBConfig(entries=128, associativity=8)
            )
        )
        staged = simulate(app, "cppe", 0.5, monkeypatch, False, config=config)
        legacy = simulate(app, "cppe", 0.5, monkeypatch, True, config=config)
        assert staged.stats.tlb_shootdowns > 0
        assert result_bytes(staged) == result_bytes(legacy)


class TestByteIdenticalTraces:
    @pytest.mark.parametrize("setup", ["baseline", "cppe"])
    @pytest.mark.parametrize("rate", [0.5])
    def test_jsonl_trace_bytes_match_monolith(
        self, setup, rate, monkeypatch, tmp_path
    ):
        obs_a = Observability.enabled_()
        simulate("NW", setup, rate, monkeypatch, legacy=False, obs=obs_a)
        obs_b = Observability.enabled_()
        simulate("NW", setup, rate, monkeypatch, legacy=True, obs=obs_b)
        staged_path = write_jsonl(obs_a.tracer.events, tmp_path / "staged.jsonl")
        legacy_path = write_jsonl(obs_b.tracer.events, tmp_path / "legacy.jsonl")
        staged_bytes = staged_path.read_bytes()
        assert staged_bytes == legacy_path.read_bytes()
        assert staged_bytes  # a traced oversubscribed run is never empty

    def test_metrics_snapshot_matches_monolith(self, monkeypatch):
        # Counters/histograms moved into the stages; names, registration
        # order and values must survive the move.
        obs_a = Observability.enabled_()
        simulate("NW", "cppe", 0.5, monkeypatch, legacy=False, obs=obs_a)
        obs_b = Observability.enabled_()
        simulate("NW", "cppe", 0.5, monkeypatch, legacy=True, obs=obs_b)
        assert obs_a.metrics.snapshot() == obs_b.metrics.snapshot()
