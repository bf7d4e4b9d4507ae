"""Differential proof that the flat-list memory system is its object oracle,
on a small GPU.

The fused hot loops in ``repro.engine.sm`` / ``repro.memsim.system`` over
the flat-list page table and chunk chain must be *behavior preserving*:
same results, same traces, same metrics, same crashes.  These tests run the
public :class:`~repro.engine.simulator.Simulator` with a 4-SM config over a
policy × oversubscription × workload matrix (>= 24 cases), once on the
production memory system and once on the frozen monolith over the
object-graph reference structures (``helpers.simulate``), and require
**byte-identical** pickled ``SimulationResult``s and byte-identical JSONL
trace files.  ``tests/test_system_differential.py`` runs the same check at
the default 28-SM config.
"""

from __future__ import annotations

import dataclasses

import pytest

from helpers import result_bytes, simulate
from repro.config import SimConfig, SMConfig
from repro.obs import Observability, write_jsonl

#: The paper's policy families: LRU (baseline), HPE, MHPE alone, full CPPE.
SETUPS = ["baseline", "hpe", "mhpe-naive", "cppe"]
RATES = [None, 0.75, 0.5]
#: One app per regularity regime: NW (strided thrasher, pattern-prefetch
#: target), BFS (irregular).
APPS = ["NW", "BFS"]
FAST = SimConfig(sm=SMConfig(num_sms=4))


def _both(app, setup, rate, monkeypatch, config=FAST, obs_pair=(None, None)):
    """(production, oracle) results for one case."""
    return tuple(
        simulate(app, setup, rate, monkeypatch, legacy, obs=obs, config=config)
        for legacy, obs in zip((False, True), obs_pair)
    )


class TestByteIdenticalResults:
    # 4 setups x 3 rates x 2 apps = 24 untraced matrix cases.
    @pytest.mark.parametrize("setup", SETUPS)
    @pytest.mark.parametrize("rate", RATES)
    @pytest.mark.parametrize("app", APPS)
    def test_result_bytes_match_oracle(self, app, setup, rate, monkeypatch):
        arr, obj = _both(app, setup, rate, monkeypatch)
        assert result_bytes(arr) == result_bytes(obj)

    def test_crash_outcome_matches_oracle(self, monkeypatch):
        # The thrashing-crash budget must trip at the exact same eviction
        # (the fused eviction path checks it per evicted chunk).
        config = FAST.with_(
            uvm=dataclasses.replace(FAST.uvm, crash_eviction_budget_factor=0.5)
        )
        arr, obj = _both("NW", "baseline", 0.5, monkeypatch, config=config)
        assert arr.crashed and obj.crashed
        assert result_bytes(arr) == result_bytes(obj)


class TestByteIdenticalTraces:
    # Traced variants: the fused paths emit trace events only behind
    # `trace.enabled` guards — identical events must come out when tracing
    # is on.
    @pytest.mark.parametrize("setup", ["baseline", "cppe"])
    @pytest.mark.parametrize("app", ["NW", "BFS"])
    def test_jsonl_trace_bytes_match_oracle(self, setup, app, monkeypatch,
                                            tmp_path):
        obs_a, obs_b = Observability.enabled_(), Observability.enabled_()
        _both(app, setup, 0.5, monkeypatch, obs_pair=(obs_a, obs_b))
        arr_path = write_jsonl(obs_a.tracer.events, tmp_path / "array.jsonl")
        obj_path = write_jsonl(obs_b.tracer.events, tmp_path / "object.jsonl")
        arr_bytes = arr_path.read_bytes()
        assert arr_bytes == obj_path.read_bytes()
        assert arr_bytes  # a traced oversubscribed run is never empty

    def test_metrics_snapshot_matches_oracle(self, monkeypatch):
        # Counter values are flushed from hoisted locals in the fused SM
        # loop; names, registration order and values must all survive.
        obs_a, obs_b = Observability.enabled_(), Observability.enabled_()
        _both("NW", "cppe", 0.5, monkeypatch, obs_pair=(obs_a, obs_b))
        assert obs_a.metrics.snapshot() == obs_b.metrics.snapshot()
