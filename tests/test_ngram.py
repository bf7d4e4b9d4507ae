"""N-gram prefetcher unit and integration tests.

Unit level: the online Markov model learns transitions deterministically,
predicts only above ``min_count``, ties break toward the lower chunk id,
speculation is suppressed at capacity, and evicted chunks are blacklisted
until they fault again (the CPPE coordination feedback).

Integration level: the prefetcher reaches the simulator purely through the
registry — ``run_one`` with the ``"ngram"`` setup and the ``"mhpe+ngram"``
pair name — and produces results byte-identical to the object-graph
oracle (the frozen monolith), without any edit to
baselines.py/config.py/cli.py.
"""

from __future__ import annotations

import pickle

import pytest

from helpers import attach_prefetcher, never_occupied, result_bytes, simulate
from repro.config import SimConfig, SMConfig
from repro.errors import ConfigError
from repro.harness.cache import _PICKLE_PROTOCOL
from repro.harness.experiment import RunSpec, run_one
from repro.prefetch.ngram import NGramPrefetcher


def _fault(prefetcher, chunk, memory_full=False):
    ppc = prefetcher.ctx.pages_per_chunk
    return prefetcher.pages_to_migrate(chunk * ppc, memory_full, never_occupied)


def _chunks(prefetcher, pages):
    ppc = prefetcher.ctx.pages_per_chunk
    return sorted({page // ppc for page in pages})


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError, match="order"):
            NGramPrefetcher(order=0)
        with pytest.raises(ConfigError, match="min_count"):
            NGramPrefetcher(min_count=0)
        with pytest.raises(ConfigError, match="max_contexts"):
            NGramPrefetcher(max_contexts=0)

    def test_name_reflects_order(self):
        assert NGramPrefetcher(order=3).name == "ngram/3"


class TestLearning:
    def test_learns_cyclic_pattern(self):
        p = NGramPrefetcher(order=2, min_count=2)
        attach_prefetcher(p)
        # Three cycles give the (3, 1) -> 2 transition two observations.
        for _ in range(3):
            for chunk in (1, 2, 3):
                _fault(p, chunk)
        before = p.predictions
        pages = _fault(p, 1)
        ppc = p.ctx.pages_per_chunk
        # Demand chunk 1 plus predicted chunk 2.
        assert _chunks(p, pages) == [1, 2]
        assert len(pages) == 2 * ppc
        assert p.predictions == before + 1

    def test_below_min_count_stays_quiet(self):
        p = NGramPrefetcher(order=2, min_count=3)
        attach_prefetcher(p)
        for _ in range(3):
            for chunk in (1, 2, 3):
                _fault(p, chunk)
        assert _chunks(p, _fault(p, 1)) == [1]
        assert p.predictions == 0

    def test_tie_breaks_toward_lower_chunk(self):
        p = NGramPrefetcher(order=1, min_count=1)
        attach_prefetcher(p)
        # Context (5,) -> 9 and (5,) -> 7, one observation each: tie.
        for successor in (9, 7):
            _fault(p, 5)
            _fault(p, successor)
        pages = _fault(p, 5)
        assert _chunks(p, pages) == [5, 7]

    def test_repeated_faults_carry_no_transition(self):
        p = NGramPrefetcher(order=1, min_count=1)
        attach_prefetcher(p)
        for _ in range(4):
            _fault(p, 5)
        assert p.trained_transitions == 0

    def test_model_is_bounded_fifo(self):
        p = NGramPrefetcher(order=1, min_count=1, max_contexts=2)
        attach_prefetcher(p)
        for chunk in (1, 2, 3, 4):
            _fault(p, chunk)
        assert len(p._model) <= 2
        # Oldest context (1,) was evicted from the model.
        assert (1,) not in p._model


class TestCoordination:
    def test_no_speculation_at_capacity(self):
        p = NGramPrefetcher(order=2, min_count=2)
        attach_prefetcher(p)
        for _ in range(3):
            for chunk in (1, 2, 3):
                _fault(p, chunk)
        before = p.predictions
        pages = _fault(p, 1, memory_full=True)
        assert _chunks(p, pages) == [1]
        assert p.predictions == before

    def test_evicted_chunk_blacklisted_until_refault(self):
        p = NGramPrefetcher(order=2, min_count=2)
        attach_prefetcher(p)
        for _ in range(3):
            for chunk in (1, 2, 3):
                _fault(p, chunk)
        p.on_chunk_evicted(2, 0xFFFF, 0, "full")
        # (3, 1) predicts 2, but 2 was just evicted: demand only.
        assert _chunks(p, _fault(p, 1)) == [1]
        # A fault into chunk 2 proves it live again and lifts the ban.
        _fault(p, 2)
        _fault(p, 3)
        assert _chunks(p, _fault(p, 1)) == [1, 2]

    def test_blacklist_is_bounded(self):
        p = NGramPrefetcher()
        attach_prefetcher(p)
        for chunk in range(200):
            p.on_chunk_evicted(chunk, 0xFFFF, 0, "full")
        assert len(p._evicted) <= 64


class TestThroughRegistry:
    """End-to-end: the ngram family rides the public component seam."""

    def test_runs_via_named_setup(self):
        spec = RunSpec("NW", "ngram", 0.75, scale=0.25)
        result = run_one(spec, use_cache=False)
        assert result.total_cycles > 0
        assert result.stats.far_faults > 0
        assert result.prefetcher.startswith("ngram")

    def test_runs_via_pair_setup(self):
        spec = RunSpec("NW", "mhpe+ngram", 0.75, scale=0.25)
        result = run_one(spec, use_cache=False)
        assert result.total_cycles > 0
        assert result.policy == "mhpe"

    @pytest.mark.parametrize("setup", ["ngram", "mhpe+ngram"])
    def test_backends_byte_identical(self, setup, monkeypatch):
        config = SimConfig(sm=SMConfig(num_sms=4))
        results = [
            simulate("NW", setup, 0.75, monkeypatch, legacy, config=config)
            for legacy in (False, True)
        ]
        assert result_bytes(results[0]) == result_bytes(results[1])

    def test_deterministic_across_runs(self):
        spec = RunSpec("SRD", "ngram", 0.5, scale=0.25)
        first = run_one(spec, use_cache=False)
        second = run_one(spec, use_cache=False)
        assert pickle.dumps(first, protocol=_PICKLE_PROTOCOL) == pickle.dumps(
            second, protocol=_PICKLE_PROTOCOL
        )
