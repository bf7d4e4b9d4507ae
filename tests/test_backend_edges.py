"""Edge-case equivalence and cache-key stability for the flat-list memory
system.

The differential matrices (``tests/test_system_differential.py``,
``tests/test_backend_differential.py``) cover the broad policy × rate × app
space; these tests pin the narrow spots where a flat-list representation
is most likely to diverge from the object-graph oracle (the frozen monolith
over ``tests/_legacy_structures.py``, run by ``helpers.simulate``):

* a footprint whose tail chunk is partial (``footprint % 64 != 0``) —
  mask arithmetic must not touch pages past the tail;
* zero oversubscription — the eviction path never runs, so install/touch
  alone must already be identical;
* an access pattern straddling a 64-page chunk boundary under the
  tree/pattern prefetcher — prefetch masks span two chunks;
* cache keys — ``SimConfig`` has no representation switch, its
  fingerprint is the one every existing cache entry was stored under, and
  an entry the object-graph representation wrote is served unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import result_bytes, simulate
from repro.config import SimConfig, SMConfig
from repro.harness.cache import ResultCache, config_fingerprint, spec_fingerprint
from repro.harness.experiment import RunSpec
from repro.workloads.base import Workload

FAST = SimConfig(sm=SMConfig(num_sms=4))


def _both(workload, rate, monkeypatch, setup="cppe"):
    """Pickled (production, oracle) results for one workload."""
    return [
        result_bytes(simulate(workload, setup, rate, monkeypatch, legacy,
                              config=FAST))
        for legacy in (False, True)
    ]


class TestPartialTailChunk:
    def test_footprint_not_a_multiple_of_chunk(self, monkeypatch):
        # 40-page footprint: the single chunk is partial; with rate 0.5 the
        # eviction path runs over a partial resident mask too.
        footprint = 40
        sweep = np.arange(footprint, dtype=np.int64)
        for rate in (None, 0.5):
            workload = Workload(
                name="tail",
                pattern_type="I",
                footprint_pages=footprint,
                accesses=np.concatenate([sweep] * 4),
            )
            arr, obj = _both(workload, rate, monkeypatch)
            assert arr == obj, f"divergence at rate={rate}"

    def test_tail_chunk_straddling_capacity(self, monkeypatch):
        # 200 pages = 3 chunks + a 8-page tail; capacity forces the tail
        # chunk through eviction and re-migration.
        footprint = 200
        sweep = np.arange(footprint, dtype=np.int64)
        workload = Workload(
            name="tail2",
            pattern_type="IV",
            footprint_pages=footprint,
            accesses=np.concatenate([sweep] * 5),
        )
        arr, obj = _both(workload, 0.6, monkeypatch, setup="baseline")
        assert arr == obj


class TestZeroOversubscription:
    def test_no_eviction_run_is_identical(self, monkeypatch):
        footprint = 192
        rng_pattern = np.concatenate(
            [np.arange(footprint, dtype=np.int64)] * 3
        )
        workload = Workload(
            name="fits",
            pattern_type="I",
            footprint_pages=footprint,
            accesses=rng_pattern,
        )
        arr, obj = _both(workload, None, monkeypatch)
        assert arr == obj


class TestIntervalBoundaryStraddle:
    def test_accesses_straddling_chunk_boundaries(self, monkeypatch):
        # Alternate across the 64-page boundary between chunks 0 and 1 and
        # between chunks 2 and 3: the pattern prefetcher sees strides that
        # cross chunk edges, so prefetch masks land in two chunks at once.
        pairs = []
        for base in (60, 124, 188):
            for offset in range(8):
                pairs.append(base + offset)
        accesses = np.array(pairs * 6, dtype=np.int64)
        workload = Workload(
            name="straddle",
            pattern_type="II",
            footprint_pages=256,
            accesses=accesses,
        )
        for rate in (None, 0.5):
            arr, obj = _both(workload, rate, monkeypatch)
            assert arr == obj, f"divergence at rate={rate}"


class TestCacheKeyIdentity:
    def test_backend_excluded_from_fingerprints(self):
        # Golden keys from before the representation switch was removed (it
        # was elided from the hash then): every cached entry stays reachable.
        assert config_fingerprint(SimConfig()) == (
            "13f6aad163e7c6a91c21421a087700f049e0d33345526f02098750399b66ff83"
        )
        assert SimConfig().backend == "array"

    def test_other_fields_still_change_the_key(self):
        assert config_fingerprint(SimConfig()) != config_fingerprint(
            SimConfig(seed=1234)
        )
        spec = RunSpec("NW", "cppe", 0.5, scale=0.25)
        assert spec_fingerprint(spec) != spec_fingerprint(spec, FAST)

    def test_cross_backend_cache_hit(self, tmp_path, monkeypatch):
        # An entry written by the object-graph representation (the former
        # default wrote every existing cache entry) is served to a request
        # today, and equals what the flat-list memory system computes.
        cache = ResultCache(tmp_path)
        spec = RunSpec("NW", "cppe", 0.5, scale=0.25)
        arr, obj = (
            simulate("NW", "cppe", 0.5, monkeypatch, legacy, config=FAST)
            for legacy in (False, True)
        )
        cache.put(spec, FAST, obj)
        hit = cache.get(spec, FAST)
        assert hit is not None
        assert result_bytes(hit) == result_bytes(arr)
        assert cache.hits == 1 and cache.misses == 0

    def test_invalid_backend_rejected(self):
        # ``backend`` is a class constant, not a field: nothing selects it.
        with pytest.raises(TypeError):
            SimConfig(backend="object")
        with pytest.raises(TypeError):
            SimConfig().with_(backend="array")
