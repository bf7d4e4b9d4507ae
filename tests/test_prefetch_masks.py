"""The chunk-mask prefetchers are their per-page references.

Each production prefetcher computes its batch from ``occupied(chunk_id)``
masks.  ``tests/_reference_prefetch.py`` keeps the per-page versions that
probed a ``skip(vpn)`` predicate instead.  Hypothesis draws occupancy,
demand pages, ``memory_full``, pattern-buffer entries, n-gram histories and
tree regions, hands both sides the same occupancy (as masks and as a page
predicate) and requires the identical page list in the identical order:
the scheduler truncates a batch from the end, so order is behaviour.

The scheduler reads residency from the chain's resident masks, not from
the page table.  The last property checks that the two agree for every
chunk after every migration completion and every eviction of randomized
runs.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_prefetch import (
    ReferenceDisabled,
    ReferenceLocality,
    ReferenceNGram,
    ReferencePatternAware,
    ReferenceTree,
)
from conftest import make_simple_workload
from helpers import attach_prefetcher
from repro.config import PatternBufferConfig, SimConfig, SMConfig
from repro.engine.simulator import Simulator
from repro.errors import SimulationError
from repro.harness.baselines import build_setup
from repro.memsim.system import EvictionService, MigrationScheduler
from repro.prefetch.disabled import DisabledPrefetcher
from repro.prefetch.locality import LocalityPrefetcher
from repro.prefetch.ngram import NGramPrefetcher
from repro.prefetch.pattern_aware import PatternAwarePrefetcher
from repro.prefetch.tree_neighborhood import TreeNeighborhoodPrefetcher

#: Workload base vpn (``Workload.base_vpn``): every window sits around it.
BASE = 0x80000
#: 16 is the paper's chunk; 8 and 12 check the arithmetic does not assume
#: it, 12 with regions that do not align to chunks.
PAGES_PER_CHUNK = st.sampled_from([16, 8, 12])


def _config(ppc: int) -> SimConfig:
    base = SimConfig()
    return base.with_(
        uvm=dataclasses.replace(
            base.uvm, pages_per_chunk=ppc, interval_pages=4 * ppc
        )
    )


def _pair(production, reference, ppc):
    attach_prefetcher(production, _config(ppc))
    attach_prefetcher(reference, _config(ppc))
    return production, reference


@st.composite
def occupancy(draw, ppc, lo_page, hi_page):
    """chunk id -> occupied mask over [lo_page, hi_page): a mix of empty,
    full and partly occupied chunks, as migrations and evictions leave
    them."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    p_full = draw(st.sampled_from([0.0, 0.25, 0.5, 0.9]))
    p_part = draw(st.sampled_from([0.0, 0.1, 0.5]))
    full = (1 << ppc) - 1
    masks = {}
    for cid in range(lo_page // ppc, hi_page // ppc + 1):
        roll = rng.random()
        if roll < p_full:
            masks[cid] = full
        elif roll < p_full + p_part:
            masks[cid] = rng.getrandbits(ppc)
    return masks


def _views(masks, ppc):
    """The same occupancy as the mask callback and as a page predicate."""
    pages = {
        cid * ppc + i
        for cid, mask in masks.items()
        for i in range(ppc)
        if mask >> i & 1
    }
    return (lambda chunk_id: masks.get(chunk_id, 0)), pages.__contains__


class TestStatelessPrefetchers:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), ppc=PAGES_PER_CHUNK, memory_full=st.booleans(),
           on_full=st.sampled_from(["continue", "stop"]))
    def test_chunk_prefetchers_match_reference(self, data, ppc, memory_full,
                                               on_full):
        masks = data.draw(occupancy(ppc, BASE - 4 * ppc, BASE + 8 * ppc))
        vpn = BASE + data.draw(st.integers(-2 * ppc, 6 * ppc))
        occupied, skip = _views(masks, ppc)
        for production, reference in (
            (DisabledPrefetcher(), ReferenceDisabled()),
            (LocalityPrefetcher(on_full), ReferenceLocality(on_full)),
        ):
            _pair(production, reference, ppc)
            assert production.pages_to_migrate(
                vpn, memory_full, occupied
            ) == reference.pages_to_migrate(vpn, memory_full, skip)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        ppc=PAGES_PER_CHUNK,
        region_pages=st.sampled_from([8, 32, 64, 512]),
        threshold=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        on_full=st.sampled_from(["continue", "stop"]),
        memory_full=st.booleans(),
    )
    def test_tree_matches_reference(self, data, ppc, region_pages, threshold,
                                    on_full, memory_full):
        lo = BASE - region_pages
        hi = BASE + 3 * region_pages
        masks = data.draw(occupancy(ppc, lo - ppc, hi + ppc))
        vpn = data.draw(st.integers(BASE - ppc, BASE + 2 * region_pages))
        occupied, skip = _views(masks, ppc)
        production, reference = _pair(
            TreeNeighborhoodPrefetcher(region_pages, on_full, threshold),
            ReferenceTree(region_pages, on_full, threshold),
            ppc,
        )
        assert production.pages_to_migrate(
            vpn, memory_full, occupied
        ) == reference.pages_to_migrate(vpn, memory_full, skip)


def _pattern_state(prefetcher):
    stats = prefetcher.ctx.stats
    buffer = prefetcher.buffer
    return (
        [(e.chunk_id, e.touched_mask, e.looked_up, e.first_matched)
         for e in buffer._entries.values()],
        buffer.inserts, buffer.deletions,
        stats.pattern_hits, stats.pattern_mismatches,
        stats.pattern_deletions, stats.pattern_prefetches,
        stats.pattern_inserts,
    )


class TestStatefulPrefetchers:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        ppc=PAGES_PER_CHUNK,
        scheme=st.sampled_from([1, 2]),
        lru_only=st.booleans(),
    )
    def test_pattern_aware_matches_reference(self, data, ppc, scheme,
                                             lru_only):
        first = BASE // ppc
        masks = data.draw(occupancy(ppc, BASE, BASE + 6 * ppc))
        occupied, skip = _views(masks, ppc)
        cfg = PatternBufferConfig(
            deletion_scheme=scheme, lru_only=lru_only, max_entries=4
        )
        production, reference = _pair(
            PatternAwarePrefetcher(cfg), ReferencePatternAware(cfg), ppc
        )
        events = data.draw(st.lists(
            st.one_of(
                st.tuples(
                    st.just("evict"), st.integers(0, 5),
                    st.integers(0, (1 << ppc) - 1),
                    st.integers(0, ppc), st.sampled_from(["lru", "mru"]),
                ),
                st.tuples(
                    st.just("fault"), st.integers(0, 6 * ppc - 1),
                    st.booleans(),
                ),
            ),
            max_size=30,
        ))
        for event in events:
            if event[0] == "evict":
                _, chunk, touched, untouch, strategy = event
                for pf in (production, reference):
                    pf.on_chunk_evicted(first + chunk, touched, untouch,
                                        strategy)
            else:
                _, offset, memory_full = event
                vpn = BASE + offset
                assert production.pages_to_migrate(
                    vpn, memory_full, occupied
                ) == reference.pages_to_migrate(vpn, memory_full, skip)
            assert _pattern_state(production) == _pattern_state(reference)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        ppc=PAGES_PER_CHUNK,
        order=st.sampled_from([1, 2]),
        min_count=st.sampled_from([1, 2]),
    )
    def test_ngram_matches_reference(self, data, ppc, order, min_count):
        first = BASE // ppc
        masks = data.draw(occupancy(ppc, BASE, BASE + 6 * ppc))
        occupied, skip = _views(masks, ppc)
        production, reference = _pair(
            NGramPrefetcher(order, min_count), ReferenceNGram(order, min_count),
            ppc,
        )
        events = data.draw(st.lists(
            st.tuples(
                st.sampled_from(["fault", "fault", "fault", "evict"]),
                st.integers(0, 5), st.integers(0, ppc - 1), st.booleans(),
            ),
            max_size=40,
        ))
        for kind, chunk, index, memory_full in events:
            if kind == "evict":
                for pf in (production, reference):
                    pf.on_chunk_evicted(first + chunk, 0, 0, "lru")
                continue
            vpn = (first + chunk) * ppc + index
            assert production.pages_to_migrate(
                vpn, memory_full, occupied
            ) == reference.pages_to_migrate(vpn, memory_full, skip)
        assert production.predictions == reference.predictions
        assert production._model == reference._model
        assert production._context == reference._context
        assert list(production._evicted) == list(reference._evicted)


def _assert_res_mirrors_page_table(chain, page_table, ppc):
    resident = {}
    for idx, frame in enumerate(page_table._frames):
        if frame >= 0:
            cid, bit = divmod(page_table._origin + idx, ppc)
            resident[cid] = resident.get(cid, 0) | 1 << bit
    masks = {chain._origin + li: res for li, res in enumerate(chain._res) if res}
    assert masks == resident


class TestResidencyMirror:
    """The chain's resident masks are the page table's residency."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        footprint=st.sampled_from([96, 160, 256]),
        setup=st.sampled_from(
            ["baseline", "cppe", "tree", "no-prefetch", "hpe", "lru-20",
             "cppe-ngram", "random", "stop-on-full"]
        ),
        rate=st.sampled_from([0.5, 0.75]),
        parallelism=st.sampled_from([1, 2]),
        batch=st.sampled_from([1, 3]),
    )
    def test_res_equals_page_table(self, seed, footprint, setup, rate,
                                   parallelism, batch):
        rng = np.random.default_rng(seed)
        # Strided sweeps with random jumps: partly touched chunks, reuse
        # and evictions at both rates.
        starts = rng.integers(0, footprint, size=48)
        accesses = np.concatenate(
            [(start + np.arange(0, 40, rng.integers(1, 4))) % footprint
             for start in starts]
        )
        workload = make_simple_workload(footprint, accesses=accesses)
        base = SimConfig()
        config = base.with_(
            sm=SMConfig(num_sms=2),
            uvm=dataclasses.replace(
                base.uvm, fault_parallelism=parallelism,
                fault_batch_size=batch,
            ),
        )
        ppc = config.uvm.pages_per_chunk
        checks = []
        complete = MigrationScheduler.complete_migration
        evict = EvictionService.evict_chunk

        def checked_complete(scheduler, mig, time):
            complete(scheduler, mig, time)
            _assert_res_mirrors_page_table(
                scheduler.chain, scheduler.page_table, ppc)
            checks.append("complete")

        def checked_evict(evictor, entry, time):
            evict(evictor, entry, time)
            _assert_res_mirrors_page_table(
                evictor.chain, evictor.page_table, ppc)
            checks.append("evict")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MigrationScheduler, "complete_migration",
                          checked_complete)
            patch.setattr(EvictionService, "evict_chunk", checked_evict)
            policy, prefetcher = build_setup(setup)
            try:
                Simulator(workload, policy=policy, prefetcher=prefetcher,
                          oversubscription=rate, config=config).run()
            except SimulationError as exc:
                # Parallel tree batches can outgrow what eviction may
                # free; the property held up to that point.
                assert "frames" in str(exc), exc
        assert "complete" in checks and "evict" in checks
