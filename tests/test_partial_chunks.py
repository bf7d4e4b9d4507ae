"""Partial-chunk residency: the pattern prefetcher migrates subsets of a
chunk, so the GMMU must handle chunks that are only partially resident —
the Fig. 6 flow end to end."""

import numpy as np

from repro.config import (
    PatternBufferConfig,
    SimConfig,
    SMConfig,
    TranslationConfig,
)
from repro.engine.events import EventQueue
from repro.engine.stats import SimStats
from repro.memsim.fault import FarFault
from repro.memsim.system import MemorySystem
from repro.policies.lru import LRUPolicy
from repro.prefetch.pattern_aware import PatternAwarePrefetcher

FAST = SimConfig(sm=SMConfig(num_sms=2), translation=TranslationConfig(enabled=False))

EVEN_MASK = 0x5555


def make_gmmu_with_pattern(capacity=256):
    events = EventQueue()
    prefetcher = PatternAwarePrefetcher(
        PatternBufferConfig(deletion_scheme=2, lru_only=False)
    )
    gmmu = MemorySystem(
        config=FAST, capacity_frames=capacity, events=events,
        stats=SimStats(), policy=LRUPolicy(), prefetcher=prefetcher,
    )
    # Seed the pattern buffer directly with an even-stride pattern for
    # chunk 2 (pages 32..47).
    prefetcher.on_chunk_evicted(2, EVEN_MASK, untouch_level=8, strategy="lru")
    return gmmu, events, prefetcher


def issue(gmmu, vpn, time=0):
    gmmu.handle_fault(
        FarFault(vpn=vpn, sm_id=0, time=time, is_write=False,
                 on_resolve=lambda t: None)
    )


class TestPartialMigration:
    def test_pattern_match_installs_partial_chunk(self):
        gmmu, events, _ = make_gmmu_with_pattern()
        issue(gmmu, 32)  # even page: matches
        events.run()
        entry = gmmu.chain.get(2)
        assert entry.resident_pages == 8
        for i in range(16):
            assert gmmu.is_resident(32 + i) == (i % 2 == 0)
        assert gmmu.stats.pages_migrated == 8

    def test_hole_fault_fetches_rest_of_chunk(self):
        gmmu, events, _ = make_gmmu_with_pattern()
        issue(gmmu, 32)
        events.run()
        issue(gmmu, 33, time=events.now)  # odd page: a hole, mismatch
        events.run()
        entry = gmmu.chain.get(2)
        assert entry.resident_pages == 16  # rest of the chunk arrived
        assert gmmu.stats.pages_migrated == 16  # 8 + 8, never re-migrated

    def test_partial_chunk_eviction_frees_only_resident(self):
        gmmu, events, _ = make_gmmu_with_pattern(capacity=64)
        issue(gmmu, 32)  # partial chunk: 8 pages
        events.run()
        # Fill the rest of memory with 3 full chunks, then one more to force
        # eviction of the partial chunk (LRU head).
        for chunk in (10, 11, 12):
            issue(gmmu, chunk * 16, time=events.now)
            events.run()
        free_before = gmmu.device.free_frames
        issue(gmmu, 13 * 16, time=events.now)
        events.run()
        assert gmmu.chain.get(2) is None
        assert gmmu.stats.pages_evicted >= 8
        assert gmmu.device.allocated_frames <= 64

    def test_scheme2_keeps_entry_after_hole_fault(self):
        gmmu, events, prefetcher = make_gmmu_with_pattern()
        issue(gmmu, 32)            # first lookup: match
        events.run()
        issue(gmmu, 33, time=events.now)  # mismatch, but first matched
        events.run()
        assert 2 in prefetcher.buffer  # Fig. 6 Scheme-2 behaviour

    def test_untouch_level_counts_only_migrated_pages(self):
        gmmu, events, _ = make_gmmu_with_pattern(capacity=64)
        issue(gmmu, 32)
        events.run()
        # Touch only two of the eight migrated pages.
        gmmu.touch_page(0, 32, False, events.now)
        gmmu.touch_page(0, 34, False, events.now)
        for chunk in (10, 11, 12):
            issue(gmmu, chunk * 16, time=events.now)
            events.run()
        issue(gmmu, 13 * 16, time=events.now)
        events.run()
        # Evicted partial chunk had 8 resident pages, 2 touched -> 6.
        assert gmmu.stats.untouch_total == 0  # LRU policy: no MHPE stats
        # The prefetcher, however, saw the pattern with untouch 6 via the
        # coordination hook; verify through prefetch accuracy accounting.
        assert gmmu.stats.prefetched_pages_touched >= 1
