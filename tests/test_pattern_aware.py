"""Pattern-aware prefetcher and pattern buffer (repro.prefetch.pattern_aware)."""

import pytest

from repro.config import PatternBufferConfig, SimConfig
from repro.prefetch.pattern_aware import (
    PatternAwarePrefetcher,
    PatternBuffer,
    PatternEntry,
)

from helpers import attach_prefetcher, never_occupied, occupied_by

EVEN_MASK = 0x5555  # pages 0,2,4,... touched (stride 2)


def make_prefetcher(scheme=2, lru_only=True, min_untouch=8):
    pf = PatternAwarePrefetcher(
        PatternBufferConfig(
            deletion_scheme=scheme, lru_only=lru_only, min_untouch_level=min_untouch
        )
    )
    stats = attach_prefetcher(pf)
    return pf, stats


class TestPatternBuffer:
    def test_records_qualifying_chunk(self):
        buf = PatternBuffer(PatternBufferConfig())
        assert buf.record(5, EVEN_MASK, untouch_level=8)
        assert 5 in buf
        assert buf.get(5).touched_mask == EVEN_MASK

    def test_rejects_low_untouch(self):
        buf = PatternBuffer(PatternBufferConfig())
        assert not buf.record(5, EVEN_MASK, untouch_level=7)
        assert 5 not in buf

    def test_rejects_all_untouched_chunk(self):
        # A never-touched chunk has no pattern to replay.
        buf = PatternBuffer(PatternBufferConfig())
        assert not buf.record(5, 0x0000, untouch_level=16)

    def test_capacity_evicts_fifo(self):
        buf = PatternBuffer(PatternBufferConfig(max_entries=2))
        buf.record(1, EVEN_MASK, 8)
        buf.record(2, EVEN_MASK, 8)
        buf.record(3, EVEN_MASK, 8)
        assert 1 not in buf and 2 in buf and 3 in buf

    def test_re_record_moves_to_fifo_tail(self):
        # Regression: re-recording an already-present chunk must refresh its
        # FIFO position.  Plain dict reassignment kept the original
        # insertion slot, so the *freshest* pattern was the next evicted.
        buf = PatternBuffer(PatternBufferConfig(max_entries=2))
        buf.record(1, EVEN_MASK, 8)
        buf.record(2, EVEN_MASK, 8)
        buf.record(1, 0x3333, 8)  # refresh: chunk 1 is now the newest
        buf.record(3, EVEN_MASK, 8)  # at capacity: oldest (2) must go
        assert 2 not in buf
        assert 1 in buf and 3 in buf
        assert buf.get(1).touched_mask == 0x3333

    def test_re_record_resets_lookup_state(self):
        buf = PatternBuffer(PatternBufferConfig())
        buf.record(1, EVEN_MASK, 8)
        entry = buf.get(1)
        entry.looked_up = True
        entry.first_matched = True
        buf.record(1, EVEN_MASK, 8)
        refreshed = buf.get(1)
        assert not refreshed.looked_up and not refreshed.first_matched

    def test_peak_tracking(self):
        buf = PatternBuffer(PatternBufferConfig())
        buf.record(1, EVEN_MASK, 8)
        buf.record(2, EVEN_MASK, 8)
        buf.delete(1)
        assert buf.peak == 2

    def test_scheme1_deletes_on_any_mismatch(self):
        buf = PatternBuffer(PatternBufferConfig(deletion_scheme=1))
        buf.record(1, EVEN_MASK, 8)
        entry = buf.get(1)
        entry.first_matched = True  # had a prior match
        buf.handle_mismatch(entry)
        assert 1 not in buf

    def test_scheme2_keeps_after_first_match(self):
        buf = PatternBuffer(PatternBufferConfig(deletion_scheme=2))
        buf.record(1, EVEN_MASK, 8)
        entry = buf.get(1)
        entry.first_matched = True
        buf.handle_mismatch(entry)
        assert 1 in buf

    def test_scheme2_deletes_on_first_lookup_mismatch(self):
        buf = PatternBuffer(PatternBufferConfig(deletion_scheme=2))
        buf.record(1, EVEN_MASK, 8)
        buf.handle_mismatch(buf.get(1))  # first lookup never matched
        assert 1 not in buf


class TestCoordination:
    def test_records_only_under_lru(self):
        pf, stats = make_prefetcher(lru_only=True)
        pf.on_chunk_evicted(5, EVEN_MASK, 8, strategy="mru")
        assert 5 not in pf.buffer
        pf.on_chunk_evicted(5, EVEN_MASK, 8, strategy="lru")
        assert 5 in pf.buffer
        assert stats.pattern_inserts == 1

    def test_lru_only_disabled_records_any_strategy(self):
        pf, _ = make_prefetcher(lru_only=False)
        pf.on_chunk_evicted(5, EVEN_MASK, 8, strategy="mru")
        assert 5 in pf.buffer

    def test_min_untouch_filter(self):
        pf, _ = make_prefetcher()
        pf.on_chunk_evicted(5, 0xFFF0, 4, strategy="lru")
        assert 5 not in pf.buffer


class TestPrefetchDecision:
    def test_unknown_chunk_migrates_whole_chunk(self):
        pf, _ = make_prefetcher()
        pages = pf.pages_to_migrate(35, True, never_occupied)
        assert sorted(pages) == list(range(32, 48))

    def test_pattern_match_migrates_only_touched_pages(self):
        pf, stats = make_prefetcher()
        pf.on_chunk_evicted(2, EVEN_MASK, 8, strategy="lru")
        pages = pf.pages_to_migrate(32, True, never_occupied)  # page 0: even -> match
        assert sorted(pages) == [32 + i for i in range(0, 16, 2)]
        assert stats.pattern_hits == 1
        assert stats.pattern_prefetches == 7

    def test_pattern_mismatch_migrates_whole_chunk(self):
        pf, stats = make_prefetcher()
        pf.on_chunk_evicted(2, EVEN_MASK, 8, strategy="lru")
        pages = pf.pages_to_migrate(33, True, never_occupied)  # page 1: odd -> mismatch
        assert sorted(pages) == list(range(32, 48))
        assert stats.pattern_mismatches == 1
        assert 2 not in pf.buffer  # scheme-2, first lookup mismatched

    def test_fig6_scheme2_sequence(self):
        """The Fig. 6 example: first lookup matches, second mismatches;
        Scheme-2 keeps the entry, Scheme-1 deletes it."""
        for scheme, kept in ((1, False), (2, True)):
            pf, _ = make_prefetcher(scheme=scheme)
            pf.on_chunk_evicted(2, EVEN_MASK, 8, strategy="lru")
            pf.pages_to_migrate(32, True, never_occupied)  # match (even page)
            pf.pages_to_migrate(33, True, never_occupied)  # mismatch (odd page)
            assert (2 in pf.buffer) is kept, f"scheme {scheme}"

    def test_match_excludes_resident_pages(self):
        pf, _ = make_prefetcher()
        pf.on_chunk_evicted(2, EVEN_MASK, 8, strategy="lru")
        resident = {34, 36}
        pages = pf.pages_to_migrate(32, True, occupied_by(resident))
        assert 34 not in pages and 36 not in pages
        assert 32 in pages

    def test_name_reflects_scheme(self):
        pf, _ = make_prefetcher(scheme=1)
        assert pf.name == "pattern-aware/s1"
        pf2, _ = make_prefetcher(scheme=2)
        assert pf2.name == "pattern-aware/s2"

    def test_buffer_length_samples_recorded(self):
        pf, stats = make_prefetcher()
        pf.on_chunk_evicted(1, EVEN_MASK, 8, strategy="lru")
        pf.on_chunk_evicted(2, EVEN_MASK, 8, strategy="lru")
        assert stats.pattern_buffer_len_samples == [1, 2]
        assert stats.pattern_buffer_peak == 2
