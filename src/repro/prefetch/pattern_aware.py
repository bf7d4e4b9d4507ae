"""CPPE's access pattern-aware prefetcher (Section IV-C).

Behaves as the sequential-local prefetcher until eviction feedback arrives.
A **pattern buffer** records the touch bit-vector of evicted chunks whose
untouch level is >= 8 (half a chunk) — by default only once the eviction
strategy has switched to LRU, matching Section VI-C ("the buffer is used in
limited cases").  On a fault whose chunk hits the buffer:

* faulted page **matches** the pattern (its touch bit is 1): migrate only
  the pattern's touched pages — strided chunks (NW stride-2, MVT stride-4)
  stop dragging their dead pages across PCIe;
* faulted page **mismatches**: migrate the whole chunk and apply the
  deletion scheme — Scheme-1 deletes the entry on any mismatch, Scheme-2
  only when the *first* lookup of that entry mismatches (Fig. 6).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..config import PatternBufferConfig
from .base import Prefetcher, mask_pages

__all__ = ["PatternEntry", "PatternBuffer", "PatternAwarePrefetcher"]


class PatternEntry:
    """One recorded touch pattern."""

    __slots__ = ("chunk_id", "touched_mask", "looked_up", "first_matched")

    def __init__(self, chunk_id: int, touched_mask: int):
        self.chunk_id = chunk_id
        self.touched_mask = touched_mask
        self.looked_up = False
        self.first_matched = False

    def matches(self, page_index: int) -> bool:
        return bool(self.touched_mask >> page_index & 1)


class PatternBuffer:
    """FIFO-bounded map chunk_id -> :class:`PatternEntry`."""

    def __init__(self, config: PatternBufferConfig):
        self.config = config
        self._entries: Dict[int, PatternEntry] = {}
        self.inserts = 0
        self.deletions = 0
        self.peak = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self._entries

    def get(self, chunk_id: int) -> Optional[PatternEntry]:
        return self._entries.get(chunk_id)

    def record(self, chunk_id: int, touched_mask: int, untouch_level: int) -> bool:
        """Record an evicted chunk's pattern if it qualifies."""
        if untouch_level < self.config.min_untouch_level:
            return False
        if touched_mask == 0:
            # A never-touched chunk has no pattern to replay.
            return False
        if chunk_id in self._entries:
            # Delete-then-reinsert: a refreshed pattern moves to the FIFO
            # tail.  Plain reassignment would keep the old dict insertion
            # position, making the *newest* pattern the first one evicted.
            del self._entries[chunk_id]
        else:
            cap = self.config.max_entries
            if cap is not None:
                while len(self._entries) >= cap:
                    oldest = next(iter(self._entries))
                    del self._entries[oldest]
                    self.deletions += 1
        self._entries[chunk_id] = PatternEntry(chunk_id, touched_mask)
        self.inserts += 1
        if len(self._entries) > self.peak:
            self.peak = len(self._entries)
        return True

    def delete(self, chunk_id: int) -> None:
        if self._entries.pop(chunk_id, None) is not None:
            self.deletions += 1

    def handle_mismatch(self, entry: PatternEntry) -> None:
        """Apply the configured deletion scheme after a pattern mismatch."""
        scheme = self.config.deletion_scheme
        if scheme == 1 or not entry.first_matched:
            self.delete(entry.chunk_id)


class PatternAwarePrefetcher(Prefetcher):
    """Locality prefetch + pattern buffer (the prefetch half of CPPE)."""

    def __init__(self, config: Optional[PatternBufferConfig] = None):
        super().__init__()
        self._cfg_override = config
        self.buffer: PatternBuffer = None  # type: ignore[assignment]
        self.name = "pattern-aware"

    def attach(self, ctx) -> None:  # noqa: ANN001 - see base class
        super().attach(ctx)
        cfg = self._cfg_override or ctx.config.pattern_buffer
        self.buffer = PatternBuffer(cfg)
        self.name = f"pattern-aware/s{cfg.deletion_scheme}"
        obs = ctx.obs
        self._trace = obs.tracer
        self._g_occupancy = obs.metrics.gauge("pattern.occupancy")
        self._m_hits = obs.metrics.counter("pattern.hits")
        self._m_mismatches = obs.metrics.counter("pattern.mismatches")
        self._m_records = obs.metrics.counter("pattern.records")
        self._m_deletions = obs.metrics.counter("pattern.deletions")

    # --- coordination: MHPE evictions feed the buffer -----------------------

    def on_chunk_evicted(
        self, chunk_id: int, touched_mask: int, untouch_level: int, strategy: str,
        time: int = 0,
    ) -> None:
        cfg = self.buffer.config
        if cfg.lru_only and strategy != "lru":
            return
        if self.buffer.record(chunk_id, touched_mask, untouch_level):
            stats = self.ctx.stats
            stats.pattern_inserts += 1
            stats.pattern_buffer_peak = self.buffer.peak
            stats.pattern_buffer_len_samples.append(len(self.buffer))
            self._m_records.inc()
            self._g_occupancy.set(len(self.buffer))
            if self._trace.enabled:
                self._trace.emit(
                    "pattern_record", time, chunk=chunk_id,
                    untouch=untouch_level, occupancy=len(self.buffer),
                )

    # --- prefetch decision ----------------------------------------------------

    def pages_to_migrate(
        self, vpn: int, memory_full: bool, occupied: Callable[[int], int],
        time: int = 0,
    ) -> List[int]:
        ppc = self.ctx.pages_per_chunk
        chunk_id = vpn // ppc
        entry = self.buffer.get(chunk_id)
        if entry is None:
            return self._chunk_pages(vpn, occupied)

        stats = self.ctx.stats
        page_index = vpn % ppc
        first_lookup = not entry.looked_up
        entry.looked_up = True
        if entry.matches(page_index):
            if first_lookup:
                entry.first_matched = True
            stats.pattern_hits += 1
            self._m_hits.inc()
            # The faulted page matches, so it leads unless it is occupied.
            wanted = entry.touched_mask & ~occupied(chunk_id) & ((1 << ppc) - 1)
            pages = mask_pages(chunk_id * ppc, wanted, vpn)
            stats.pattern_prefetches += max(0, len(pages) - 1)
            if self._trace.enabled:
                self._trace.emit(
                    "pattern_hit", time, chunk=chunk_id, page=page_index,
                    pages=len(pages),
                )
            return pages

        # Mismatch: whole chunk, then apply the deletion scheme.
        stats.pattern_mismatches += 1
        self._m_mismatches.inc()
        deletions_before = self.buffer.deletions
        self.buffer.handle_mismatch(entry)
        stats.pattern_deletions = self.buffer.deletions
        deleted = self.buffer.deletions > deletions_before
        if deleted:
            self._m_deletions.inc()
            self._g_occupancy.set(len(self.buffer))
        if self._trace.enabled:
            self._trace.emit(
                "pattern_mismatch", time, chunk=chunk_id, page=page_index,
            )
            if deleted:
                self._trace.emit("pattern_delete", time, chunk=chunk_id)
        return self._chunk_pages(vpn, occupied)
