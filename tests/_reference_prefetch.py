"""FROZEN per-page prefetcher batches — mask-interface reference only.

Before prefetchers read chunk occupancy masks, each one computed its batch
page by page against a ``skip(vpn) -> bool`` predicate (True for a page
that is resident, in flight or already claimed by the op being
assembled).  The classes here are the production prefetchers with that
``pages_to_migrate`` (and its ``_chunk_pages`` / ``_collect`` helpers)
restored as they were, so ``tests/test_prefetch_masks.py`` can require the
mask arithmetic to return the identical list, in the identical order.
Everything else (attach, eviction feedback, pattern buffer, n-gram model)
is inherited, so both sides evolve the same state.  Do not modernise this
file.
"""

from __future__ import annotations

from typing import Callable, List

from repro.prefetch.disabled import DisabledPrefetcher
from repro.prefetch.locality import LocalityPrefetcher
from repro.prefetch.ngram import NGramPrefetcher
from repro.prefetch.pattern_aware import PatternAwarePrefetcher
from repro.prefetch.tree_neighborhood import TreeNeighborhoodPrefetcher

__all__ = [
    "ReferenceDisabled",
    "ReferenceLocality",
    "ReferenceNGram",
    "ReferencePatternAware",
    "ReferenceTree",
]

Skip = Callable[[int], bool]


class _PerPage:
    """The per-page base-class helper."""

    def _chunk_pages(self, vpn: int, skip: Skip) -> List[int]:
        """All non-skipped pages of the chunk containing ``vpn``, with the
        faulted page first (it is the demand page; the rest are prefetch)."""
        ppc = self.ctx.pages_per_chunk
        base = (vpn // ppc) * ppc
        pages = [] if skip(vpn) else [vpn]
        pages.extend(
            p for p in range(base, base + ppc) if p != vpn and not skip(p)
        )
        return pages


class ReferenceDisabled(_PerPage, DisabledPrefetcher):
    def pages_to_migrate(
        self, vpn: int, memory_full: bool, skip: Skip, time: int = 0,
    ) -> List[int]:
        return [] if skip(vpn) else [vpn]


class ReferenceLocality(_PerPage, LocalityPrefetcher):
    def pages_to_migrate(
        self, vpn: int, memory_full: bool, skip: Skip, time: int = 0,
    ) -> List[int]:
        if memory_full and self.on_full == "stop":
            self._m_demand_only.inc()
            return [] if skip(vpn) else [vpn]
        pages = self._chunk_pages(vpn, skip)
        self._m_batches.inc()
        self._m_batch_pages.observe(len(pages))
        return pages


class ReferenceTree(_PerPage, TreeNeighborhoodPrefetcher):
    def pages_to_migrate(
        self, vpn: int, memory_full: bool, skip: Skip, time: int = 0,
    ) -> List[int]:
        if memory_full and self.on_full == "stop":
            return [] if skip(vpn) else [vpn]

        ppc = self.ctx.pages_per_chunk
        # Start from the faulted basic block (chunk).
        node_base = (vpn // ppc) * ppc
        node_size = ppc
        pages = self._collect(node_base, node_size, vpn, skip)

        # Walk up the tree while the enclosing node would be >50% valid
        # after this migration.
        region_base = (vpn // self.region_pages) * self.region_pages
        valid = set(pages)
        while node_size < self.region_pages:
            parent_size = node_size * 2
            parent_base = region_base + ((node_base - region_base) // parent_size) * parent_size
            occupied = sum(
                1
                for p in range(parent_base, parent_base + parent_size)
                if skip(p) or p in valid
            )
            if occupied / parent_size < self.occupancy_threshold:
                break
            extra = self._collect(parent_base, parent_size, vpn, skip)
            for p in extra:
                if p not in valid:
                    pages.append(p)
                    valid.add(p)
            node_base, node_size = parent_base, parent_size
        return pages

    def _collect(
        self, base: int, size: int, faulted: int, skip: Skip
    ) -> List[int]:
        """Non-skipped pages of [base, base+size), faulted page first."""
        pages = [] if skip(faulted) or not base <= faulted < base + size else [faulted]
        pages.extend(
            p for p in range(base, base + size) if p != faulted and not skip(p)
        )
        return pages


class ReferencePatternAware(_PerPage, PatternAwarePrefetcher):
    def pages_to_migrate(
        self, vpn: int, memory_full: bool, skip: Skip, time: int = 0,
    ) -> List[int]:
        ppc = self.ctx.pages_per_chunk
        chunk_id = vpn // ppc
        entry = self.buffer.get(chunk_id)
        if entry is None:
            return self._chunk_pages(vpn, skip)

        stats = self.ctx.stats
        page_index = vpn % ppc
        first_lookup = not entry.looked_up
        entry.looked_up = True
        if entry.matches(page_index):
            if first_lookup:
                entry.first_matched = True
            stats.pattern_hits += 1
            self._m_hits.inc()
            base = chunk_id * ppc
            pages = [] if skip(vpn) else [vpn]
            for i in range(ppc):
                p = base + i
                if p != vpn and entry.matches(i) and not skip(p):
                    pages.append(p)
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
        return self._chunk_pages(vpn, skip)


class ReferenceNGram(_PerPage, NGramPrefetcher):
    def pages_to_migrate(
        self, vpn: int, memory_full: bool, skip: Skip, time: int = 0,
    ) -> List[int]:
        ppc = self.ctx.pages_per_chunk
        chunk = vpn // ppc
        # A fault into a chunk proves it live again: lift the blacklist.
        self._evicted.pop(chunk, None)
        self._observe(chunk)
        pages = self._chunk_pages(vpn, skip)
        if memory_full:
            return pages  # demand chunk only: no speculation at capacity
        predicted = self._predict()
        if predicted is None or predicted == chunk:
            return pages
        self.predictions += 1
        base = predicted * ppc
        pages.extend(p for p in range(base, base + ppc) if not skip(p))
        return pages
