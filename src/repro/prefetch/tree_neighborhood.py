"""Tree-based neighborhood prefetcher (Ganguly et al. [16], Section II-B).

Ganguly et al. discovered via microbenchmarks that the NVIDIA CUDA driver
prefetches with a binary tree built over the 64 KB basic blocks of each 2 MB
large-page region: when a fault makes more than half of the pages under a
tree node valid, the driver prefetches the remainder of that node, walking
up the tree as long as the occupancy condition holds.

This is an *extension* in our reproduction (the paper's own evaluation uses
the sequential-local prefetcher); the ablation bench ``bench_ablation_tree``
compares the two under LRU.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from ..errors import ConfigError
from .base import Prefetcher, mask_pages

__all__ = ["TreeNeighborhoodPrefetcher"]


class TreeNeighborhoodPrefetcher(Prefetcher):
    """Binary-tree neighborhood prefetch over 2 MB regions."""

    def __init__(self, region_pages: int = 512, on_full: str = "continue",
                 occupancy_threshold: float = 0.5):
        super().__init__()
        if region_pages <= 0 or region_pages & (region_pages - 1):
            raise ConfigError("region_pages must be a positive power of two")
        if on_full not in ("continue", "stop"):
            raise ConfigError(f"on_full must be 'continue' or 'stop', got {on_full!r}")
        if not 0.0 < occupancy_threshold <= 1.0:
            raise ConfigError("occupancy_threshold must be in (0, 1]")
        self.region_pages = region_pages
        self.on_full = on_full
        self.occupancy_threshold = occupancy_threshold
        self.name = f"tree/{on_full}"

    def pages_to_migrate(
        self, vpn: int, memory_full: bool, occupied: Callable[[int], int],
        time: int = 0,
    ) -> List[int]:
        if memory_full and self.on_full == "stop":
            return self._demand_page(vpn, occupied)

        ppc = self.ctx.pages_per_chunk
        full = (1 << ppc) - 1
        # Start from the faulted basic block (chunk).
        chunk_id = vpn // ppc
        node_base = chunk_id * ppc
        node_size = ppc
        # Per chunk id: its occupied mask (one callback per chunk), and the
        # mask of its pages already in ``pages``.
        occ = {chunk_id: occupied(chunk_id)}
        taken = {chunk_id: ~occ[chunk_id] & full}
        pages = mask_pages(node_base, taken[chunk_id], vpn)

        # Walk up the tree while the enclosing node would be >50% valid
        # after this migration.
        region_base = (vpn // self.region_pages) * self.region_pages
        while node_size < self.region_pages:
            parent_size = node_size * 2
            parent_base = region_base + ((node_base - region_base) // parent_size) * parent_size
            spans = _chunk_spans(parent_base, parent_base + parent_size, ppc)
            valid = 0
            for cid, bits in spans:
                mask = occ.get(cid)
                if mask is None:
                    mask = occ[cid] = occupied(cid)
                valid += bin((mask | taken.get(cid, 0)) & bits).count("1")
            # '>=': completing one half of a node triggers the other half,
            # which is what produces the geometrically growing migration
            # sizes Ganguly et al. measured from the CUDA driver.
            if valid / parent_size < self.occupancy_threshold:
                break
            for cid, bits in spans:
                new = bits & ~occ[cid] & ~taken.get(cid, 0)
                if new:
                    taken[cid] = taken.get(cid, 0) | new
                    pages.extend(mask_pages(cid * ppc, new))
            node_base, node_size = parent_base, parent_size
        return pages


def _chunk_spans(lo: int, hi: int, ppc: int) -> List[Tuple[int, int]]:
    """``(chunk id, mask of its pages inside [lo, hi))`` for every chunk
    overlapping the page range, in ascending chunk order."""
    spans = []
    full = (1 << ppc) - 1
    for cid in range(lo // ppc, (hi - 1) // ppc + 1):
        base = cid * ppc
        bits = full
        if lo > base:
            bits &= full << (lo - base)
        if hi < base + ppc:
            bits &= (1 << (hi - base)) - 1
        spans.append((cid, bits))
    return spans
