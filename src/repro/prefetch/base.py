"""Prefetcher interface.

On every far fault the GMMU asks the active prefetcher which pages to
migrate alongside the faulted page.  The prefetcher never sees residency
state directly; the GMMU passes an ``occupied(chunk_id)`` callback that
returns a mask of the chunk's pages (bit ``i`` = page
``chunk_id * pages_per_chunk + i``) that are resident, already in flight,
or already claimed by the service op being assembled.  A prefetcher leaves
those pages out, so it cannot double-migrate.  It works on whole chunks, as
every mechanism of the paper does: one callback and a little mask
arithmetic per 64 KB chunk instead of one probe per page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..config import SimConfig
from ..engine.stats import SimStats
from ..obs import DISABLED, Observability

__all__ = ["PrefetchContext", "Prefetcher", "mask_pages"]


def mask_pages(base: int, mask: int, first: Optional[int] = None) -> List[int]:
    """Pages ``base + i`` for the set bits ``i`` of ``mask``, ascending,
    except that ``first`` leads the list when its bit is set."""
    pages: List[int] = []
    if first is not None:
        index = first - base
        if index >= 0 and mask >> index & 1:
            pages.append(first)
            mask ^= 1 << index
    while mask:
        low = mask & -mask
        mask ^= low
        pages.append(base + low.bit_length() - 1)
    return pages


@dataclass
class PrefetchContext:
    """Handed to the prefetcher by the GMMU at attach time."""

    config: SimConfig
    stats: SimStats
    #: Observability sink (tracer + metrics registry); the DISABLED
    #: singleton is stateless, so sharing it as a default is safe.
    obs: Observability = DISABLED

    @property
    def pages_per_chunk(self) -> int:
        return self.config.uvm.pages_per_chunk


class Prefetcher:
    """Base prefetcher: demand page only (subclasses widen the batch)."""

    name = "none"

    def __init__(self) -> None:
        self.ctx: PrefetchContext = None  # type: ignore[assignment]

    def attach(self, ctx: PrefetchContext) -> None:
        self.ctx = ctx

    def pages_to_migrate(
        self,
        vpn: int,
        memory_full: bool,
        occupied: Callable[[int], int],
        time: int = 0,
    ) -> List[int]:
        """Pages to migrate for a fault on ``vpn``.

        Must include ``vpn`` itself (unless it is occupied, i.e. already
        covered in flight) and must not include any page whose bit is set
        in ``occupied(chunk_id)`` of its chunk.  ``memory_full`` tells the
        prefetcher the device is at capacity and every extra page forces an
        eviction.  ``time`` is the fault's simulation time, used only for
        telemetry (trace events) — it must never influence the page batch.
        The demand page comes first: the GMMU truncates an oversized batch
        from the end.
        """
        return self._demand_page(vpn, occupied)

    def on_chunk_evicted(
        self,
        chunk_id: int,
        touched_mask: int,
        untouch_level: int,
        strategy: str,
        time: int = 0,
    ) -> None:
        """Eviction feedback (CPPE coordination point).  Default: ignore."""

    # --- helpers -----------------------------------------------------------

    def _demand_page(self, vpn: int, occupied: Callable[[int], int]) -> List[int]:
        """``[vpn]``, or ``[]`` when the faulted page is occupied."""
        ppc = self.ctx.pages_per_chunk
        chunk_id = vpn // ppc
        return [] if occupied(chunk_id) >> (vpn - chunk_id * ppc) & 1 else [vpn]

    def _chunk_pages(self, vpn: int, occupied: Callable[[int], int]) -> List[int]:
        """All unoccupied pages of the chunk containing ``vpn``, with the
        faulted page first (it is the demand page; the rest are prefetch)."""
        ppc = self.ctx.pages_per_chunk
        chunk_id = vpn // ppc
        free = ~occupied(chunk_id) & ((1 << ppc) - 1)
        return mask_pages(chunk_id * ppc, free, vpn)
