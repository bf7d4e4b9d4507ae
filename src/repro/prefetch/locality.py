"""Sequential-local (chunk) prefetcher — Zheng et al. [9].

On a fault, migrate the whole 64 KB chunk (16 pages) containing the faulted
page, amortising the 20 us fault service cost over up to 16 pages.

``on_full`` controls behaviour once device memory is at capacity:

* ``"continue"`` — keep prefetching whole chunks (the *naive* baseline of
  [16], used in Figs. 8-10; thrashes irregular applications, Fig. 4);
* ``"stop"`` — demand-page only when full (the mitigation of [11],
  evaluated in Fig. 10; slows regular applications by up to 85%).
"""

from __future__ import annotations

from typing import Callable, List

from ..errors import ConfigError
from .base import Prefetcher

__all__ = ["LocalityPrefetcher"]


class LocalityPrefetcher(Prefetcher):
    """64 KB basic-block prefetch with configurable on-full behaviour."""

    def __init__(self, on_full: str = "continue"):
        super().__init__()
        if on_full not in ("continue", "stop"):
            raise ConfigError(f"on_full must be 'continue' or 'stop', got {on_full!r}")
        self.on_full = on_full
        self.name = f"locality/{on_full}"

    def attach(self, ctx) -> None:  # noqa: ANN001 - see base class
        super().attach(ctx)
        metrics = ctx.obs.metrics
        self._m_batches = metrics.counter("prefetch.chunk_batches")
        self._m_demand_only = metrics.counter("prefetch.demand_only")
        self._m_batch_pages = metrics.histogram("prefetch.batch_pages")

    def pages_to_migrate(
        self, vpn: int, memory_full: bool, occupied: Callable[[int], int],
        time: int = 0,
    ) -> List[int]:
        if memory_full and self.on_full == "stop":
            self._m_demand_only.inc()
            return self._demand_page(vpn, occupied)
        pages = self._chunk_pages(vpn, occupied)
        self._m_batches.inc()
        self._m_batch_pages.observe(len(pages))
        return pages
