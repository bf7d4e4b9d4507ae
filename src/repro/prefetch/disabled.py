"""Demand paging only — no prefetch.  Every touched page costs a fault."""

from __future__ import annotations

from typing import Callable, List

from .base import Prefetcher

__all__ = ["DisabledPrefetcher"]


class DisabledPrefetcher(Prefetcher):
    """Migrate exactly the faulted page."""

    name = "none"

    def pages_to_migrate(
        self, vpn: int, memory_full: bool, occupied: Callable[[int], int],
        time: int = 0,
    ) -> List[int]:
        return self._demand_page(vpn, occupied)
