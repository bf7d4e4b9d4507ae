"""Far-fault bookkeeping.

A :class:`FarFault` records one SM access that missed device memory.  The
GMMU groups faults by chunk: while a migration for a chunk is in flight,
additional faults to pages covered by that migration merge into it (they are
resolved together, as the replayable-far-fault hardware of [9] does), and
faults to same-chunk pages *not* covered queue as fresh faults.

An :class:`InFlightMigration` names its pages the way every mechanism of the
paper does, as one page mask per 64 KB chunk: bit ``i`` of ``masks[c]`` is
page ``c * pages_per_chunk + i``.  The frontend indexes in-flight pages by
the same masks, so "is this page on its way?" is a dict lookup and a bit
test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

__all__ = ["FarFault", "InFlightMigration"]


@dataclass
class FarFault:
    """One outstanding faulted access."""

    vpn: int
    sm_id: int
    time: int
    is_write: bool
    #: Called with the completion time when the page becomes resident.
    on_resolve: Callable[[int], None]

    def trace_args(self) -> Dict[str, Any]:
        """Structured-event payload for the observability tracer."""
        return {"vpn": self.vpn, "sm": self.sm_id, "write": self.is_write}


@dataclass
class InFlightMigration:
    """A fault-service operation the GMMU is currently executing."""

    chunk_id: int
    #: chunk id -> mask of that chunk's pages being migrated in.
    masks: Dict[int, int]
    #: Pages being migrated in (the popcount of ``masks``).
    num_pages: int
    pages_per_chunk: int
    faults: List[FarFault] = field(default_factory=list)
    start_time: int = 0
    finish_time: int = 0
    #: Issue-order token assigned by the GMMU; stable across processes
    #: (unlike ``id()``), so it can key bookkeeping tables.
    token: int = -1

    def covers(self, vpn: int) -> bool:
        chunk_id, index = divmod(vpn, self.pages_per_chunk)
        return bool(self.masks.get(chunk_id, 0) >> index & 1)

    def attach(self, fault: FarFault) -> None:
        self.faults.append(fault)

    def trace_args(self) -> Dict[str, Any]:
        """Structured-event payload for the observability tracer."""
        return {
            "chunk": self.chunk_id,
            "pages": self.num_pages,
            "faults": len(self.faults),
            "token": self.token,
        }
