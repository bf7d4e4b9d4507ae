"""FROZEN object-graph memory structures — differential-test reference only.

The dict-backed :class:`PageTable` and the linked :class:`ChunkChain` the
simulator used before the flat-list representation became its only one,
moved here unchanged, and the per-page :class:`InFlightMigration` (a set of
vpns) the simulator used before in-flight pages became per-chunk masks.  ``tests/_legacy_gmmu.py`` (the pre-refactor
monolith) runs on them, so the differential tests compare the production
pipeline against an independent representation, and
``tests/test_array_structures.py`` compares each production structure with
its reference operation by operation.  Do not modernise this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.memsim.chunk_chain import ChunkEntry as _PlainEntry
from repro.memsim.fault import FarFault

__all__ = ["ChunkEntry", "ChunkChain", "InFlightMigration", "PageTable"]

_BITS_PER_LEVEL = 9


class ChunkEntry(_PlainEntry):
    """A chunk entry that is also a node of the linked chain."""

    __slots__ = ("prev", "next", "in_chain")

    def __init__(
        self, chunk_id: int, interval: int, insert_order: int = 0
    ) -> None:
        super().__init__(chunk_id, interval, insert_order)
        self.prev: Optional["ChunkEntry"] = None
        self.next: Optional["ChunkEntry"] = None
        self.in_chain = False


class ChunkChain:
    """Doubly-linked recency chain of :class:`ChunkEntry` with an id index."""

    def __init__(self) -> None:
        # Sentinels: _head.next is the LRU-most real entry.
        self._head = ChunkEntry(-1, 0)
        self._tail = ChunkEntry(-2, 0)
        self._head.next = self._tail
        self._tail.prev = self._head
        self._index: dict[int, ChunkEntry] = {}
        self._insert_seq = 0
        self.length_peak = 0

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self._index

    def get(self, chunk_id: int) -> Optional[ChunkEntry]:
        return self._index.get(chunk_id)

    # --- linking primitives -------------------------------------------------

    def _link_before(self, node: ChunkEntry, anchor: ChunkEntry) -> None:
        prev = anchor.prev
        assert prev is not None
        prev.next = node
        node.prev = prev
        node.next = anchor
        anchor.prev = node
        node.in_chain = True

    def _unlink(self, node: ChunkEntry) -> None:
        if not node.in_chain:
            raise SimulationError(f"chunk {node.chunk_id} not in chain")
        assert node.prev is not None and node.next is not None
        node.prev.next = node.next
        node.next.prev = node.prev
        node.prev = node.next = None
        node.in_chain = False

    # --- public operations ----------------------------------------------------

    def new_entry(self, chunk_id: int, interval: int) -> ChunkEntry:
        """Fresh (all-clear) entry for a chunk about to become resident.

        A factory rather than a bare constructor call so array-backed
        chains can hand out slot-backed handles instead of heap objects.
        """
        return ChunkEntry(chunk_id, interval)

    def insert_tail(self, entry: ChunkEntry) -> None:
        """Insert at the MRU position (normal arrival of a migrated chunk)."""
        if entry.chunk_id in self._index:
            raise SimulationError(f"chunk {entry.chunk_id} already in chain")
        entry.insert_order = self._insert_seq
        self._insert_seq += 1
        self._link_before(entry, self._tail)
        self._index[entry.chunk_id] = entry
        if len(self._index) > self.length_peak:
            self.length_peak = len(self._index)

    def insert_head(self, entry: ChunkEntry) -> None:
        """Insert at the LRU position (MHPE's wrongly-evicted re-insertion)."""
        if entry.chunk_id in self._index:
            raise SimulationError(f"chunk {entry.chunk_id} already in chain")
        entry.insert_order = self._insert_seq
        self._insert_seq += 1
        anchor = self._head.next
        assert anchor is not None
        self._link_before(entry, anchor)
        self._index[entry.chunk_id] = entry
        if len(self._index) > self.length_peak:
            self.length_peak = len(self._index)

    def remove(self, chunk_id: int) -> ChunkEntry:
        """Remove and return the entry for ``chunk_id`` (eviction)."""
        entry = self._index.pop(chunk_id, None)
        if entry is None:
            raise SimulationError(f"chunk {chunk_id} not in chain")
        self._unlink(entry)
        return entry

    def move_to_tail(self, chunk_id: int) -> None:
        """Refresh recency (LRU policies call this on touch)."""
        entry = self._index.get(chunk_id)
        if entry is None:
            raise SimulationError(f"chunk {chunk_id} not in chain")
        self._unlink(entry)
        self._link_before(entry, self._tail)
        self._index[chunk_id] = entry

    # --- iteration -----------------------------------------------------------

    def from_head(self) -> Iterator[ChunkEntry]:
        """LRU-most first."""
        node = self._head.next
        while node is not self._tail:
            assert node is not None
            nxt = node.next
            yield node
            node = nxt

    def from_tail(self) -> Iterator[ChunkEntry]:
        """MRU-most first."""
        node = self._tail.prev
        while node is not self._head:
            assert node is not None
            prv = node.prev
            yield node
            node = prv

    def old_partition_from_head(self, current_interval: int) -> Iterator[ChunkEntry]:
        """Old-partition entries, LRU-most first."""
        for entry in self.from_head():
            if entry.partition(current_interval) == "old":
                yield entry

    def old_partition_from_tail(self, current_interval: int) -> Iterator[ChunkEntry]:
        """Old-partition entries, MRU-most first."""
        for entry in self.from_tail():
            if entry.partition(current_interval) == "old":
                yield entry

    def _partitioned(
        self, entries: Iterator[ChunkEntry], current_interval: int
    ) -> List[ChunkEntry]:
        old: List[ChunkEntry] = []
        middle: List[ChunkEntry] = []
        new: List[ChunkEntry] = []
        for entry in entries:
            part = entry.partition(current_interval)
            if part == "old":
                old.append(entry)
            elif part == "middle":
                middle.append(entry)
            else:
                new.append(entry)
        return old + middle + new

    def candidates_from_tail(self, current_interval: int) -> List[ChunkEntry]:
        """Eviction candidates: old partition first (MRU-first within each
        partition), then middle, then new.

        Eviction prefers the old partition, but a policy must be able to
        evict *something* when the old partition cannot cover a request, so
        younger partitions follow in priority order.
        """
        return self._partitioned(self.from_tail(), current_interval)

    def candidates_from_head(self, current_interval: int) -> List[ChunkEntry]:
        """Eviction candidates: old partition first (LRU-first within each
        partition), then middle, then new."""
        return self._partitioned(self.from_head(), current_interval)


class PageTable:
    """Radix page table with residency and access/dirty tracking."""

    __slots__ = ("levels", "_entries", "resident_peak")

    def __init__(self, levels: int = 4):
        if levels <= 0:
            raise SimulationError("page table needs at least one level")
        self.levels = levels
        # vpn -> [frame, accessed, dirty]
        self._entries: Dict[int, List] = {}
        self.resident_peak = 0

    # --- residency --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries

    def is_resident(self, vpn: int) -> bool:
        return vpn in self._entries

    def frame_of(self, vpn: int) -> Optional[int]:
        entry = self._entries.get(vpn)
        return entry[0] if entry is not None else None

    def map(self, vpn: int, frame: int) -> None:
        """Install a translation.  Pages arrive untouched and clean."""
        if vpn in self._entries:
            raise SimulationError(f"vpn {vpn} already mapped")
        self._entries[vpn] = [frame, False, False]
        if len(self._entries) > self.resident_peak:
            self.resident_peak = len(self._entries)

    def unmap(self, vpn: int) -> Tuple[int, bool, bool]:
        """Remove a translation; returns (frame, accessed, dirty)."""
        entry = self._entries.pop(vpn, None)
        if entry is None:
            raise SimulationError(f"vpn {vpn} not mapped")
        return entry[0], entry[1], entry[2]

    def record_access(self, vpn: int, is_write: bool = False) -> None:
        """Set the accessed (and possibly dirty) bit, as MMU hardware would."""
        entry = self._entries.get(vpn)
        if entry is None:
            raise SimulationError(f"access to non-resident vpn {vpn}")
        entry[1] = True
        if is_write:
            entry[2] = True

    def accessed(self, vpn: int) -> bool:
        entry = self._entries.get(vpn)
        return bool(entry and entry[1])

    def dirty(self, vpn: int) -> bool:
        entry = self._entries.get(vpn)
        return bool(entry and entry[2])

    def resident_vpns(self) -> List[int]:
        """Snapshot of resident VPNs (sorted, for deterministic iteration)."""
        return sorted(self._entries)

    # --- walk structure ----------------------------------------------------

    def node_keys(self, vpn: int) -> Tuple[Tuple[int, int], ...]:
        """Per-level node identifiers touched by a walk for ``vpn``.

        Returns ``levels`` keys ordered root-first.  Key for level ``i``
        (0 = root) identifies the page-table node whose entry must be read at
        that level; the page walk cache caches the *upper* levels (all but
        the leaf), so a PWC hit on the deepest cached level shortens the walk.
        """
        keys = []
        for level in range(self.levels):
            shift = _BITS_PER_LEVEL * (self.levels - 1 - level)
            keys.append((level, vpn >> shift))
        return tuple(keys)


@dataclass
class InFlightMigration:
    """A fault-service operation the GMMU is currently executing."""

    chunk_id: int
    pages: Set[int]  # VPNs being migrated in
    faults: List[FarFault] = field(default_factory=list)
    start_time: int = 0
    finish_time: int = 0
    #: Issue-order token assigned by the GMMU; stable across processes
    #: (unlike ``id()``), so it can key bookkeeping tables.
    token: int = -1

    def covers(self, vpn: int) -> bool:
        return vpn in self.pages

    def attach(self, fault: FarFault) -> None:
        self.faults.append(fault)

    def trace_args(self) -> Dict[str, Any]:
        """Structured-event payload for the observability tracer."""
        return {
            "chunk": self.chunk_id,
            "pages": len(self.pages),
            "faults": len(self.faults),
            "token": self.token,
        }
