"""The chunk chain (HPE Fig. 2): a recency-ordered list of resident chunks.

The chain is a doubly-linked list with O(1) insert/remove/move.  Head is the
least-recently referenced end (LRU position), tail the most recent (MRU
position).  Entries carry the per-page *touched* bit-vector (maintained from
page-table access bits), the *resident* bit-vector (which pages of the chunk
are actually in device memory — pattern-aware prefetch migrates partial
chunks), and the HPE access counter.

Partitions (relative to the current interval ``cur``):

* **new**    — last referenced in interval ``cur``;
* **middle** — last referenced in interval ``cur - 1``;
* **old**    — everything older.  Eviction candidates come from here.

Representation: parallel per-chunk lists indexed by ``chunk_id - origin``
(masks, counters, intervals, and the intrusive prev/next links stored as
*absolute* chunk ids, ``-1`` = end).  The origin is anchored at the first
chunk id the chain stores, because workloads place their footprint at a
high base VPN (``Workload.base_vpn``) and an origin of 0 would allocate the
whole gap below it.  The lists grow in place at either end (``extend``
high, ``lst[:0] = ...`` low) so the fused hot loops in
:mod:`repro.memsim.system` and :mod:`repro.engine.sm` may hoist them.
Policies see :class:`ChunkHandle` views, which keep the object-shaped
:class:`ChunkEntry` interface over one slot.  Eviction candidates come as a
:class:`Candidates` sequence that walks the slot lists lazily, so victim
selection stops after the entries it needs.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..errors import SimulationError

__all__ = ["ChunkEntry", "ChunkHandle", "ChunkChain", "Candidates"]

#: Slack added when the slot lists must grow, so growth is amortised
#: instead of per-chunk.
_PAD_CHUNKS = 512


class ChunkEntry:
    """Metadata for one resident (or partially resident) chunk.

    A plain object: the snapshot the eviction service hands to the policy,
    and an entry built outside the chain (the chain copies its fields in on
    insert).  Entries stored in the chain are :class:`ChunkHandle` views.
    """

    __slots__ = (
        "chunk_id",
        "resident_mask",
        "touched_mask",
        "prefetch_mask",
        "counter",
        "last_ref_interval",
        "insert_interval",
        "insert_order",
    )

    def __init__(
        self, chunk_id: int, interval: int, insert_order: int = 0
    ) -> None:
        self.chunk_id = chunk_id
        self.resident_mask = 0
        self.touched_mask = 0
        self.prefetch_mask = 0
        self.counter = 0
        self.last_ref_interval = interval
        self.insert_interval = interval
        self.insert_order = insert_order

    # --- bit-vector helpers -------------------------------------------------

    def mark_resident(self, page_index: int) -> None:
        self.resident_mask |= 1 << page_index

    def clear_resident(self, page_index: int) -> None:
        self.resident_mask &= ~(1 << page_index)

    def mark_touched(self, page_index: int) -> None:
        self.touched_mask |= 1 << page_index

    def is_resident(self, page_index: int) -> bool:
        return bool(self.resident_mask >> page_index & 1)

    def is_touched(self, page_index: int) -> bool:
        return bool(self.touched_mask >> page_index & 1)

    @property
    def resident_pages(self) -> int:
        return bin(self.resident_mask).count("1")

    @property
    def touched_pages(self) -> int:
        return bin(self.touched_mask).count("1")

    def untouch_level(self) -> int:
        """Pages migrated to the GPU but never touched (the MHPE statistic)."""
        return bin(self.resident_mask & ~self.touched_mask).count("1")

    def partition(self, current_interval: int) -> str:
        if self.last_ref_interval >= current_interval:
            return "new"
        if self.last_ref_interval == current_interval - 1:
            return "middle"
        return "old"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkEntry({self.chunk_id}, res={self.resident_mask:#06x}, "
            f"touch={self.touched_mask:#06x}, ctr={self.counter})"
        )


class ChunkHandle(ChunkEntry):
    """Slot-backed view presenting one chain slot as a :class:`ChunkEntry`.

    All metadata fields are properties over the owning chain's parallel
    lists, so the inherited mask helpers (``mark_resident``,
    ``untouch_level``, ``partition``, …) operate on chain state.  The
    handle stores only its absolute chunk id (rebase-safe: the local slot
    index is recomputed per access).
    """

    __slots__ = ("_chain",)

    def __init__(self, chain: "ChunkChain", chunk_id: int) -> None:
        # Deliberately does NOT call ChunkEntry.__init__ — that would write
        # defaults through the properties into the (possibly live) slot.
        self._chain = chain
        self.chunk_id = chunk_id

    @property
    def resident_mask(self) -> int:
        c = self._chain
        return c._res[self.chunk_id - c._origin]

    @resident_mask.setter
    def resident_mask(self, value: int) -> None:
        c = self._chain
        c._res[self.chunk_id - c._origin] = value

    @property
    def touched_mask(self) -> int:
        c = self._chain
        return c._tch[self.chunk_id - c._origin]

    @touched_mask.setter
    def touched_mask(self, value: int) -> None:
        c = self._chain
        c._tch[self.chunk_id - c._origin] = value

    @property
    def prefetch_mask(self) -> int:
        c = self._chain
        return c._pfm[self.chunk_id - c._origin]

    @prefetch_mask.setter
    def prefetch_mask(self, value: int) -> None:
        c = self._chain
        c._pfm[self.chunk_id - c._origin] = value

    @property
    def counter(self) -> int:
        c = self._chain
        return c._ctr[self.chunk_id - c._origin]

    @counter.setter
    def counter(self, value: int) -> None:
        c = self._chain
        c._ctr[self.chunk_id - c._origin] = value

    @property
    def last_ref_interval(self) -> int:
        c = self._chain
        return c._lref[self.chunk_id - c._origin]

    @last_ref_interval.setter
    def last_ref_interval(self, value: int) -> None:
        c = self._chain
        c._lref[self.chunk_id - c._origin] = value

    @property
    def insert_interval(self) -> int:
        c = self._chain
        return c._iint[self.chunk_id - c._origin]

    @insert_interval.setter
    def insert_interval(self, value: int) -> None:
        c = self._chain
        c._iint[self.chunk_id - c._origin] = value

    @property
    def insert_order(self) -> int:
        c = self._chain
        return c._iord[self.chunk_id - c._origin]

    @insert_order.setter
    def insert_order(self, value: int) -> None:
        c = self._chain
        c._iord[self.chunk_id - c._origin] = value


class ChunkChain:
    """The recency chain as parallel per-chunk lists with intrusive links."""

    def __init__(self) -> None:
        n = _PAD_CHUNKS
        self._anchored = False
        self._origin = 0
        self._res: List[int] = [0] * n
        self._tch: List[int] = [0] * n
        self._pfm: List[int] = [0] * n
        self._ctr: List[int] = [0] * n
        self._lref: List[int] = [0] * n
        self._iint: List[int] = [0] * n
        self._iord: List[int] = [0] * n
        self._prv: List[int] = [-1] * n
        self._nxt: List[int] = [-1] * n
        self._inch = bytearray(n)
        self._handles: List[Optional[ChunkHandle]] = [None] * n
        self._first = -1  # absolute chunk id of the LRU-most entry
        self._last = -1  # absolute chunk id of the MRU-most entry
        self._count = 0
        self._insert_seq = 0
        self.length_peak = 0

    # --- slot management --------------------------------------------------

    def _ensure(self, chunk_id: int) -> int:
        """Local slot index for ``chunk_id``, growing the lists in place."""
        if not self._anchored:
            self._anchored = True
            self._origin = chunk_id - chunk_id % _PAD_CHUNKS
        li = chunk_id - self._origin
        if li < 0:
            pad = max(-li, _PAD_CHUNKS)
            for lst in (
                self._res, self._tch, self._pfm, self._ctr,
                self._lref, self._iint, self._iord,
            ):
                lst[:0] = [0] * pad
            self._prv[:0] = [-1] * pad
            self._nxt[:0] = [-1] * pad
            self._handles[:0] = [None] * pad
            self._inch[:0] = bytes(pad)
            self._origin -= pad
            return chunk_id - self._origin
        n = len(self._inch)
        if li >= n:
            pad = li - n + 1 + _PAD_CHUNKS
            for lst in (
                self._res, self._tch, self._pfm, self._ctr,
                self._lref, self._iint, self._iord,
            ):
                lst.extend([0] * pad)
            self._prv.extend([-1] * pad)
            self._nxt.extend([-1] * pad)
            self._handles.extend([None] * pad)
            self._inch.extend(bytes(pad))
        return li

    def _handle(self, li: int) -> ChunkHandle:
        handle = self._handles[li]
        if handle is None:
            handle = ChunkHandle(self, li + self._origin)
            self._handles[li] = handle
        return handle

    # --- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, chunk_id: int) -> bool:
        li = chunk_id - self._origin
        return 0 <= li < len(self._inch) and bool(self._inch[li])

    def get(self, chunk_id: int) -> Optional[ChunkEntry]:
        li = chunk_id - self._origin
        if 0 <= li < len(self._inch) and self._inch[li]:
            return self._handle(li)
        return None

    # --- public operations ------------------------------------------------

    def new_entry(self, chunk_id: int, interval: int) -> ChunkEntry:
        """Reset the chunk's slot to a fresh (all-clear) entry for a chunk
        about to become resident, and return its handle."""
        li = self._ensure(chunk_id)
        self._res[li] = 0
        self._tch[li] = 0
        self._pfm[li] = 0
        self._ctr[li] = 0
        self._lref[li] = interval
        self._iint[li] = interval
        self._iord[li] = 0
        return self._handle(li)

    def _adopt(self, entry: ChunkEntry) -> int:
        """Slot index for ``entry``, copying its field values in when it is
        a plain :class:`ChunkEntry` rather than this chain's own handle."""
        li = self._ensure(entry.chunk_id)
        if self._handles[li] is not entry:
            self._res[li] = entry.resident_mask
            self._tch[li] = entry.touched_mask
            self._pfm[li] = entry.prefetch_mask
            self._ctr[li] = entry.counter
            self._lref[li] = entry.last_ref_interval
            self._iint[li] = entry.insert_interval
        return li

    def _linked(self, li: int) -> None:
        """Account one newly linked slot."""
        self._inch[li] = 1
        self._count += 1
        if self._count > self.length_peak:
            self.length_peak = self._count

    def insert_tail(self, entry: ChunkEntry) -> None:
        """Insert at the MRU position (normal arrival of a migrated chunk)."""
        li = self._adopt(entry)
        if self._inch[li]:
            raise SimulationError(f"chunk {entry.chunk_id} already in chain")
        self._iord[li] = self._insert_seq
        self._insert_seq += 1
        chunk_id = entry.chunk_id
        last = self._last
        self._prv[li] = last
        self._nxt[li] = -1
        if last >= 0:
            self._nxt[last - self._origin] = chunk_id
        else:
            self._first = chunk_id
        self._last = chunk_id
        self._linked(li)

    def insert_head(self, entry: ChunkEntry) -> None:
        """Insert at the LRU position (MHPE's wrongly-evicted re-insertion)."""
        li = self._adopt(entry)
        if self._inch[li]:
            raise SimulationError(f"chunk {entry.chunk_id} already in chain")
        self._iord[li] = self._insert_seq
        self._insert_seq += 1
        chunk_id = entry.chunk_id
        first = self._first
        self._nxt[li] = first
        self._prv[li] = -1
        if first >= 0:
            self._prv[first - self._origin] = chunk_id
        else:
            self._last = chunk_id
        self._first = chunk_id
        self._linked(li)

    def remove(self, chunk_id: int) -> ChunkEntry:
        """Remove and return the entry for ``chunk_id`` (eviction)."""
        li = chunk_id - self._origin
        if not (0 <= li < len(self._inch)) or not self._inch[li]:
            raise SimulationError(f"chunk {chunk_id} not in chain")
        prv = self._prv[li]
        nxt = self._nxt[li]
        if prv >= 0:
            self._nxt[prv - self._origin] = nxt
        else:
            self._first = nxt
        if nxt >= 0:
            self._prv[nxt - self._origin] = prv
        else:
            self._last = prv
        self._prv[li] = -1
        self._nxt[li] = -1
        self._inch[li] = 0
        self._count -= 1
        return self._handle(li)

    def move_to_tail(self, chunk_id: int) -> None:
        """Refresh recency (LRU policies call this on touch)."""
        li = chunk_id - self._origin
        if not (0 <= li < len(self._inch)) or not self._inch[li]:
            raise SimulationError(f"chunk {chunk_id} not in chain")
        if self._last == chunk_id:
            return  # unlink + relink at tail is a no-op
        prv = self._prv[li]
        nxt = self._nxt[li]
        if prv >= 0:
            self._nxt[prv - self._origin] = nxt
        else:
            self._first = nxt
        # nxt >= 0 always here: chunk_id is not the tail.
        self._prv[nxt - self._origin] = prv
        last = self._last
        self._prv[li] = last
        self._nxt[li] = -1
        self._nxt[last - self._origin] = chunk_id
        self._last = chunk_id

    # --- iteration --------------------------------------------------------

    def from_head(self) -> Iterator[ChunkEntry]:
        """LRU-most first."""
        cid = self._first
        while cid >= 0:
            li = cid - self._origin
            nxt = self._nxt[li]
            yield self._handle(li)
            cid = nxt

    def from_tail(self) -> Iterator[ChunkEntry]:
        """MRU-most first."""
        cid = self._last
        while cid >= 0:
            li = cid - self._origin
            prv = self._prv[li]
            yield self._handle(li)
            cid = prv

    def candidates_from_tail(self, current_interval: int) -> "Candidates":
        """Eviction candidates: old partition first (MRU-first within each
        partition), then middle, then new.

        Eviction prefers the old partition, but a policy must be able to
        evict *something* when the old partition cannot cover a request, so
        younger partitions follow in priority order.
        """
        return Candidates(self, current_interval, from_head=False)

    def candidates_from_head(self, current_interval: int) -> "Candidates":
        """Eviction candidates: old partition first (LRU-first within each
        partition), then middle, then new."""
        return Candidates(self, current_interval, from_head=True)


class Candidates:
    """A chain's eviction candidates as a sized, lazily walked sequence.

    ``len()`` is the chain length (every entry is a candidate); each
    ``iter()`` starts a fresh walk.  A walk holds slot indices, so the
    chain must not change while one is in progress: policies consume their
    selection into a victim list before the first eviction.
    """

    __slots__ = ("_chain", "_interval", "_from_head")

    def __init__(
        self, chain: ChunkChain, current_interval: int, from_head: bool
    ) -> None:
        self._chain = chain
        self._interval = current_interval
        self._from_head = from_head

    def __len__(self) -> int:
        return len(self._chain)

    def __iter__(self) -> Iterator[ChunkEntry]:
        """One walk in priority order: an old-partition entry is yielded as
        soon as the walk meets it; middle and new slots are kept and
        yielded after the walk, middle first.

        Reads straight from the slot lists, so a consumer that stops early
        pays only for the entries walked.  The next link is read before
        yielding, as in :meth:`ChunkChain.from_head`.
        """
        chain = self._chain
        lref = chain._lref
        links = chain._nxt if self._from_head else chain._prv
        origin = chain._origin
        handle = chain._handle
        middle_interval = self._interval - 1
        middle: List[int] = []
        new: List[int] = []
        cid = chain._first if self._from_head else chain._last
        while cid >= 0:
            li = cid - origin
            cid = links[li]
            ref = lref[li]
            if ref < middle_interval:
                yield handle(li)
            elif ref == middle_interval:
                middle.append(li)
            else:
                new.append(li)
        for li in middle:
            yield handle(li)
        for li in new:
            yield handle(li)
