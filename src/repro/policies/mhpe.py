"""MHPE — Modified Hierarchical Page Eviction (Section IV-B, Algorithm 1).

Differences from HPE, as specified by the paper:

* **No counters.**  Chunks are classified by the *untouch level* of evicted
  chunks (pages migrated but never touched, read from the touch bit-vector
  at unmap time).  MRU-C therefore devolves into plain MRU.
* **One chain update per chunk.**  The chain is ordered by migration order
  only; touches do not refresh recency.
* **Starts with MRU** at a *forward distance* from the MRU end of the old
  partition; switches (irreversibly) to LRU when either

  - the total untouch level of one interval reaches ``T1`` (=32), or
  - the cumulative untouch level of the first four intervals reaches
    ``T2`` (=40), checked once at the end of the fourth interval.

* **Initial forward distance** = clamp(chain_length // 100, 2, 8), computed
  when device memory first fills.
* **Adjustment**: each interval in MRU mode, the untouch level (bucketed
  into five ranges over 0..T1-1) is compared with the number of wrong
  evictions W (0..4); the larger value is added to the forward distance,
  clamped so the distance never exceeds ``T3`` (=32).
* **Wrong evictions** are detected with a buffer of recently evicted chunks
  of length ``max(8, 8 * (chain_length // 64))``; a faulting chunk found in
  the buffer counts once, and when re-migrated it is inserted at the chain
  *head* (LRU position) so MRU selection cannot thrash on it again.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set

from ..config import MHPEConfig
from ..engine.stats import IntervalRecord
from ..memsim.chunk_chain import ChunkEntry
from .base import EvictionPolicy

__all__ = ["MHPEPolicy", "untouch_bucket"]


def untouch_bucket(untouch_level: int, t1: int = 32) -> int:
    """Map an interval's untouch level (0..t1-1) onto the five adjustment
    values.  With t1=32 the ranges are [0-3]=0, [4-10]=1, [11-17]=2,
    [18-24]=3, [25-31]=4 (Section VI-A)."""
    if untouch_level < 0:
        raise ValueError(f"untouch level must be >= 0, got {untouch_level}")
    if untouch_level <= 3:
        return 0
    if untouch_level >= t1:
        return 4
    # Remaining 4..t1-1 split into four equal ranges of width 7 when t1=32.
    width = max(1, (t1 - 4 + 3) // 4)
    return min(4, 1 + (untouch_level - 4) // width)


class MHPEPolicy(EvictionPolicy):
    """The paper's eviction policy (Algorithm 1)."""

    name = "mhpe"

    def __init__(self, config: Optional[MHPEConfig] = None):
        super().__init__()
        self._cfg_override = config
        self.strategy = "mru"
        self.forward_distance = 0
        self._memory_full = False
        self._intervals_since_full = 0
        self._untouch_this_interval = 0
        self._untouch_first_four = 0
        self._wrong_this_interval = 0
        self._evicted_buffer: Deque[int] = deque(maxlen=8)
        #: Occurrence counts mirroring ``_evicted_buffer``: the buffer is
        #: consulted on *every* fault, so membership must be O(1), not an
        #: O(n) deque scan (Section VI-C keeps the buffer small exactly to
        #: bound this cost).  A count (not a plain set) preserves exact
        #: FIFO semantics if a chunk ever appears twice.
        self._evicted_counts: Dict[int, int] = {}
        self._wrong_chunks: Set[int] = set()

    def attach(self, ctx) -> None:  # noqa: ANN001 - see base class
        super().attach(ctx)
        obs = ctx.obs
        self._trace = obs.tracer
        self._g_distance = obs.metrics.gauge("mhpe.forward_distance")
        self._m_wrong = obs.metrics.counter("policy.wrong_evictions")
        self._m_switches = obs.metrics.counter("policy.strategy_switches")

    @property
    def cfg(self) -> MHPEConfig:
        return self._cfg_override or self.ctx.config.mhpe

    @property
    def current_strategy(self) -> str:
        return self.strategy

    # --- chain events -------------------------------------------------------

    def insert_chunk(self, entry: ChunkEntry, time: int) -> None:
        entry.last_ref_interval = self.ctx.clock.current_interval
        if entry.chunk_id in self._wrong_chunks:
            # Park wrongly evicted chunks at the LRU end: MRU selection will
            # not pick them again soon, stopping the thrash loop.
            self._wrong_chunks.discard(entry.chunk_id)
            self.ctx.chain.insert_head(entry)
        else:
            self.ctx.chain.insert_tail(entry)

    def on_page_touched(self, entry: ChunkEntry, vpn: int, time: int) -> None:
        # At most one chain update per chunk per interval: the partition
        # structure (old/middle/new) is defined by the interval a chunk was
        # last *referenced* in, so references must be tracked — but unlike
        # HPE's per-touch updates, a chunk moves at most once per interval
        # (the overhead reduction Section VI-C claims).
        interval = self.ctx.clock.current_interval
        if entry.last_ref_interval < interval:
            entry.last_ref_interval = interval
            self.ctx.chain.move_to_tail(entry.chunk_id)

    def on_fault(self, vpn: int, chunk_id: int, time: int) -> None:
        # O(1) membership via the count mirror; the (rare) removal on a
        # confirmed wrong eviction is the only remaining deque scan.
        if self._evicted_counts.get(chunk_id, 0) > 0:
            self._dec_evicted(chunk_id)
            try:
                self._evicted_buffer.remove(chunk_id)
            except ValueError:  # pragma: no cover
                pass
            self._wrong_this_interval += 1
            self._wrong_chunks.add(chunk_id)
            self.ctx.stats.wrong_evictions += 1
            self._m_wrong.inc()

    def _dec_evicted(self, chunk_id: int) -> None:
        remaining = self._evicted_counts.get(chunk_id, 0) - 1
        if remaining > 0:
            self._evicted_counts[chunk_id] = remaining
        else:
            self._evicted_counts.pop(chunk_id, None)

    def on_chunk_evicted(self, entry: ChunkEntry, time: int) -> None:
        untouch = entry.untouch_level()
        self._untouch_this_interval += untouch
        self.ctx.stats.untouch_total += untouch
        buf = self._evicted_buffer
        if buf.maxlen is not None and len(buf) == buf.maxlen:
            # append() below silently drops the FIFO head; mirror that.
            self._dec_evicted(buf[0])
        buf.append(entry.chunk_id)
        self._evicted_counts[entry.chunk_id] = (
            self._evicted_counts.get(entry.chunk_id, 0) + 1
        )

    def on_memory_full(self, time: int) -> None:
        if self._memory_full:
            return
        self._memory_full = True
        chain_len = len(self.ctx.chain)
        cfg = self.cfg
        # Initial forward distance (Algorithm 1, line 7).
        distance = chain_len // cfg.init_divisor
        self.forward_distance = max(cfg.init_lo, min(cfg.init_hi, distance))
        self.ctx.stats.forward_distance_history.append(self.forward_distance)
        self._g_distance.set(self.forward_distance)
        if self._trace.enabled:
            self._trace.emit(
                "forward_distance", time, value=self.forward_distance,
                reason="initial", chain_length=chain_len,
            )
        # Evicted-chunk buffer sized from the memory footprint.
        buf_len = max(cfg.min_buffer, cfg.buffer_unit * (chain_len // cfg.buffer_divisor))
        self._evicted_buffer = deque(self._evicted_buffer, maxlen=buf_len)
        counts: Dict[int, int] = {}
        for cid in self._evicted_buffer:
            counts[cid] = counts.get(cid, 0) + 1
        self._evicted_counts = counts
        self.ctx.stats.evicted_buffer_length = buf_len

    def on_interval_end(self, record: IntervalRecord, time: int) -> None:
        record.strategy = self.strategy
        record.forward_distance = self.forward_distance
        record.untouch_total = self._untouch_this_interval
        record.wrong_evictions = self._wrong_this_interval
        if not self._memory_full:
            # Before oversubscription kicks in there are no evictions and
            # nothing to adapt.
            self._reset_interval()
            return

        self._intervals_since_full += 1
        cfg = self.cfg
        u1 = self._untouch_this_interval
        w = self._wrong_this_interval
        if self._intervals_since_full <= 4:
            self._untouch_first_four += u1

        if self.strategy == "mru":
            switch = u1 >= cfg.t1
            trigger = "t1"
            if self._intervals_since_full == 4 and not switch:
                switch = self._untouch_first_four >= cfg.t2
                trigger = "t2"
            if not cfg.switch_enabled:
                switch = False
            if switch:
                self.strategy = "lru"
                self.ctx.stats.strategy_switch_time = time
                self._m_switches.inc()
                if self._trace.enabled:
                    self._trace.emit(
                        "strategy_switch", time, policy=self.name,
                        from_="mru", to="lru", trigger=trigger,
                        untouch=u1, untouch_first_four=self._untouch_first_four,
                    )
            elif cfg.adjust_enabled and self.forward_distance < cfg.t3:
                # Algorithm 1 lines 14-15: grow by max(bucket(U1), W),
                # clamped so the distance never exceeds T3 (Section VI-A:
                # the adjustment stops once the limit is reached).
                bump = max(untouch_bucket(u1, cfg.t1), w)
                if bump:
                    self.forward_distance = min(
                        cfg.t3, self.forward_distance + bump
                    )
                    self.ctx.stats.forward_distance_history.append(
                        self.forward_distance
                    )
                    self._g_distance.set(self.forward_distance)
                    if self._trace.enabled:
                        self._trace.emit(
                            "forward_distance", time,
                            value=self.forward_distance, reason="adjust",
                            untouch=u1, wrong=w,
                        )
        self.ctx.stats.final_strategy = self.strategy
        self._reset_interval()

    def _reset_interval(self) -> None:
        self._untouch_this_interval = 0
        self._wrong_this_interval = 0

    # --- selection --------------------------------------------------------------

    def select_victims(self, frames_needed: int, time: int) -> List[ChunkEntry]:
        interval = self.ctx.clock.current_interval
        ordered: Iterable[ChunkEntry]
        if self.strategy == "lru":
            ordered = self.ctx.chain.candidates_from_head(interval)
        else:
            # MRU at the forward distance: candidates past the first
            # ``skip``, then the skipped ones (they wrap to the end).
            candidates = self.ctx.chain.candidates_from_tail(interval)
            skip = min(self.forward_distance, max(0, len(candidates) - 1))
            walk = iter(candidates)
            skipped = list(itertools.islice(walk, skip))
            ordered = itertools.chain(walk, skipped)
        return self._take_until_enough(ordered, frames_needed)
