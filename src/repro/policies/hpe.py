"""HPE — Hierarchical Page Eviction (Yu et al. [14][15]).

Implemented from the description in Section II-C of the CPPE paper; internal
details not given there are reconstructed (DESIGN.md deviation #1):

* each chunk carries a touch **counter** (0..16);
* the chain has old/middle/new partitions by reference recency;
* applications are classified from the counters of old-partition chunks at
  memory-full time into *regular*, *irregular#1* and *irregular#2*;
* regular apps use **MRU-C**: search from the MRU end of the old partition
  for the first *qualified* chunk (counter >= qualification threshold);
* irregular apps start with **LRU**; irregular#2 may switch between LRU and
  MRU-C by comparing how many intervals each strategy has lasted without
  excessive wrong evictions.

HPE was designed for GPUs *without* prefetching.  When prefetching is on,
the GMMU sets a migrated chunk's counter to the number of pages migrated —
exactly the counter pollution described as Inefficiency 1, which this
implementation faithfully reproduces so the motivation experiment can show
HPE misclassifying prefetch-heavy runs.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Iterator, List

from ..engine.stats import IntervalRecord
from ..memsim.chunk_chain import ChunkEntry
from .base import EvictionPolicy

__all__ = ["HPEPolicy"]


class HPEPolicy(EvictionPolicy):
    """Counter-based hierarchical page eviction."""

    name = "hpe"

    def __init__(self) -> None:
        super().__init__()
        self._classified = False
        self._category = "regular"
        self._strategy = "mru-c"  # or "lru"
        self._qualify_threshold = 12
        self._evicted_buffer: Deque[int] = deque(maxlen=8)
        self._wrong_this_interval = 0
        self._intervals_on_strategy = 0
        self._best_run = {"mru-c": 0, "lru": 0}

    @property
    def current_strategy(self) -> str:
        return "mru" if self._strategy == "mru-c" else "lru"

    def attach(self, ctx) -> None:  # noqa: ANN001 - see base class
        super().attach(ctx)
        obs = ctx.obs
        self._trace = obs.tracer
        self._m_wrong = obs.metrics.counter("policy.wrong_evictions")
        self._m_switches = obs.metrics.counter("policy.strategy_switches")

    # --- chain events ------------------------------------------------------

    def on_page_touched(self, entry: ChunkEntry, vpn: int, time: int) -> None:
        # HPE updates the chain on every touch (16 updates per chunk).
        entry.counter = min(entry.counter + 1, 16)
        self.ctx.chain.move_to_tail(entry.chunk_id)
        entry.last_ref_interval = self.ctx.clock.current_interval

    def on_fault(self, vpn: int, chunk_id: int, time: int) -> None:
        if chunk_id in self._evicted_buffer:
            # One wrong-eviction count per chunk.
            try:
                self._evicted_buffer.remove(chunk_id)
            except ValueError:  # pragma: no cover - deque race can't happen
                pass
            self._wrong_this_interval += 1
            self.ctx.stats.wrong_evictions += 1
            self._m_wrong.inc()

    def on_chunk_evicted(self, entry: ChunkEntry, time: int) -> None:
        self._evicted_buffer.append(entry.chunk_id)

    def on_memory_full(self, time: int) -> None:
        self._classify(time)

    def on_interval_end(self, record: IntervalRecord, time: int) -> None:
        record.strategy = self.current_strategy
        record.wrong_evictions = self._wrong_this_interval
        self._intervals_on_strategy += 1
        if self._category == "irregular2":
            self._maybe_switch(time)
        self._wrong_this_interval = 0

    # --- classification and switching ---------------------------------------

    def _classify(self, time: int) -> None:
        """Classify from chunk counters (polluted by prefetch, by design)."""
        counters = [e.counter for e in self.ctx.chain.from_head()]
        if not counters:
            return
        avg = sum(counters) / len(counters)
        frac = self.ctx.config.hpe.regular_counter_fraction
        if avg >= frac * 16:
            self._category = "regular"
            self._strategy = "mru-c"
        elif avg >= 0.5 * frac * 16:
            self._category = "irregular2"
            self._strategy = "lru"
        else:
            self._category = "irregular1"
            self._strategy = "lru"
        self._qualify_threshold = max(1, int(avg))
        self._classified = True
        if self._trace.enabled:
            self._trace.emit(
                "strategy_switch", time, policy=self.name,
                from_="", to=self.current_strategy, trigger="classify",
                category=self._category, counter_avg=round(avg, 3),
            )

    def _maybe_switch(self, time: int) -> None:
        """irregular#2: switch strategies when the current one accumulates
        wrong evictions, keeping the strategy that historically lasted
        longer (a faithful-in-spirit reading of 'comparing the number of
        intervals a strategy lasts')."""
        patience = self.ctx.config.hpe.switch_patience
        if self._wrong_this_interval >= patience:
            self._best_run[self._strategy] = max(
                self._best_run[self._strategy], self._intervals_on_strategy
            )
            old = self.current_strategy
            self._strategy = "lru" if self._strategy == "mru-c" else "mru-c"
            self._intervals_on_strategy = 0
            self._m_switches.inc()
            if self._trace.enabled:
                self._trace.emit(
                    "strategy_switch", time, policy=self.name,
                    from_=old, to=self.current_strategy, trigger="patience",
                    wrong=self._wrong_this_interval,
                )

    # --- selection ------------------------------------------------------------

    def select_victims(self, frames_needed: int, time: int) -> List[ChunkEntry]:
        interval = self.ctx.clock.current_interval
        ordered: Iterable[ChunkEntry]
        if self._strategy == "mru-c":
            ordered = self._mru_c_order(interval)
        else:
            ordered = self.ctx.chain.candidates_from_head(interval)
        return self._take_until_enough(ordered, frames_needed)

    def _mru_c_order(self, interval: int) -> Iterator[ChunkEntry]:
        """MRU-C: qualified chunks MRU-first, then the rest MRU-first.

        Qualified chunks are yielded as the candidate walk meets them; the
        rest wait until the walk ends."""
        threshold = self._qualify_threshold
        rest: List[ChunkEntry] = []
        for entry in self.ctx.chain.candidates_from_tail(interval):
            if entry.counter >= threshold:
                yield entry
            else:
                rest.append(entry)
        yield from rest
