"""Streaming multiprocessor model.

Each SM executes a fixed trace of virtual-page accesses.  The model captures
exactly what the paper's mechanisms react to:

* every access pays the translation path (L1 TLB -> L2 TLB -> page walk);
* a resident page is *touched* (page-table access bit, chunk bit-vector,
  policy recency) and execution continues after a small compute gap;
* a non-resident page raises a **replayable far fault** [9]: the access is
  parked, the SM keeps issuing subsequent accesses (modelling other warps
  making progress) until ``max_outstanding_faults`` accesses are parked,
  then stalls until a fault resolves.

For event-queue efficiency an SM processes up to ``burst_length``
consecutive non-stalling accesses inside a single event, accumulating
latency locally; the resulting reordering across SMs is bounded by one
burst (a few hundred cycles), far below the 28,000-cycle fault latency that
dominates every studied effect.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import Callable, Optional, Tuple

import numpy as np

from ..config import SimConfig
from ..engine.events import Event, EventQueue
from ..engine.stats import SimStats
from ..errors import SimulationError
from ..memsim.fault import FarFault
from ..memsim.system import MemorySystem
from ..translation.hierarchy import TranslationHierarchy

__all__ = ["StreamingMultiprocessor"]


class StreamingMultiprocessor:
    """One SM executing a page-access trace."""

    def __init__(
        self,
        sm_id: int,
        trace: np.ndarray,
        writes: Optional[np.ndarray],
        config: SimConfig,
        gmmu: MemorySystem,
        translation: Optional[TranslationHierarchy],
        events: EventQueue,
        stats: SimStats,
        on_finish: Callable[[int, int], None],
    ):
        if writes is not None and len(writes) != len(trace):
            raise SimulationError("writes array must match trace length")
        self.sm_id = sm_id
        self.trace = np.asarray(trace, dtype=np.int64)
        self.writes = writes
        self.config = config
        self.gmmu = gmmu
        self.translation = translation
        self.events = events
        self.stats = stats
        self.on_finish = on_finish

        self._cursor = 0
        self._outstanding = 0
        self._finished = False
        self._run_event: Optional[Event] = None
        # Fused burst loop: eligible when the full translation path is
        # modelled and the memory system is a MemorySystem — then TLB
        # probes, the page touch and the policy recency update are inlined
        # over its flat lists.  Otherwise (translation disabled, or another
        # memory model such as the reference monolith the differential
        # tests run) the generic `_run` talks to both through their methods.
        self._fast = (
            translation is not None
            and translation.config.enabled
            and isinstance(gmmu, MemorySystem)
        )
        #: Lazily built attribute-hoist tuple for :meth:`_run_fast`;
        #: invalidated by identity check against the live page table.
        self._hoisted: Optional[Tuple] = None
        #: TLB fill constants for :meth:`_resolve_fast` (fused path only).
        self._fill_consts: Tuple = ()
        # Boxed-window cache: fault-heavy phases re-enter the burst loop
        # every few accesses, and a numpy slice + tolist per entry would
        # dominate.  Boxing 4096 accesses at a time amortises it away while
        # keeping peak memory far below boxing the whole trace.
        self._box_lo = 0
        self._box_hi = 0
        self._boxed: Optional[list] = None
        self._boxed_writes: Optional[bytes] = None
        if self._fast:
            assert translation is not None
            l1 = translation.l1_tlbs[sm_id]
            l2 = translation.l2_tlb
            self._fill_consts = (
                l1._sets, l1._num_sets, l1._assoc,
                l2._sets, l2._num_sets, l2._assoc,
                len(self.trace), config.sm.max_outstanding_faults,
            )

    # --- scheduling -----------------------------------------------------------

    def start(self, time: int = 0) -> None:
        self._schedule_run(time)

    def _schedule_run(self, time: int) -> None:
        if self._run_event is None and not self._finished:
            self._run_event = self.events.schedule(
                time, self._run_fast if self._fast else self._run
            )

    @property
    def stalled(self) -> bool:
        return self._outstanding >= self.config.sm.max_outstanding_faults

    @property
    def done(self) -> bool:
        return self._finished

    # --- execution ---------------------------------------------------------------

    def _run(self, time: int) -> None:
        self._run_event = None
        sm_cfg = self.config.sm
        trace = self.trace
        n = len(trace)
        local_time = time
        budget = sm_cfg.burst_length

        while budget > 0 and self._cursor < n and not self.stalled:
            vpn = int(trace[self._cursor])
            is_write = bool(self.writes[self._cursor]) if self.writes is not None else False
            local_time += sm_cfg.compute_cycles_per_access

            if self.translation is not None:
                latency, resident = self.translation.translate(
                    self.sm_id, vpn, local_time
                )
                local_time += latency
            else:
                resident = self.gmmu.is_resident(vpn)

            self.stats.accesses += 1
            if is_write:
                self.stats.writes += 1
            self._cursor += 1
            budget -= 1

            if resident:
                self.gmmu.touch_page(self.sm_id, vpn, is_write, local_time)
                continue

            # Far fault: park the access, keep going (replayable faults).
            self._outstanding += 1
            fault = FarFault(
                vpn=vpn,
                sm_id=self.sm_id,
                time=local_time,
                is_write=is_write,
                on_resolve=partial(self._resolve, vpn, is_write),
            )
            self.gmmu.handle_fault(fault)

        if self._cursor >= n:
            self._maybe_finish(local_time)
        elif self.stalled:
            self.stats.sm_stall_events += 1
            # Resumed by a fault resolution; no event scheduled.
        else:
            # Burst exhausted: yield to other SMs and continue.
            self._schedule_run(local_time)

    def _hoist(self) -> Tuple:
        """Build (and cache) the attribute-hoist tuple for `_run_fast`.

        Everything captured here is identity-stable for the lifetime of a
        run: the TLB/walker/PWC objects are never replaced, and the page
        table and chunk chain grow their lists strictly in place (``extend``
        / ``lst[:0] =``), so the list objects survive rebasing.  Origins and
        lengths are *not* captured — they change on growth and are re-read
        every burst.
        """
        gmmu = self.gmmu
        tr = self.translation
        assert tr is not None
        sm_cfg = self.config.sm
        l1 = tr.l1_tlbs[self.sm_id]
        l2 = tr.l2_tlb
        walker = tr.walker
        pwc = walker.pwc
        pt = gmmu._page_table
        chain = gmmu.chain
        hoisted = (
            pt,                                     # 0: identity check anchor
            chain,
            pt._accessed,
            pt._dirty,
            pt._frames,
            chain._tch,
            chain._lref,
            chain._ctr,
            chain._prv,
            chain._nxt,
            gmmu.clock,
            gmmu.policy,
            gmmu._policy_kind,
            gmmu.uvm.pages_per_chunk,
            l1, l1._sets, l1._num_sets, l1._assoc, l1.config.hit_latency,
            l2, l2._sets, l2._num_sets, l2._assoc, l2.config.hit_latency,
            walker,
            walker.dram is None,                    # inline (non-DRAM) walk?
            walker._busy_until,
            walker.config.concurrent_walks,
            walker.config.levels,
            walker.config.memory_access_latency,
            pwc,
            pwc._sets,
            pwc._num_sets,
            pwc._assoc,
            pwc.config.latency,
            sm_cfg.compute_cycles_per_access,
            sm_cfg.max_outstanding_faults,
            sm_cfg.burst_length,
        )
        self._hoisted = hoisted
        return hoisted

    def _run_fast(self, time: int) -> None:
        """Fused burst: one trace slice, everything inlined.

        Byte-identical to :meth:`_run` by construction — same per-access
        latency arithmetic, same event scheduling, same counters.  The
        cursor and outstanding count are synced before every
        ``handle_fault``, because fault handling can synchronously resolve
        *this* SM's earlier faults, which reads both.  Local counters are
        written back to the shared stats (and the TLB/walker/PWC objects'
        own counters) once, when the burst ends, and also when an exception
        leaves ``handle_fault``: a ThrashingCrash result keeps the stats as
        they stand at the crash, as on the generic path.  Nothing reads
        those counters while the simulation runs.
        """
        self._run_event = None
        gmmu = self.gmmu
        stats = self.stats
        hoisted = self._hoisted
        if hoisted is None or hoisted[0] is not gmmu._page_table:
            hoisted = self._hoist()
        (
            pt, chain, acc, drt, frames, tch, lref, ctr, prvl, nxtl,
            clock, policy, kind, ppc,
            l1, l1_sets, l1_num, l1_assoc, l1_lat,
            l2, l2_sets, l2_num, l2_assoc, l2_lat,
            walker, inline_walk, w_busy, w_cap, w_levels, w_mem_lat,
            pwc, pwc_sets, pwc_num, pwc_assoc, pwc_lat,
            compute, max_out, burst_length,
        ) = hoisted
        # Origins move when the arrays grow downward (between bursts only).
        p_origin = pt._origin
        c_origin = chain._origin

        n = len(self.trace)
        cursor = self._cursor
        end = min(n, cursor + burst_length)
        # Boxed window (never the whole trace: boxing a 25M-access trace to
        # Python ints up front would cost hundreds of MB).  The window
        # always covers the full burst so event boundaries — and therefore
        # event interleaving across SMs — are untouched by the caching.
        if cursor < self._box_lo or end > self._box_hi:
            lo = cursor
            hi = min(n, max(cursor + 4096, end))
            self._boxed = self.trace[lo:hi].tolist()
            self._boxed_writes = (
                self.writes[lo:hi].astype(np.uint8).tobytes()
                if self.writes is not None else None
            )
            self._box_lo = lo
            self._box_hi = hi
        vpns = self._boxed
        writes = self._boxed_writes
        base = cursor - self._box_lo
        count = end - cursor

        local_time = time
        outstanding = self._outstanding
        sm_id = self.sm_id

        accesses = 0
        writes_n = 0
        l1_hits = 0
        l1_misses = 0
        l2_hits = 0
        l2_misses = 0
        walks = 0
        w_walks = 0
        w_cycles = 0
        w_qdelay = 0
        pwc_h = 0
        pwc_m = 0

        i = 0
        try:
            while i < count:
                vpn = vpns[base + i]
                is_write = writes[base + i] != 0 if writes is not None else False
                i += 1
                local_time += compute

                # --- translation path (mirrors TranslationHierarchy.translate)
                s = l1_sets[vpn % l1_num]
                if vpn in s:
                    del s[vpn]
                    s[vpn] = None
                    l1_hits += 1
                    local_time += l1_lat
                    resident = True
                else:
                    l1_misses += 1
                    latency = l1_lat
                    s2 = l2_sets[vpn % l2_num]
                    if vpn in s2:
                        del s2[vpn]
                        s2[vpn] = None
                        l2_hits += 1
                        latency += l2_lat
                        if len(s) >= l1_assoc:
                            del s[next(iter(s))]
                        s[vpn] = None
                        resident = True
                    else:
                        l2_misses += 1
                        latency += l2_lat
                        if inline_walk:
                            # --- inline walk (mirrors PageTableWalker.walk,
                            # flat-latency arm).  Keys are (level, vpn >> 9*d).
                            w_walks += 1
                            wtime = local_time + latency
                            while w_busy and w_busy[0] <= wtime:
                                heappop(w_busy)
                            queue_delay = 0
                            if len(w_busy) >= w_cap:
                                queue_delay = heappop(w_busy) - wtime
                            deepest = -1
                            level = w_levels - 2
                            while level >= 0:
                                node = vpn >> (9 * (w_levels - 1 - level))
                                key = (level, node)
                                ps = pwc_sets[(node * 7 + level) % pwc_num]
                                if key in ps:
                                    del ps[key]
                                    ps[key] = None
                                    pwc_h += 1
                                    deepest = level
                                    break
                                pwc_m += 1
                                level -= 1
                            wlat = pwc_lat + (w_levels - 1 - deepest) * w_mem_lat
                            level = deepest + 1
                            while level < w_levels - 1:
                                node = vpn >> (9 * (w_levels - 1 - level))
                                key = (level, node)
                                ps = pwc_sets[(node * 7 + level) % pwc_num]
                                if key in ps:
                                    del ps[key]
                                elif len(ps) >= pwc_assoc:
                                    ps.pop(next(iter(ps)))
                                ps[key] = None
                                level += 1
                            heappush(w_busy, wtime + queue_delay + wlat)
                            w_cycles += wlat
                            w_qdelay += queue_delay
                            pidx = vpn - p_origin
                            resident = (
                                0 <= pidx < len(frames) and frames[pidx] >= 0
                            )
                            walk_latency = queue_delay + wlat
                        else:
                            walk_latency, resident = walker.walk(
                                vpn, local_time + latency
                            )
                        walks += 1
                        latency += walk_latency
                        if resident:
                            if len(s) >= l1_assoc:
                                del s[next(iter(s))]
                            s[vpn] = None
                            if len(s2) >= l2_assoc:
                                del s2[next(iter(s2))]
                            s2[vpn] = None
                    local_time += latency

                accesses += 1
                if is_write:
                    writes_n += 1

                if resident:
                    # --- inline touch (mirrors MemorySystem.touch_page fast path)
                    idx = vpn - p_origin
                    acc[idx] = 1
                    if is_write:
                        drt[idx] = 1
                    cid = vpn // ppc
                    li = cid - c_origin
                    tch[li] |= 1 << (vpn - cid * ppc)
                    # Recency dispatch with ChunkChain.move_to_tail inlined
                    # (the touched chunk is in the chain by invariant — resident
                    # pages always have a chain entry — so no membership check).
                    if kind == "lru":
                        last = chain._last
                        if last != cid:
                            prv = prvl[li]
                            nxt = nxtl[li]
                            if prv >= 0:
                                nxtl[prv - c_origin] = nxt
                            else:
                                chain._first = nxt
                            prvl[nxt - c_origin] = prv
                            prvl[li] = last
                            nxtl[li] = -1
                            nxtl[last - c_origin] = cid
                            chain._last = cid
                        lref[li] = clock._interval_index
                    elif kind == "mhpe":
                        interval = clock._interval_index
                        if lref[li] < interval:
                            lref[li] = interval
                            last = chain._last
                            if last != cid:
                                prv = prvl[li]
                                nxt = nxtl[li]
                                if prv >= 0:
                                    nxtl[prv - c_origin] = nxt
                                else:
                                    chain._first = nxt
                                prvl[nxt - c_origin] = prv
                                prvl[li] = last
                                nxtl[li] = -1
                                nxtl[last - c_origin] = cid
                                chain._last = cid
                    elif kind == "hpe":
                        counter = ctr[li]
                        if counter < 16:
                            ctr[li] = counter + 1
                        last = chain._last
                        if last != cid:
                            prv = prvl[li]
                            nxt = nxtl[li]
                            if prv >= 0:
                                nxtl[prv - c_origin] = nxt
                            else:
                                chain._first = nxt
                            prvl[nxt - c_origin] = prv
                            prvl[li] = last
                            nxtl[li] = -1
                            nxtl[last - c_origin] = cid
                            chain._last = cid
                        lref[li] = clock._interval_index
                    elif kind == "ref":
                        lref[li] = clock._interval_index
                    else:
                        policy.on_page_touched(chain._handle(li), vpn, local_time)
                    continue

                # --- far fault: sync the cursor out, hand off, reload
                self._cursor = cursor + i
                outstanding += 1
                self._outstanding = outstanding
                gmmu.handle_fault(
                    FarFault(
                        vpn, sm_id, local_time, is_write,
                        partial(self._resolve_fast, vpn, is_write),
                    )
                )
                # The scheduler can synchronously resolve this SM's earlier
                # faults, mutating _outstanding: reload.
                outstanding = self._outstanding
                if outstanding >= max_out:
                    break
        finally:
            stats.accesses += accesses
            stats.writes += writes_n
            stats.l1_tlb_hits += l1_hits
            stats.l1_tlb_misses += l1_misses
            stats.l2_tlb_hits += l2_hits
            stats.l2_tlb_misses += l2_misses
            stats.page_walks += walks
            l1.hits += l1_hits
            l1.misses += l1_misses
            l2.hits += l2_hits
            l2.misses += l2_misses
            walker.walks += w_walks
            walker.total_walk_cycles += w_cycles
            walker.total_queue_delay += w_qdelay
            pwc.hits += pwc_h
            pwc.misses += pwc_m

        self._cursor = cursor + i
        self._outstanding = outstanding

        if self._cursor >= n:
            self._maybe_finish(local_time)
        elif self.stalled:
            self.stats.sm_stall_events += 1
            # Resumed by a fault resolution; no event scheduled.
        else:
            # Burst exhausted: yield to other SMs and continue.
            self._schedule_run(local_time)

    def _resolve(self, vpn: int, is_write: bool, time: int) -> None:
        """Replay a parked access once its page is resident (the generic
        path's ``FarFault.on_resolve``, bound per fault with ``partial``).

        The replayed access re-translates; its walk cost is part of the
        fault service, so only the TLB fills are modelled.
        """
        if self.translation is not None:
            self.translation.fill(self.sm_id, vpn)
        self.gmmu.touch_page(self.sm_id, vpn, is_write, time)
        was_stalled = self.stalled
        self._outstanding -= 1
        if self._outstanding < 0:
            raise SimulationError(f"SM{self.sm_id}: negative outstanding faults")
        if self._cursor >= len(self.trace):
            self._maybe_finish(time)
        elif was_stalled:
            self._schedule_run(time)

    def _resolve_fast(self, vpn: int, is_write: bool, time: int) -> None:
        """:meth:`_resolve` with the TLB fills inlined (fused path only).

        ``TranslationHierarchy.fill`` is two ``TLB.insert`` calls,
        reproduced on the hoisted set dicts.
        """
        (
            l1_sets, l1_num, l1_assoc,
            l2_sets, l2_num, l2_assoc,
            trace_len, max_out,
        ) = self._fill_consts
        s = l1_sets[vpn % l1_num]
        if vpn in s:
            del s[vpn]
        elif len(s) >= l1_assoc:
            s.pop(next(iter(s)))
        s[vpn] = None
        s2 = l2_sets[vpn % l2_num]
        if vpn in s2:
            del s2[vpn]
        elif len(s2) >= l2_assoc:
            s2.pop(next(iter(s2)))
        s2[vpn] = None
        self.gmmu.touch_page(self.sm_id, vpn, is_write, time)
        outstanding = self._outstanding
        was_stalled = outstanding >= max_out
        outstanding -= 1
        self._outstanding = outstanding
        if outstanding < 0:
            raise SimulationError(f"SM{self.sm_id}: negative outstanding faults")
        if self._cursor >= trace_len:
            self._maybe_finish(time)
        elif was_stalled:
            self._schedule_run(time)

    def _maybe_finish(self, time: int) -> None:
        if self._finished or self._outstanding > 0 or self._cursor < len(self.trace):
            return
        self._finished = True
        # Release the boxed trace window now: the simulation's object graph
        # is cyclic (Simulator <-> SM through on_finish), so a finished run
        # is freed only by the cyclic collector, which may come late.
        self._boxed = None
        self._boxed_writes = None
        self._box_lo = self._box_hi = 0
        self.stats.sm_finish_times[self.sm_id] = time
        self.on_finish(self.sm_id, time)
