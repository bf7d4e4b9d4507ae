"""The staged memory-system pipeline (GMMU + host-side UVM runtime).

What used to be one god-object (the monolithic ``GMMU``, kept frozen as the
test oracle ``tests/_legacy_gmmu.py``) is four explicit stages behind the
:class:`MemorySystem` facade::

    SM far fault
        │
    FaultFrontend        intake, duplicate merge into in-flight migrations
        │ queued
    MigrationScheduler   batch formation (prefetcher consult), service
        │                slots, PCIe charging, migration completion
        ├─► EvictionService   victim selection, unmap + TLB shootdown +
        │                     writeback, the CPPE coordination hook
        └─► IntervalClock     64-migrated-pages interval geometry,
                              per-interval policy telemetry

Stages communicate through narrow seams (the frontend's per-chunk
in-flight masks, the shared :class:`FrameLedger`, the clock's
``current_interval``), never by reaching into each other's internals.

The decomposition is behavior-preserving: ``tests/test_system_differential.py``
proves byte-identical results and traces against the pre-refactor monolith.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, KeysView, List, Optional, Set, Tuple

from ..config import SimConfig, UVMConfig
from ..engine.events import EventQueue
from ..engine.stats import IntervalRecord, SimStats
from ..errors import CapacityError, SimulationError, ThrashingCrash
from ..obs import DISABLED, Observability
from ..policies.base import EvictionPolicy, PolicyContext
from ..policies.hpe import HPEPolicy
from ..policies.lru import LRUPolicy
from ..policies.mhpe import MHPEPolicy
from ..policies.random_policy import RandomPolicy
from ..policies.reserved_lru import ReservedLRUPolicy
from ..prefetch.base import PrefetchContext, Prefetcher
from ..translation.hierarchy import TranslationHierarchy
from .chunk_chain import ChunkChain, ChunkEntry
from .device_memory import DeviceMemory
from .fault import FarFault, InFlightMigration
from .page_table import PageTable
from .pcie import PCIeLink

__all__ = [
    "FrameLedger",
    "IntervalClock",
    "FaultFrontend",
    "EvictionService",
    "MigrationScheduler",
    "MemorySystem",
    "policy_touch_kind",
]


def policy_touch_kind(policy: EvictionPolicy) -> Optional[str]:
    """Classify a policy's ``on_page_touched`` for the fused touch paths.

    Exact ``type()`` matches only: a subclass may override the hook, so it
    falls through to ``None`` (= call the hook dynamically).  The returned
    kind names the touch side-effect recipe the fast paths replay inline:

    * ``"lru"``  — move to tail, refresh ``last_ref_interval``;
    * ``"hpe"``  — saturating counter bump, move to tail, refresh;
    * ``"mhpe"`` — move at most once per interval, refresh on first touch;
    * ``"ref"``  — refresh ``last_ref_interval`` only.
    """
    ptype = type(policy)
    if ptype is LRUPolicy or ptype is ReservedLRUPolicy:
        return "lru"
    if ptype is HPEPolicy:
        return "hpe"
    if ptype is MHPEPolicy:
        return "mhpe"
    if ptype is RandomPolicy:
        return "ref"
    return None


class FrameLedger:
    """Frame-reservation accounting shared by the scheduler and the evictor.

    The scheduler reserves frames for pages it has put in flight; the
    eviction service must not count those as free when deciding whether a
    batch still fits.  This tiny shared object is the only capacity state
    the two stages exchange.
    """

    __slots__ = ("_device", "_pages_per_chunk", "reserved")

    def __init__(self, device: DeviceMemory, pages_per_chunk: int) -> None:
        self._device = device
        self._pages_per_chunk = pages_per_chunk
        #: Frames promised to in-flight migrations but not yet allocated.
        self.reserved = 0

    @property
    def free_unreserved(self) -> int:
        """Free frames not already promised to an in-flight migration."""
        return self._device.free_frames - self.reserved

    @property
    def memory_full(self) -> bool:
        """True once a whole chunk no longer fits without eviction."""
        return self.free_unreserved < self._pages_per_chunk


class IntervalClock:
    """Stage: interval geometry (one interval per 64 migrated pages).

    Counts migrated pages, faults and evictions per interval, and on each
    boundary builds the :class:`IntervalRecord` that drives the policies'
    adaptation (Tables III/IV telemetry) — implementing the
    :class:`repro.policies.base.IntervalSource` protocol policies read.
    """

    def __init__(
        self,
        uvm: UVMConfig,
        stats: SimStats,
        policy: EvictionPolicy,
        pcie: PCIeLink,
        obs: Observability,
    ) -> None:
        self.uvm = uvm
        self.stats = stats
        self.policy = policy
        self.pcie = pcie
        self.obs = obs
        self._trace = obs.tracer
        self._pages_migrated = 0
        self._interval_index = 0
        self._interval_faults = 0
        self._interval_evictions = 0

    @property
    def current_interval(self) -> int:
        return self._interval_index

    @property
    def pages_migrated(self) -> int:
        return self._pages_migrated

    def note_fault(self) -> None:
        self._interval_faults += 1

    def note_eviction(self) -> None:
        self._interval_evictions += 1

    def advance(self, migrated_pages: int, time: int) -> None:
        """Credit migrated pages; tick every interval boundary crossed.

        A single batch can straddle a boundary (or several), so this loops:
        each completed interval gets its own record and policy callback.
        The number of crossings is computed arithmetically up front (the
        vectorized form of the old per-boundary comparison loop); the loop
        body runs once per completed interval, as before.
        """
        self._pages_migrated += migrated_pages
        crossings = (
            self._pages_migrated // self.uvm.interval_pages - self._interval_index
        )
        for _ in range(crossings):
            record = IntervalRecord(
                index=self._interval_index,
                end_time=time,
                faults=self._interval_faults,
                chunks_evicted=self._interval_evictions,
            )
            self.policy.on_interval_end(record, time)
            self.stats.record_interval(record)
            if self._trace.enabled:
                # The policy filled the strategy/distance/untouch fields in
                # ``record`` above; pattern occupancy comes from the metrics
                # registry (cross-component read, 0 when no pattern buffer).
                self._trace.emit(
                    "interval", time,
                    index=record.index,
                    strategy=record.strategy,
                    forward_distance=record.forward_distance,
                    untouch_level=record.untouch_total,
                    wrong_evictions=record.wrong_evictions,
                    faults=record.faults,
                    chunks_evicted=record.chunks_evicted,
                    pattern_occupancy=self.obs.metrics.value(
                        "pattern.occupancy"
                    ),
                    bytes_h2d=self.pcie.bytes_to_device,
                    bytes_d2h=self.pcie.bytes_to_host,
                )
            self._interval_index += 1
            self._interval_faults = 0
            self._interval_evictions = 0


class FaultFrontend:
    """Stage: far-fault bookkeeping and duplicate merging.

    Owns the pending-fault queue and the in-flight index: per chunk, the
    mask of its pages some migration is bringing in, and those migrations.
    A fault whose page is already on its way merges into that migration
    (the replayable far-fault hardware of [9]); everything else queues for
    the scheduler.  Intake itself is fused into
    :meth:`MemorySystem.handle_fault`.
    """

    def __init__(
        self,
        uvm: UVMConfig,
        stats: SimStats,
        policy: EvictionPolicy,
        clock: IntervalClock,
        obs: Observability,
    ) -> None:
        self.uvm = uvm
        self.stats = stats
        self.policy = policy
        self.clock = clock
        self._trace = obs.tracer
        self.pending: Deque[FarFault] = deque()
        #: chunk id -> mask of the chunk's pages in flight.
        self.flight_masks: Dict[int, int] = {}
        #: chunk id -> the in-flight migrations installing those pages: one,
        #: unless parallel service slots cover disjoint pages of the chunk.
        self.flight_migs: Dict[int, List[InFlightMigration]] = {}
        metrics = obs.metrics
        self._m_faults = metrics.counter("gmmu.far_faults")
        self._m_merged = metrics.counter("gmmu.merged_faults")

    def covering(self, vpn: int) -> Optional[InFlightMigration]:
        """The in-flight migration that will install ``vpn``, if any."""
        ppc = self.uvm.pages_per_chunk
        cid = vpn // ppc
        bit = 1 << (vpn - cid * ppc)
        if not self.flight_masks.get(cid, 0) & bit:
            return None
        return self.carrier(cid, bit)

    def carrier(self, chunk_id: int, bit: int) -> InFlightMigration:
        """The migration carrying the in-flight page ``bit`` of a chunk."""
        migs = self.flight_migs[chunk_id]
        if len(migs) == 1:
            return migs[0]
        for mig in migs:
            if mig.masks[chunk_id] & bit:
                return mig
        raise SimulationError(
            f"no in-flight migration carries bit {bit:#x} of chunk {chunk_id}"
        )

    def track(self, mig: InFlightMigration) -> None:
        """Index the pages of a migration that just started."""
        masks = self.flight_masks
        migs = self.flight_migs
        for cid, mask in mig.masks.items():
            masks[cid] = masks.get(cid, 0) | mask
            carriers = migs.get(cid)
            if carriers is None:
                migs[cid] = [mig]
            else:
                carriers.append(mig)

    def release(self, chunk_id: int, mask: int, mig: InFlightMigration) -> None:
        """Drop the chunk's pages ``mask``, just installed by ``mig``."""
        left = self.flight_masks[chunk_id] & ~mask
        if left:
            self.flight_masks[chunk_id] = left
            self.flight_migs[chunk_id] = [
                other for other in self.flight_migs[chunk_id] if other is not mig
            ]
        else:
            del self.flight_masks[chunk_id]
            del self.flight_migs[chunk_id]

    def note_merged(self) -> None:
        """Account one merged (deduplicated) fault."""
        self.stats.merged_faults += 1
        self._m_merged.inc()

    def merge(self, fault: FarFault, mig: InFlightMigration) -> None:
        """Attach ``fault`` to an in-flight migration that covers its page."""
        mig.attach(fault)
        self.note_merged()


class EvictionService:
    """Stage: victim selection and chunk retirement.

    Asks the policy for victims when a batch does not fit, unmaps their
    pages (TLB shootdown + writeback accounting), and feeds each evicted
    chunk's touch pattern back to the policy and the prefetcher — the CPPE
    coordination point (``on_chunk_evicted``).
    """

    def __init__(
        self,
        uvm: UVMConfig,
        device: DeviceMemory,
        page_table: PageTable,
        chain: ChunkChain,
        pcie: PCIeLink,
        ledger: FrameLedger,
        policy: EvictionPolicy,
        prefetcher: Prefetcher,
        translation: Optional[TranslationHierarchy],
        stats: SimStats,
        clock: IntervalClock,
        obs: Observability,
        footprint_pages: Optional[int],
    ) -> None:
        self.uvm = uvm
        self.device = device
        self.page_table = page_table
        self.chain = chain
        self.pcie = pcie
        self.ledger = ledger
        self.policy = policy
        self.prefetcher = prefetcher
        self.translation = translation
        self.stats = stats
        self.clock = clock
        self._trace = obs.tracer
        self._memory_full_seen = False
        self._footprint_pages = footprint_pages
        self._m_evictions = obs.metrics.counter("gmmu.chunks_evicted")
        if translation is not None:
            # The TLB set dicts are built once and never replaced (the SM
            # loop hoists them too), so their key views stay live.  Per L1
            # set index: (set dict, its keys view) for every SM.
            l1_tlbs = translation.l1_tlbs
            self._l1_num = l1_tlbs[0]._num_sets if l1_tlbs else 1
            self._l1_views: List[List[Tuple[Dict[int, None], KeysView[int]]]] = [
                [(t._sets[i], t._sets[i].keys()) for t in l1_tlbs]
                for i in range(self._l1_num)
            ]
            self._l2_sets = translation.l2_tlb._sets
            self._l2_num = translation.l2_tlb._num_sets

    def ensure_capacity(self, frames_needed: int, time: int) -> int:
        """Evict chunks until ``frames_needed`` frames are free.

        Returns the number of victim chunks evicted."""
        if self.ledger.free_unreserved >= frames_needed:
            return 0
        if not self._memory_full_seen:
            self._memory_full_seen = True
            if self._trace.enabled:
                self._trace.emit(
                    "memory_full", time, chain_length=len(self.chain),
                    capacity_frames=self.device.capacity,
                )
            self.policy.on_memory_full(time)
        shortfall = frames_needed - self.ledger.free_unreserved
        victims = self.policy.select_victims(shortfall, time)
        for entry in victims:
            self.evict_chunk(entry, time)
        if self.ledger.free_unreserved < frames_needed:
            raise SimulationError(
                f"policy {self.policy.name} freed "
                f"{self.ledger.free_unreserved} frames of the {frames_needed} "
                "needed — select_victims violated its contract"
            )
        return len(victims)

    def evict_chunk(self, entry: ChunkEntry, time: int) -> None:
        """Unmap every resident page of ``entry`` and retire its metadata.

        Walks the resident mask over the flat page-table lists with the
        device free inlined, then shoots the chunk's pages down in one
        pass (:meth:`_shoot_down`).
        """
        ppc = self.uvm.pages_per_chunk
        chain = self.chain
        cid = entry.chunk_id
        li = cid - chain._origin
        # Masks captured before residency is cleared — the snapshot below
        # must reflect the chunk as it stood at unmap time.
        res_mask = chain._res[li]
        tch_mask = chain._tch[li]
        pfm_mask = chain._pfm[li]
        counter = chain._ctr[li]
        insert_interval = chain._iint[li]
        base = cid * ppc
        pt = self.page_table
        p_origin = pt._origin
        frames = pt._frames
        drt = pt._dirty
        device = self.device
        free_append = device._free.append
        vpns: List[int] = []
        vpns_append = vpns.append
        dirty_pages = 0
        m = res_mask
        while m:  # ascending page order
            low = m & -m
            m ^= low
            vpn = base + low.bit_length() - 1
            idx = vpn - p_origin
            frame = frames[idx]
            if frame < 0:
                raise SimulationError(f"vpn {vpn} not mapped")
            frames[idx] = -1
            free_append(frame)
            if drt[idx]:
                dirty_pages += 1
            vpns_append(vpn)
        evicted_pages = len(vpns)
        if self.translation is not None and vpns:
            shootdowns = self._shoot_down(vpns)
            if shootdowns:
                self.stats.tlb_shootdowns += shootdowns
        chain._res[li] = 0
        pt._resident -= evicted_pages
        device._allocated -= evicted_pages
        if device._allocated < 0:
            raise CapacityError(
                f"double free: evicting chunk {cid} returned {evicted_pages} "
                "frames the allocator had not handed out"
            )
        chain.remove(cid)
        self.stats.chunks_evicted += 1
        self.stats.pages_evicted += evicted_pages
        self.stats.dirty_pages_written_back += dirty_pages
        self.clock.note_eviction()
        self._m_evictions.inc()
        if dirty_pages:
            # Writebacks ride the duplex link: bytes counted, latency not on
            # the fault-service critical path (see DESIGN.md).
            self.pcie.transfer_to_host(dirty_pages, time=time)
            self.stats.bytes_device_to_host = self.pcie.bytes_to_host
        # Prefetch accuracy accounting.
        self.stats.prefetched_pages_touched += bin(pfm_mask & tch_mask).count("1")

        # Untouch level must reflect what was migrated, so give the policy a
        # snapshot with residency restored.  Every migrated page is either a
        # prefetched page (prefetch_mask) or a demand page, and demand pages
        # are touched on fault replay before any later eviction can run, so
        # touched|prefetch is exactly the pre-eviction residency.
        snapshot = ChunkEntry(cid, insert_interval)
        snapshot.resident_mask = tch_mask | pfm_mask
        snapshot.touched_mask = tch_mask
        snapshot.prefetch_mask = pfm_mask
        snapshot.counter = counter
        if self._trace.enabled:
            self._trace.emit(
                "eviction", time, chunk=cid, pages=evicted_pages,
                dirty=dirty_pages, untouch=snapshot.untouch_level(),
                strategy=self.policy.current_strategy,
            )
        self.policy.on_chunk_evicted(snapshot, time)
        self.prefetcher.on_chunk_evicted(
            cid,
            tch_mask,
            snapshot.untouch_level(),
            self.policy.current_strategy,
            time=time,
        )
        self._check_crash_budget()

    def _shoot_down(self, vpns: List[int]) -> int:
        """Invalidate one chunk's evicted ``vpns`` in every TLB.

        L1: one C-level intersection of the vpns mapping to a set index
        with each SM's set (through the keys views), then deletion of the
        keys found.  Deleting keys leaves a dict's remaining order unchanged
        whatever the deletion order, so every set's LRU order matches
        page-by-page invalidation.  L2: one probe per page.  Returns the
        number of vpns that were cached anywhere (the shootdowns).
        """
        l1_num = self._l1_num
        if l1_num == 1:
            groups = [(self._l1_views[0], set(vpns))]
        else:
            by_set: Dict[int, Set[int]] = {}
            for vpn in vpns:
                by_set.setdefault(vpn % l1_num, set()).add(vpn)
            groups = [(self._l1_views[i], g) for i, g in by_set.items()]
        hits: Set[int] = set()
        for views, group in groups:
            for tlb_set, keys in views:
                found = keys & group
                if found:
                    for vpn in found:
                        del tlb_set[vpn]
                    hits |= found
        l2_sets = self._l2_sets
        l2_num = self._l2_num
        for vpn in vpns:
            s2 = l2_sets[vpn % l2_num]
            if vpn in s2:
                del s2[vpn]
                hits.add(vpn)
        return len(hits)

    def _check_crash_budget(self) -> None:
        factor = self.uvm.crash_eviction_budget_factor
        if factor is None or self._footprint_pages is None:
            return
        footprint_chunks = max(1, self._footprint_pages // self.uvm.pages_per_chunk)
        budget = int(factor * footprint_chunks)
        if self.stats.chunks_evicted > budget:
            raise ThrashingCrash(self.stats.chunks_evicted, budget)


class MigrationScheduler:
    """Stage: the fault-service loop.

    Runs a (configurably parallel, default serial) set of service slots:
    each service op consults the prefetcher for the page batch, asks the
    eviction service to make room, charges the 20 µs service latency plus
    PCIe transfer time, and — on completion — installs the pages, wakes the
    merged faults, and credits the interval clock.
    """

    def __init__(
        self,
        uvm: UVMConfig,
        device: DeviceMemory,
        page_table: PageTable,
        chain: ChunkChain,
        pcie: PCIeLink,
        events: EventQueue,
        stats: SimStats,
        ledger: FrameLedger,
        frontend: FaultFrontend,
        evictor: EvictionService,
        clock: IntervalClock,
        policy: EvictionPolicy,
        prefetcher: Prefetcher,
        obs: Observability,
    ) -> None:
        self.uvm = uvm
        self.device = device
        self.page_table = page_table
        self.chain = chain
        self.pcie = pcie
        self.events = events
        self.stats = stats
        self.ledger = ledger
        self.frontend = frontend
        self.evictor = evictor
        self.clock = clock
        self.policy = policy
        self.prefetcher = prefetcher
        self._trace = obs.tracer
        self.in_flight: Dict[int, InFlightMigration] = {}  # keyed by mig.token
        self._next_migration_token = 0
        self._active_services = 0
        self._h_batch = obs.metrics.histogram("gmmu.batch_pages")

    # ------------------------------------------------------- service loop

    def pump(self, time: int) -> None:
        """Fill free service slots from the frontend's pending queue.

        A popped fault whose page landed while it queued resolves here;
        only faults that start a migration or merge into one reach
        :meth:`begin_service`.
        """
        pending = self.frontend.pending
        parallelism = self.uvm.fault_parallelism
        pt = self.page_table
        frames = pt._frames
        while self._active_services < parallelism and pending:
            fault = pending.popleft()
            idx = fault.vpn - pt._origin
            if 0 <= idx < len(frames) and frames[idx] >= 0:
                fault.on_resolve(time)
                continue
            self.begin_service(fault, time)

    def max_batch(self) -> int:
        """Largest allowed migration batch.

        Clamps aggressive prefetchers (the tree prefetcher can request a
        whole 2 MB region) to half of device memory: the driver never
        evicts the working set wholesale to make room for a prefetch.
        """
        return max(self.uvm.pages_per_chunk, self.device.capacity // 2)

    def _gather_pages(
        self, fault: FarFault, batch: Dict[int, int]
    ) -> Optional[List[int]]:
        """Consult the prefetcher for ``fault``; returns the page batch or
        None when the fault needs no migration of its own.

        ``batch`` holds the per-chunk masks of pages already claimed by the
        service op being assembled; those count as occupied like resident
        and in-flight pages and, when the demand page itself is among them,
        the fault simply joins the op.
        """
        ppc = self.uvm.pages_per_chunk
        vpn = fault.vpn
        cid = vpn // ppc
        bit = 1 << (vpn - cid * ppc)
        flight = self.frontend.flight_masks
        if (flight.get(cid, 0) | batch.get(cid, 0)) & bit:
            return None
        # Residency comes from the chain's resident masks, which mirror the
        # page table: only _install_pages sets them, only evict_chunk
        # clears them.
        chain = self.chain
        res_l = chain._res
        c_origin = chain._origin
        n = len(res_l)

        def occupied(chunk_id: int) -> int:
            li = chunk_id - c_origin
            mask = res_l[li] if 0 <= li < n else 0
            return mask | flight.get(chunk_id, 0) | batch.get(chunk_id, 0)

        pages = self.prefetcher.pages_to_migrate(
            vpn, self.ledger.memory_full, occupied, time=fault.time
        )
        if not pages or vpn not in pages:
            raise SimulationError(
                f"prefetcher {self.prefetcher.name} did not include the "
                f"demand page {vpn}"
            )
        max_batch = self.max_batch()
        if len(pages) > max_batch:
            # Prefetchers order the demand page first, so truncation keeps it.
            pages = pages[:max_batch]
        return pages

    def _claim(self, batch: Dict[int, int], pages: List[int]) -> None:
        """Fold ``pages`` into the op's per-chunk masks."""
        ppc = self.uvm.pages_per_chunk
        for vpn in pages:
            cid = vpn // ppc
            batch[cid] = batch.get(cid, 0) | 1 << (vpn - cid * ppc)

    def begin_service(self, fault: FarFault, time: int) -> bool:
        """Start one fault-service op.  Returns False if the fault resolved
        or merged without a new migration.

        With ``fault_batch_size > 1`` the op drains further pending faults
        from the buffer, amortising the base service latency across chunks
        (UVM batch processing; the paper's configuration services one fault
        group per op).
        """
        frontend = self.frontend
        pt = self.page_table
        frames = pt._frames
        idx = fault.vpn - pt._origin
        if 0 <= idx < len(frames) and frames[idx] >= 0:
            fault.on_resolve(time)
            return False
        covering = frontend.covering(fault.vpn)
        if covering is not None:
            covering.attach(fault)
            self.stats.merged_faults += 1
            frontend._m_merged.value += 1
            return False

        batch: Dict[int, int] = {}
        pages = self._gather_pages(fault, batch)
        assert pages is not None  # neither covered nor in an empty batch
        batch_faults = [fault]
        batch_pages: List[int] = list(pages)
        self._claim(batch, pages)

        budget = self.uvm.fault_batch_size - 1
        max_total = self.max_batch()
        pending = frontend.pending
        ppc = self.uvm.pages_per_chunk
        while budget > 0 and pending and len(batch_pages) < max_total:
            nxt = pending[0]
            if self.page_table.is_resident(nxt.vpn):
                pending.popleft()
                nxt.on_resolve(time)
                continue
            extra = self._gather_pages(nxt, batch)
            if extra is None:
                # Covered by an in-flight migration or by this very batch.
                pending.popleft()
                cid = nxt.vpn // ppc
                bit = 1 << (nxt.vpn - cid * ppc)
                if batch.get(cid, 0) & bit:
                    batch_faults.append(nxt)
                    frontend.note_merged()
                else:
                    frontend.merge(nxt, frontend.carrier(cid, bit))
                continue
            if len(batch_pages) + len(extra) > max_total:
                break
            pending.popleft()
            batch_faults.append(nxt)
            batch_pages.extend(extra)
            self._claim(batch, extra)
            budget -= 1

        victims_evicted = self.evictor.ensure_capacity(len(batch_pages), time)
        self.ledger.reserved += len(batch_pages)

        mig = InFlightMigration(
            chunk_id=fault.vpn // ppc,
            masks=batch,
            num_pages=len(batch_pages),
            pages_per_chunk=ppc,
            start_time=time,
            token=self._next_migration_token,
        )
        self._next_migration_token += 1
        mig.faults.extend(batch_faults)
        frontend.track(mig)
        self.in_flight[mig.token] = mig
        self._active_services += 1

        self._h_batch.observe(len(batch_pages))
        transfer = self.pcie.transfer_to_device(len(batch_pages), time=time)
        latency = (
            self.uvm.fault_latency_cycles
            + transfer
            + victims_evicted * self.uvm.eviction_overhead_cycles
        )
        mig.finish_time = time + latency
        self.stats.fault_service_ops += 1
        self.stats.bytes_host_to_device = self.pcie.bytes_to_device
        self.events.schedule(
            mig.finish_time, lambda t, m=mig: self.complete_migration(m, t)
        )
        return True

    # ----------------------------------------------------- migration finish

    def complete_migration(self, mig: InFlightMigration, time: int) -> None:
        self._install_pages(mig, time)
        migrated = mig.num_pages
        self.ledger.reserved -= migrated
        self.stats.pages_migrated += migrated
        if self._trace.enabled:
            # Chrome duration slice: anchored at the start, dur in cycles
            # (the exporter converts both to microseconds).
            self._trace.emit(
                "migration", mig.start_time, dur=time - mig.start_time,
                demand=len(mig.faults), **mig.trace_args(),
            )
        self.clock.advance(migrated, time)

        del self.in_flight[mig.token]
        self._active_services -= 1
        for fault in mig.faults:
            fault.on_resolve(time)
        self.stats.chain_length_peak = self.chain.length_peak
        self.pump(time)

    def _install_pages(self, mig: InFlightMigration, time: int) -> None:
        """Map the migrated pages and fold them into their chunks' entries.

        Grows the flat lists once for the batch extremes, then walks the
        chunks in ascending id (the tree prefetcher's batches can cross
        chunks).  Per chunk: one frame per page in ascending page order,
        then one update each of the resident and prefetch masks, the
        counter and the in-flight mask.
        """
        ppc = self.uvm.pages_per_chunk
        masks = mig.masks
        chunks = sorted(masks)
        demand_masks: Dict[int, int] = {}
        for f in mig.faults:
            cid = f.vpn // ppc
            demand_masks[cid] = demand_masks.get(cid, 0) | 1 << (f.vpn - cid * ppc)
        chain = self.chain
        pt = self.page_table
        # The lists are contiguous, so covering both extremes covers the batch.
        low = masks[chunks[0]]
        pt._ensure(chunks[0] * ppc + (low & -low).bit_length() - 1)
        pt._ensure(chunks[-1] * ppc + masks[chunks[-1]].bit_length() - 1)
        chain._ensure(chunks[0])
        chain._ensure(chunks[-1])
        p_origin = pt._origin
        frames = pt._frames
        acc = pt._accessed
        drt = pt._dirty
        c_origin = chain._origin
        res_l = chain._res
        pfm_l = chain._pfm
        ctr_l = chain._ctr
        inch = chain._inch
        device = self.device
        free = device._free
        n = mig.num_pages
        if len(free) < n:
            raise CapacityError("device memory exhausted")
        frontend = self.frontend
        interval = self.clock.current_interval
        demand = 0
        for chunk_id in chunks:
            mask = masks[chunk_id]
            li = chunk_id - c_origin
            is_new = not inch[li]
            if is_new:
                chain.new_entry(chunk_id, interval)
            first = chunk_id * ppc - p_origin
            m = mask
            while m:  # ascending page order
                bit = m & -m
                m ^= bit
                idx = first + bit.bit_length() - 1
                if frames[idx] >= 0:
                    raise SimulationError(f"vpn {idx + p_origin} already mapped")
                frames[idx] = free.pop()
                acc[idx] = 0
                drt[idx] = 0
            dmask = demand_masks.get(chunk_id, 0) & mask
            demand += bin(dmask).count("1")
            res_l[li] |= mask
            pfm_l[li] |= mask ^ dmask
            # HPE-style counter pollution: migration bumps the counter by the
            # number of pages migrated (Inefficiency 1 of the paper).
            ctr_l[li] = min(16, ctr_l[li] + bin(mask).count("1"))
            frontend.release(chunk_id, mask, mig)
            if is_new:
                self.policy.insert_chunk(chain._handle(li), time)
        device._allocated += n
        if device._allocated > device.peak_allocated:
            device.peak_allocated = device._allocated
        pt._resident += n
        if pt._resident > pt.resident_peak:
            pt.resident_peak = pt._resident
        self.stats.demand_pages += demand
        self.stats.prefetched_pages += n - demand


class MemorySystem:
    """Facade: the staged unified-memory runtime for one simulated GPU.

    Owns the shared mechanism structures (device memory, page table, chunk
    chain, PCIe link, RNG) and wires the four stages together; SMs and the
    :class:`~repro.engine.simulator.Simulator` talk only to this surface.
    """

    def __init__(
        self,
        config: SimConfig,
        capacity_frames: int,
        events: EventQueue,
        stats: SimStats,
        policy: EvictionPolicy,
        prefetcher: Prefetcher,
        translation: Optional[TranslationHierarchy] = None,
        footprint_pages: Optional[int] = None,
        obs: Optional[Observability] = None,
    ):
        self.config = config
        self.uvm = config.uvm
        self.events = events
        self.stats = stats
        self.policy = policy
        self.prefetcher = prefetcher
        self.translation = translation
        self.obs = obs or DISABLED

        self.device = DeviceMemory(capacity_frames)
        self._page_table = (
            translation.page_table if translation is not None
            else PageTable(config.translation.walker.levels)
        )
        self.chain = ChunkChain()
        self._policy_kind = policy_touch_kind(policy)
        self.pcie = PCIeLink(
            self.uvm.interconnect_gbps, self.uvm.clock_hz, self.uvm.page_size,
            obs=self.obs,
        )
        #: The injected mechanism RNG stream (seeded in SimConfig, never
        #: constructed here — REPRO106).
        self.rng: random.Random = config.make_rng()

        self.ledger = FrameLedger(self.device, self.uvm.pages_per_chunk)
        self.clock = IntervalClock(
            self.uvm, stats, policy, self.pcie, self.obs
        )
        self.frontend = FaultFrontend(
            self.uvm, stats, policy, self.clock, self.obs
        )
        self.evictor = EvictionService(
            self.uvm, self.device, self._page_table, self.chain, self.pcie,
            self.ledger, policy, prefetcher, translation, stats, self.clock,
            self.obs, footprint_pages,
        )
        self.scheduler = MigrationScheduler(
            self.uvm, self.device, self._page_table, self.chain, self.pcie,
            events, stats, self.ledger, self.frontend, self.evictor,
            self.clock, policy, prefetcher, self.obs,
        )

        policy.attach(
            PolicyContext(
                chain=self.chain,
                stats=stats,
                config=config,
                rng=self.rng,
                clock=self.clock,
                obs=self.obs,
            )
        )
        prefetcher.attach(
            PrefetchContext(config=config, stats=stats, obs=self.obs)
        )

    # ------------------------------------------------------------------ API

    @property
    def page_table(self) -> PageTable:
        return self._page_table

    @page_table.setter
    def page_table(self, page_table: PageTable) -> None:
        """Rebind the page table on every stage (single source of truth —
        the Simulator installs its own table when translation is off)."""
        self._page_table = page_table
        self.evictor.page_table = page_table
        self.scheduler.page_table = page_table

    @property
    def current_interval(self) -> int:
        return self.clock.current_interval

    @property
    def memory_full(self) -> bool:
        """True once a whole chunk no longer fits without eviction."""
        return self.ledger.memory_full

    def is_resident(self, vpn: int) -> bool:
        return self._page_table.is_resident(vpn)

    def touch_page(self, sm_id: int, vpn: int, is_write: bool, time: int) -> None:
        """Record a successful access to a resident page."""
        pt = self._page_table
        idx = vpn - pt._origin
        frames = pt._frames
        if not (0 <= idx < len(frames)) or frames[idx] < 0:
            raise SimulationError(f"access to non-resident vpn {vpn}")
        pt._accessed[idx] = 1
        if is_write:
            pt._dirty[idx] = 1
        chain = self.chain
        cid = vpn // self.uvm.pages_per_chunk
        li = cid - chain._origin
        if not (0 <= li < len(chain._inch)) or not chain._inch[li]:
            raise SimulationError(f"resident vpn {vpn} has no chunk entry")
        chain._tch[li] |= 1 << (vpn - cid * self.uvm.pages_per_chunk)
        kind = self._policy_kind
        if kind is None:
            self.policy.on_page_touched(chain._handle(li), vpn, time)
        elif kind == "lru":
            if chain._last != cid:
                chain.move_to_tail(cid)
            chain._lref[li] = self.clock._interval_index
        elif kind == "mhpe":
            interval = self.clock._interval_index
            if chain._lref[li] < interval:
                chain._lref[li] = interval
                if chain._last != cid:
                    chain.move_to_tail(cid)
        elif kind == "hpe":
            counter = chain._ctr[li]
            if counter < 16:
                chain._ctr[li] = counter + 1
            if chain._last != cid:
                chain.move_to_tail(cid)
            chain._lref[li] = self.clock._interval_index
        else:  # "ref": recency-blind, interval bookkeeping only
            chain._lref[li] = self.clock._interval_index

    def handle_fault(self, fault: FarFault) -> None:
        """Entry point for an SM's far fault: account it, merge it into an
        in-flight migration covering its page, or queue it and pump the
        scheduler.  Flattened, because per-fault method calls add up."""
        frontend = self.frontend
        stats = self.stats
        stats.far_faults += 1
        self.clock._interval_faults += 1
        frontend._m_faults.value += 1
        kind = self._policy_kind
        vpn = fault.vpn
        ppc = self.uvm.pages_per_chunk
        cid = vpn // ppc
        if kind != "lru" and kind != "ref":
            # Only HPE/MHPE (and unknown policies) implement on_fault; the
            # base-class hook is a no-op for the exact-matched LRU kinds.
            self.policy.on_fault(vpn, cid, fault.time)
        if frontend._trace.enabled:
            frontend._trace.emit(
                "fault", fault.time, chunk=cid, **fault.trace_args(),
            )
        bit = 1 << (vpn - cid * ppc)
        if frontend.flight_masks.get(cid, 0) & bit:
            frontend.carrier(cid, bit).attach(fault)
            stats.merged_faults += 1
            frontend._m_merged.value += 1
            return
        frontend.pending.append(fault)
        scheduler = self.scheduler
        if scheduler._active_services < self.uvm.fault_parallelism:
            scheduler.pump(fault.time)

    # ------------------------------------------------------------- reporting

    def drain_check(self) -> None:
        """Assert no faults are stuck at end of simulation."""
        if self.frontend.pending or self.scheduler.in_flight:
            raise SimulationError(
                f"simulation ended with {len(self.frontend.pending)} pending "
                f"and {len(self.scheduler.in_flight)} in-flight migrations"
            )
