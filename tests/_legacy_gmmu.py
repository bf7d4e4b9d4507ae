"""FROZEN pre-refactor monolith — differential-test fixture only.

This is the verbatim ``src/repro/memsim/gmmu.py`` as it stood before the
staged-MemorySystem refactor (commit 552ddf1), kept so
``tests/test_system_differential.py`` can prove the staged pipeline is
byte-identical to the monolith it replaced.  The only mechanical
adaptations: the ``PolicyContext`` construction uses the narrowed
``clock=`` protocol field (via the ``_MonolithClock`` adapter below)
instead of the removed ``get_interval`` callback — the values observed by
policies are identical — the page table, chunk chain and per-page
``InFlightMigration`` come from ``_legacy_structures`` (the object-graph
representations, moved out of the package unchanged), and
``_gather_pages`` hands the prefetcher the ``occupied(chunk_id) -> mask``
callback of the current prefetcher interface, built page by page from the
same residency/coverage/batch membership tests the old ``skip`` predicate
made.  Do not modernise this file.

Original docstring:

GPU Memory Management Unit + host-side UVM runtime.

The GMMU is the mechanism layer everything else plugs into.  It:

* receives far faults from SMs and merges duplicates into in-flight
  migrations (the replayable far-fault hardware of [9]);
* runs a (configurably parallel, default serial) **fault service loop**:
  each service operation consults the prefetcher for the page batch, makes
  room by asking the eviction policy for victim chunks, charges the 20 us
  service latency plus PCIe transfer time, and installs the pages;
* maintains the chunk chain's *mechanism* state (touch/resident/prefetch
  bit-vectors, the HPE-style counter pollution on prefetch);
* drives **intervals** — one interval per 64 migrated pages — calling the
  policy's ``on_interval_end`` with the telemetry records that Tables III
  and IV are built from;
* performs evictions: unmap + TLB shootdown + writeback accounting, then
  feeds the evicted chunk's touch pattern to the prefetcher (the CPPE
  coordination point).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.config import SimConfig
from repro.engine.events import EventQueue
from repro.engine.stats import IntervalRecord, SimStats
from repro.errors import SimulationError, ThrashingCrash
from repro.obs import DISABLED, Observability
from repro.policies.base import EvictionPolicy, PolicyContext
from repro.prefetch.base import PrefetchContext, Prefetcher
from repro.translation.hierarchy import TranslationHierarchy
from _legacy_structures import ChunkChain, ChunkEntry, InFlightMigration, PageTable
from repro.memsim.device_memory import DeviceMemory
from repro.memsim.fault import FarFault
from repro.memsim.pcie import PCIeLink

__all__ = ["GMMU"]


class _MonolithClock:
    """IntervalSource adapter over the monolith's interval counter."""

    def __init__(self, gmmu: "GMMU") -> None:
        self._gmmu = gmmu

    @property
    def current_interval(self) -> int:
        return self._gmmu._interval_index


class GMMU:
    """Unified-memory runtime for one simulated GPU."""

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
        self._trace = self.obs.tracer

        self.device = DeviceMemory(capacity_frames)
        self.page_table = (
            translation.page_table if translation is not None
            else PageTable(config.translation.walker.levels)
        )
        self.chain = ChunkChain()
        self.pcie = PCIeLink(
            self.uvm.interconnect_gbps, self.uvm.clock_hz, self.uvm.page_size,
            obs=self.obs,
        )
        self.rng = random.Random(config.seed ^ 0x5EED)

        self._pending: Deque[FarFault] = deque()
        self._in_flight: Dict[int, InFlightMigration] = {}  # keyed by mig.token
        self._next_migration_token = 0
        self._covered: Dict[int, InFlightMigration] = {}  # vpn -> migration
        self._active_services = 0
        self._reserved_frames = 0
        self._pages_migrated = 0
        self._interval_index = 0
        self._interval_faults = 0
        self._interval_evictions = 0
        self._memory_full_seen = False
        self._footprint_pages = footprint_pages

        metrics = self.obs.metrics
        self._m_faults = metrics.counter("gmmu.far_faults")
        self._m_merged = metrics.counter("gmmu.merged_faults")
        self._m_evictions = metrics.counter("gmmu.chunks_evicted")
        self._h_batch = metrics.histogram("gmmu.batch_pages")

        policy.attach(
            PolicyContext(
                chain=self.chain,
                stats=stats,
                config=config,
                rng=self.rng,
                clock=_MonolithClock(self),
                obs=self.obs,
            )
        )
        prefetcher.attach(
            PrefetchContext(config=config, stats=stats, obs=self.obs)
        )

    # ------------------------------------------------------------------ API

    @property
    def current_interval(self) -> int:
        return self._interval_index

    @property
    def memory_full(self) -> bool:
        """True once a whole chunk no longer fits without eviction."""
        return self._free_unreserved < self.uvm.pages_per_chunk

    @property
    def _free_unreserved(self) -> int:
        """Free frames not already promised to an in-flight migration."""
        return self.device.free_frames - self._reserved_frames

    def is_resident(self, vpn: int) -> bool:
        return self.page_table.is_resident(vpn)

    def touch_page(self, sm_id: int, vpn: int, is_write: bool, time: int) -> None:
        """Record a successful access to a resident page."""
        self.page_table.record_access(vpn, is_write)
        ppc = self.uvm.pages_per_chunk
        entry = self.chain.get(vpn // ppc)
        if entry is None:
            raise SimulationError(f"resident vpn {vpn} has no chunk entry")
        entry.mark_touched(vpn % ppc)
        self.policy.on_page_touched(entry, vpn, time)

    def handle_fault(self, fault: FarFault) -> None:
        """Entry point for an SM's far fault."""
        self.stats.far_faults += 1
        self._interval_faults += 1
        self._m_faults.inc()
        ppc = self.uvm.pages_per_chunk
        self.policy.on_fault(fault.vpn, fault.vpn // ppc, fault.time)
        if self._trace.enabled:
            self._trace.emit(
                "fault", fault.time, chunk=fault.vpn // ppc,
                **fault.trace_args(),
            )

        covering = self._covered.get(fault.vpn)
        if covering is not None:
            # The page is already on its way: merge.
            covering.attach(fault)
            self.stats.merged_faults += 1
            self._m_merged.inc()
            return
        self._pending.append(fault)
        self._maybe_start_service(fault.time)

    # ------------------------------------------------------- service loop

    def _maybe_start_service(self, time: int) -> None:
        while (
            self._active_services < self.uvm.fault_parallelism and self._pending
        ):
            fault = self._pending.popleft()
            if not self._begin_service(fault, time):
                continue

    def _max_batch(self) -> int:
        """Largest allowed migration batch.

        Clamps aggressive prefetchers (the tree prefetcher can request a
        whole 2 MB region) to half of device memory: the driver never
        evicts the working set wholesale to make room for a prefetch.
        """
        return max(self.uvm.pages_per_chunk, self.device.capacity // 2)

    def _gather_pages(self, fault: FarFault, in_batch: set) -> Optional[List[int]]:
        """Consult the prefetcher for ``fault``; returns the page batch or
        None when the fault needs no migration of its own.

        ``in_batch`` holds pages already claimed by the service op being
        assembled; those are skipped like resident/in-flight pages and, when
        the demand page itself is among them, the fault simply joins the op.
        """
        if self._covered.get(fault.vpn) is not None or fault.vpn in in_batch:
            return None
        resident = self.page_table.is_resident
        covered = self._covered
        skip = lambda vpn: resident(vpn) or vpn in covered or vpn in in_batch
        ppc = self.uvm.pages_per_chunk

        def occupied(chunk_id: int) -> int:
            base = chunk_id * ppc
            return sum(1 << i for i in range(ppc) if skip(base + i))

        pages = self.prefetcher.pages_to_migrate(
            fault.vpn, self.memory_full, occupied, time=fault.time
        )
        if not pages or fault.vpn not in pages:
            raise SimulationError(
                f"prefetcher {self.prefetcher.name} did not include the "
                f"demand page {fault.vpn}"
            )
        max_batch = self._max_batch()
        if len(pages) > max_batch:
            # Prefetchers order the demand page first, so truncation keeps it.
            pages = pages[:max_batch]
        return pages

    def _begin_service(self, fault: FarFault, time: int) -> bool:
        """Start one fault-service op.  Returns False if the fault resolved
        without a new migration (page arrived while it was queued).

        With ``fault_batch_size > 1`` the op drains further pending faults
        from the buffer, amortising the base service latency across chunks
        (UVM batch processing; the paper's configuration services one fault
        group per op).
        """
        if self.page_table.is_resident(fault.vpn):
            fault.on_resolve(time)
            return False
        covering = self._covered.get(fault.vpn)
        if covering is not None:
            covering.attach(fault)
            self.stats.merged_faults += 1
            self._m_merged.inc()
            return False

        in_batch: set = set()
        pages = self._gather_pages(fault, in_batch)
        assert pages is not None  # neither covered nor in an empty batch
        batch_faults = [fault]
        batch_pages: List[int] = list(pages)
        in_batch.update(pages)

        budget = self.uvm.fault_batch_size - 1
        max_total = self._max_batch()
        while budget > 0 and self._pending and len(batch_pages) < max_total:
            nxt = self._pending[0]
            if self.page_table.is_resident(nxt.vpn):
                self._pending.popleft()
                nxt.on_resolve(time)
                continue
            extra = self._gather_pages(nxt, in_batch)
            if extra is None:
                # Covered by an in-flight migration or by this very batch.
                self._pending.popleft()
                if nxt.vpn in in_batch:
                    batch_faults.append(nxt)
                    self.stats.merged_faults += 1
                else:
                    covering = self._covered[nxt.vpn]
                    covering.attach(nxt)
                    self.stats.merged_faults += 1
                self._m_merged.inc()
                continue
            if len(batch_pages) + len(extra) > max_total:
                break
            self._pending.popleft()
            batch_faults.append(nxt)
            batch_pages.extend(extra)
            in_batch.update(extra)
            budget -= 1

        victims_evicted = self._ensure_capacity(len(batch_pages), time)
        self._reserved_frames += len(batch_pages)

        mig = InFlightMigration(
            chunk_id=fault.vpn // self.uvm.pages_per_chunk,
            pages=set(batch_pages),
            start_time=time,
            token=self._next_migration_token,
        )
        self._next_migration_token += 1
        for f in batch_faults:
            mig.attach(f)
        for vpn in batch_pages:
            self._covered[vpn] = mig
        self._in_flight[mig.token] = mig
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
            mig.finish_time, lambda t, m=mig: self._complete_migration(m, t)
        )
        return True

    def _ensure_capacity(self, frames_needed: int, time: int) -> int:
        """Evict chunks until ``frames_needed`` frames are free.

        Returns the number of victim chunks evicted."""
        if self._free_unreserved >= frames_needed:
            return 0
        if not self._memory_full_seen:
            self._memory_full_seen = True
            if self._trace.enabled:
                self._trace.emit(
                    "memory_full", time, chain_length=len(self.chain),
                    capacity_frames=self.device.capacity,
                )
            self.policy.on_memory_full(time)
        shortfall = frames_needed - self._free_unreserved
        victims = self.policy.select_victims(shortfall, time)
        for entry in victims:
            self._evict_chunk(entry, time)
        if self._free_unreserved < frames_needed:
            raise SimulationError(
                f"policy {self.policy.name} freed "
                f"{self._free_unreserved} frames of the {frames_needed} "
                "needed — select_victims violated its contract"
            )
        return len(victims)

    def _evict_chunk(self, entry: ChunkEntry, time: int) -> None:
        """Unmap every resident page of ``entry`` and retire its metadata."""
        ppc = self.uvm.pages_per_chunk
        base = entry.chunk_id * ppc
        dirty_pages = 0
        evicted_pages = 0
        for i in range(ppc):
            if not entry.is_resident(i):
                continue
            vpn = base + i
            frame, accessed, dirty = self.page_table.unmap(vpn)
            self.device.free(frame)
            if self.translation is not None:
                self.translation.shootdown(vpn)
            if dirty:
                dirty_pages += 1
            evicted_pages += 1
            entry.clear_resident(i)
        # Residency cleared above, so untouch accounting reads the masks as
        # they stood at unmap time via the snapshot below.
        self.chain.remove(entry.chunk_id)
        self.stats.chunks_evicted += 1
        self.stats.pages_evicted += evicted_pages
        self.stats.dirty_pages_written_back += dirty_pages
        self._interval_evictions += 1
        self._m_evictions.inc()
        if dirty_pages:
            # Writebacks ride the duplex link: bytes counted, latency not on
            # the fault-service critical path (see DESIGN.md).
            self.pcie.transfer_to_host(dirty_pages, time=time)
            self.stats.bytes_device_to_host = self.pcie.bytes_to_host
        # Prefetch accuracy accounting.
        touched_prefetched = bin(entry.prefetch_mask & entry.touched_mask).count("1")
        self.stats.prefetched_pages_touched += touched_prefetched

        # Untouch level must reflect what was migrated, so give the policy a
        # snapshot with residency restored.  Every migrated page is either a
        # prefetched page (prefetch_mask) or a demand page, and demand pages
        # are touched on fault replay before any later eviction can run, so
        # touched|prefetch is exactly the pre-eviction residency.
        snapshot = ChunkEntry(entry.chunk_id, entry.insert_interval)
        snapshot.resident_mask = entry.touched_mask | entry.prefetch_mask
        snapshot.touched_mask = entry.touched_mask
        snapshot.prefetch_mask = entry.prefetch_mask
        snapshot.counter = entry.counter
        if self._trace.enabled:
            self._trace.emit(
                "eviction", time, chunk=entry.chunk_id, pages=evicted_pages,
                dirty=dirty_pages, untouch=snapshot.untouch_level(),
                strategy=self.policy.current_strategy,
            )
        self.policy.on_chunk_evicted(snapshot, time)
        self.prefetcher.on_chunk_evicted(
            entry.chunk_id,
            entry.touched_mask,
            snapshot.untouch_level(),
            self.policy.current_strategy,
            time=time,
        )
        self._check_crash_budget()

    def _check_crash_budget(self) -> None:
        factor = self.uvm.crash_eviction_budget_factor
        if factor is None or self._footprint_pages is None:
            return
        footprint_chunks = max(1, self._footprint_pages // self.uvm.pages_per_chunk)
        budget = int(factor * footprint_chunks)
        if self.stats.chunks_evicted > budget:
            raise ThrashingCrash(self.stats.chunks_evicted, budget)

    # ----------------------------------------------------- migration finish

    def _complete_migration(self, mig: InFlightMigration, time: int) -> None:
        ppc = self.uvm.pages_per_chunk
        demand_vpns = {f.vpn for f in mig.faults}
        # Group pages by chunk (pattern prefetch stays within one chunk, but
        # the tree prefetcher can cross chunks).
        by_chunk: Dict[int, List[int]] = {}
        for vpn in sorted(mig.pages):
            by_chunk.setdefault(vpn // ppc, []).append(vpn)

        for chunk_id, vpns in by_chunk.items():
            entry = self.chain.get(chunk_id)
            is_new = entry is None
            if is_new:
                entry = ChunkEntry(chunk_id, self._interval_index)
            for vpn in vpns:
                frame = self.device.allocate()
                self.page_table.map(vpn, frame)
                idx = vpn % ppc
                entry.mark_resident(idx)
                if vpn in demand_vpns:
                    self.stats.demand_pages += 1
                else:
                    entry.prefetch_mask |= 1 << idx
                    self.stats.prefetched_pages += 1
                self._covered.pop(vpn, None)
            # HPE-style counter pollution: migration bumps the counter by the
            # number of pages migrated (Inefficiency 1 of the paper).
            entry.counter = min(16, entry.counter + len(vpns))
            if is_new:
                self.policy.insert_chunk(entry, time)

        migrated = len(mig.pages)
        self._reserved_frames -= migrated
        self.stats.pages_migrated += migrated
        if self._trace.enabled:
            # Chrome duration slice: anchored at the start, dur in cycles
            # (the exporter converts both to microseconds).
            self._trace.emit(
                "migration", mig.start_time, dur=time - mig.start_time,
                demand=len(mig.faults), **mig.trace_args(),
            )
        self._advance_intervals(migrated, time)

        del self._in_flight[mig.token]
        self._active_services -= 1
        for fault in mig.faults:
            fault.on_resolve(time)
        self.stats.chain_length_peak = self.chain.length_peak
        self._maybe_start_service(time)

    def _advance_intervals(self, migrated_pages: int, time: int) -> None:
        self._pages_migrated += migrated_pages
        while self._pages_migrated >= (self._interval_index + 1) * self.uvm.interval_pages:
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

    # ------------------------------------------------------------- reporting

    def drain_check(self) -> None:
        """Assert no faults are stuck at end of simulation."""
        if self._pending or self._in_flight:
            raise SimulationError(
                f"simulation ended with {len(self._pending)} pending and "
                f"{len(self._in_flight)} in-flight migrations"
            )
