"""GMMU fault-service loop, migration, eviction, intervals (repro.memsim.system)."""

import pytest

from repro.config import SimConfig, SMConfig, TranslationConfig, UVMConfig
from repro.engine.events import EventQueue
from repro.engine.stats import SimStats
from repro.errors import CapacityError, SimulationError, ThrashingCrash
from repro.memsim.fault import FarFault
from repro.memsim.system import MemorySystem
from repro.policies.lru import LRUPolicy
from repro.prefetch.disabled import DisabledPrefetcher
from repro.prefetch.locality import LocalityPrefetcher


def make_gmmu(capacity=64, prefetcher=None, policy=None, config=None,
              footprint=None, crash_factor=None):
    if config is None:
        uvm = UVMConfig(crash_eviction_budget_factor=crash_factor)
        config = SimConfig(uvm=uvm)
    events = EventQueue()
    stats = SimStats()
    gmmu = MemorySystem(
        config=config,
        capacity_frames=capacity,
        events=events,
        stats=stats,
        policy=policy or LRUPolicy(),
        prefetcher=prefetcher or LocalityPrefetcher("continue"),
        translation=None,
        footprint_pages=footprint,
    )
    return gmmu, events, stats


def fault(gmmu, vpn, time=0, resolved=None, sm_id=0):
    record = [] if resolved is None else resolved
    f = FarFault(
        vpn=vpn, sm_id=sm_id, time=time, is_write=False,
        on_resolve=lambda t: record.append((vpn, t)),
    )
    gmmu.handle_fault(f)
    return record


class TestDemandMigration:
    def test_fault_migrates_chunk_and_resolves(self):
        gmmu, events, stats = make_gmmu()
        resolved = fault(gmmu, 100)
        events.run()
        assert resolved and resolved[0][0] == 100
        assert gmmu.is_resident(100)
        # Whole chunk migrated by the locality prefetcher.
        assert stats.pages_migrated == 16
        assert stats.demand_pages == 1
        assert stats.prefetched_pages == 15
        assert stats.fault_service_ops == 1

    def test_service_latency_includes_fault_and_transfer(self):
        gmmu, events, stats = make_gmmu()
        resolved = fault(gmmu, 100, time=0)
        events.run()
        expected = gmmu.uvm.fault_latency_cycles + 16 * gmmu.pcie.cycles_per_page
        assert resolved[0][1] == expected

    def test_demand_only_prefetcher_migrates_one_page(self):
        gmmu, events, stats = make_gmmu(prefetcher=DisabledPrefetcher())
        fault(gmmu, 100)
        events.run()
        assert stats.pages_migrated == 1
        assert gmmu.is_resident(100)
        assert not gmmu.is_resident(101)


class TestFaultMerging:
    def test_same_chunk_faults_merge(self):
        gmmu, events, stats = make_gmmu()
        r1 = fault(gmmu, 100, time=0)
        r2 = fault(gmmu, 101, time=5)
        events.run()
        assert stats.fault_service_ops == 1
        assert stats.merged_faults == 1
        assert r1 and r2
        # Both pages were demand pages (two faults attached).
        assert stats.demand_pages == 2

    def test_different_chunks_serialize(self):
        gmmu, events, stats = make_gmmu(capacity=256)
        r1 = fault(gmmu, 0, time=0)
        r2 = fault(gmmu, 100, time=0)
        events.run()
        assert stats.fault_service_ops == 2
        # Second service starts only after the first completes.
        assert r2[0][1] >= 2 * gmmu.uvm.fault_latency_cycles

    def test_fault_parallelism_overlaps_services(self):
        cfg = SimConfig(uvm=UVMConfig(fault_parallelism=2))
        gmmu, events, stats = make_gmmu(capacity=256, config=cfg)
        r1 = fault(gmmu, 0, time=0)
        r2 = fault(gmmu, 100, time=0)
        events.run()
        assert r2[0][1] < 2 * gmmu.uvm.fault_latency_cycles

    def test_queued_fault_resolved_without_service_if_page_arrived(self):
        gmmu, events, stats = make_gmmu()
        fault(gmmu, 100, time=0)
        # Fault to another page of the same chunk while the first is being
        # serviced: merges instead of a fresh service op.
        fault(gmmu, 110, time=1)
        events.run()
        assert stats.fault_service_ops == 1


class TestEviction:
    def test_eviction_triggered_at_capacity(self):
        gmmu, events, stats = make_gmmu(capacity=32)  # two chunks
        fault(gmmu, 0)
        events.run()
        fault(gmmu, 16)
        events.run()
        fault(gmmu, 32)  # needs eviction
        events.run()
        assert stats.chunks_evicted == 1
        assert stats.pages_evicted == 16
        assert not gmmu.is_resident(0)  # LRU victim was chunk 0
        assert gmmu.is_resident(32)

    def test_memory_full_flag(self):
        gmmu, events, _ = make_gmmu(capacity=32)
        assert not gmmu.memory_full
        fault(gmmu, 0)
        events.run()
        fault(gmmu, 16)
        events.run()
        assert gmmu.memory_full

    def test_touch_updates_bits_and_untouch(self):
        gmmu, events, stats = make_gmmu(capacity=32)
        fault(gmmu, 0)
        events.run()
        for vpn in range(0, 8):
            gmmu.touch_page(0, vpn, False, events.now)
        entry = gmmu.chain.get(0)
        assert entry.touched_pages == 8
        assert entry.untouch_level() == 8

    def test_dirty_writeback_accounting(self):
        gmmu, events, stats = make_gmmu(capacity=32)
        fault(gmmu, 0)
        events.run()
        gmmu.touch_page(0, 1, True, events.now)  # dirty one page
        fault(gmmu, 16)
        events.run()
        fault(gmmu, 32)
        events.run()
        assert stats.dirty_pages_written_back == 1
        assert stats.bytes_device_to_host == 4096

    def test_touch_nonresident_rejected(self):
        gmmu, events, _ = make_gmmu()
        with pytest.raises(SimulationError):
            gmmu.touch_page(0, 999, False, 0)

    def test_prefetch_accuracy_counted_at_eviction(self):
        gmmu, events, stats = make_gmmu(capacity=32)
        fault(gmmu, 0)
        events.run()
        for vpn in range(0, 4):  # demand page 0 + 3 prefetched pages touched
            gmmu.touch_page(0, vpn, False, events.now)
        fault(gmmu, 16)
        events.run()
        fault(gmmu, 32)
        events.run()
        assert stats.prefetched_pages_touched == 3

    def test_eviction_guards_against_double_free(self):
        # The fused eviction path returns frames to the allocator in bulk;
        # it must still refuse to free more frames than were handed out.
        gmmu, events, _ = make_gmmu(capacity=32)
        fault(gmmu, 0)
        events.run()
        gmmu.device._allocated = 0  # corrupt: pretend nothing is allocated
        with pytest.raises(CapacityError, match="double free"):
            gmmu.evictor.evict_chunk(gmmu.chain.get(0), events.now)


class TestIntervals:
    def test_interval_advances_every_64_pages(self):
        gmmu, events, stats = make_gmmu(capacity=1024)
        for chunk in range(4):
            fault(gmmu, chunk * 16)
            events.run()
        assert gmmu.current_interval == 1
        assert len(stats.intervals) == 1
        assert stats.intervals[0].faults == 4

    def test_partial_interval_not_recorded(self):
        gmmu, events, stats = make_gmmu(capacity=1024)
        fault(gmmu, 0)
        events.run()
        assert gmmu.current_interval == 0
        assert stats.intervals == []


class TestCrashModel:
    def test_crash_raised_when_budget_exceeded(self):
        gmmu, events, _ = make_gmmu(
            capacity=32, footprint=64, crash_factor=0.5
        )
        # Budget = 0.5 * 4 chunks = 2 evictions.
        with pytest.raises(ThrashingCrash):
            for i in range(8):
                fault(gmmu, i * 16, time=events.now)
                events.run()

    def test_no_crash_without_budget(self):
        gmmu, events, _ = make_gmmu(capacity=32, footprint=64)
        for i in range(8):
            fault(gmmu, i * 16, time=events.now)
            events.run()  # plenty of evictions, no crash


class TestDrainCheck:
    def test_clean_drain(self):
        gmmu, events, _ = make_gmmu()
        fault(gmmu, 0)
        events.run()
        gmmu.drain_check()

    def test_pending_fault_detected(self):
        gmmu, events, _ = make_gmmu()
        fault(gmmu, 0)
        # Event queue never run: migration still in flight.
        with pytest.raises(SimulationError):
            gmmu.drain_check()
