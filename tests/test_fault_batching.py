"""UVM fault-buffer batch servicing (UVMConfig.fault_batch_size)."""

import numpy as np
import pytest

from repro.config import SimConfig, SMConfig, TranslationConfig, UVMConfig
from repro.engine.events import EventQueue
from repro.engine.simulator import Simulator
from repro.engine.stats import SimStats
from repro.errors import ConfigError
from repro.memsim.fault import FarFault
from repro.memsim.system import MemorySystem
from repro.policies.lru import LRUPolicy
from repro.prefetch.locality import LocalityPrefetcher

from conftest import make_simple_workload


def make_gmmu(batch, capacity=1024):
    cfg = SimConfig(uvm=UVMConfig(fault_batch_size=batch))
    events = EventQueue()
    stats = SimStats()
    gmmu = MemorySystem(
        config=cfg, capacity_frames=capacity, events=events, stats=stats,
        policy=LRUPolicy(), prefetcher=LocalityPrefetcher("continue"),
    )
    return gmmu, events, stats


def issue(gmmu, vpn, time=0):
    resolved = []
    gmmu.handle_fault(
        FarFault(vpn=vpn, sm_id=0, time=time, is_write=False,
                 on_resolve=lambda t: resolved.append(t))
    )
    return resolved


class TestBatching:
    def test_distinct_chunks_batch_after_first_dispatch(self):
        # The first fault dispatches on an empty buffer; the remaining
        # three accumulate while it is in flight and drain as ONE batched
        # op (4 ops without batching).
        gmmu, events, stats = make_gmmu(batch=4)
        for chunk in range(4):
            issue(gmmu, chunk * 16)
        events.run()
        assert stats.fault_service_ops == 2
        assert stats.pages_migrated == 64
        for chunk in range(4):
            assert gmmu.is_resident(chunk * 16)

    def test_batch_of_one_reproduces_paper_behaviour(self):
        gmmu, events, stats = make_gmmu(batch=1)
        for chunk in range(4):
            issue(gmmu, chunk * 16)
        events.run()
        assert stats.fault_service_ops == 4

    def test_batch_bounded_by_pending_queue(self):
        gmmu, events, stats = make_gmmu(batch=8)
        issue(gmmu, 0)  # alone in the buffer
        events.run()
        assert stats.fault_service_ops == 1
        assert stats.pages_migrated == 16

    def test_batch_capped_at_half_capacity(self):
        gmmu, events, stats = make_gmmu(batch=16, capacity=64)
        for chunk in range(8):
            issue(gmmu, chunk * 16)
        events.run()
        # One op may migrate at most capacity/2 = 32 pages = 2 chunks.
        assert stats.fault_service_ops >= 4

    def test_all_faults_resolve(self):
        gmmu, events, stats = make_gmmu(batch=4)
        resolved = [issue(gmmu, chunk * 16) for chunk in range(6)]
        events.run()
        gmmu.drain_check()
        assert all(r for r in resolved)

    def test_same_chunk_fault_merges_into_in_flight(self):
        gmmu, events, stats = make_gmmu(batch=4)
        issue(gmmu, 0)     # dispatches immediately
        issue(gmmu, 5)     # same chunk: merges into the in-flight op
        issue(gmmu, 16)    # second chunk: queued, drained by a second op
        events.run()
        assert stats.fault_service_ops == 2
        assert stats.merged_faults == 1
        assert stats.pages_migrated == 32

    def test_invalid_batch_size(self):
        with pytest.raises(ConfigError):
            UVMConfig(fault_batch_size=0)


class TestBatchingEndToEnd:
    def test_batching_reduces_services_and_runtime(self):
        def run(batch):
            cfg = SimConfig(
                sm=SMConfig(num_sms=8),
                uvm=UVMConfig(fault_batch_size=batch),
                translation=TranslationConfig(enabled=False),
            )
            wl = make_simple_workload(
                footprint=2048, accesses=np.arange(2048),
                distribution="block", pattern_type="I",
            )
            return Simulator(wl, oversubscription=None, config=cfg).run()

        single = run(1)
        batched = run(4)
        assert batched.stats.fault_service_ops < single.stats.fault_service_ops
        assert batched.total_cycles < single.total_cycles
        # Same pages migrated either way.
        assert batched.stats.pages_migrated == single.stats.pages_migrated
