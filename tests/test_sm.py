"""SM execution model (repro.engine.sm)."""

import numpy as np
import pytest

from repro.config import SimConfig, SMConfig, TranslationConfig, UVMConfig
from repro.engine.events import EventQueue
from repro.engine.sm import StreamingMultiprocessor
from repro.engine.stats import SimStats
from repro.errors import SimulationError
from repro.memsim.system import MemorySystem
from repro.policies.lru import LRUPolicy
from repro.prefetch.locality import LocalityPrefetcher


def make_sm(trace, capacity=256, max_outstanding=4, burst=8, writes=None):
    config = SimConfig(
        sm=SMConfig(
            num_sms=1, max_outstanding_faults=max_outstanding, burst_length=burst
        ),
        translation=TranslationConfig(enabled=False),
    )
    events = EventQueue()
    stats = SimStats()
    gmmu = MemorySystem(
        config=config,
        capacity_frames=capacity,
        events=events,
        stats=stats,
        policy=LRUPolicy(),
        prefetcher=LocalityPrefetcher("continue"),
    )
    finished = []
    sm = StreamingMultiprocessor(
        sm_id=0,
        trace=np.asarray(trace, dtype=np.int64),
        writes=None if writes is None else np.asarray(writes, dtype=bool),
        config=config,
        gmmu=gmmu,
        translation=None,
        events=events,
        stats=stats,
        on_finish=lambda sm_id, t: finished.append((sm_id, t)),
    )
    return sm, gmmu, events, stats, finished


class TestExecution:
    def test_runs_trace_to_completion(self):
        sm, gmmu, events, stats, finished = make_sm([0, 1, 2, 3])
        sm.start(0)
        events.run()
        assert sm.done
        assert finished and finished[0][0] == 0
        assert stats.accesses == 4

    def test_faults_then_hits_within_chunk(self):
        sm, gmmu, events, stats, _ = make_sm(list(range(16)))
        sm.start(0)
        events.run()
        # First access faults; the rest hit the prefetched chunk (modulo
        # accesses issued before the migration resolves, which merge).
        assert stats.fault_service_ops == 1
        assert stats.pages_migrated == 16

    def test_touches_recorded_for_all_accesses(self):
        sm, gmmu, events, stats, _ = make_sm(list(range(16)))
        sm.start(0)
        events.run()
        entry = gmmu.chain.get(0)
        assert entry.touched_pages == 16

    def test_write_flags_dirty_pages(self):
        sm, gmmu, events, stats, _ = make_sm(
            [0, 1], writes=[True, False]
        )
        sm.start(0)
        events.run()
        assert stats.writes == 1
        assert gmmu.page_table.dirty(0)
        assert not gmmu.page_table.dirty(1)

    def test_mismatched_writes_length_rejected(self):
        with pytest.raises(SimulationError):
            make_sm([0, 1, 2], writes=[True])

    def test_finish_time_includes_trailing_fault(self):
        sm, gmmu, events, stats, finished = make_sm([0])
        sm.start(0)
        events.run()
        assert finished[0][1] >= gmmu.uvm.fault_latency_cycles


class TestReplayableFaults:
    def test_sm_continues_past_fault(self):
        # Accesses to two different chunks: the SM issues the second fault
        # before the first resolves (replayable far faults).
        sm, gmmu, events, stats, _ = make_sm([0, 16], max_outstanding=2)
        sm.start(0)
        events.run()
        assert stats.far_faults == 2
        # Both faults were outstanding concurrently; the GMMU serialised
        # the services, so total time ~ 2 services, not 2 * (service+issue).
        assert stats.fault_service_ops == 2

    def test_stall_at_max_outstanding(self):
        trace = [i * 16 for i in range(8)]  # 8 distinct chunks
        sm, gmmu, events, stats, _ = make_sm(trace, max_outstanding=2, capacity=256)
        sm.start(0)
        events.run()
        assert stats.sm_stall_events > 0
        assert sm.done

    def test_burst_yields_between_sms(self):
        # A long hit run must not exceed burst_length per event.
        sm, gmmu, events, stats, _ = make_sm(list(range(16)) * 8, burst=4)
        sm.start(0)
        events.run()
        assert sm.done
        assert stats.accesses == 128


class TestTraceWindow:
    def test_finished_sms_release_their_window(self):
        # The fused loop boxes up to 4,096 accesses at a time.  A finished
        # simulation is freed only by the cyclic collector (Simulator <-> SM
        # through on_finish), so each SM drops its window as it finishes.
        from repro.engine.simulator import Simulator
        from repro.workloads.suite import make_workload

        sim = Simulator(make_workload("NW", scale=0.25), oversubscription=0.5)
        assert all(sm._fast for sm in sim.sms)
        sim.run()
        assert sim.sms
        for sm in sim.sms:
            assert sm.done
            assert sm._boxed is None and sm._boxed_writes is None
