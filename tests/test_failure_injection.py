"""Failure injection: contract violations must be caught loudly, not
corrupt simulation state silently."""

import numpy as np
import pytest

from repro.config import SimConfig, SMConfig, TranslationConfig
from repro.engine.events import EventQueue
from repro.engine.simulator import Simulator
from repro.engine.stats import SimStats
from repro.errors import SimulationError
from repro.memsim.fault import FarFault
from repro.memsim.system import MemorySystem
from repro.policies.base import EvictionPolicy
from repro.policies.lru import LRUPolicy
from repro.prefetch.base import Prefetcher
from repro.prefetch.locality import LocalityPrefetcher

from conftest import make_simple_workload

FAST = SimConfig(sm=SMConfig(num_sms=2), translation=TranslationConfig(enabled=False))


class OmittingPrefetcher(Prefetcher):
    """Violates the contract: never includes the demand page."""

    name = "broken-omit"

    def pages_to_migrate(self, vpn, memory_full, occupied, time=0):
        return []


class NonSelectingPolicy(EvictionPolicy):
    """Violates the contract: claims victims it does not have."""

    name = "broken-select"

    def select_victims(self, frames_needed, time):
        return []


def _gmmu(policy=None, prefetcher=None, capacity=32):
    events = EventQueue()
    gmmu = MemorySystem(
        config=FAST,
        capacity_frames=capacity,
        events=events,
        stats=SimStats(),
        policy=policy or LRUPolicy(),
        prefetcher=prefetcher or LocalityPrefetcher("continue"),
    )
    return gmmu, events


class TestPrefetcherContract:
    def test_missing_demand_page_detected(self):
        gmmu, events = _gmmu(prefetcher=OmittingPrefetcher())
        fault = FarFault(vpn=5, sm_id=0, time=0, is_write=False,
                         on_resolve=lambda t: None)
        with pytest.raises(SimulationError, match="demand page"):
            gmmu.handle_fault(fault)


class TestPolicyContract:
    def test_policy_returning_nothing_detected(self):
        gmmu, events = _gmmu(policy=NonSelectingPolicy(), capacity=32)
        for chunk in range(3):  # third chunk needs an eviction
            fault = FarFault(vpn=chunk * 16, sm_id=0, time=events.now,
                             is_write=False, on_resolve=lambda t: None)
            if chunk < 2:
                gmmu.handle_fault(fault)
                events.run()
            else:
                with pytest.raises(SimulationError, match="contract"):
                    # The broken policy returns []; the GMMU detects that
                    # eviction made no progress instead of exhausting the
                    # frame allocator later.
                    gmmu.handle_fault(fault)
                    events.run()


class TestPolicyBaseGuards:
    def test_take_until_enough_raises_on_shortfall(self):
        from repro.errors import SimulationError as SE
        from repro.memsim.chunk_chain import ChunkEntry

        policy = LRUPolicy()
        from helpers import attach_policy
        attach_policy(policy)
        entry = ChunkEntry(1, 0)
        entry.resident_mask = 0b1
        with pytest.raises(SE, match="cannot free"):
            policy._take_until_enough([entry], frames_needed=5)


class TestSimulatorGuards:
    def test_event_budget_enforced(self):
        wl = make_simple_workload()
        sim = Simulator(wl, oversubscription=0.5, config=FAST, max_events=10)
        with pytest.raises(SimulationError, match="budget"):
            sim.run()

    def test_more_sms_than_trace_elements(self):
        # 2 accesses, 2 SMs: both get one access, run must complete.
        wl = make_simple_workload(footprint=64, accesses=[0, 1])
        result = Simulator(wl, oversubscription=None, config=FAST).run()
        assert result.stats.accesses == 2

    def test_single_access_workload(self):
        wl = make_simple_workload(footprint=64, accesses=[3])
        result = Simulator(wl, oversubscription=None, config=FAST).run()
        assert result.stats.accesses == 1
        assert result.stats.far_faults == 1
