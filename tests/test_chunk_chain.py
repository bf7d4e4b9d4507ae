"""Chunk chain structure and partitions (repro.memsim.chunk_chain)."""

import pytest

from repro.engine.simulator import Simulator
from repro.errors import SimulationError
from repro.harness.baselines import build_setup
from repro.memsim.chunk_chain import _PAD_CHUNKS, ChunkChain, ChunkEntry
from repro.policies.hpe import HPEPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.mhpe import MHPEPolicy
from repro.workloads.suite import make_workload

from helpers import IntervalClock, attach_policy, populate


def chain_with(ids, interval=0):
    chain = ChunkChain()
    for cid in ids:
        chain.insert_tail(ChunkEntry(cid, interval))
    return chain


class TestEntryBitVectors:
    def test_fresh_entry_empty(self):
        e = ChunkEntry(1, 0)
        assert e.resident_mask == 0
        assert e.touched_mask == 0
        assert e.untouch_level() == 0

    def test_resident_and_touched(self):
        e = ChunkEntry(1, 0)
        for i in range(16):
            e.mark_resident(i)
        for i in range(0, 16, 2):
            e.mark_touched(i)
        assert e.resident_pages == 16
        assert e.touched_pages == 8
        assert e.untouch_level() == 8

    def test_untouch_only_counts_resident(self):
        # A page touched in a previous residency but not migrated now must
        # not count toward untouch.
        e = ChunkEntry(1, 0)
        e.mark_resident(0)
        e.mark_touched(5)  # not resident
        assert e.untouch_level() == 1

    def test_clear_resident(self):
        e = ChunkEntry(1, 0)
        e.mark_resident(3)
        e.clear_resident(3)
        assert not e.is_resident(3)
        assert e.resident_pages == 0

    def test_partition_by_interval(self):
        e = ChunkEntry(1, interval=5)
        assert e.partition(5) == "new"
        assert e.partition(6) == "middle"
        assert e.partition(7) == "old"
        assert e.partition(100) == "old"


class TestChainLinking:
    def test_insert_tail_order(self):
        chain = chain_with([1, 2, 3])
        assert [e.chunk_id for e in chain.from_head()] == [1, 2, 3]
        assert [e.chunk_id for e in chain.from_tail()] == [3, 2, 1]

    def test_insert_head(self):
        chain = chain_with([1, 2])
        chain.insert_head(ChunkEntry(99, 0))
        assert [e.chunk_id for e in chain.from_head()] == [99, 1, 2]

    def test_duplicate_insert_rejected(self):
        chain = chain_with([1])
        with pytest.raises(SimulationError):
            chain.insert_tail(ChunkEntry(1, 0))
        with pytest.raises(SimulationError):
            chain.insert_head(ChunkEntry(1, 0))

    def test_remove(self):
        chain = chain_with([1, 2, 3])
        removed = chain.remove(2)
        assert removed.chunk_id == 2
        assert chain.get(2) is None
        assert [e.chunk_id for e in chain.from_head()] == [1, 3]
        assert 2 not in chain

    def test_remove_missing_rejected(self):
        with pytest.raises(SimulationError):
            chain_with([1]).remove(9)

    def test_move_to_tail(self):
        chain = chain_with([1, 2, 3])
        chain.move_to_tail(1)
        assert [e.chunk_id for e in chain.from_head()] == [2, 3, 1]

    def test_move_missing_rejected(self):
        with pytest.raises(SimulationError):
            chain_with([1]).move_to_tail(9)

    def test_get(self):
        chain = chain_with([5])
        assert chain.get(5).chunk_id == 5
        assert chain.get(6) is None

    def test_len_and_peak(self):
        chain = chain_with([1, 2, 3])
        chain.remove(1)
        assert len(chain) == 2
        assert chain.length_peak == 3

    def test_iteration_is_removal_safe(self):
        chain = chain_with([1, 2, 3, 4])
        for entry in chain.from_head():
            chain.remove(entry.chunk_id)
        assert len(chain) == 0


class TestPartitionedCandidates:
    def _mixed_chain(self):
        """Chunks 1-2 old, 3 middle, 4 new (current interval = 5)."""
        chain = ChunkChain()
        for cid, interval in ((1, 1), (2, 2), (3, 4), (4, 5)):
            chain.insert_tail(ChunkEntry(cid, interval))
        return chain

    def test_candidates_from_tail_priority(self):
        chain = self._mixed_chain()
        # Old first (MRU-first), then middle, then new.
        ordered = list(chain.candidates_from_tail(5))
        assert [e.chunk_id for e in ordered] == [2, 1, 3, 4]
        assert [e.partition(5) for e in ordered[:2]] == ["old", "old"]
        assert ordered[2].partition(5) != "old"

    def test_candidates_from_head_priority(self):
        chain = self._mixed_chain()
        ordered = list(chain.candidates_from_head(5))
        assert [e.chunk_id for e in ordered] == [1, 2, 3, 4]
        assert [e.partition(5) for e in ordered[:2]] == ["old", "old"]
        assert ordered[2].partition(5) != "old"

    def test_all_new_falls_back(self):
        chain = chain_with([1, 2, 3], interval=5)
        assert [e.chunk_id for e in chain.candidates_from_tail(5)] == [3, 2, 1]

    def test_empty_chain(self):
        chain = ChunkChain()
        for candidates in (chain.candidates_from_tail(0),
                           chain.candidates_from_head(0)):
            assert list(candidates) == []
            assert len(candidates) == 0


class TestEarlyExit:
    """Victim selection walks only as far as the victims it needs."""

    CHUNKS = 1000
    #: Entries a selection may read beyond its skip distance.
    SLACK = 4

    def _policy_on_old_chain(self, policy, counter=0):
        clock = IntervalClock(0)
        chain, _, _ = attach_policy(policy, interval=clock)
        for entry in populate(policy, list(range(self.CHUNKS))):
            entry.counter = counter
        clock.value = 10  # every chunk is now in the old partition
        return chain

    def _handles_read(self, monkeypatch, policy, frames=16):
        calls = []
        handle = ChunkChain._handle

        def counting(chain, li):
            calls.append(li)
            return handle(chain, li)

        with monkeypatch.context() as patch:
            patch.setattr(ChunkChain, "_handle", counting)
            victims = policy.select_victims(frames, time=0)
        return victims, len(calls)

    def test_lru(self, monkeypatch):
        policy = LRUPolicy()
        self._policy_on_old_chain(policy)
        victims, reads = self._handles_read(monkeypatch, policy)
        assert [v.chunk_id for v in victims] == [0]
        assert reads <= self.SLACK

    @pytest.mark.parametrize("strategy", ["mru", "lru"])
    def test_mhpe(self, monkeypatch, strategy):
        policy = MHPEPolicy()
        chain = self._policy_on_old_chain(policy)
        assert len(chain.candidates_from_tail(10)) == len(chain) == self.CHUNKS
        policy.strategy = strategy
        policy.forward_distance = 32
        victims, reads = self._handles_read(monkeypatch, policy)
        if strategy == "mru":
            assert [v.chunk_id for v in victims] == [self.CHUNKS - 1 - 32]
            assert reads <= 32 + self.SLACK
        else:
            assert [v.chunk_id for v in victims] == [0]
            assert reads <= self.SLACK

    @pytest.mark.parametrize("strategy", ["mru-c", "lru"])
    def test_hpe(self, monkeypatch, strategy):
        policy = HPEPolicy()
        # Saturated counters qualify every chunk for MRU-C.
        self._policy_on_old_chain(policy, counter=16)
        assert policy._qualify_threshold <= 16
        policy._strategy = strategy
        victims, reads = self._handles_read(monkeypatch, policy)
        expected = self.CHUNKS - 1 if strategy == "mru-c" else 0
        assert [v.chunk_id for v in victims] == [expected]
        assert reads <= self.SLACK


class TestOriginAnchor:
    def test_suite_simulation_allocates_only_its_footprint(self):
        # Suite workloads sit at base_vpn 0x80000 (chunk id 0x8000): the
        # slot lists start at the first chunk stored, not at chunk 0.
        workload = make_workload("NW", scale=0.25)
        policy, prefetcher = build_setup("cppe")
        sim = Simulator(workload, policy=policy, prefetcher=prefetcher,
                        oversubscription=0.5)
        sim.run()
        slots = len(sim.memory.chain._inch)
        assert slots <= workload.footprint_chunks + _PAD_CHUNKS
