"""Property tests: the flat-list structures are their object-graph oracles.

Hypothesis drives random operation sequences against a
(:class:`PageTable`, reference dict page table) pair, a (:class:`ChunkChain`,
reference linked chain) pair and a (:class:`CoverageMap`, dict) pair,
asserting the observable state agrees after every step.  The references
live in ``tests/_legacy_structures.py``.  This is the unit-level
counterpart of ``tests/test_system_differential.py``: the differential
suite proves whole simulations byte-identical, these properties localise
any divergence to a single structure operation.

VPN/chunk-id strategies straddle the workload base (``0x80000``) and zero
on purpose: low-side growth (``arr[:0] = ...``) is the delicate direction
of the origin-offset representation.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from _legacy_structures import ChunkChain as LinkedChunkChain
from _legacy_structures import PageTable as DictPageTable
from repro.memsim.chunk_chain import ChunkChain
from repro.memsim.page_table import PageTable
from repro.memsim.system import CoverageMap

#: A few ids below / around zero, a band at the workload base: exercises
#: in-place growth at both ends plus negative indices (which must NOT wrap
#: around pythonically).
VPNS = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0x80000 - 8, max_value=0x80000 + 72),
)
CHUNK_IDS = st.one_of(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0x2000 - 2, max_value=0x2000 + 10),
)

PT_OPS = st.lists(
    st.tuples(
        st.sampled_from(["map", "unmap", "read", "write", "probe"]), VPNS
    ),
    max_size=60,
)


def _pt_observables(pt, vpns):
    return (
        len(pt),
        pt.resident_peak,
        pt.resident_vpns(),
        [(pt.is_resident(v), pt.frame_of(v), pt.accessed(v), pt.dirty(v))
         for v in vpns],
    )


class TestArrayPageTable:
    @settings(max_examples=60, deadline=None)
    @given(ops=PT_OPS)
    def test_matches_dict_page_table(self, ops):
        arr = PageTable(4, origin_hint=0x80000, size_hint=64)
        obj = DictPageTable(4)
        next_frame = 0
        touched = sorted({vpn for _, vpn in ops})
        for op, vpn in ops:
            if op == "map" and not obj.is_resident(vpn):
                arr.map(vpn, next_frame)
                obj.map(vpn, next_frame)
                next_frame += 1
            elif op == "unmap" and obj.is_resident(vpn):
                assert arr.unmap(vpn) == obj.unmap(vpn)
            elif op in ("read", "write") and obj.is_resident(vpn):
                arr.record_access(vpn, is_write=op == "write")
                obj.record_access(vpn, is_write=op == "write")
            elif op == "probe":
                assert (vpn in arr) == (vpn in obj)
            assert _pt_observables(arr, touched) == _pt_observables(obj, touched)
        # The walk structure is inherited arithmetic — same node keys.
        for vpn in touched[:5]:
            assert arr.node_keys(vpn) == obj.node_keys(vpn)

    def test_unmap_of_vpn_below_origin_raises(self):
        import pytest

        from repro.errors import SimulationError

        arr = PageTable(4, origin_hint=0x80000, size_hint=16)
        with pytest.raises(SimulationError):
            arr.unmap(0x7FF00)  # negative local index must not wrap


CHAIN_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert_tail", "insert_head", "remove", "move_to_tail",
             "touch", "resident", "clear_resident", "counter"]
        ),
        CHUNK_IDS,
        st.integers(min_value=0, max_value=15),
    ),
    max_size=80,
)


def _chain_observables(chain, ids, interval):
    entries = []
    for cid in ids:
        entry = chain.get(cid)
        if entry is None:
            entries.append(None)
        else:
            entries.append(
                (
                    entry.chunk_id,
                    entry.resident_mask,
                    entry.touched_mask,
                    entry.prefetch_mask,
                    entry.counter,
                    entry.last_ref_interval,
                    entry.insert_interval,
                    entry.insert_order,
                    entry.untouch_level(),
                    entry.partition(interval),
                )
            )
    return (
        len(chain),
        chain.length_peak,
        [e.chunk_id for e in chain.from_head()],
        [e.chunk_id for e in chain.from_tail()],
        [e.chunk_id for e in chain.candidates_from_tail(interval)],
        [e.chunk_id for e in chain.candidates_from_head(interval)],
        entries,
    )


class TestArrayChunkChain:
    @settings(max_examples=60, deadline=None)
    @given(ops=CHAIN_OPS, interval=st.integers(min_value=0, max_value=4))
    def test_matches_linked_chain(self, ops, interval):
        arr = ChunkChain()
        obj = LinkedChunkChain()
        ids = sorted({cid for _, cid, _ in ops})
        for op, cid, page in ops:
            in_chain = cid in obj
            if op in ("insert_tail", "insert_head") and not in_chain:
                ea = arr.new_entry(cid, interval)
                eo = obj.new_entry(cid, interval)
                getattr(arr, op)(ea)
                getattr(obj, op)(eo)
            elif op == "remove" and in_chain:
                removed_a = arr.remove(cid)
                removed_o = obj.remove(cid)
                assert removed_a.chunk_id == removed_o.chunk_id
                assert removed_a.touched_mask == removed_o.touched_mask
            elif op == "move_to_tail" and in_chain:
                arr.move_to_tail(cid)
                obj.move_to_tail(cid)
            elif op in ("touch", "resident", "clear_resident", "counter") and in_chain:
                ea, eo = arr.get(cid), obj.get(cid)
                if op == "touch":
                    ea.mark_touched(page)
                    eo.mark_touched(page)
                elif op == "resident":
                    ea.mark_resident(page)
                    eo.mark_resident(page)
                elif op == "clear_resident":
                    ea.clear_resident(page)
                    eo.clear_resident(page)
                else:
                    ea.counter += 1
                    eo.counter += 1
            assert _chain_observables(arr, ids, interval) == _chain_observables(
                obj, ids, interval
            )


class TestArrayCoverage:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["set", "pop", "get"]), VPNS),
            max_size=60,
        )
    )
    def test_matches_dict(self, ops):
        arr = CoverageMap()
        obj = {}
        for op, vpn in ops:
            token = object()  # stands in for an InFlightMigration
            if op == "set":
                arr[vpn] = token
                obj[vpn] = token
            elif op == "pop":
                assert arr.pop(vpn, None) is obj.pop(vpn, None)
            else:
                assert arr.get(vpn) is obj.get(vpn)
            assert len(arr) == len(obj)
            assert (vpn in arr) == (vpn in obj)
