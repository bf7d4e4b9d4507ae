"""Property tests: the flat-list structures are their object-graph oracles.

Hypothesis drives random operation sequences against a
(:class:`PageTable`, reference dict page table) pair, a (:class:`ChunkChain`,
reference linked chain) pair and a (per-chunk in-flight index of
:class:`FaultFrontend`, per-page dict) pair, asserting the observable state
agrees after every step.  The references
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
from repro.config import SimConfig
from repro.engine.stats import SimStats
from repro.memsim.fault import InFlightMigration
from repro.memsim.system import FaultFrontend
from repro.obs import DISABLED

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


def _frontend() -> FaultFrontend:
    return FaultFrontend(SimConfig().uvm, SimStats(), None, None, DISABLED)


def _migration(pages, token, ppc=16):
    masks = {}
    for vpn in pages:
        masks[vpn // ppc] = masks.get(vpn // ppc, 0) | 1 << (vpn % ppc)
    return InFlightMigration(
        chunk_id=pages[0] // ppc, masks=masks, num_pages=len(pages),
        pages_per_chunk=ppc, token=token,
    )


def _land(frontend, mig):
    for cid, mask in mig.masks.items():
        frontend.release(cid, mask, mig)


class TestArrayCoverage:
    """The frontend's per-chunk in-flight masks against a per-page dict."""

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["start", "land", "probe"]),
                st.lists(VPNS, min_size=1, max_size=20),
                st.integers(min_value=0, max_value=7),
            ),
            max_size=40,
        )
    )
    def test_matches_dict(self, ops):
        frontend = _frontend()
        obj = {}  # vpn -> migration
        live = []
        probes = sorted({vpn for _, vpns, _ in ops for vpn in vpns})
        for token, (op, vpns, pick) in enumerate(ops):
            if op == "start":
                # A migration never takes a page that is already in flight.
                pages = sorted({v for v in vpns if v not in obj})
                if pages:
                    mig = _migration(pages, token)
                    frontend.track(mig)
                    obj.update((vpn, mig) for vpn in pages)
                    live.append(mig)
            elif op == "land" and live:
                mig = live.pop(pick % len(live))
                _land(frontend, mig)
                for vpn in [v for v, m in obj.items() if m is mig]:
                    del obj[vpn]
            for vpn in probes:
                assert frontend.covering(vpn) is obj.get(vpn)
                for mig in live:
                    assert mig.covers(vpn) == (obj.get(vpn) is mig)
            assert set(frontend.flight_masks) == set(frontend.flight_migs)
            assert sorted(frontend.flight_masks) == sorted(
                {vpn // 16 for vpn in obj}
            )

    def test_two_migrations_in_one_chunk(self):
        # Parallel service slots can bring in disjoint pages of one chunk.
        frontend = _frontend()
        first = _migration([0x80000, 0x80001], token=0)
        second = _migration([0x80004, 0x80010], token=1)
        frontend.track(first)
        frontend.track(second)
        assert frontend.flight_masks == {0x8000: 0b10011, 0x8001: 0b1}
        assert frontend.covering(0x80001) is first
        assert frontend.covering(0x80004) is second
        assert frontend.covering(0x80002) is None
        _land(frontend, first)
        assert frontend.flight_masks == {0x8000: 0b10000, 0x8001: 0b1}
        assert [id(m) for m in frontend.flight_migs[0x8000]] == [id(second)]
        assert frontend.covering(0x80000) is None
        assert frontend.covering(0x80004) is second
        _land(frontend, second)
        assert frontend.flight_masks == frontend.flight_migs == {}
