"""Disabled / locality / tree prefetchers (repro.prefetch)."""

import pytest

from repro.errors import ConfigError
from repro.prefetch.base import mask_pages
from repro.prefetch.disabled import DisabledPrefetcher
from repro.prefetch.locality import LocalityPrefetcher
from repro.prefetch.tree_neighborhood import TreeNeighborhoodPrefetcher

from helpers import attach_prefetcher, never_occupied, occupied_by


class TestDisabled:
    def test_migrates_only_demand_page(self):
        pf = DisabledPrefetcher()
        attach_prefetcher(pf)
        assert pf.pages_to_migrate(100, False, never_occupied) == [100]
        assert pf.pages_to_migrate(100, True, never_occupied) == [100]

    def test_occupied_demand_page_yields_empty(self):
        pf = DisabledPrefetcher()
        attach_prefetcher(pf)
        assert pf.pages_to_migrate(100, False, lambda c: 0xFFFF) == []


class TestLocality:
    def test_prefetches_whole_chunk(self):
        pf = LocalityPrefetcher("continue")
        attach_prefetcher(pf)
        pages = pf.pages_to_migrate(35, False, never_occupied)
        assert pages[0] == 35  # demand page first
        assert sorted(pages) == list(range(32, 48))

    def test_occupied_pages_left_out(self):
        pf = LocalityPrefetcher("continue")
        attach_prefetcher(pf)
        resident = {32, 33}
        pages = pf.pages_to_migrate(35, False, occupied_by(resident))
        assert 32 not in pages and 33 not in pages
        assert len(pages) == 14

    def test_continue_mode_prefetches_when_full(self):
        pf = LocalityPrefetcher("continue")
        attach_prefetcher(pf)
        assert len(pf.pages_to_migrate(35, True, never_occupied)) == 16

    def test_stop_mode_demand_only_when_full(self):
        pf = LocalityPrefetcher("stop")
        attach_prefetcher(pf)
        assert pf.pages_to_migrate(35, True, never_occupied) == [35]
        # Before memory fills it still prefetches.
        assert len(pf.pages_to_migrate(35, False, never_occupied)) == 16

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            LocalityPrefetcher("sometimes")

    def test_names(self):
        assert LocalityPrefetcher("continue").name == "locality/continue"
        assert LocalityPrefetcher("stop").name == "locality/stop"


class TestTreeNeighborhood:
    def test_faulted_chunk_always_included(self):
        pf = TreeNeighborhoodPrefetcher()
        attach_prefetcher(pf)
        pages = pf.pages_to_migrate(35, False, never_occupied)
        assert set(range(32, 48)) <= set(pages)
        assert pages[0] == 35

    def test_promotes_to_parent_when_sibling_resident(self):
        pf = TreeNeighborhoodPrefetcher()
        attach_prefetcher(pf)
        # Sibling chunk [48,64) fully resident: migrating [32,48) completes
        # the 32-page node, which reaches half of the 64-page grandparent
        # [0,64) — at the >= threshold its other half [0,32) joins too,
        # producing the geometric growth the CUDA driver exhibits.
        resident = set(range(48, 64))
        pages = pf.pages_to_migrate(35, False, occupied_by(resident))
        assert set(range(32, 48)) <= set(pages)
        assert set(range(0, 32)) <= set(pages)

    def test_expansion_stops_below_half(self):
        pf = TreeNeighborhoodPrefetcher()
        attach_prefetcher(pf)
        # No siblings resident: the faulted chunk is 16/32 of its parent
        # (at threshold -> parent joins), parent is 32/64 (joins), ...; cap
        # the cascade with a smaller region to observe the stop condition.
        pf2 = TreeNeighborhoodPrefetcher(occupancy_threshold=0.9)
        attach_prefetcher(pf2)
        pages = pf2.pages_to_migrate(35, False, never_occupied)
        # 16/32 = 50% < 90%: no expansion beyond the faulted chunk.
        assert set(pages) == set(range(32, 48))

    def test_stop_on_full(self):
        pf = TreeNeighborhoodPrefetcher(on_full="stop")
        attach_prefetcher(pf)
        assert pf.pages_to_migrate(35, True, never_occupied) == [35]

    def test_region_bound(self):
        pf = TreeNeighborhoodPrefetcher(region_pages=32)
        attach_prefetcher(pf)
        resident = set(range(0, 32))  # everything below
        pages = pf.pages_to_migrate(35, False, occupied_by(resident))
        # Region is [32, 64): expansion never crosses into [0, 32).
        assert all(32 <= p < 64 for p in pages)

    def test_invalid_region_rejected(self):
        with pytest.raises(ConfigError):
            TreeNeighborhoodPrefetcher(region_pages=100)  # not a power of 2
        with pytest.raises(ConfigError):
            TreeNeighborhoodPrefetcher(occupancy_threshold=0.0)


class TestMaskPages:
    def test_ascending_with_first_leading(self):
        assert mask_pages(100, 0b1011) == [100, 101, 103]
        assert mask_pages(100, 0b1011, first=101) == [101, 100, 103]
        assert mask_pages(100, 0xFFFF, first=105) == (
            [105] + list(range(100, 105)) + list(range(106, 116))
        )

    def test_first_outside_mask_is_ignored(self):
        assert mask_pages(100, 0b1010, first=100) == [101, 103]
        assert mask_pages(100, 0b1, first=99) == [100]

    def test_empty_masks(self):
        assert mask_pages(100, 0) == []
        assert mask_pages(100, 0b1, first=100) == [100]
        assert mask_pages(100, 0b110000) == [104, 105]
