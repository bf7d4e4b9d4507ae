"""Reserved LRU (repro.policies.reserved_lru)."""

import pytest

from repro.errors import ConfigError
from repro.policies.reserved_lru import ReservedLRUPolicy

from helpers import attach_policy, populate


class TestReservation:
    def test_top_of_lru_chain_protected(self):
        policy = ReservedLRUPolicy(0.2)
        attach_policy(policy)
        populate(policy, list(range(10)))
        # 20% of 10 = 2 entries protected; first victim is the 3rd LRU.
        victims = policy.select_victims(16, 0)
        assert victims[0].chunk_id == 2

    def test_zero_reservation_is_plain_lru(self):
        policy = ReservedLRUPolicy(0.0)
        attach_policy(policy)
        populate(policy, list(range(5)))
        assert policy.select_victims(16, 0)[0].chunk_id == 0

    def test_falls_back_into_reserve_when_needed(self):
        policy = ReservedLRUPolicy(0.5)
        attach_policy(policy)
        populate(policy, [1, 2])
        # Need both chunks: the reservation must yield.
        victims = policy.select_victims(32, 0)
        assert [v.chunk_id for v in victims] == [2, 1]
        # The reserve is entered from its boundary back towards the head.
        policy = ReservedLRUPolicy(0.5)
        attach_policy(policy)
        populate(policy, [1, 2, 3, 4])
        victims = policy.select_victims(48, 0)
        assert [v.chunk_id for v in victims] == [3, 4, 2]

    def test_touch_refreshes_recency(self):
        policy = ReservedLRUPolicy(0.0)
        attach_policy(policy)
        entries = populate(policy, [1, 2])
        policy.on_page_touched(entries[0], vpn=16, time=0)
        assert policy.select_victims(16, 0)[0].chunk_id == 2

    def test_name_includes_percentage(self):
        assert ReservedLRUPolicy(0.1).name == "lru-10%"
        assert ReservedLRUPolicy(0.2).name == "lru-20%"

    def test_strategy_reported_as_lru(self):
        assert ReservedLRUPolicy(0.1).current_strategy == "lru"

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigError):
            ReservedLRUPolicy(1.0)
        with pytest.raises(ConfigError):
            ReservedLRUPolicy(-0.1)
