"""Tests for block universes, impact/frequency encodings."""

import numpy as np
import pytest

from repro.datasets.schema import SocialItem
from repro.index.signature import (
    BlockUniverse,
    QuerySignature,
    UniverseOverflow,
    UserVector,
)


class TestBlockUniverse:
    def test_slots_are_dense_and_sorted(self):
        universe = BlockUniverse([5, 2], [30, 10, 20], slack=0.2)
        assert universe.producer_ids() == [2, 5]
        assert universe.entity_ids() == [10, 20, 30]
        assert universe.producer_slot(2) == 0 and universe.producer_slot(5) == 1
        assert universe.entity_slot(20) == 1
        assert universe.entity_slot(99) is None

    def test_capacity_includes_slack(self):
        universe = BlockUniverse([1], list(range(10)), slack=0.2)
        assert universe.entity_capacity >= 12  # 10 + ceil(2) + 1

    def test_add_entity_claims_reserved_slot(self):
        universe = BlockUniverse([1], [0, 1], slack=0.5)
        slot = universe.add_entity(42)
        assert universe.entity_slot(42) == slot == 2
        assert universe.n_entities == 3

    def test_add_existing_entity_is_idempotent(self):
        universe = BlockUniverse([1], [0, 1], slack=0.5)
        assert universe.add_entity(0) == universe.entity_slot(0)
        assert universe.n_entities == 2

    def test_overflow_raises(self):
        universe = BlockUniverse([1], [0], slack=0.0)
        universe.add_entity(7)  # the +1 headroom slot
        with pytest.raises(UniverseOverflow):
            universe.add_entity(8)

    def test_add_producer(self):
        universe = BlockUniverse([1], [0], slack=0.5)
        slot = universe.add_producer(9)
        assert universe.producer_slot(9) == slot

    def test_invalid_slack_rejected(self):
        with pytest.raises(ValueError):
            BlockUniverse([1], [0], slack=1.0)


class TestUserVector:
    def test_values_match_reference_scorer(self, fitted_ssrec):
        scorer = fitted_ssrec.scorer
        profile = next(p for p in fitted_ssrec.profiles if p.n_long_events >= 5)
        producer_ids = list(profile.producer_counts)[:3] or [0]
        entity_ids = list(profile.entity_counts)[:5] or [0]
        universe = BlockUniverse(producer_ids, entity_ids, slack=0.2)
        vector = UserVector.build(profile, universe, scorer)
        for pid in producer_ids:
            slot = universe.producer_slot(pid)
            assert vector.p_producer[slot] == pytest.approx(
                scorer.producer_probability(profile, pid)
            )
        for eid in entity_ids:
            slot = universe.entity_slot(eid)
            assert vector.p_entity[slot] == pytest.approx(
                scorer.entity_probability(profile, eid)
            )

    def test_floors_match_unseen_probability(self, fitted_ssrec):
        scorer = fitted_ssrec.scorer
        profile = next(p for p in fitted_ssrec.profiles if p.n_long_events >= 5)
        unseen_producer = next(
            p for p in range(scorer.n_producers) if p not in profile.producer_counts
        )
        unseen_entity = next(
            e for e in range(scorer.n_entities) if e not in profile.entity_counts
        )
        universe = BlockUniverse([0], [0], slack=0.2)
        vector = UserVector.build(profile, universe, scorer)
        assert vector.floor_producer == pytest.approx(
            scorer.producer_probability(profile, unseen_producer)
        )
        assert vector.floor_entity == pytest.approx(
            scorer.entity_probability(profile, unseen_entity)
        )

    def test_reserved_slots_hold_floor(self, fitted_ssrec):
        profile = next(iter(fitted_ssrec.profiles))
        universe = BlockUniverse([0], [0, 1], slack=0.5)
        vector = UserVector.build(profile, universe, fitted_ssrec.scorer)
        for slot in range(universe.n_entities, universe.entity_capacity):
            assert vector.p_entity[slot] == pytest.approx(vector.floor_entity)


def make_item(item_id=0, category=1, producer=2, entities=(10, 10, 20)):
    return SocialItem(
        item_id=item_id,
        category=category,
        producer=producer,
        entities=tuple(entities),
        text="",
        timestamp=0.0,
    )


class TestQuerySignature:
    def test_encoding_accumulates_frequency_times_weight(self):
        universe = BlockUniverse([2], [10, 20], slack=0.2)
        item = make_item()
        weighted = [(10, 1.0), (10, 1.0), (20, 1.0), (30, 0.7)]
        query = QuerySignature.encode(item, weighted, universe, block_id=0)
        assert dict(query.entity_weights) == {
            universe.entity_slot(10): 2.0,
            universe.entity_slot(20): 1.0,
        }
        assert query.oov_weight == pytest.approx(0.7)
        assert query.producer_slot == universe.producer_slot(2)

    def test_out_of_universe_producer(self):
        universe = BlockUniverse([5], [10], slack=0.2)
        query = QuerySignature.encode(make_item(producer=2), [(10, 1.0)], universe, 0)
        assert query.producer_slot is None
        assert query.producer_prob(np.array([0.3]), floor_producer=0.01) == 0.01

    def test_entity_sum_matches_manual_dot_product(self):
        universe = BlockUniverse([2], [10, 20], slack=0.0)
        query = QuerySignature.encode(
            make_item(), [(10, 2.0), (20, 0.5), (99, 0.3)], universe, 0
        )
        p_entity = np.array([0.4, 0.1, 0.0, 0.0])
        expected = 2.0 * 0.4 + 0.5 * 0.1 + 0.3 * 0.01
        assert query.entity_sum(p_entity, floor_entity=0.01) == pytest.approx(expected)
