"""Tests for the flat signature forest: layout, aggregation, bounds, and a
property over arbitrary Algorithm-2 interleavings on a whole index."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SsRecConfig
from repro.core.matching import ScoreParts
from repro.core.profiles import ProfileEvent, ProfileStore
from repro.datasets.schema import SocialItem
from repro.index import cppse, sigtree
from repro.index.cppse import CPPseIndex
from repro.index.signature import (
    BlockUniverse,
    QueryBatch,
    QuerySignature,
    UniverseOverflow,
    UserVector,
)
from repro.index.sigtree import BlockForest, SignatureTree

N_CATEGORIES = 3
LAMBDA = 0.4


def make_universe(n_producers=3, n_entities=6):
    return BlockUniverse(range(n_producers), range(n_entities), slack=0.2)


def make_vector(universe, rng, user_id):
    return UserVector(
        user_id=user_id,
        p_producer=rng.random(universe.producer_capacity) * 0.2,
        p_entity=rng.random(universe.entity_capacity) * 0.2,
        floor_producer=float(rng.random() * 0.01),
        floor_entity=float(rng.random() * 0.01),
    )


def make_member(universe, rng, user_id):
    return make_vector(universe, rng, user_id), rng.random(N_CATEGORIES), rng.random(N_CATEGORIES)


def make_forest(n_users, fanout=4, seed=0, capacity=None):
    universe = make_universe()
    rng = np.random.default_rng(seed)
    forest = BlockForest(
        0, universe, N_CATEGORIES, fanout=fanout,
        capacity=n_users if capacity is None else capacity,
    )
    if n_users:
        forest.put([make_member(universe, rng, uid) for uid in range(n_users)])
    forest.refresh()
    return forest


def make_query(universe, seed=0, category=0):
    rng = np.random.default_rng(seed)
    item = SocialItem(0, category, int(rng.integers(4)), (), "", 0.0)  # producer 3: out of universe
    weighted = [(int(rng.choice(universe.entity_ids())), 1.0) for _ in range(3)]
    weighted.append((99999, 0.5))  # out-of-universe entity
    return QuerySignature.encode(item, weighted, universe, block_id=0)


def scalar_relevance(forest, row, query):
    """Def. 2 / Eq. 3 of one forest row by the scalar definitions the
    sequential scan scores with."""
    return ScoreParts(
        float(forest.p_long[query.category, row]),
        query.producer_prob(forest.producer[:, row], float(forest.floor_producer[row])),
        query.entity_sum(forest.entity[:, row], float(forest.floor_entity[row])),
        float(forest.p_short[query.category, row]),
    ).combine(LAMBDA)


def all_rows(forest, queries):
    """Relevance of every row for every query, ``[n_queries x rows]``."""
    strips = np.arange(forest.offsets[-1] // forest.fanout)
    values = forest.relevance(
        np.tile(strips, len(queries)),
        np.repeat(np.arange(len(queries)), strips.size),
        QueryBatch.pack(queries),
        LAMBDA,
    )
    return values.reshape(len(queries), -1)


class TestLayout:
    def test_members_in_put_order(self):
        forest = make_forest(23)
        assert forest.n_members == 23
        assert forest.member_ids().tolist() == list(range(23))
        assert forest.row_of[7] == 7

    def test_levels_are_whole_strips_and_height_logarithmic(self):
        forest = make_forest(64, fanout=4)
        # 64 leaves -> 16 -> 4 -> the root's strip: 4 levels.
        assert forest.height == 4
        assert all(offset % 4 == 0 for offset in forest.offsets)
        assert np.diff(forest.offsets).tolist() == [64, 16, 4, 4]

    def test_child_strips_partition_the_level_below(self):
        forest = make_forest(30, fanout=3)
        for level in range(1, forest.height):
            lo, hi = forest.offsets[level], forest.offsets[level + 1]
            children = forest.child_strip[lo:hi]
            below = np.arange(forest.offsets[level - 1], forest.offsets[level]) // 3
            assert sorted(set(children[children >= 0])) == sorted(set(below))

    def test_empty_forest(self):
        forest = make_forest(0)
        assert forest.n_members == 0 and forest.start_strips.size == 0
        forest.check_invariants()

    def test_invalid_fanout_rejected(self):
        with pytest.raises(ValueError):
            BlockForest(0, make_universe(), N_CATEGORIES, fanout=1)

    def test_tree_handle_views_the_forest(self):
        forest = make_forest(9)
        forests = [forest]
        tree = SignatureTree(forests, 0, 2)
        assert tree.forest is forest
        forests[0] = rebuilt = make_forest(11)
        assert tree.forest is rebuilt  # a handle outlives a block rebuild


class TestAggregation:
    def test_every_row_is_the_max_of_its_strip(self):
        forest = make_forest(30, fanout=3, seed=2)
        for row in np.flatnonzero(forest.child_strip >= 0):
            strip = forest.child_strip[row] * 3 + np.arange(3)
            for array in forest._aggregated():
                assert np.array_equal(array[..., row], array[..., strip].max(axis=-1))

    def test_invariants_hold_after_build(self):
        make_forest(30, fanout=3).check_invariants()

    def test_stale_aggregate_is_detected(self):
        forest = make_forest(12, fanout=3)
        forest.entity[0, forest.offsets[1]] += 1.0
        with pytest.raises(AssertionError, match="stale"):
            forest.check_invariants()

    def test_partial_refresh_equals_full_refresh(self):
        forest = make_forest(40, fanout=3, seed=5)
        rng = np.random.default_rng(9)
        forest.refresh(forest.put([make_member(forest.universe, rng, uid) for uid in (3, 17, 31)]))
        partial = [array.copy() for array in forest._aggregated()]
        forest.refresh()
        for kept, array in zip(partial, forest._aggregated()):
            assert np.array_equal(kept, array)


class TestRelevance:
    def test_matches_scalar_definition_on_every_row(self):
        forest = make_forest(27, fanout=3, seed=3)
        queries = [make_query(forest.universe, seed=s, category=s % 3) for s in range(4)]
        values = all_rows(forest, queries)
        for q, query in enumerate(queries):
            for row in np.flatnonzero(forest.live):
                assert values[q, row] == pytest.approx(scalar_relevance(forest, row, query), abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10))
    def test_every_row_bounds_its_children(self, n_users, seed):
        """Lemmas 1-2: an IEntry's relevance upper-bounds every child's —
        hence every descendant's, down to the exact leaf scores."""
        forest = make_forest(n_users, fanout=4, seed=seed)
        values = all_rows(forest, [make_query(forest.universe, seed=seed)])[0]
        for row in np.flatnonzero(forest.child_strip >= 0):
            strip = forest.child_strip[row] * 4 + np.arange(4)
            assert (values[row] >= values[strip] - 1e-9).all()
        root = forest.offsets[-2]
        assert forest.root_bound(QueryBatch.pack([make_query(forest.universe, seed=seed)]), LAMBDA) == values[root]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 30), st.integers(2, 9), st.integers(0, 10**6))
    def test_leading_axis_reduce_adds_in_order(self, terms, strips, fanout, seed):
        """``relevance`` relies on ``np.add.reduce(axis=0)`` adding the
        ``[term, strip, row]`` slab term by term — the scalar
        ``entity_sum`` order — never pairwise; this pins that."""
        rng = np.random.default_rng(seed)
        slab = rng.random((terms, strips, fanout)) * 10.0 ** rng.integers(-9, 3, (terms, 1, 1))
        total = slab[0].copy()
        for term in slab[1:]:
            total += term
        assert np.array_equal(np.add.reduce(slab, axis=0), total)

    def test_score_does_not_depend_on_what_it_is_evaluated_beside(self):
        forest = make_forest(50, fanout=4, seed=7)
        queries = [make_query(forest.universe, seed=s, category=s % 3) for s in range(3)]
        together = all_rows(forest, queries)
        for q, query in enumerate(queries):
            alone = QueryBatch.pack([query])
            for strip in range(forest.offsets[-1] // 4):
                one = forest.relevance(np.array([strip]), np.zeros(1, dtype=np.intp), alone, LAMBDA)
                assert np.array_equal(one[0], together[q, strip * 4 : strip * 4 + 4])


class TestPut:
    def test_overwrite_refreshes_ancestors(self):
        forest = make_forest(12, fanout=3, seed=1)
        rng = np.random.default_rng(99)
        rows = forest.put([(make_vector(forest.universe, rng, 5), np.full(3, 0.99), np.full(3, 0.98))])
        assert rows.tolist() == [forest.row_of[5]] == [5]
        forest.refresh(rows)
        forest.check_invariants()
        assert forest.p_long[0, forest.offsets[-2]] == 0.99

    def test_new_member_claims_a_reserved_row(self):
        forest = make_forest(4, fanout=3, seed=2, capacity=30)
        rng = np.random.default_rng(5)
        rows = forest.put([make_member(forest.universe, rng, uid) for uid in range(100, 120)])
        assert rows.tolist() == list(range(4, 24)) and forest.n_members == 24
        forest.refresh(rows)
        forest.check_invariants()
        assert 115 in forest.row_of

    def test_exhausted_rows_overflow(self):
        forest = make_forest(3, fanout=3, capacity=3)
        with pytest.raises(UniverseOverflow, match="forest full"):
            forest.put([make_member(forest.universe, np.random.default_rng(0), 9)])


# ----------------------------------------------------------------------
# Whole-index property: arbitrary Algorithm-2 interleavings
# ----------------------------------------------------------------------
MU = 10.0
N_PRODUCERS, N_ENTITIES = 8, 64


class StubInterest:
    """Deterministic stand-in for the BiHMM interest predictor."""

    def long_term_distribution(self, profile):
        counts = np.ones(N_CATEGORIES + 1)
        for category, n in profile.category_counts.items():
            counts[category] += n
        return counts / counts.sum()

    def short_term_distribution(self, profile):
        weights = np.ones(N_CATEGORIES + 1)
        for category, _ in profile.recent_sequence():
            weights[category] += 2.0
        return weights / weights.sum()


class StubScorer:
    """The slice of MatchingScorer the index reads."""

    n_producers, n_entities = N_PRODUCERS, N_ENTITIES

    def __init__(self, config):
        self.config = config
        self.interest = StubInterest()

    def expanded_query(self, item):
        # The first entity twice (weights accumulate per slot) plus one
        # expansion neighbour that may lie outside every universe.
        return [(e, 1.0) for e in item.entities] + [(item.entities[0], 0.5), (item.entities[0] + 1, 0.25)]


def brute_force(index, item, k):
    """Eq. 3 ranking over the probed users, from the profiles alone."""
    scorer, interest = index.scorer, index.interest
    ranked = []
    for uid in index.users_in_probed_trees(item):
        profile = index.profiles.get(uid)
        entity_sum = sum(
            weight * (profile.entity_counts.get(e, 0) + MU / N_ENTITIES) / (profile.n_entity_tokens + MU)
            for e, weight in scorer.expanded_query(item)
        )
        score = ScoreParts(
            float(interest.long_term_distribution(profile)[item.category]),
            (profile.producer_counts.get(item.producer, 0) + MU / N_PRODUCERS) / (profile.n_long_events + MU),
            entity_sum,
            float(interest.short_term_distribution(profile)[item.category]),
        ).combine(scorer.config.lambda_s)
        ranked.append((uid, score))
    return sorted(ranked, key=lambda us: (-us[1], us[0]))[:k]


def build_index():
    config = SsRecConfig(
        tree_fanout=3, signature_slack=0.2, max_blocks=5, block_similarity_threshold=0.9,
        dirichlet_mu=MU,
    )
    profiles = ProfileStore(window_size=1)  # every event is long-term at once
    rng = np.random.default_rng(0)
    for uid in range(36):
        for _ in range(3):
            profiles.record(uid, ProfileEvent(
                category=int(rng.integers(2)), producer=int(rng.integers(3)), item_id=0,
                entities=tuple(int(e) for e in rng.integers(0, 8, 2)),
            ))
    return CPPseIndex.build(profiles, StubScorer(config), N_CATEGORIES + 1, config)


#: One browsing event: known and new users (36+), known and new categories
#: (2, 3), producers and entities inside the universes, in the reserved
#: zones and — several at once — beyond them (universe-overflow rebuild).
EVENT = st.tuples(
    st.integers(0, 41),
    st.integers(0, N_CATEGORIES),
    st.integers(0, N_PRODUCERS - 1),
    st.lists(st.integers(0, N_ENTITIES - 2), min_size=1, max_size=6).map(tuple),
)


class TestIndexUnderInterleavings:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.lists(EVENT, min_size=1, max_size=6), min_size=1, max_size=5),
        st.integers(1, 6),
        st.sampled_from([1, 3, 9, 512]),
        st.sampled_from([1, 16]),
    )
    def test_maintained_index_stays_exact(self, flushes, k, start_rows, round_width):
        # Small start levels and round widths force the multi-round
        # best-first descent these 20-user forests would otherwise skip.
        with mock.patch.object(sigtree, "_START_ROWS", start_rows), \
                mock.patch.object(cppse, "_ROUND_WIDTH", round_width):
            self._check(flushes, k)

    @staticmethod
    def _check(flushes, k):
        index = build_index()
        for events in flushes:
            for uid, category, producer, entities in events:
                index.profiles.record(uid, ProfileEvent(category, producer, 0, entities))
            index.maintain(sorted({uid for uid, *_ in events}))
            index.check_invariants()
        items = [
            SocialItem(i, category, i % N_PRODUCERS, (entity, (entity * 7 + 3) % 40), "", 0.0)
            for i, (category, entity) in enumerate(
                (c, e) for c in range(N_CATEGORIES + 1) for e in (0, 5, 11, 23, 40)
            )
        ]
        one_by_one = [index.knn(item, k) for item in items]
        assert index.knn_batch(items, k) == one_by_one  # bitwise, whatever shares the pass
        assert index.knn_batch(items[::-1] + items[:3], k) == one_by_one[::-1] + one_by_one[:3]
        for item, got in zip(items, one_by_one):
            expected = brute_force(index, item, k)
            assert [s for _, s in got] == pytest.approx([s for _, s in expected], abs=1e-9)
            for (got_user, got_score), (user, score) in zip(got, expected):
                assert got_user == user or got_score == pytest.approx(score, abs=1e-9)
        # Lemmas 1-2 on the maintained forests, for a real query.
        for forest in index.forests:
            query = QuerySignature.encode(items[0], index.scorer.expanded_query(items[0]), forest.universe, 0)
            values = all_rows(forest, [query])[0]
            for row in np.flatnonzero((forest.child_strip >= 0) & (forest.live > 0)):
                strip = forest.child_strip[row] * 3 + np.arange(3)
                assert (values[row] >= values[strip][forest.live[strip] > 0] - 1e-9).all()
