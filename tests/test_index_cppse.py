"""Tests for the CPPse-index: build, KNN exactness, maintenance."""

import numpy as np
import pytest

from repro.core.profiles import ProfileEvent
from repro.datasets.schema import SocialItem


def scan_restricted_to(recommender, item, users, k):
    """Reference ranking: vectorized scan over a user subset."""
    ranked = recommender.matcher.top_k(item, len(recommender.profiles))
    return [(u, s) for u, s in ranked if u in users][:k]


class TestBuild:
    def test_every_consumer_is_blocked_and_has_a_leaf_row(self, fitted_ssrec_indexed):
        index = fitted_ssrec_indexed.index
        assert set(index.block_of_user) == {
            p.user_id for p in fitted_ssrec_indexed.profiles
        }
        for user_id, block_id in index.block_of_user.items():
            forest = index.forests[block_id]
            assert forest.user_ids[forest.row_of[user_id]] == user_id

    def test_leaf_rows_hold_the_scorer_probabilities(self, fitted_ssrec_indexed):
        """A member's leaf row is its impact encoding: exactly the smoothed
        probabilities the sequential scan scores with."""
        index, scorer = fitted_ssrec_indexed.index, fitted_ssrec_indexed.scorer
        forest = max(index.forests, key=lambda f: f.n_members)
        for user_id in forest.member_ids().tolist()[:5]:
            profile, row = fitted_ssrec_indexed.profiles.get(user_id), forest.row_of[user_id]
            for entity_id in forest.universe.entity_ids()[:10]:
                slot = forest.universe.entity_slot(entity_id)
                assert forest.entity[slot, row] == scorer.entity_probability(profile, entity_id)
            for producer_id in forest.universe.producer_ids():
                slot = forest.universe.producer_slot(producer_id)
                assert forest.producer[slot, row] == scorer.producer_probability(profile, producer_id)

    def test_trees_cover_block_categories(self, fitted_ssrec_indexed):
        index = fitted_ssrec_indexed.index
        for block in index.blocks:
            for category in block.categories:
                assert (block.block_id, category) in index.trees

    def test_hash_table_routes_universe_pairs(self, fitted_ssrec_indexed):
        index = fitted_ssrec_indexed.index
        block = index.blocks[0]
        universe = index.forests[block.block_id].universe
        category = next(iter(block.categories))
        entity = universe.entity_ids()[0]
        ptrs = index.hash_table.lookup(category, entity)
        assert block.block_id in ptrs
        assert ptrs[block.block_id] is index.trees[(block.block_id, category)]

    def test_invariants_after_build(self, fitted_ssrec_indexed):
        fitted_ssrec_indexed.index.check_invariants()

    def test_signature_statistics_shape(self, fitted_ssrec_indexed):
        stats = fitted_ssrec_indexed.index.signature_statistics()
        assert stats["n_blocks"] >= 1
        assert stats["n_trees"] == sum(len(b.categories) for b in fitted_ssrec_indexed.index.blocks)
        assert stats["max_entity_num"] > 0


class TestKnnExactness:
    def test_knn_equals_scan_over_probed_users(
        self, fitted_ssrec, fitted_ssrec_indexed, ytube_stream
    ):
        """No false dismissals: the index top-k must equal the exact scan
        top-k over the users the probed trees contain (Lemmas 1-2)."""
        items = ytube_stream.items_in_partition(2)[:25]
        index = fitted_ssrec_indexed.index
        for item in items:
            probed = index.users_in_probed_trees(item)
            if not probed:
                continue
            got = index.knn(item, 10)
            expected = scan_restricted_to(fitted_ssrec, item, probed, 10)
            got_scores = [round(s, 9) for _, s in got]
            exp_scores = [round(s, 9) for _, s in expected]
            assert got_scores == exp_scores, f"item {item.item_id}"
            # Identical users except possibly within exact ties.
            for (gu, gs), (eu, es) in zip(got, expected):
                if gu != eu:
                    assert gs == pytest.approx(es, abs=1e-9)

    def test_knn_k_larger_than_population(self, fitted_ssrec_indexed, ytube_stream):
        item = ytube_stream.items_in_partition(2)[0]
        index = fitted_ssrec_indexed.index
        got = index.knn(item, 10_000)
        assert len(got) == len(index.users_in_probed_trees(item))

    def test_knn_scores_descending(self, fitted_ssrec_indexed, ytube_stream):
        item = ytube_stream.items_in_partition(2)[1]
        scores = [s for _, s in fitted_ssrec_indexed.index.knn(item, 20)]
        assert scores == sorted(scores, reverse=True)

    def test_knn_rejects_negative_k(self, fitted_ssrec_indexed, ytube_small):
        with pytest.raises(ValueError):
            fitted_ssrec_indexed.index.knn(ytube_small.items[0], -1)

    def test_knn_zero_k_is_empty_window(self, fitted_ssrec_indexed, ytube_small):
        """k=0 is an empty recommendation window, not an error."""
        index = fitted_ssrec_indexed.index
        assert index.knn(ytube_small.items[0], 0) == []
        assert index.knn_batch(ytube_small.items[:3], 0) == [[], [], []]
        assert index.knn_batch([], 5) == []

    def test_unindexed_category_returns_empty(self, fitted_ssrec_indexed):
        item = SocialItem(
            item_id=10**9,
            category=0,
            producer=0,
            entities=(10**8,),  # entity no block has seen
            text="",
            timestamp=1.0,
        )
        # Entity unknown anywhere -> no tree located -> empty result.
        index = fitted_ssrec_indexed.index
        if not index.locate_trees(item):
            assert index.knn(item, 5) == []


class TestMaintenance:
    def _record_events(self, rec, user_id, item, times):
        for _ in range(times):
            rec.profiles.record(
                user_id,
                ProfileEvent(
                    category=item.category,
                    producer=item.producer,
                    item_id=item.item_id,
                    entities=item.entities,
                ),
            )

    def test_updates_change_knn_ranking(self, fresh_ssrec_indexed, ytube_stream):
        rec = fresh_ssrec_indexed
        item = ytube_stream.items_in_partition(2)[0]
        baseline = rec.index.knn(item, 5)
        # Make one previously-low user strongly interested in this item.
        probed = rec.index.users_in_probed_trees(item)
        all_ranked = [u for u, _ in rec.index.knn(item, len(probed))]
        target = all_ranked[-1]
        self._record_events(rec, target, item, rec.profiles.window_size * 4)
        rec.index.maintain([target])
        rec.index.check_invariants()
        updated = rec.index.knn(item, 5)
        assert target in [u for u, _ in updated]
        assert updated != baseline

    def test_maintenance_keeps_scan_agreement(self, fresh_ssrec_indexed, ytube_stream):
        rec = fresh_ssrec_indexed
        # Stream one test partition of updates through profiles + maintain.
        partition = ytube_stream.partitions[2][:300]
        item_by_id = {it.item_id: it for it in ytube_stream.dataset.items}
        touched = set()
        for inter in partition:
            item = item_by_id[inter.item_id]
            rec.profiles.record(
                inter.user_id,
                ProfileEvent(
                    category=inter.category,
                    producer=inter.producer,
                    item_id=inter.item_id,
                    entities=item.entities,
                ),
            )
            touched.add(inter.user_id)
        rec.index.maintain(sorted(touched))
        rec.index.check_invariants()
        rec.matcher.sync()
        for item in ytube_stream.items_in_partition(2)[:8]:
            probed = rec.index.users_in_probed_trees(item)
            if not probed:
                continue
            got = [round(s, 9) for _, s in rec.index.knn(item, 8)]
            expected = [
                round(s, 9) for _, s in scan_restricted_to(rec, item, probed, 8)
            ]
            assert got == expected

    def test_new_user_inserted(self, fresh_ssrec_indexed, ytube_small):
        rec = fresh_ssrec_indexed
        new_user = max(p.user_id for p in rec.profiles) + 1
        item = ytube_small.items[0]
        self._record_events(rec, new_user, item, rec.profiles.window_size * 2)
        rec.index.maintain([new_user])
        assert new_user in rec.index.block_of_user
        block_id = rec.index.block_of_user[new_user]
        assert (block_id, item.category) in rec.index.trees
        assert new_user in rec.index.forests[block_id].row_of
        assert new_user in rec.index.users_in_probed_trees(item)

    def test_new_entity_extends_universe_and_hash(self, fresh_ssrec_indexed, ytube_small):
        rec = fresh_ssrec_indexed
        profile = next(p for p in rec.profiles if p.n_long_events >= 5)
        block_id = rec.index.block_of_user[profile.user_id]
        universe = rec.index.forests[block_id].universe
        new_entity = max(universe.entity_ids()) + 500
        base = ytube_small.items[0]
        item = SocialItem(
            item_id=10**7,
            category=base.category,
            producer=base.producer,
            entities=(new_entity,),
            text="",
            timestamp=1.0,
        )
        self._record_events(rec, profile.user_id, item, profile.window_size)
        rec.index.maintain([profile.user_id])
        universe = rec.index.forests[rec.index.block_of_user[profile.user_id]].universe
        assert universe.entity_slot(new_entity) is not None
        for category in rec.index.blocks[rec.index.block_of_user[profile.user_id]].categories:
            assert rec.index.block_of_user[profile.user_id] in rec.index.hash_table.lookup(
                category, new_entity
            )

    def test_overflow_triggers_block_rebuild(self, fresh_ssrec_indexed, ytube_small):
        rec = fresh_ssrec_indexed
        profile = next(p for p in rec.profiles if p.n_long_events >= 5)
        block_id = rec.index.block_of_user[profile.user_id]
        universe = rec.index.forests[block_id].universe
        headroom = universe.entity_capacity - universe.n_entities
        base = ytube_small.items[0]
        start = 10**6
        # Browse far more new entities than the reserved zone can hold.
        for i in range(headroom + 5):
            item = SocialItem(
                item_id=start + i,
                category=base.category,
                producer=base.producer,
                entities=(start + i,),
                text="",
                timestamp=1.0,
            )
            self._record_events(rec, profile.user_id, item, 1)
        # Force flush of anything left in the window.
        while rec.profiles.get(profile.user_id).window:
            self._record_events(rec, profile.user_id, base, 1)
        rec.index.maintain([profile.user_id])
        rec.index.check_invariants()
        new_universe = rec.index.forests[block_id].universe
        assert new_universe is not universe  # rebuilt
        assert new_universe.entity_slot(start) is not None
        # Open trees follow the block to its new forest, and every entity
        # the rebuild absorbed is routed to them.
        for category in rec.index.blocks[block_id].categories:
            tree = rec.index.trees[(block_id, category)]
            assert tree.forest is rec.index.forests[block_id]
            for entity in (start, start + headroom + 4):
                assert rec.index.hash_table.lookup(category, entity)[block_id] is tree

    def test_maintain_unknown_user_is_noop(self, fresh_ssrec_indexed):
        assert fresh_ssrec_indexed.index.maintain([99_999_999]) == 0


class TestCounters:
    def test_search_counters_track_pruning(self, fresh_ssrec_indexed, ytube_stream):
        index = fresh_ssrec_indexed.index
        items = ytube_stream.items_in_partition(2)[:6]
        index.knn_batch(items + items[:2], 5)  # two duplicates share their search
        counters = index.counters
        assert counters["queries"] == 6
        assert counters["blocks_probed"] == sum(len(index.locate_trees(it)) for it in items)
        assert counters["reachable_users"] == sum(
            len(index.users_in_probed_trees(it)) for it in items
        )
        assert 0 < counters["leaves_scored"] <= counters["reachable_users"]
        # 80 users: every block starts (and ends) at its leaf level.
        assert counters["bounds_evaluated"] == 0

    def test_flush_counters_and_registry(self, fresh_ssrec_indexed, ytube_stream):
        rec = fresh_ssrec_indexed
        users = [p.user_id for p in rec.profiles][:3]
        assert rec.index.maintain(users + [99_999_999]) == 3
        counters = rec.index.counters
        assert (counters["flushes"], counters["users_refreshed"]) == (1, 3)
        assert counters["flush_us"] > 0
        rec.recommend(ytube_stream.items_in_partition(2)[0], 5)
        registry = {c.name: c.value for c in rec.obs_registry().counters()}
        assert registry["index.users_refreshed"] == 3 and registry["index.queries"] == 1
        share = {g.name: g.value for g in rec.obs_registry().gauges()}["index.scored_share"]
        assert share == counters["leaves_scored"] / counters["reachable_users"]

    def test_route_memo_follows_the_hash_table(self, fresh_ssrec_indexed, ytube_stream):
        """Step 1 memoises (category, entity) -> blocks; a hash-table insert
        (new entity, new category, rebuild) must not leave a stale route."""
        index = fresh_ssrec_indexed.index
        item = ytube_stream.items_in_partition(2)[0]
        before = set(index.locate_trees(item))
        entity = index.scorer.expanded_query(item)[0][0]
        missing = next(b.block_id for b in index.blocks if b.block_id not in before)
        index.hash_table.insert(item.category, entity, missing, index.trees.get((missing, item.category)))
        assert missing in index._locate_blocks(item.category, index.scorer.expanded_query(item))
