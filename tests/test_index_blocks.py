"""Tests for one-pass user blocking."""

import numpy as np
import pytest

from repro.core.profiles import ProfileEvent, UserProfile
from repro.index.blocks import (
    assign_to_block,
    block_statistics,
    cosine_similarity,
    one_pass_clustering,
)


def profile_with_categories(user_id, categories, producer=0):
    profile = UserProfile(user_id, window_size=1)
    for i, c in enumerate(categories):
        profile.record(
            ProfileEvent(category=c, producer=producer, item_id=user_id * 1000 + i, entities=(c,))
        )
    return profile


class TestCosine:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_yields_zero(self):
        assert cosine_similarity(np.zeros(2), np.array([1.0, 0.0])) == 0.0


class TestOnePassClustering:
    def test_similar_users_share_block(self):
        profiles = [
            profile_with_categories(1, [0] * 10),
            profile_with_categories(2, [0] * 9 + [1]),
            profile_with_categories(3, [2] * 10),
        ]
        blocks = one_pass_clustering(profiles, 3, similarity_threshold=0.8)
        assert len(blocks) == 2
        by_user = {u: b.block_id for b in blocks for u in b.user_ids}
        assert by_user[1] == by_user[2] != by_user[3]

    def test_max_blocks_cap_enforced(self):
        profiles = [profile_with_categories(i, [i % 5]) for i in range(20)]
        blocks = one_pass_clustering(profiles, 5, similarity_threshold=0.99, max_blocks=3)
        assert len(blocks) == 3
        assert sum(len(b.user_ids) for b in blocks) == 20

    def test_zero_threshold_single_block(self):
        profiles = [profile_with_categories(i, [i % 3]) for i in range(6)]
        blocks = one_pass_clustering(profiles, 3, similarity_threshold=0.0)
        # First user opens a block; everyone else joins it (sim >= 0).
        assert len(blocks) <= 2

    def test_deterministic_for_same_order(self):
        profiles = [profile_with_categories(i, [(i * 7) % 4]) for i in range(15)]
        a = one_pass_clustering(profiles, 4, similarity_threshold=0.5)
        b = one_pass_clustering(profiles, 4, similarity_threshold=0.5)
        assert [blk.user_ids for blk in a] == [blk.user_ids for blk in b]

    def test_block_universes_union_members(self):
        profiles = [
            profile_with_categories(1, [0, 0, 1], producer=3),
            profile_with_categories(2, [0, 1, 1], producer=4),
        ]
        blocks = one_pass_clustering(profiles, 2, similarity_threshold=0.3)
        assert len(blocks) == 1
        block = blocks[0]
        assert block.producer_ids == {3, 4}
        assert block.categories == {0, 1}
        assert block.entity_ids == {0, 1}

    def test_centroid_is_running_mean(self):
        profiles = [
            profile_with_categories(1, [0] * 4),
            profile_with_categories(2, [1] * 4),
        ]
        blocks = one_pass_clustering(profiles, 2, similarity_threshold=0.0)
        assert len(blocks) == 1
        np.testing.assert_allclose(blocks[0].centroid, [0.5, 0.5])

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            one_pass_clustering([], 2, similarity_threshold=2.0)
        with pytest.raises(ValueError):
            one_pass_clustering([], 2, max_blocks=0)


class TestAssignToBlock:
    def test_similar_user_joins_existing(self):
        profiles = [profile_with_categories(1, [0] * 5)]
        blocks = one_pass_clustering(profiles, 2, similarity_threshold=0.5)
        new = profile_with_categories(9, [0] * 5)
        block = assign_to_block(blocks, new, 2, similarity_threshold=0.5)
        assert block is blocks[0]
        assert 9 in block.user_ids

    def test_dissimilar_user_opens_new_block(self):
        profiles = [profile_with_categories(1, [0] * 5)]
        blocks = one_pass_clustering(profiles, 2, similarity_threshold=0.5)
        new = profile_with_categories(9, [1] * 5)
        block = assign_to_block(blocks, new, 2, similarity_threshold=0.9)
        assert block.block_id == 1
        assert len(blocks) == 2

    def test_at_cap_joins_best(self):
        profiles = [profile_with_categories(1, [0] * 5)]
        blocks = one_pass_clustering(profiles, 2, similarity_threshold=0.5)
        new = profile_with_categories(9, [1] * 5)
        block = assign_to_block(blocks, new, 2, similarity_threshold=0.9, max_blocks=1)
        assert block is blocks[0]


class TestBlockStatistics:
    def test_empty_blocks(self):
        assert block_statistics([]) == {"max_entity_num": 0, "max_producer_num": 0}

    def test_reports_worst_case_block(self):
        profiles = [
            profile_with_categories(1, [0, 1, 2], producer=1),
            profile_with_categories(2, [0], producer=2),
        ]
        blocks = one_pass_clustering(profiles, 3, similarity_threshold=0.99)
        stats = block_statistics(blocks)
        assert stats["max_entity_num"] == 3
        assert stats["max_producer_num"] == 1

    def test_blocking_reduces_universe_on_real_data(self, ytube_small):
        """Table II's qualitative claim at test scale: more blocks -> the
        worst block's universe is no larger than the single-block one."""
        from repro.eval.figures import profiles_from_dataset

        profiles = profiles_from_dataset(ytube_small)
        one = block_statistics(one_pass_clustering(profiles, ytube_small.n_categories, 0.0, 1))
        many = block_statistics(
            one_pass_clustering(profiles, ytube_small.n_categories, 0.7, 12)
        )
        assert many["max_entity_num"] <= one["max_entity_num"]
