"""Parity of the sharded serving facade with the single recommender.

The headline guarantee: ``ShardedRecommender`` results are identical
(``==`` on the ``(user_id, score)`` lists, not approximate) to the
single ``SsRecRecommender`` — scan mode under any strategy, index mode
under the block-aware plan — through static serving, micro-batches,
mid-stream updates, shard-local maintenance and new users.
"""

import dataclasses

import pytest

from repro.core.config import SsRecConfig
from repro.core.ssrec import SsRecRecommender
from repro.serve import ShardedRecommender


def _fresh(ytube_small, ytube_stream, use_index, **config_kwargs):
    rec = SsRecRecommender(
        config=SsRecConfig(**config_kwargs), use_index=use_index, seed=1
    )
    rec.fit(ytube_small, ytube_stream.training_interactions())
    return rec


def _pairs(ytube_small, ytube_stream, use_index, n_shards, strategy, **kwargs):
    """(single, sharded) twins with identical training."""
    single = _fresh(ytube_small, ytube_stream, use_index, **kwargs)
    twin = _fresh(ytube_small, ytube_stream, use_index, **kwargs)
    service = ShardedRecommender.from_trained(
        twin, n_shards=n_shards, strategy=strategy
    )
    return single, service


class TestStaticParity:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("strategy", ["hash", "block"])
    def test_scan_mode_any_strategy(
        self, ytube_small, ytube_stream, n_shards, strategy
    ):
        single, service = _pairs(
            ytube_small, ytube_stream, False, n_shards, strategy
        )
        items = ytube_stream.items_in_partition(2)[:12]
        assert all(
            service.recommend(it, 7) == single.recommend(it, 7) for it in items
        )
        assert service.recommend_batch(items, 7) == [
            single.recommend(it, 7) for it in items
        ]

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_index_mode_block_strategy(self, ytube_small, ytube_stream, n_shards):
        single, service = _pairs(ytube_small, ytube_stream, True, n_shards, "block")
        items = ytube_stream.items_in_partition(2)[:12]
        assert all(
            service.recommend(it, 7) == single.recommend(it, 7) for it in items
        )
        assert service.recommend_batch(items, 7) == [
            single.recommend(it, 7) for it in items
        ]

    def test_k_exceeding_population(self, ytube_small, ytube_stream):
        single, service = _pairs(ytube_small, ytube_stream, False, 3, "hash")
        item = ytube_stream.items_in_partition(2)[0]
        assert service.recommend(item, 10_000) == single.recommend(item, 10_000)

    def test_default_k_from_config(self, ytube_small, ytube_stream):
        _, service = _pairs(ytube_small, ytube_stream, False, 2, "hash")
        item = ytube_stream.items_in_partition(2)[0]
        assert len(service.recommend(item)) == service.config.default_k

    def test_empty_batch(self, ytube_small, ytube_stream):
        _, service = _pairs(ytube_small, ytube_stream, False, 2, "hash")
        assert service.recommend_batch([], 5) == []

    def test_threaded_fan_out_matches_sequential(self, ytube_small, ytube_stream):
        single = _fresh(ytube_small, ytube_stream, True)
        twin = _fresh(ytube_small, ytube_stream, True)
        with ShardedRecommender.from_trained(
            twin, n_shards=3, strategy="block", workers=4, backend="thread"
        ) as service:
            items = ytube_stream.items_in_partition(2)[:10]
            assert all(
                service.recommend(it, 7) == single.recommend(it, 7) for it in items
            )
            assert service.recommend_batch(items, 7) == [
                single.recommend(it, 7) for it in items
            ]
            assert service._executor is not None
        # Context exit released the pool; the service stays usable and
        # rebuilds it lazily.
        assert service._executor is None
        item = ytube_stream.items_in_partition(2)[0]
        assert service.recommend(item, 7) == single.recommend(item, 7)
        service.close()


class TestStreamingParity:
    @pytest.mark.parametrize(
        "use_index,strategy", [(False, "hash"), (False, "block"), (True, "block")]
    )
    def test_mid_stream_updates_and_maintenance(
        self, ytube_small, ytube_stream, use_index, strategy
    ):
        # Tight maintenance cadence so Algorithm 2 actually fires mid-run.
        single, service = _pairs(
            ytube_small,
            ytube_stream,
            use_index,
            3,
            strategy,
            maintenance_interval=5,
        )
        items = ytube_stream.items_in_partition(2)[:20]
        updates = ytube_stream.partitions[2][:40]
        for i, item in enumerate(items):
            for inter in updates[2 * i : 2 * i + 2]:
                payload = ytube_small.item(inter.item_id)
                single.update(inter, payload)
                service.update(inter, payload)
            single.observe_item(item)
            service.observe_item(item)
            assert service.recommend(item, 5) == single.recommend(item, 5)
            window = items[max(0, i - 3) : i + 1]
            assert service.recommend_batch(window, 5) == [
                single.recommend(it, 5) for it in window
            ]

    def test_new_user_routed_and_scored(self, ytube_small, ytube_stream):
        single, service = _pairs(ytube_small, ytube_stream, False, 3, "hash")
        inter = dataclasses.replace(ytube_stream.partitions[2][0], user_id=987654)
        payload = ytube_small.item(inter.item_id)
        single.update(inter, payload)
        service.update(inter, payload)
        # The new user exists exactly once, in its hash-routed shard, and
        # the global view aliases the same profile object.
        owning = service.shards[service.plan.shard_of(987654)]
        assert owning.profiles.get(987654) is service.profiles.get(987654)
        assert [
            s for s in service.shards if s.profiles.get(987654) is not None
        ] == [owning]
        for item in ytube_stream.items_in_partition(2)[:5]:
            assert service.recommend(item, 5) == single.recommend(item, 5)

    def test_new_user_in_index_mode_stays_served(self, ytube_small, ytube_stream):
        # Documented boundary: in index mode a brand-new mid-stream user's
        # shard-local block placement may differ from a single global
        # index's choice, so exact parity is not promised for that user —
        # but the service must keep serving exactly, absorb the user into
        # exactly one shard's index, and find them for matching queries.
        _, service = _pairs(
            ytube_small, ytube_stream, True, 3, "block", maintenance_interval=1
        )
        inter = dataclasses.replace(ytube_stream.partitions[2][0], user_id=987654)
        payload = ytube_small.item(inter.item_id)
        # Enough events to flush the short-term window, so the item's
        # entities reach the long-term list and the block universe.
        for _ in range(service.config.window_size):
            service.update(inter, payload)
        owning = service.shards[service.plan.shard_of(987654)]
        assert owning.index is not None
        assert 987654 in owning.index.block_of_user
        assert [
            s for s in service.shards if 987654 in s.index.block_of_user
        ] == [owning]
        ranked = service.recommend(payload, len(service.profiles))
        assert 987654 in [user for user, _ in ranked]

    def test_shards_inherit_runtime_maintenance_interval(
        self, ytube_small, ytube_stream
    ):
        # The facade's maintenance_interval attribute is a documented
        # runtime knob; shards must honor the tuned value, not the config
        # default, so cadence matches the unsharded deployment.
        trained = _fresh(ytube_small, ytube_stream, False)
        trained.maintenance_interval = 7
        service = ShardedRecommender.from_trained(
            trained, n_shards=2, strategy="block", use_index=True
        )
        assert [s.maintenance_interval for s in service.shards] == [7, 7]

    def test_run_maintenance_counts_refreshes(self, ytube_small, ytube_stream):
        _, service = _pairs(
            ytube_small, ytube_stream, True, 2, "block", maintenance_interval=10_000
        )
        for inter in ytube_stream.partitions[2][:10]:
            service.update(inter, ytube_small.item(inter.item_id))
        refreshed = service.run_maintenance()
        assert refreshed > 0
        assert all(not s._maintenance_pending for s in service.shards)


class TestServiceSurface:
    def test_metrics_rows(self, ytube_small, ytube_stream):
        _, service = _pairs(ytube_small, ytube_stream, False, 2, "hash")
        items = ytube_stream.items_in_partition(2)[:6]
        for item in items:
            service.recommend(item, 5)
        service.recommend_batch(items, 5)
        rows = service.metrics()
        assert [row["shard_id"] for row in rows] == [0, 1]
        for row in rows:
            assert row["queries"] == len(items)
            assert row["batches"] == 1
            assert row["items_served"] == 2 * len(items)
            assert row["p95_latency_ms"] >= row["p50_latency_ms"] >= 0.0

    def test_observe_alias(self, ytube_small, ytube_stream):
        _, service = _pairs(ytube_small, ytube_stream, False, 2, "hash")
        item = ytube_stream.items_in_partition(2)[0]
        service.observe(item)  # same entry point as observe_item

    def test_fit_classmethod(self, ytube_small, ytube_stream):
        service = ShardedRecommender.fit(
            ytube_small,
            ytube_stream.training_interactions(),
            config=SsRecConfig(n_shards=2),
            use_index=True,
            seed=1,
        )
        assert service.n_shards == 2
        assert service.use_index
        item = ytube_stream.items_in_partition(2)[0]
        assert len(service.recommend(item, 5)) == 5

    def test_requires_fitted(self, ytube_small):
        with pytest.raises(ValueError, match="fitted"):
            ShardedRecommender.from_trained(SsRecRecommender())

    def test_balance_stats_total(self, ytube_small, ytube_stream):
        _, service = _pairs(ytube_small, ytube_stream, False, 3, "block")
        stats = service.balance_stats()
        assert stats["n_users"] == len(ytube_small.consumer_ids)
