"""The one memo stage (duplicate collapse): exactness, both config
spellings, approx grouping, epoch rules, eviction accounting and the
facades' ``configure``/``stats`` verbs."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SsRecConfig
from repro.core.ssrec import SsRecRecommender
from repro.datasets.schema import SocialItem
from repro.exec.dedup import DedupState
from repro.serve.service import ShardedRecommender


def _item(item_id: int, category: int = 0, producer: int = 0, entities=(1, 2)) -> SocialItem:
    return SocialItem(
        item_id=item_id,
        category=category,
        producer=producer,
        entities=tuple(entities),
        text="",
        timestamp=float(item_id),
    )


def _near_duplicate(item: SocialItem, *, item_id: int, producer: int | None = None,
                    entities=None) -> SocialItem:
    """A fresh-id re-upload of ``item`` with optionally jittered fields."""
    return SocialItem(
        item_id=item_id,
        category=item.category,
        producer=item.producer if producer is None else producer,
        entities=item.entities if entities is None else tuple(entities),
        text=item.text,
        timestamp=item.timestamp,
    )


class TestDedupStateUnit:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="mode"):
            DedupState("off")
        with pytest.raises(ValueError, match="threshold"):
            DedupState("approx", threshold=0.0)
        with pytest.raises(ValueError, match="max_groups"):
            DedupState("exact", max_groups=0)

    def test_exact_store_lookup_roundtrip(self):
        state = DedupState("exact")
        key = state.exact_key(_item(1), [(1, 0.5)], 5, epoch=0)
        assert state.lookup_exact(key) is None
        state.store_exact(key, [(3, 0.5), (1, 0.25)])
        assert state.lookup_exact(key) == [(3, 0.5), (1, 0.25)]
        assert state.stats.collapsed == 1 and state.stats.groups == 1

    def test_exact_hits_return_copies(self):
        state = DedupState("exact")
        key = state.exact_key(_item(1), [(1, 0.5)], 5, epoch=0)
        state.store_exact(key, [(3, 0.5)])
        first = state.lookup_exact(key)
        first.append((999, -1.0))
        assert state.lookup_exact(key) == [(3, 0.5)]

    def test_exact_key_partitions(self):
        """Same declared entities, different resolved expansion / k /
        epoch / producer / category — all distinct keys."""
        state = DedupState("exact")
        base = state.exact_key(_item(1), [(1, 0.5)], 5, epoch=0)
        state.store_exact(base, [(3, 0.5)])
        assert state.lookup_exact(
            state.exact_key(_item(1), [(1, 0.75)], 5, epoch=0)) is None
        assert state.lookup_exact(
            state.exact_key(_item(1), [(1, 0.5)], 6, epoch=0)) is None
        assert state.lookup_exact(
            state.exact_key(_item(1), [(1, 0.5)], 5, epoch=1)) is None
        assert state.lookup_exact(
            state.exact_key(_item(1, producer=9), [(1, 0.5)], 5, epoch=0)) is None
        assert state.lookup_exact(
            state.exact_key(_item(1, category=3), [(1, 0.5)], 5, epoch=0)) is None
        # ...but a *different id* with the same scorer inputs is a hit.
        assert state.lookup_exact(
            state.exact_key(_item(42), [(1, 0.5)], 5, epoch=0)) == [(3, 0.5)]

    def test_exact_lru_eviction(self):
        state = DedupState("exact", max_groups=2)
        keys = [state.exact_key(_item(i), [(i, 1.0)], 5, epoch=0) for i in range(3)]
        for i, key in enumerate(keys):
            state.store_exact(key, [(i, 0.0)])
        assert state.stats.evictions == 1
        assert state.lookup_exact(keys[0]) is None  # oldest retired
        assert state.lookup_exact(keys[2]) == [(2, 0.0)]

    def test_exact_key_takes_the_frozen_expansion_as_is(self):
        """The scorer hands out one tuple per item id; the key must hold
        that very object (no per-pair copy on the hit path) and still
        equal the key built from a list of the same pairs."""
        frozen = ((1, 1.0), (2, 0.5))
        key = DedupState.exact_key(_item(1), frozen, 5, epoch=0)
        assert key[2] is frozen
        assert key == DedupState.exact_key(_item(2), list(frozen), 5, epoch=0)

    def test_approx_collapse_and_false_merge_accounting(self):
        state = DedupState("approx", threshold=0.6)
        state.sync_epoch(0)
        founder, collapsed = state.group_for(_item(1, entities=(1, 2, 3)), 5)
        assert not collapsed
        founder.ranked = [(7, 1.0)]
        # Jaccard 3/4 >= 0.6, same category: collapses (producer differs).
        group, collapsed = state.group_for(
            _item(2, producer=9, entities=(1, 2, 3, 4)), 5)
        assert collapsed and group is founder
        # Jaccard 1/5 < 0.6: LSH may candidate it, but the verifier must
        # reject — either way it founds its own group.
        _, collapsed = state.group_for(_item(3, entities=(3, 10, 11)), 5)
        assert not collapsed
        assert state.stats.collapsed == 1
        assert state.stats.groups == 2

    def test_approx_category_mismatch_never_merges(self):
        state = DedupState("approx", threshold=0.5)
        state.sync_epoch(0)
        state.group_for(_item(1, category=0, entities=(1, 2, 3)), 5)
        _, collapsed = state.group_for(_item(2, category=1, entities=(1, 2, 3)), 5)
        assert not collapsed
        assert state.stats.false_merge_checks >= 1

    def test_approx_k_mismatch_not_a_usable_result(self):
        state = DedupState("approx", threshold=0.5)
        state.sync_epoch(0)
        state.group_for(_item(1, entities=(1, 2, 3)), 5)
        _, collapsed = state.group_for(_item(2, entities=(1, 2, 3)), 6)
        assert not collapsed  # identical content, different cut depth

    def test_epoch_move_drops_groups_keeps_counters(self):
        state = DedupState("approx", threshold=0.5)
        state.sync_epoch(0)
        state.group_for(_item(1, entities=(1, 2, 3)), 5)
        state.group_for(_item(2, entities=(1, 2, 3)), 5)
        assert state.stats.collapsed == 1
        state.sync_epoch(1)
        assert len(state) == 0
        _, collapsed = state.group_for(_item(3, entities=(1, 2, 3)), 5)
        assert not collapsed  # pre-epoch representative is gone
        assert state.stats.collapsed == 1  # counters describe the run

    def test_generation_reset_bounds_group_store(self):
        state = DedupState("approx", threshold=0.99, max_groups=4)
        state.sync_epoch(0)
        for i in range(9):
            state.group_for(_item(i, entities=(100 * i, 100 * i + 1)), 5)
        assert len(state) <= 4
        # Two generation resets of four groups each; an epoch move drops
        # the ninth but is an invalidation, not an eviction.
        assert state.stats.evictions == 8
        state.sync_epoch(1)
        assert len(state) == 0 and state.stats.evictions == 8


#: The two config spellings of the exact memo stage; they must compile to
#: the same plan and behave identically.
SPELLINGS = {"result_cache": {"result_cache": True}, "dedup_exact": {"dedup": "exact"}}


@pytest.fixture(scope="module")
def scan_template(ytube_small, ytube_stream):
    """One scan-mode fit per module; tests serve through deepcopies only,
    so its expansion memo stays cold."""
    rec = SsRecRecommender(config=SsRecConfig(), use_index=False, seed=1)
    return rec.fit(ytube_small, ytube_stream.training_interactions())


@pytest.fixture(params=sorted(SPELLINGS))
def spelling(request):
    return SPELLINGS[request.param]


@pytest.fixture()
def dedup_pair(scan_template, spelling):
    """(anchor, exact-memo) twins of one scan-mode fit, the memo twin
    configured through one of the two spellings."""
    return copy.deepcopy(scan_template), copy.deepcopy(scan_template).configure(**spelling)


class _SpyStage:
    """Wraps one compiled stage and records the item ids that reach it."""

    def __init__(self, inner, seen):
        self.inner = inner
        self.seen = seen

    def run_item(self, ctx):
        self.seen.extend(item.item_id for item in ctx.items)
        self.inner.run_item(ctx)

    def run_batch(self, ctx):
        self.seen.extend(item.item_id for item in ctx.items)
        self.inner.run_batch(ctx)


class TestExactDedupServing:
    def test_both_spellings_compile_the_same_plan(self, dedup_pair):
        anchor, dedup = dedup_pair
        assert anchor.executor().plan.name == "scan-item"
        assert anchor.stats() == {"plan": "scan-item", "dedup": None}
        assert dedup.executor().plan.name == "scan-item-dedup"
        assert dedup.stats()["dedup"]["groups"] == 0

    def test_result_cache_is_a_noop_beside_an_explicit_dedup_axis(self, scan_template):
        rec = copy.deepcopy(scan_template)
        rec.configure(result_cache=True, dedup="exact")
        assert rec.executor().plan.name == "scan-item-dedup"
        rec.configure(dedup="approx")
        assert rec.executor().plan.name == "scan-item-dedup-approx"
        rec.configure(dedup="off", result_cache=False)
        assert rec.executor().plan.name == "scan-item"

    def test_config_fields_at_construction(self, ytube_small, ytube_stream, spelling):
        rec = SsRecRecommender(
            config=SsRecConfig(result_cache_size=32, **spelling), use_index=False, seed=1
        )
        rec.fit(ytube_small, ytube_stream.training_interactions())
        assert rec.executor().plan.name == "scan-item-dedup"
        assert rec.executor().dedup_state.max_groups == 32

    def test_redelivered_id_hits_bit_identically(self, dedup_pair, ytube_small):
        anchor, dedup = dedup_pair
        item = ytube_small.items[0]
        first = dedup.recommend(item, 7)
        again = dedup.recommend(item, 7)
        assert again == first == anchor.recommend(item, 7)
        again.append((999, -1.0))  # hits are copies: the memo is unharmed
        assert dedup.recommend(item, 7) == first
        stats = dedup.stats()["dedup"]
        assert stats["collapsed"] == 2 and stats["groups"] == 1

    def test_redelivered_id_never_reaches_the_score_stage(
        self, dedup_pair, ytube_small, ytube_stream
    ):
        """Between two mutations a redelivered item id is served from the
        memo: the wrapped score stage sees each id once per epoch, on
        both entry points."""
        _, dedup = dedup_pair
        memo_op = dedup.executor().ops[-1]
        seen: list[int] = []
        memo_op.inner[0] = _SpyStage(memo_op.inner[0], seen)
        a, b = ytube_small.items[0], ytube_small.items[1]
        dedup.recommend(a, 7)
        dedup.recommend(a, 7)
        dedup.recommend_batch([a, b, a], 7)
        dedup.observe_item(ytube_small.items[2])  # not a mutation
        dedup.recommend(b, 7)
        assert seen == [a.item_id, b.item_id]
        inter = ytube_stream.partitions[2][0]
        dedup.update(inter, ytube_small.item(inter.item_id))  # epoch moves
        dedup.recommend(a, 7)
        dedup.recommend_batch([a, a], 7)
        assert seen == [a.item_id, b.item_id, a.item_id]

    def test_fresh_id_same_content_collapses_bit_identically(
        self, dedup_pair, ytube_small
    ):
        """A different item id carrying the same category / producer /
        entities, first expanded at the same expander state."""
        anchor, dedup = dedup_pair
        item = ytube_small.items[0]
        reupload = _near_duplicate(item, item_id=10_000 + item.item_id)
        for rec in (anchor, dedup):
            rec.observe_item(reupload)
        first = dedup.recommend(item, 7)
        again = dedup.recommend(reupload, 7)
        assert again == first == anchor.recommend(reupload, 7)
        stats = dedup.stats()["dedup"]
        assert stats["collapsed"] == 1 and stats["groups"] == 1

    def test_update_invalidates(self, dedup_pair, ytube_small, ytube_stream):
        anchor, dedup = dedup_pair
        item = ytube_small.items[0]
        dedup.recommend(item, 7)
        inter = ytube_stream.partitions[2][0]
        for rec in (anchor, dedup):
            rec.update(inter, ytube_small.item(inter.item_id))
        assert dedup.recommend(item, 7) == anchor.recommend(item, 7)
        stats = dedup.stats()["dedup"]
        assert stats["collapsed"] == 0 and stats["groups"] == 2  # post-update recompute

    def test_maintenance_flush_invalidates(self, ytube_small, ytube_stream, spelling):
        rec = SsRecRecommender(config=SsRecConfig(**spelling), use_index=True, seed=1)
        rec.fit(ytube_small, ytube_stream.training_interactions())
        assert rec.executor().plan.name == "index-item-dedup"
        item = ytube_small.items[0]
        rec.recommend(item, 7)
        rec.run_maintenance()
        rec.recommend(item, 7)
        stats = rec.stats()["dedup"]
        assert stats["collapsed"] == 0 and stats["groups"] == 2

    def test_observe_does_not_invalidate(self, dedup_pair, ytube_small):
        """Uploads advance producer/expander state but cannot move the
        score of an already-queried item against unchanged profiles —
        redelivered items legally hit across interleaved uploads."""
        anchor, dedup = dedup_pair
        item, other = ytube_small.items[0], ytube_small.items[1]
        first = dedup.recommend(item, 7)
        for rec in (anchor, dedup):
            rec.observe_item(other)
        assert dedup.recommend(item, 7) == first == anchor.recommend(item, 7)
        assert dedup.stats()["dedup"]["collapsed"] == 1

    def test_batch_collapses_within_window(self, dedup_pair, ytube_small):
        anchor, dedup = dedup_pair
        a, b = ytube_small.items[0], ytube_small.items[1]
        window = [a, b, _near_duplicate(a, item_id=9_001), a, b]
        for rec in (anchor, dedup):
            rec.observe_item(window[2])
        assert dedup.recommend_batch(window, 6) == anchor.recommend_batch(window, 6)
        assert dedup.stats()["dedup"]["groups"] == 2  # one compute per content

    def test_interleaved_stream_parity(self, dedup_pair, ytube_small, ytube_stream):
        anchor, dedup = dedup_pair
        items = ytube_stream.items_in_partition(2)[:8]
        updates = ytube_stream.partitions[2][:16]
        for i, item in enumerate(items):
            for inter in updates[2 * i : 2 * i + 2]:
                payload = ytube_small.item(inter.item_id)
                anchor.update(inter, payload)
                dedup.update(inter, payload)
            window = [item, items[0], item]  # redeliveries mixed in
            assert [dedup.recommend(it, 5) for it in window] == [
                anchor.recommend(it, 5) for it in window
            ]
            assert dedup.recommend_batch(window, 5) == anchor.recommend_batch(window, 5)

    def test_tiny_memo_evicts_and_stays_exact(self, scan_template, ytube_small, spelling):
        """``result_cache_size`` bounds the memo; what it crowds out is
        counted in ``evictions`` and exported as ``dedup.evictions``."""
        anchor = copy.deepcopy(scan_template)
        dedup = copy.deepcopy(scan_template).configure(result_cache_size=2, **spelling)
        items = ytube_small.items[:5]
        assert [dedup.recommend(it, 6) for it in items] == [
            anchor.recommend(it, 6) for it in items
        ]
        # A window wider than the memo: in-window duplicates still resolve.
        window = [*items, *items]
        assert dedup.recommend_batch(window, 6) == anchor.recommend_batch(window, 6)
        assert len(dedup.executor().dedup_state) == 2
        evictions = dedup.stats()["dedup"]["evictions"]
        assert evictions >= 3
        exported = {
            metric["name"]: metric["value"]
            for metric in dedup.obs_registry().to_dict()["counters"]
        }
        assert exported["dedup.evictions"] == evictions

    def test_snapshot_keeps_setting_drops_memo(self, dedup_pair, ytube_small, tmp_path):
        anchor, dedup = dedup_pair
        item = ytube_small.items[0]
        dedup.recommend(item, 7)
        dedup.save(tmp_path / "snap")
        restored = SsRecRecommender.load(tmp_path / "snap")
        assert restored.config == dedup.config
        assert restored.executor().plan.name == "scan-item-dedup"
        stats = restored.stats()["dedup"]
        assert stats["collapsed"] == 0 and stats["groups"] == 0  # memo starts cold
        assert restored.recommend(item, 7) == anchor.recommend(item, 7)

    def test_obs_registry_exposes_collapse_counters(self, dedup_pair, ytube_small):
        _, dedup = dedup_pair
        item = ytube_small.items[0]
        dedup.recommend(item, 7)
        dedup.recommend(_near_duplicate(item, item_id=9_003), 7)
        dump = dedup.obs_registry().to_dict()
        counters = {metric["name"] for metric in dump["counters"]}
        gauges = {metric["name"] for metric in dump["gauges"]}
        assert {"dedup.collapsed", "dedup.groups", "dedup.evictions"} <= counters
        assert "dedup.collapse_rate" in gauges
        assert not any(name.startswith("cache.") for name in counters | gauges)


class TestConfigure:
    def test_unknown_and_non_serving_fields_raise(self, scan_template):
        rec = copy.deepcopy(scan_template)
        before = rec.config
        with pytest.raises(ValueError, match="serving fields only.*fuzzy"):
            rec.configure(fuzzy=True)
        # A real config field, but baked into trained state at fit time.
        with pytest.raises(ValueError, match="serving fields only.*window_size"):
            rec.configure(dedup="exact", window_size=9)
        assert rec.config is before  # a rejected call changes nothing

    @pytest.mark.parametrize(
        "axes, match",
        [
            ({"dedup": "fuzzy"}, "dedup"),
            ({"scoring": "gpu"}, "scoring"),
            ({"result_cache_size": 0}, "result_cache_size"),
            ({"dedup_threshold": 0.0}, "dedup_threshold"),
            ({"dedup_bands": 0}, "dedup_bands"),
        ],
    )
    def test_invalid_values_raise(self, scan_template, axes, match):
        rec = copy.deepcopy(scan_template)
        before = rec.config
        with pytest.raises(ValueError, match=match):
            rec.configure(**axes)
        assert rec.config is before

    def test_plan_recompiles_with_a_cold_memo(self, scan_template, ytube_small):
        rec = copy.deepcopy(scan_template).configure(dedup="exact")
        item = ytube_small.items[0]
        rec.recommend(item, 7)
        rec.recommend(item, 7)
        compiled = rec.executor()
        assert rec.stats()["dedup"]["collapsed"] == 1
        assert rec.configure(dedup_threshold=0.8) is rec  # chains
        assert rec.executor() is not compiled
        assert rec.config.dedup == "exact" and rec.config.dedup_threshold == 0.8
        assert rec.stats() == {
            "plan": "scan-item-dedup",
            "dedup": {"collapsed": 0, "groups": 0, "false_merge_checks": 0,
                      "evictions": 0, "collapse_rate": 0.0},
        }

    def test_config_is_what_replicas_read(self, scan_template):
        """No shadow attributes: a deepcopy (the conformance runner's
        replica) carries the configured axes in ``config`` alone."""
        rec = copy.deepcopy(scan_template).configure(dedup="exact", scoring="native")
        replica = copy.deepcopy(rec)
        assert replica.config == rec.config
        assert replica.executor().plan.name == "scan-item-native-dedup"

    def test_shard_scoring_follows(self, scan_template, ytube_small):
        with ShardedRecommender.from_trained(
            copy.deepcopy(scan_template), n_shards=2, strategy="hash"
        ) as service:
            assert all(shard._scoring == "vectorized" for shard in service.shards)
            service.configure(scoring="native", dedup="exact")
            assert all(shard._scoring == "native" for shard in service.shards)
            assert service.config.scoring == "native"
            assert service.trained.config == service.config
            assert service.executor().plan.scoring == "native"
            assert service.executor().plan.dedup == "exact"
            with pytest.raises(ValueError, match="serving fields only"):
                service.configure(n_shards=3)
            with pytest.raises(ValueError, match="scoring"):
                service.configure(scoring="gpu")
            assert all(shard._scoring == "native" for shard in service.shards)
            service.configure(scoring="vectorized")
            assert all(shard._scoring == "vectorized" for shard in service.shards)
            item = ytube_small.items[0]
            # (a copy: serving through the shared template would freeze
            # this item's expansion for every later test's replicas)
            assert service.recommend(item, 6) == copy.deepcopy(scan_template).recommend(item, 6)


class TestApproxDedupServing:
    def test_near_duplicate_collapses_onto_representative(
        self, ytube_small, ytube_stream
    ):
        rec = SsRecRecommender(config=SsRecConfig(), use_index=False, seed=1)
        rec.fit(ytube_small, ytube_stream.training_interactions())
        rec.configure(dedup="approx")
        assert rec.executor().plan.name == "scan-item-dedup-approx"
        item = next(it for it in ytube_small.items if len(it.entities) >= 3)
        jittered = _near_duplicate(
            item, item_id=9_100, entities=item.entities + (max(item.entities) + 1,)
        )
        rec.observe_item(jittered)
        first = rec.recommend(item, 7)
        assert rec.recommend(jittered, 7) == first  # representative's list
        stats = rec.stats()["dedup"]
        assert stats["collapsed"] == 1 and stats["groups"] == 1

    def test_within_window_members_resolve_after_founder(
        self, ytube_small, ytube_stream
    ):
        rec = SsRecRecommender(config=SsRecConfig(), use_index=False, seed=1)
        rec.fit(ytube_small, ytube_stream.training_interactions())
        rec.configure(dedup="approx")
        item = next(it for it in ytube_small.items if len(it.entities) >= 3)
        jittered = _near_duplicate(
            item, item_id=9_101, entities=item.entities + (max(item.entities) + 1,)
        )
        rec.observe_item(jittered)
        ranked = rec.recommend_batch([item, jittered, item], 6)
        assert ranked[1] == ranked[0] and ranked[2] == ranked[0]
        assert rec.stats()["dedup"]["groups"] == 1

    def test_update_drops_group_store(self, ytube_small, ytube_stream):
        rec = SsRecRecommender(config=SsRecConfig(), use_index=False, seed=1)
        rec.fit(ytube_small, ytube_stream.training_interactions())
        rec.configure(dedup="approx")
        item = ytube_small.items[0]
        rec.recommend(item, 7)
        inter = ytube_stream.partitions[2][0]
        rec.update(inter, ytube_small.item(inter.item_id))
        rec.recommend(item, 7)
        stats = rec.stats()["dedup"]
        assert stats["collapsed"] == 0 and stats["groups"] == 2


class TestShardedDedup:
    def test_sharded_dedup_parity_and_stats(self, scan_template, ytube_small, spelling):
        # A private copy: this test observes an item, and the collapse
        # assertion needs a cold expansion memo — a shared recommender may
        # have frozen items[0]'s expansion pre-drift.
        anchor = copy.deepcopy(scan_template)
        with ShardedRecommender.from_trained(
            copy.deepcopy(scan_template), n_shards=2, strategy="hash"
        ) as service:
            assert service.stats() == {"plan": "sharded-scan-hash", "dedup": None}
            service.configure(**spelling)
            assert service.executor().plan.name == "sharded-scan-hash-dedup"
            item = ytube_small.items[0]
            reupload = _near_duplicate(item, item_id=9_200)
            for rec in (anchor, service):
                rec.observe_item(reupload)
            first = service.recommend(item, 6)
            assert service.recommend(item, 6) == first == anchor.recommend(item, 6)
            assert service.recommend(reupload, 6) == first
            assert service.stats()["dedup"]["collapsed"] == 2


class TestExactDedupBitParityProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        serves=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),  # item index
                st.sampled_from(["serve", "reupload", "update"]),
            ),
            min_size=1,
            max_size=12,
        ),
        k=st.integers(min_value=1, max_value=9),
    )
    def test_any_interleaving_is_bit_identical(
        self, fitted_ssrec, ytube_small, ytube_stream, serves, k
    ):
        """Exact mode's contract, property-tested: under arbitrary
        interleavings of serves, fresh-id re-uploads and profile updates,
        deduplicated output equals the anchor's bit for bit."""
        anchor = copy.deepcopy(fitted_ssrec)
        dedup = copy.deepcopy(fitted_ssrec).configure(dedup="exact")
        updates = ytube_stream.partitions[2]
        next_id = max(it.item_id for it in ytube_small.items) + 1
        for step, (index, action) in enumerate(serves):
            item = ytube_small.items[index]
            if action == "update":
                inter = updates[step % len(updates)]
                payload = ytube_small.item(inter.item_id)
                anchor.update(inter, payload)
                dedup.update(inter, payload)
                continue
            if action == "reupload":
                item = _near_duplicate(item, item_id=next_id)
                next_id += 1
                anchor.observe_item(item)
                dedup.observe_item(item)
            assert dedup.recommend(item, k) == anchor.recommend(item, k)
