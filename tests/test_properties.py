"""Cross-cutting property-based tests (hypothesis) on core invariants.

Each class targets one load-bearing contract of the system with randomized
inputs: hash-table behaviour against a dict model, query-signature
linearity, partition-protocol conservation laws, and synthesizer support
constraints.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.schema import Dataset, Interaction, SocialItem
from repro.datasets.partitions import partition_interactions
from repro.datasets.synthpop import SynthpopSynthesizer
from repro.core.config import SsRecConfig
from repro.exec import PLAN_REGISTRY
from repro.exec.dedup import DedupState
from repro.index.hashing import ChainedHashTable
from repro.index.signature import BlockUniverse, QuerySignature
from repro.serve.sharding import merge_top_k
from repro.serve.shmem import ShardPublisher, attach_state, publish_state


class TestHashTableModel:
    """The chained hash table must behave exactly like a dict keyed by
    (category, entity) regardless of bucket pressure."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),    # category
                st.integers(min_value=0, max_value=30),   # entity
                st.integers(min_value=0, max_value=3),    # block
            ),
            min_size=0,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=8),            # bucket count
    )
    def test_matches_dict_model(self, operations, n_buckets):
        table = ChainedHashTable(n_buckets=n_buckets)
        model: dict[tuple[int, int], dict[int, str]] = {}
        for category, entity, block in operations:
            tree = f"tree-{category}-{entity}-{block}"
            table.insert(category, entity, block, tree)
            model.setdefault((category, entity), {})[block] = tree
        for (category, entity), expected in model.items():
            assert table.lookup(category, entity) == expected
        assert len(table) == len(model)
        assert sum(table.chain_lengths()) == len(model)


class TestQuerySignatureLinearity:
    """entity_sum must be linear in the weights and in the impact list."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.floats(min_value=0.01, max_value=2.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_scaling_weights_scales_sum(self, weighted):
        universe = BlockUniverse([0], range(10), slack=0.2)
        item = SocialItem(0, 0, 0, (), "", 0.0)
        rng = np.random.default_rng(0)
        p_entity = rng.random(universe.entity_capacity)
        floor = 0.001
        single = QuerySignature.encode(item, weighted, universe, 0)
        doubled = QuerySignature.encode(
            item, [(e, 2 * w) for e, w in weighted], universe, 0
        )
        assert doubled.entity_sum(p_entity, floor) == pytest.approx(
            2 * single.entity_sum(p_entity, floor)
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=50))
    def test_out_of_universe_entities_hit_the_floor(self, entity):
        universe = BlockUniverse([0], range(10), slack=0.0)
        item = SocialItem(0, 0, 0, (), "", 0.0)
        query = QuerySignature.encode(item, [(entity, 1.0)], universe, 0)
        p_entity = np.full(universe.entity_capacity, 0.7)
        value = query.entity_sum(p_entity, floor_entity=0.001)
        if universe.entity_slot(entity) is None:
            assert value == pytest.approx(0.001)
        else:
            assert value == pytest.approx(0.7)


def _dataset_from_times(times):
    items = [SocialItem(0, 0, 0, (), "", 0.0)]
    interactions = [
        Interaction(user_id=1, item_id=0, category=0, producer=0, timestamp=t)
        for t in times
    ]
    return Dataset(
        name="prop",
        n_categories=1,
        items=items,
        interactions=interactions,
        entity_names=[],
        producer_ids=[0],
        consumer_ids=[1],
    )


class TestPartitionConservation:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=6,
            max_size=120,
        ),
        st.integers(min_value=2, max_value=6),
    )
    def test_every_interaction_in_exactly_one_partition(self, times, n_partitions):
        dataset = _dataset_from_times(times)
        stream = partition_interactions(dataset, n_partitions=n_partitions, n_train=1)
        total = sum(len(p) for p in stream.partitions)
        assert total == len(times)
        # Partitions ordered, near-even, and globally time-sorted.
        sizes = [len(p) for p in stream.partitions]
        assert max(sizes) - min(sizes) <= len(times)  # sanity
        flattened = [i.timestamp for p in stream.partitions for i in p]
        assert flattened == sorted(flattened)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=10,
            max_size=60,
        )
    )
    def test_protocol_steps_monotone_training_growth(self, times):
        dataset = _dataset_from_times(times)
        stream = partition_interactions(dataset, n_partitions=5, n_train=2)
        steps = stream.protocol_steps()
        for (train_a, test_a), (train_b, test_b) in zip(steps, steps[1:]):
            assert test_b == test_a + 1
            assert train_b[: len(train_a)] == train_a


#: Scores drawn from a small pool on purpose: collisions across users and
#: shards must be common so the (-score, user_id) tie-break carries real
#: weight in every example.
_COLLIDING_SCORES = st.one_of(
    st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 0.25, 1.0]),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)


class TestMergeTopKTieBreaking:
    """Merged sharded order must equal the global (-score, user_id) sort
    for arbitrary partitions and arbitrary score collisions."""

    @settings(max_examples=80, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=80),   # user id (deduped)
                _COLLIDING_SCORES,                         # score
                st.integers(min_value=0, max_value=4),    # owning shard
            ),
            max_size=60,
        ),
        k=st.integers(min_value=0, max_value=12),
    )
    def test_merge_equals_global_sort(self, entries, k):
        population: dict[int, tuple[float, int]] = {}
        for user_id, score, shard in entries:
            population.setdefault(user_id, (score, shard))
        per_shard: dict[int, list[tuple[int, float]]] = {}
        for user_id, (score, shard) in population.items():
            per_shard.setdefault(shard, []).append((user_id, score))
        # Each shard contributes its exact local top-k, the contract the
        # matcher and the CPPse-index both honour.
        shard_lists = [
            sorted(ranked, key=lambda pair: (-pair[1], pair[0]))[:k]
            for ranked in per_shard.values()
        ]
        merged = merge_top_k(shard_lists, k)
        global_rank = sorted(
            ((uid, score) for uid, (score, _) in population.items()),
            key=lambda pair: (-pair[1], pair[0]),
        )[:k]
        assert merged == global_rank

    @settings(max_examples=40, deadline=None)
    @given(
        user_ids=st.lists(
            st.integers(min_value=0, max_value=200), min_size=1, max_size=40, unique=True
        ),
        k=st.integers(min_value=1, max_value=10),
        n_shards=st.integers(min_value=1, max_value=5),
    )
    def test_all_tied_scores_rank_by_user_id(self, user_ids, k, n_shards):
        """Total score collision: the merge must fall back to pure
        ascending-user-id order, whatever the partition."""
        shard_lists = [[] for _ in range(n_shards)]
        for uid in user_ids:
            shard_lists[uid % n_shards].append((uid, 0.125))
        shard_lists = [
            sorted(ranked, key=lambda pair: (-pair[1], pair[0]))[:k]
            for ranked in shard_lists
        ]
        merged = merge_top_k(shard_lists, k)
        assert merged == [(uid, 0.125) for uid in sorted(user_ids)[:k]]


class TestSynthesizerSupport:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_samples_stay_within_observed_support(self, rows):
        """The synthesizer can only emit values it saw during fit."""
        records = [{"a": a, "b": b} for a, b in rows]
        synth = SynthpopSynthesizer(["a", "b"], max_context=1).fit(records)
        seen_a = {r["a"] for r in records}
        seen_b = {r["b"] for r in records}
        for sample in synth.sample(30, seed=1):
            assert sample["a"] in seen_a
            assert sample["b"] in seen_b

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_int_seed_and_generator_seed_agree(self, rows, seed):
        """An explicit Generator threads through sample() identically to
        the int seed it was built from (the one-seed reproducibility
        contract of the simulator and the bench harness)."""
        records = [{"a": a, "b": b} for a, b in rows]
        synth = SynthpopSynthesizer(["a", "b"], max_context=1).fit(records)
        assert synth.sample(10, seed=seed) == synth.sample(
            10, seed=np.random.default_rng(seed)
        )


class TestPlanRegistryRoundTrip:
    """Every registered, config-derivable plan survives the config
    serialization round trip: applying the plan's config overrides,
    serializing through ``to_dict``/``from_dict`` and re-deriving from the
    registry must land on the very same plan name (the contract snapshots
    and experiment manifests rely on)."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(PLAN_REGISTRY.names()))
    def test_config_round_trip_rederives_plan(self, name):
        plan = PLAN_REGISTRY.get(name)
        if not plan.config_derivable:  # oracle plans have no config spelling
            return
        config = SsRecConfig().with_options(**plan.config_overrides())
        restored = SsRecConfig.from_dict(config.to_dict())
        assert restored == config
        derived = PLAN_REGISTRY.for_config(
            restored, use_index=plan.uses_index, batching=plan.batching
        )
        assert derived.name == plan.name
        assert derived.axes() == plan.axes()


class TestMemoEpochInvalidation:
    """Memo hits never survive an epoch bump: whatever sequence of
    stores and epoch advances happens, a key minted at the current epoch
    can only hit entries stored at that same epoch — the invariant that
    makes Algorithm-2 maintenance flushes (and profile updates, which
    both bump the facade epoch) wipe the ``*-dedup`` plans' memo."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),   # item id served
                st.booleans(),                           # flush after serving?
            ),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=1, max_value=8),           # memo capacity
    )
    def test_hits_never_survive_a_flush(self, events, capacity):
        memo = DedupState("exact", max_groups=capacity)
        epoch = 0
        stored_epoch: dict[int, int] = {}  # item id -> epoch last stored at
        for item_id, flush in events:
            item = SocialItem(
                item_id=item_id, category=0, producer=0,
                entities=(1,), text="", timestamp=0.0,
            )
            key = memo.exact_key(item, ((item_id, 1.0),), 5, epoch)
            hit = memo.lookup_exact(key)
            if hit is not None:
                # A hit is only legal when the entry was stored in the
                # *current* epoch, i.e. no flush intervened.
                assert stored_epoch.get(item_id) == epoch
                assert hit == [(item_id, 0.0)]
            else:
                memo.store_exact(key, [(item_id, 0.0)])
                stored_epoch[item_id] = epoch
            if flush:
                epoch += 1  # what run_maintenance()/update() do

    def test_facade_flush_invalidates_end_to_end(self, fresh_ssrec_indexed, ytube_small):
        """The non-randomized end of the same contract, through the real
        facade: a maintenance flush orphans every memoized entry."""
        rec = fresh_ssrec_indexed.configure(result_cache=True)
        item = ytube_small.items[0]
        rec.recommend(item, 5)
        rec.recommend(item, 5)
        assert rec.stats()["dedup"]["collapsed"] == 1
        rec.run_maintenance()
        rec.recommend(item, 5)
        assert rec.stats()["dedup"]["collapsed"] == 1  # no new hit after flush
        assert rec.stats()["dedup"]["groups"] == 2


_SHMEM_DTYPES = st.sampled_from(
    ["float64", "float32", "int64", "int32", "uint16", "uint8", "bool"]
)


@st.composite
def _shmem_states(draw):
    """A pickleable state graph mixing scalars with numpy arrays of drawn
    dtypes and shapes (including empty arrays and 2-D layouts)."""
    state = {"tag": draw(st.integers(min_value=0, max_value=10_000))}
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        dtype = np.dtype(draw(_SHMEM_DTYPES))
        shape = tuple(
            draw(st.lists(st.integers(min_value=0, max_value=7),
                          min_size=1, max_size=2))
        )
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
        if dtype.kind == "f":
            array = rng.standard_normal(shape).astype(dtype)
        elif dtype.kind == "b":
            array = rng.random(shape) < 0.5
        else:
            array = rng.integers(0, 200, size=shape).astype(dtype)
        state[f"arr{i}"] = array
    return state


class TestShmemPublishRoundTrip:
    """publish_state/attach_state is a bitwise-faithful, zero-copy codec:
    whatever array dtypes and shapes go in, byte-identical read-only
    views come out of the mapped segment."""

    @staticmethod
    def _assert_bitwise(attached, original):
        assert set(attached) == set(original)
        for key, value in original.items():
            got = attached[key]
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype and got.shape == value.shape
                assert got.tobytes() == value.tobytes()
                if got.nbytes:
                    assert not got.flags.owndata      # aliases the segment
                    assert not got.flags.writeable    # torn-write protection
            else:
                assert got == value

    @settings(max_examples=25, deadline=None)
    @given(state=_shmem_states(), epoch=st.integers(min_value=1, max_value=10**6))
    def test_round_trip_bitwise_equal(self, state, epoch):
        manifest, shm = publish_state(state, epoch=epoch)
        try:
            attachment = attach_state(manifest)
            try:
                assert attachment.manifest == manifest
                self._assert_bitwise(attachment.state, state)
            finally:
                attachment.close()
        finally:
            shm.close()
            shm.unlink()

    def test_matcher_state_arrays_round_trip(self, fitted_ssrec):
        """The non-randomized end of the contract: the real matcher's
        live arrays survive the segment codec bit-for-bit."""
        state = dict(fitted_ssrec.matcher.state_arrays())
        manifest, shm = publish_state(state, epoch=1)
        try:
            attachment = attach_state(manifest)
            try:
                self._assert_bitwise(attachment.state, state)
            finally:
                attachment.close()
        finally:
            shm.close()
            shm.unlink()


class TestShmemEpochProtocol:
    """Interleaved publishes across shards: per-shard epochs are strictly
    monotone, and a reader attached to the previous epoch still sees its
    complete old state after a republish retires the segment under it —
    copy-on-publish means no torn reads, ever."""

    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),          # shard id
                st.integers(min_value=0, max_value=2**31 - 1),  # state seed
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_monotone_epochs_and_no_torn_reads(self, ops):
        publisher = ShardPublisher()
        held: dict[int, tuple[object, np.ndarray]] = {}  # shard -> (attachment, copy)
        try:
            last_epoch: dict[int, int] = {}
            for shard_id, seed in ops:
                array = np.random.default_rng(seed).standard_normal(8)
                manifest = publisher.publish(shard_id, {"arr": array})
                assert manifest.epoch == last_epoch.get(shard_id, 0) + 1
                assert publisher.epoch(shard_id) == manifest.epoch
                last_epoch[shard_id] = manifest.epoch
                if shard_id in held:
                    # The republish above just retired (unlinked) the
                    # segment this attachment maps — its view must still
                    # read the complete pre-republish bits.
                    old_attachment, old_copy = held.pop(shard_id)
                    assert np.array_equal(old_attachment.state["arr"], old_copy)
                    old_attachment.close()
                attachment = attach_state(manifest)
                assert attachment.state["arr"].tobytes() == array.tobytes()
                held[shard_id] = (attachment, array.copy())
        finally:
            for attachment, _ in held.values():
                attachment.close()
            publisher.close()


class TestHistogramMergeAlgebra:
    """LatencyHistogram.merge must be a commutative monoid on equal-bounds
    histograms: aggregation order across shards, worker processes and the
    wire cannot change the merged answer.  Bucket counts and extrema are
    exact; the running float sum is order-sensitive only in its last ulp.
    """

    samples = st.lists(
        st.floats(min_value=1e-7, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
        min_size=0,
        max_size=30,
    )

    @staticmethod
    def _histogram(values):
        from repro.obs import LatencyHistogram

        hist = LatencyHistogram()
        for value in values:
            hist.record(value)
        return hist

    @staticmethod
    def _exact_parts(hist):
        return (hist.counts, hist.count, hist.min, hist.max)

    @settings(max_examples=60, deadline=None)
    @given(samples, samples)
    def test_commutative(self, left_samples, right_samples):
        ab = self._histogram(left_samples).merge(self._histogram(right_samples))
        ba = self._histogram(right_samples).merge(self._histogram(left_samples))
        assert self._exact_parts(ab) == self._exact_parts(ba)
        assert ab.sum == pytest.approx(ba.sum)

    @settings(max_examples=60, deadline=None)
    @given(samples, samples, samples)
    def test_associative(self, a, b, c):
        left = self._histogram(a).merge(
            self._histogram(b).merge(self._histogram(c))
        )
        right = self._histogram(a).merge(self._histogram(b)).merge(
            self._histogram(c)
        )
        assert self._exact_parts(left) == self._exact_parts(right)
        assert left.sum == pytest.approx(right.sum)

    @settings(max_examples=40, deadline=None)
    @given(samples)
    def test_empty_is_identity(self, values):
        from repro.obs import LatencyHistogram

        hist = self._histogram(values)
        merged = self._histogram(values).merge(LatencyHistogram())
        assert self._exact_parts(merged) == self._exact_parts(hist)
        assert merged.sum == hist.sum

    @settings(max_examples=40, deadline=None)
    @given(samples, samples)
    def test_registry_merge_round_trips_the_wire_shape(self, left_samples, right_samples):
        """Dump -> from_dict -> merge equals in-process merge: what shard
        workers ship over the reply queue loses nothing."""
        from repro.obs import MetricsRegistry

        def registry(values, shard):
            reg = MetricsRegistry()
            reg.counter("shard.queries", shard=shard).inc(len(values))
            for value in values:
                reg.histogram("shard.item_seconds", shard=shard).record(value)
            return reg

        direct = registry(left_samples, "0").merge(registry(right_samples, "1"))
        shipped = MetricsRegistry.from_dict(registry(left_samples, "0").to_dict())
        shipped.merge(MetricsRegistry.from_dict(registry(right_samples, "1").to_dict()))
        assert shipped.to_dict() == direct.to_dict()
