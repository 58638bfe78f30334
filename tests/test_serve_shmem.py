"""Shmem backend: segment publish/attach mechanics and backend parity.

Worker processes are expensive to spawn, so the parity-focused tests
share one module-scoped shmem service (warmed during fixture setup so
its segments predate the suite-wide leak guard's per-test snapshot) and
its sequential twin; tests that mutate state — and therefore republish
segments under new names — build their own function-scoped services and
close them before the leak guard looks.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.serve import ShardedRecommender, ShardWorkerPool
from repro.serve.shmem import (
    SEGMENT_PREFIX,
    Attachment,
    SegmentManifest,
    ShardPublisher,
    ShmemError,
    attach_state,
    live_segment_names,
    publish_state,
)


@pytest.fixture(scope="module")
def stream_slice(ytube_small, ytube_stream):
    """A small serving burst: items plus their interaction payloads."""
    items = ytube_stream.items_in_partition(2)[:10]
    interactions = ytube_stream.partitions[2][:20]
    item_by_id = {item.item_id: item for item in ytube_small.items}
    return items, interactions, item_by_id


@pytest.fixture(scope="module")
def shmem_pair(fitted_ssrec, stream_slice):
    """A shmem service and its sequential twin, fed one identical
    mutation burst and warmed (so segments exist before any test body —
    the per-test leak guard must only ever see pre-existing names)."""
    items, interactions, item_by_id = stream_slice
    shmem = ShardedRecommender.from_trained(
        copy.deepcopy(fitted_ssrec),
        n_shards=2,
        strategy="hash",
        use_index=False,
        backend="shmem",
    )
    twin = ShardedRecommender.from_trained(
        copy.deepcopy(fitted_ssrec),
        n_shards=2,
        strategy="hash",
        use_index=False,
        backend="sequential",
    )
    for i, item in enumerate(items):
        for service in (shmem, twin):
            service.observe_item(item)
            for inter in interactions[2 * i : 2 * i + 2]:
                service.update(inter, item_by_id.get(inter.item_id))
            service.recommend(item, 6)
    yield shmem, twin
    shmem.close()
    twin.close()


# ----------------------------------------------------------------------
# publish/attach unit mechanics (no worker processes)
# ----------------------------------------------------------------------
class TestPublishAttach:
    STATE = {
        "matrix": np.arange(24, dtype=np.float64).reshape(4, 6),
        "vector": np.linspace(0.0, 1.0, 17),
        "meta": {"rows": 4, "name": "s"},
    }

    def _published(self):
        return publish_state(self.STATE, epoch=7)

    def test_round_trip_is_bitwise_and_zero_copy(self):
        manifest, shm = self._published()
        try:
            att = attach_state(manifest)
            assert att.state["meta"] == self.STATE["meta"]
            for key in ("matrix", "vector"):
                got = att.state[key]
                assert got.dtype == self.STATE[key].dtype
                assert got.shape == self.STATE[key].shape
                assert np.array_equal(got, self.STATE[key])
                # Zero-copy: the array body lives inside the segment.
                assert not got.flags.owndata
            att.close()
        finally:
            shm.close()
            shm.unlink()

    def test_attached_arrays_are_read_only(self):
        manifest, shm = self._published()
        try:
            att = attach_state(manifest)
            assert not att.state["matrix"].flags.writeable
            with pytest.raises(ValueError):
                att.state["matrix"][0, 0] = 99.0
            att.close()
        finally:
            shm.close()
            shm.unlink()

    def test_stale_epoch_manifest_is_typed_error(self):
        manifest, shm = self._published()
        try:
            stale = SegmentManifest(
                name=manifest.name,
                epoch=manifest.epoch + 1,
                nbytes=manifest.nbytes,
                checksum=manifest.checksum,
            )
            with pytest.raises(ShmemError, match="stale manifest"):
                attach_state(stale)
        finally:
            shm.close()
            shm.unlink()

    def test_vanished_segment_is_typed_error(self):
        manifest, shm = self._published()
        shm.close()
        shm.unlink()
        with pytest.raises(ShmemError, match="vanished"):
            attach_state(manifest)

    def test_checksum_mismatch_is_typed_error(self):
        manifest, shm = self._published()
        try:
            forged = SegmentManifest(
                name=manifest.name,
                epoch=manifest.epoch,
                nbytes=manifest.nbytes,
                checksum="0" * 64,
            )
            with pytest.raises(ShmemError, match="checksum mismatch"):
                attach_state(forged)
        finally:
            shm.close()
            shm.unlink()

    def test_corrupt_magic_is_typed_error(self):
        manifest, shm = self._published()
        try:
            shm.buf[0] = 0xFF
            with pytest.raises(ShmemError, match="bad magic"):
                attach_state(manifest)
        finally:
            shm.close()
            shm.unlink()

    def test_segment_names_carry_the_prefix(self):
        manifest, shm = self._published()
        try:
            assert manifest.name.startswith(SEGMENT_PREFIX)
            assert manifest.name in live_segment_names()
        finally:
            shm.close()
            shm.unlink()
        assert manifest.name not in live_segment_names()

    def test_attachment_close_is_idempotent(self):
        manifest, shm = self._published()
        try:
            att = attach_state(manifest)
            att.close()
            att.close()
            assert att.state is None
        finally:
            shm.close()
            shm.unlink()


class TestShardPublisher:
    def test_epochs_bump_and_old_segments_retire(self):
        publisher = ShardPublisher()
        try:
            first = publisher.publish(0, {"x": np.ones(3)})
            assert first.epoch == 1
            second = publisher.publish(0, {"x": np.zeros(3)})
            assert second.epoch == 2
            assert publisher.manifest(0) == second
            # The retired segment is gone; new attaches must fail loudly.
            with pytest.raises(ShmemError, match="vanished"):
                attach_state(first)
            att = attach_state(second)
            assert np.array_equal(att.state["x"], np.zeros(3))
            att.close()
            assert publisher.retired == 1
            assert publisher.publishes == 2
        finally:
            publisher.close()
        live = set(live_segment_names())
        assert first.name not in live and second.name not in live

    def test_republish_keeps_live_readers_valid(self):
        """POSIX unlink-under-mapping: a reader attached to the old epoch
        keeps a fully valid (immutable) view while the publisher moves
        on — the no-torn-reads half of the epoch protocol."""
        publisher = ShardPublisher()
        try:
            old = publisher.publish(0, {"x": np.full(5, 7.0)})
            att = attach_state(old)
            publisher.publish(0, {"x": np.full(5, 9.0)})
            # The old mapping still reads the old (complete) state.
            assert np.array_equal(att.state["x"], np.full(5, 7.0))
            att.close()
        finally:
            publisher.close()

    def test_per_shard_epochs_are_independent(self):
        publisher = ShardPublisher()
        try:
            publisher.publish(0, {"x": np.ones(1)})
            publisher.publish(0, {"x": np.ones(1)})
            publisher.publish(1, {"x": np.ones(1)})
            assert publisher.epoch(0) == 2
            assert publisher.epoch(1) == 1
            assert publisher.epoch(2) == 0
        finally:
            publisher.close()

    def test_obs_registry_reports_segments_and_epochs(self):
        publisher = ShardPublisher()
        try:
            publisher.publish(0, {"x": np.ones(4)})
            registry = publisher.obs_registry()
            counters = {c.name: c.value for c in registry.counters()}
            gauges = {(g.name, g.labels.get("shard")): g.value for g in registry.gauges()}
            assert counters["shmem.publisher.publishes"] == 1
            assert counters["shmem.publisher.bytes_published"] > 0
            assert gauges[("shmem.publisher.live_segments", None)] == 1
            assert gauges[("shmem.publisher.epoch", "0")] == 1
        finally:
            publisher.close()

    def test_closed_publisher_rejects_publish(self):
        publisher = ShardPublisher()
        publisher.close()
        with pytest.raises(ShmemError, match="closed"):
            publisher.publish(0, {"x": np.ones(1)})


# ----------------------------------------------------------------------
# Backend parity (module-scoped warmed service)
# ----------------------------------------------------------------------
class TestShmemParity:
    """The shmem fan-out must not move a single bit vs sequential."""

    def test_warmed_stream_is_bit_identical(self, shmem_pair, stream_slice):
        shmem, twin = shmem_pair
        items, _, _ = stream_slice
        assert shmem.recommend_batch(items, 6) == twin.recommend_batch(items, 6)
        for item in items[:3]:
            assert shmem.recommend(item, 6) == twin.recommend(item, 6)

    def test_worker_restart_reattaches_bit_identically(
        self, fitted_ssrec, stream_slice
    ):
        items, _, _ = stream_slice
        twin = ShardedRecommender.from_trained(
            copy.deepcopy(fitted_ssrec), n_shards=2, strategy="hash",
            use_index=False, backend="sequential",
        )
        with ShardedRecommender.from_trained(
            copy.deepcopy(fitted_ssrec), n_shards=2, strategy="hash",
            use_index=False, backend="shmem",
        ) as shmem:
            before = shmem.recommend_batch(items, 5)
            shmem.restart_workers()
            assert shmem.recommend_batch(items, 5) == before
            assert before == twin.recommend_batch(items, 5)

    def test_parent_stays_authoritative(self, shmem_pair):
        shmem, twin = shmem_pair
        # n_users reads the parent's shards even while the pool is live,
        # and the pool serves those very objects.
        assert shmem._pool is not None
        assert shmem.n_users == twin.n_users
        assert all(a is b for a, b in zip(shmem._pool.shards, shmem.shards))

    def test_metrics_combine_worker_and_parent_counters(self, shmem_pair):
        shmem, _ = shmem_pair
        rows = shmem.metrics()
        assert [row["shard_id"] for row in rows] == [0, 1]
        # Serving happened in the workers; user counts come from the parent.
        assert sum(row["items_served"] for row in rows) > 0
        assert sum(row["users"] for row in rows) == shmem.n_users

    def test_obs_registry_includes_segment_telemetry(self, shmem_pair):
        shmem, _ = shmem_pair
        registry = shmem.obs_registry()
        counters = {c.name for c in registry.counters()}
        assert "shmem.publisher.publishes" in counters
        assert "shmem.worker.attaches" in counters
        assert "shard.queries" in counters
        gauges = {g.name for g in registry.gauges()}
        assert "shmem.publisher.live_segments" in gauges
        assert "shmem.worker.epoch" in gauges

    def test_serving_uses_the_shmem_exec_plan(self, shmem_pair):
        shmem, _ = shmem_pair
        assert shmem.executor().plan.name == "sharded-scan-shmem"

    def test_spans_cross_the_worker_boundary(self, shmem_pair, stream_slice):
        from repro.obs import Trace, use_trace

        shmem, twin = shmem_pair
        items, _, _ = stream_slice
        trace = Trace()
        with use_trace(trace):
            traced = shmem.recommend_batch(items[:4], 5)
        assert traced == twin.recommend_batch(items[:4], 5)
        names = trace.span_names()
        assert "worker.serve" in names
        assert "shard.scan" in names


class TestShmemMutationEpochs:
    """Copy-on-publish: mutations republish, clean serving does not."""

    @pytest.fixture
    def service(self, fitted_ssrec):
        service = ShardedRecommender.from_trained(
            copy.deepcopy(fitted_ssrec),
            n_shards=2,
            strategy="hash",
            use_index=False,
            backend="shmem",
        )
        yield service
        service.close()

    def test_epoch_bumps_only_on_mutation(self, service, stream_slice):
        items, interactions, item_by_id = stream_slice
        service.recommend(items[0], 5)
        pool = service._pool
        epochs = [pool.publisher.epoch(s.shard_id) for s in service.shards]
        assert epochs == [1, 1]  # first window published everything
        # Clean serving: same epochs, no republish.
        service.recommend(items[1], 5)
        service.recommend_batch(items[:4], 5)
        assert [pool.publisher.epoch(s.shard_id) for s in service.shards] == epochs
        # A routed update dirties exactly the owning shard.
        inter = interactions[0]
        shard_id = service.plan.shard_of(inter.user_id)
        service.update(inter, item_by_id.get(inter.item_id))
        service.recommend(items[0], 5)
        after = [pool.publisher.epoch(s.shard_id) for s in service.shards]
        assert after[shard_id] == epochs[shard_id] + 1
        assert sum(after) == sum(epochs) + 1
        # observe_item moves shared scorer state: every shard republishes.
        service.observe_item(items[0])
        service.recommend(items[0], 5)
        assert [pool.publisher.epoch(s.shard_id) for s in service.shards] == [
            e + 1 for e in after
        ]

    def test_close_unlinks_every_segment(self, service, stream_slice):
        items, _, _ = stream_slice
        service.recommend(items[0], 5)
        names = [
            service._pool.publisher.manifest(s.shard_id).name
            for s in service.shards
        ]
        live = live_segment_names()
        assert all(name in live for name in names)
        service.close()
        live = live_segment_names()
        assert all(name not in live for name in names)
        # The service stays usable: a fresh pool republishes lazily.
        assert service._pool is None
        assert service.recommend(items[0], 5)
        service.close()


class TestShmemIndexParity:
    def test_index_block_stream_is_bit_identical(
        self, fitted_ssrec_indexed, stream_slice
    ):
        """Block-sharded CPPse serving over shmem, with interleaved
        mutations and maintenance, stays bit-identical to sequential."""
        items, interactions, item_by_id = stream_slice
        shmem = ShardedRecommender.from_trained(
            copy.deepcopy(fitted_ssrec_indexed),
            n_shards=2,
            strategy="block",
            use_index=True,
            backend="shmem",
        )
        twin = ShardedRecommender.from_trained(
            copy.deepcopy(fitted_ssrec_indexed),
            n_shards=2,
            strategy="block",
            use_index=True,
            backend="sequential",
        )
        try:
            for i, item in enumerate(items[:6]):
                for service in (shmem, twin):
                    service.observe_item(item)
                    for inter in interactions[2 * i : 2 * i + 2]:
                        service.update(inter, item_by_id.get(inter.item_id))
                assert shmem.recommend(item, 6) == twin.recommend(item, 6)
            assert shmem.run_maintenance() == twin.run_maintenance()
            assert shmem.recommend_batch(items, 6) == twin.recommend_batch(items, 6)
            assert shmem.executor().plan.name == "sharded-index-shmem"
        finally:
            shmem.close()
            twin.close()


    def test_index_publishes_a_few_buffers_per_block_not_per_user(
        self, fitted_ssrec_indexed
    ):
        """The flat forest is a fixed handful of contiguous arrays per
        block, whatever its height or member count: the out-of-band buffers
        an indexed shard's publish adds over the same shard without its
        index are O(blocks x levels), never O(users).  (The rest of a
        shard still ships small per-user arrays — ``core.interest``'s
        filtered states — which this test deliberately factors out.)"""
        import json
        import struct

        def published_buffers(state) -> int:
            manifest, shm = publish_state(state, epoch=1)
            try:
                (header_len,) = struct.unpack("<I", bytes(shm.buf[8:12]))
                return len(json.loads(bytes(shm.buf[12 : 12 + header_len]))["buffers"])
            finally:
                shm.close()
                shm.unlink()

        service = ShardedRecommender.from_trained(
            copy.deepcopy(fitted_ssrec_indexed),
            n_shards=2, strategy="block", use_index=True, backend="sequential",
        )
        for shard in service.shards:
            shard.prepare_for_publish()
            with_index = published_buffers(shard)
            index, shard.index = shard.index, None
            without_index = published_buffers(shard)
            shard.index = index
            levels = sum(forest.height for forest in index.forests)
            assert shard.n_users > 3 * len(index.forests)  # the bounds below are not vacuous
            # Ten forest arrays plus the block's centroid.
            assert 0 < with_index - without_index <= 11 * len(index.forests) <= 6 * levels


class TestShmemSnapshot:
    def test_snapshot_round_trip_drops_segments(
        self, fitted_ssrec, stream_slice, tmp_path
    ):
        from repro.serve.snapshot import read_manifest

        items, interactions, item_by_id = stream_slice
        before = set(live_segment_names())  # other fixtures' segments
        with ShardedRecommender.from_trained(
            copy.deepcopy(fitted_ssrec),
            n_shards=2,
            strategy="hash",
            use_index=False,
            backend="shmem",
        ) as service:
            for inter in interactions[:10]:
                service.update(inter, item_by_id.get(inter.item_id))
            expected = service.recommend_batch(items, 5)
            service.save(tmp_path / "snap")
        assert set(live_segment_names()) <= before
        manifest = read_manifest(tmp_path / "snap")
        assert manifest["serve_backend"] == "shmem"
        restored = ShardedRecommender.load(tmp_path / "snap")
        try:
            assert restored.backend == "shmem"
            # Segments are runtime artifacts: none exist until first serve.
            assert restored._pool is None
            assert restored.recommend_batch(items, 5) == expected
        finally:
            restored.close()


class TestShmemPoolValidation:
    def test_pool_requires_shards(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardWorkerPool([])

    def test_pool_rejects_unknown_start_method(self, fitted_ssrec):
        service = ShardedRecommender.from_trained(
            fitted_ssrec, n_shards=2, use_index=False
        )
        with pytest.raises(ValueError, match="start_method"):
            ShardWorkerPool(service.shards, start_method="fork")
        with pytest.raises(ValueError, match="backend must be one of"):
            ShardWorkerPool(service.shards, backend="thread")

    def test_attachment_graveyard_default_empty(self):
        assert isinstance(Attachment.__dataclass_fields__, dict)
