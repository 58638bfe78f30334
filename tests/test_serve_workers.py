"""Process backend: ShardWorkerPool mechanics and backend parity.

Spawning a worker process is expensive (a fresh interpreter imports
NumPy), so the parity-focused tests share one module-scoped process
service (warmed at setup, so its workers predate the suite-wide leaked-
worker guard's per-test snapshot) and its sequential twin; lifecycle
tests that must start/stop their own pools keep the shard count at 2.
"""

from __future__ import annotations

import copy
import time

import pytest

from repro.core.config import SsRecConfig
from repro.serve import ShardedRecommender, ShardWorkerError, ShardWorkerPool
from repro.serve.workers import _ShardReader


@pytest.fixture(scope="module")
def stream_slice(ytube_small, ytube_stream):
    """A small serving burst: items plus their interaction payloads."""
    items = ytube_stream.items_in_partition(2)[:10]
    interactions = ytube_stream.partitions[2][:20]
    item_by_id = {item.item_id: item for item in ytube_small.items}
    return items, interactions, item_by_id


@pytest.fixture(scope="module")
def process_service(fitted_ssrec):
    """One process-backed service over a deepcopy of the shared model,
    its workers already running."""
    trained = copy.deepcopy(fitted_ssrec)
    service = ShardedRecommender.from_trained(
        trained, n_shards=2, strategy="hash", use_index=False, backend="process"
    )
    service._ensure_pool()
    yield service
    service.close()


@pytest.fixture(scope="module")
def sequential_twin(fitted_ssrec):
    """The sequential-backend twin the process service must match."""
    trained = copy.deepcopy(fitted_ssrec)
    return ShardedRecommender.from_trained(
        trained, n_shards=2, strategy="hash", use_index=False, backend="sequential"
    )


class TestBackendSelection:
    def test_rejects_unknown_backend(self, fitted_ssrec):
        with pytest.raises(ValueError, match="backend must be one of"):
            ShardedRecommender.from_trained(
                fitted_ssrec, n_shards=2, backend="quantum"
            )

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="serve_backend must be one of"):
            SsRecConfig(serve_backend="quantum")

    def test_backend_comes_only_from_backend_or_config(self, fitted_ssrec):
        # ``workers`` sizes the thread pool; it never picks the backend.
        service = ShardedRecommender.from_trained(
            fitted_ssrec, n_shards=2, workers=2
        )
        assert service.backend == "sequential"
        assert service.workers == 2
        threaded = ShardedRecommender.from_trained(
            fitted_ssrec, n_shards=2, workers=2, backend="thread"
        )
        assert threaded.backend == "thread"
        threaded.close()

    def test_default_backend_is_sequential(self, fitted_ssrec):
        service = ShardedRecommender.from_trained(fitted_ssrec, n_shards=2)
        assert service.backend == "sequential"

    def test_backend_from_config(self, ytube_small, ytube_stream):
        from repro.core.ssrec import SsRecRecommender

        config = SsRecConfig(n_shards=2, serve_backend="process")
        rec = SsRecRecommender(config=config, use_index=False, seed=1)
        rec.fit(ytube_small, ytube_stream.training_interactions())
        service = ShardedRecommender.from_trained(rec)
        assert service.backend == "process"
        # No worker processes until the first operation needs them.
        assert service._pool is None
        service.close()


class TestProcessParity:
    """The process fan-out must not move a single bit vs sequential."""

    def test_streamed_serving_bit_identical(
        self, process_service, sequential_twin, stream_slice
    ):
        items, interactions, item_by_id = stream_slice
        for i, item in enumerate(items):
            process_service.observe_item(item)
            sequential_twin.observe_item(item)
            for inter in interactions[2 * i : 2 * i + 2]:
                payload = item_by_id.get(inter.item_id)
                process_service.update(inter, payload)
                sequential_twin.update(inter, payload)
            assert process_service.recommend(item, 6) == sequential_twin.recommend(
                item, 6
            )
        assert process_service.recommend_batch(items, 6) == (
            sequential_twin.recommend_batch(items, 6)
        )

    def test_worker_restart_continues_bit_identically(
        self, fitted_ssrec, stream_slice
    ):
        items, interactions, item_by_id = stream_slice
        twin = ShardedRecommender.from_trained(
            copy.deepcopy(fitted_ssrec), n_shards=2, strategy="hash",
            use_index=False, backend="sequential",
        )
        with ShardedRecommender.from_trained(
            copy.deepcopy(fitted_ssrec), n_shards=2, strategy="hash",
            use_index=False, backend="process",
        ) as service:
            for inter in interactions[:6]:
                service.update(inter, item_by_id.get(inter.item_id))
                twin.update(inter, item_by_id.get(inter.item_id))
            before = service.recommend_batch(items, 5)
            service.restart_workers()
            # The fresh workers received the current epoch's bytes.
            assert service.recommend_batch(items, 5) == before
            assert before == twin.recommend_batch(items, 5)

    def test_metrics_come_from_workers(self, process_service):
        rows = process_service.metrics()
        assert [row["shard_id"] for row in rows] == [0, 1]
        # The module's serving traffic ran inside the workers.
        assert sum(row["items_served"] for row in rows) > 0

    def test_n_users_counts_worker_side_joins(
        self, process_service, sequential_twin
    ):
        # Users joining mid-stream join the parent's shards; n_users reads
        # those even while the pool is live.
        assert process_service._pool is not None
        assert process_service.n_users == sequential_twin.n_users


class TestConfigureReachesWorkers:
    @pytest.mark.parametrize("backend", ["process", "shmem"])
    def test_configure_scoring_reaches_live_workers(
        self, fitted_ssrec, stream_slice, backend
    ):
        """``configure(scoring=...)`` after the first serve dirties every
        shard, so the very next window runs in the new mode worker-side —
        seen in the workers' own obs dumps (without numba, as the native
        fallback counter)."""
        from repro.core.kernels import native_ready
        from repro.obs import MetricsRegistry

        if native_ready():
            pytest.skip("the fallback counter only moves without numba")
        items, _, _ = stream_slice
        with ShardedRecommender.from_trained(
            copy.deepcopy(fitted_ssrec), n_shards=2, strategy="hash",
            use_index=False, backend=backend,
        ) as service:
            expected = service.recommend(items[0], 5)
            pool = service._pool

            def worker_fallbacks() -> float:
                return sum(
                    counter.value
                    for dump in pool.map("obs")
                    for counter in MetricsRegistry.from_dict(dump).counters()
                    if counter.name == "native.fallbacks"
                )

            assert worker_fallbacks() == 0
            service.configure(scoring="native")
            assert service.recommend(items[0], 5) == expected
            assert worker_fallbacks() == 2  # one per worker, this window


class TestPoolLifecycle:
    def test_close_keeps_the_parent_state(self, fitted_ssrec, ytube_stream):
        trained = copy.deepcopy(fitted_ssrec)
        items = ytube_stream.items_in_partition(2)[:4]
        service = ShardedRecommender.from_trained(
            trained, n_shards=2, strategy="hash", use_index=False, backend="process"
        )
        expected = [service.recommend(item, 5) for item in items]
        service.close()
        assert service._pool is None
        # The parent's shards are the whole state: a fresh pool respawns
        # lazily from them on the next call and serves identically.
        assert [service.recommend(item, 5) for item in items] == expected
        service.close()

    def test_snapshot_of_live_service_is_current(
        self, fitted_ssrec, ytube_stream, ytube_small, tmp_path
    ):
        trained = copy.deepcopy(fitted_ssrec)
        items = ytube_stream.items_in_partition(2)[:4]
        interactions = ytube_stream.partitions[2][:10]
        item_by_id = {item.item_id: item for item in ytube_small.items}
        with ShardedRecommender.from_trained(
            trained, n_shards=2, strategy="hash", use_index=False, backend="process"
        ) as service:
            for inter in interactions:
                service.update(inter, item_by_id.get(inter.item_id))
            expected = service.recommend_batch(items, 5)
            service.save(tmp_path / "snap")
        restored = ShardedRecommender.load(tmp_path / "snap")
        try:
            assert restored.backend == "process"
            assert restored.recommend_batch(items, 5) == expected
        finally:
            restored.close()

    def test_load_backend_override(self, fitted_ssrec, tmp_path):
        trained = copy.deepcopy(fitted_ssrec)
        service = ShardedRecommender.from_trained(
            trained, n_shards=2, strategy="hash", use_index=False, backend="process"
        )
        service.save(tmp_path / "snap")
        service.close()
        restored = ShardedRecommender.load(tmp_path / "snap", backend="sequential")
        assert restored.backend == "sequential"
        with pytest.raises(ValueError, match="backend must be one of"):
            ShardedRecommender.load(tmp_path / "snap", backend="quantum")

    def test_dead_worker_raises(self, fitted_ssrec):
        trained = copy.deepcopy(fitted_ssrec)
        service = ShardedRecommender.from_trained(
            trained, n_shards=2, strategy="hash", use_index=False, backend="process"
        )
        pool = service._ensure_pool()
        assert pool.alive
        # Kill one worker behind the pool's back: the next call must fail
        # loudly instead of hanging.
        pool._workers[0].process.terminate()
        pool._workers[0].process.join(timeout=10)
        with pytest.raises(ShardWorkerError, match="died"):
            pool.call(0, "ping")
        assert not pool.alive
        service.close()

    def test_map_with_dead_worker_fails_fast(self, fitted_ssrec):
        """Regression: a fan-out collection used to block on the raw
        reply queue, so a worker dying mid-collection hung the parent for
        the full reply timeout (or forever when the worker died *inside*
        a queue write, leaving a torn frame no timeout-get could see).
        The pump thread plus liveness polling must surface the death in
        bounded time, and close() must not hang on the dead worker
        either."""
        trained = copy.deepcopy(fitted_ssrec)
        service = ShardedRecommender.from_trained(
            trained, n_shards=2, strategy="hash", use_index=False, backend="process"
        )
        pool = service._ensure_pool()
        assert len(pool.map("metrics")) == 2  # healthy path first
        pool._workers[0].process.terminate()
        pool._workers[0].process.join(timeout=10)
        started = time.monotonic()
        with pytest.raises(ShardWorkerError, match="died"):
            pool.map("metrics")
        assert time.monotonic() - started < pool.reply_timeout / 2
        started = time.monotonic()
        service.close()
        assert time.monotonic() - started < 30

    def test_closed_pool_rejects_requests(self, fitted_ssrec):
        trained = copy.deepcopy(fitted_ssrec)
        service = ShardedRecommender.from_trained(
            trained, n_shards=2, strategy="hash", use_index=False, backend="process"
        )
        pool = service._ensure_pool()
        service.close()
        with pytest.raises(ShardWorkerError, match="closed"):
            pool.call(0, "ping")

    def test_pool_requires_shards(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardWorkerPool([])


class TestReplyDiscipline:
    """Sequence-tagged exchanges: failed fan-outs must never skew later
    replies, and a death in the fan-out/reply gap must fail fast."""

    @pytest.fixture
    def pool_service(self, fitted_ssrec):
        trained = copy.deepcopy(fitted_ssrec)
        service = ShardedRecommender.from_trained(
            trained, n_shards=2, strategy="hash", use_index=False, backend="process"
        )
        pool = service._ensure_pool()
        yield service, pool
        service.close()

    def test_death_between_fanout_and_reply_fails_fast(self, pool_service):
        service, pool = pool_service
        worker = pool._workers[1]
        assert pool.call(1, "ping") == "pong"  # worker fully up
        worker.process.terminate()
        worker.process.join(timeout=10)
        # The request is already enqueued — exactly the fan-out/reply gap —
        # and no reply will ever come.  Liveness polling must surface the
        # death in a poll interval, not after the full reply timeout.
        seq = pool._send(worker, "ping", ())
        started = time.monotonic()
        with pytest.raises(ShardWorkerError, match="died"):
            pool._reply_from(worker, 1, seq)
        assert time.monotonic() - started < pool.reply_timeout / 2

    def test_forged_stale_reply_is_discarded(self, pool_service):
        service, pool = pool_service
        expected = pool.call(0, "metrics")
        worker = pool._workers[0]
        # A leftover reply from an abandoned exchange (its tag was already
        # consumed or abandoned) sits in the queue; the next call must
        # skip it rather than serve garbage.
        worker.replies.put((worker.seq, "ok", "stale-garbage"))
        assert pool.call(0, "metrics") == expected

    def test_failed_map_leaves_later_exchanges_aligned(self, pool_service):
        service, pool = pool_service
        counts = pool.map("metrics")
        # The bad op fails on worker 0 and unwinds map() mid-collection,
        # abandoning worker 1's (error) reply in its queue.
        with pytest.raises(ShardWorkerError, match="unknown worker op"):
            pool.map("teleport")
        # Before sequence tags, worker 1's stale error would be consumed
        # as the reply of whatever came next, failing it spuriously and
        # shifting every later reply off by one.
        assert pool.call(1, "metrics") == counts[1]
        assert pool.map("metrics") == counts


class TestWorkerOps:
    """The worker-side dispatcher, exercised in-process."""

    def test_unknown_op_rejected(self):
        with pytest.raises(ShardWorkerError, match="unknown worker op"):
            _ShardReader(0).apply("teleport", ())

    def test_remote_error_carries_traceback(self, fitted_ssrec):
        trained = copy.deepcopy(fitted_ssrec)
        service = ShardedRecommender.from_trained(
            trained, n_shards=2, strategy="hash", use_index=False, backend="process"
        )
        pool = service._ensure_pool()
        with pytest.raises(ShardWorkerError, match="unknown worker op"):
            pool.call(0, "teleport")
        # The worker survives a failed request.
        assert pool.call(0, "ping") == "pong"
        service.close()


class TestWorkerObservability:
    """Metrics and spans must cross the worker process boundary."""

    def test_obs_registries_merge_across_the_pool(self, process_service):
        # Each worker ships its serve-side registry as a plain dump over
        # the reply queue ("obs" op); the service merges them with the
        # publisher's and the parent shards' into one view.
        pool = process_service._ensure_pool()
        dumps = pool.map("obs")
        assert len(dumps) == 2
        from repro.obs import MetricsRegistry

        merged = process_service.obs_registry()
        shard_labels = {
            counter.labels["shard"]
            for counter in merged.counters()
            if counter.name == "shard.queries"
        }
        assert shard_labels == {"0", "1"}
        # The merged totals equal the per-worker dumps folded by hand —
        # the round trip through the queue loses nothing.
        by_hand = MetricsRegistry()
        for dump in dumps:
            by_hand.merge(MetricsRegistry.from_dict(dump))
        by_hand.merge(pool.publisher.obs_registry())
        for shard in process_service.shards:
            by_hand.merge(shard.obs_registry())
        by_hand.merge(process_service.executor().obs_registry())
        assert by_hand.to_dict() == merged.to_dict()
        # The module's serving traffic ran inside the workers.
        total_items = sum(
            counter.value
            for counter in merged.counters()
            if counter.name == "shard.items_served"
        )
        assert total_items > 0

    def test_spans_propagate_through_worker_processes(
        self, process_service, sequential_twin, stream_slice
    ):
        from repro.obs import Trace, use_trace

        items, _, _ = stream_slice
        trace = Trace()
        with use_trace(trace):
            traced = process_service.recommend_batch(items[:4], 5)
        # Tracing is purely observational: bit-identical results.
        assert traced == sequential_twin.recommend_batch(items[:4], 5)
        names = trace.span_names()
        # Worker-side spans were shipped back over the reply queue and
        # grafted into the caller's trace, shard work included.
        assert "worker.serve" in names
        assert "shard.scan" in names
        worker_shards = {
            entry["tags"]["shard"]
            for entry in trace.spans()
            if entry["name"] == "worker.serve"
        }
        assert worker_shards == {"0", "1"}
        # One consistent trace id: worker spans carry the caller's.
        untraced = process_service.recommend_batch(items[:4], 5)
        assert untraced == traced
        assert len(trace) == len(trace.spans())  # no spans leaked after exit
