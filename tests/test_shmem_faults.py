"""Fault injection for shard worker processes and their published state.

Every fault a worker fan-out can hit mid-flight — a worker killed inside
a serve window, a worker dying before its first reply, a segment
unlinked under a live reader, a stale epoch manifest — must surface as a
*typed* error (:class:`ShardWorkerError` / :class:`ShmemError`) in
bounded time.  Never a hang, never a silently wrong answer.  And no
worker may outlive its owner: a ``SIGKILL``-ed owner's workers exit
within seconds.

CI replays this battery under both ``spawn`` and ``forkserver`` start
methods (the ``REPRO_SHMEM_START_METHOD`` environment variable, read by
:class:`ShardWorkerPool` at construction for both multi-process
backends).
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.serve import ShardedRecommender
from repro.serve.shmem import (
    SegmentManifest,
    ShmemError,
    live_segment_names,
)
from repro.serve.workers import ShardWorkerError, ShardWorkerPool

MULTI_PROCESS_BACKENDS = ("process", "shmem")


@pytest.fixture
def service(fitted_ssrec, ytube_stream):
    """A warmed two-shard shmem service (segments published, workers
    attached) plus a probe item; closed after each test."""
    service = ShardedRecommender.from_trained(
        fitted_ssrec, n_shards=2, strategy="hash", use_index=False, backend="shmem"
    )
    item = ytube_stream.items_in_partition(2)[0]
    baseline = service.recommend(item, 6)  # spawn + publish + attach
    yield service, item, baseline
    service.close()


def _kill(pool, index: int) -> None:
    worker = pool._workers[index]
    worker.process.terminate()
    worker.process.join(timeout=10)


class TestWorkerDeath:
    def test_kill_mid_window_raises_typed_error_fast(self, service):
        service, item, _ = service
        pool = service._pool
        _kill(pool, 0)
        started = time.monotonic()
        with pytest.raises(ShardWorkerError, match="died"):
            service.recommend(item, 6)
        # Liveness polling, not the full reply timeout, surfaces it.
        assert time.monotonic() - started < pool.reply_timeout / 2
        assert not pool.alive

    def test_kill_in_fanout_reply_gap_raises_fast(self, service):
        """The request is already enqueued when the worker dies — the
        exact window where a naive queue read blocks forever."""
        service, item, _ = service
        pool = service._pool
        worker = pool._workers[1]
        manifest = pool.publisher.manifest(service.shards[1].shard_id)
        payload = pickle.dumps(("item", item, 6), protocol=pickle.HIGHEST_PROTOCOL)
        seq = pool._send(worker, "serve", (manifest, None, payload))
        _kill(pool, 1)
        started = time.monotonic()
        with pytest.raises(ShardWorkerError, match="died"):
            pool._reply_from(worker, 1, seq)
        assert time.monotonic() - started < pool.reply_timeout / 2

    @pytest.mark.parametrize("backend", MULTI_PROCESS_BACKENDS)
    def test_killed_worker_recovers_by_restart(
        self, fitted_ssrec, ytube_stream, backend
    ):
        item = ytube_stream.items_in_partition(2)[0]
        with ShardedRecommender.from_trained(
            fitted_ssrec, n_shards=2, strategy="hash", use_index=False,
            backend=backend,
        ) as service:
            baseline = service.recommend(item, 6)
            _kill(service._pool, 0)
            with pytest.raises(ShardWorkerError, match="died"):
                service.recommend(item, 6)
            # Workers are stateless: a plain respawn fully recovers — the
            # fresh worker receives (or re-attaches) the current epoch on
            # its first serve.
            service.restart_workers()
            assert service.recommend(item, 6) == baseline


class TestSegmentUnlink:
    def test_unlink_under_live_reader_serves_then_fails_reattach(self, service):
        """POSIX semantics, both halves: existing mappings survive the
        unlink (attached workers keep serving the complete old state),
        while any *new* attach of the vanished name is a typed error."""
        service, item, baseline = service
        pool = service._pool
        for shm in pool.publisher._segments.values():
            shm.unlink()  # yank every segment name out from under the pool
        # Attached workers still hold valid mappings: same answer.
        assert service.recommend(item, 6) == baseline
        # A respawned worker has no mapping and must re-attach — which
        # now fails loudly instead of serving stale or garbage state.
        pool.restart_all()
        with pytest.raises(ShmemError, match="vanished"):
            service.recommend(item, 6)

    def test_republish_recovers_from_vanished_segments(self, service):
        service, item, baseline = service
        pool = service._pool
        for shm in pool.publisher._segments.values():
            shm.unlink()
        pool.restart_all()
        with pytest.raises(ShmemError, match="vanished"):
            service.recommend(item, 6)
        # Copy-on-publish is the recovery path too: republishing fresh
        # segments (epoch bump) brings the pool back bit-identically.
        pool.invalidate()
        assert service.recommend(item, 6) == baseline


class TestStaleEpoch:
    def test_stale_epoch_manifest_is_shmem_error(self, service):
        service, item, _ = service
        pool = service._pool
        worker = pool._workers[0]
        current = pool.publisher.manifest(service.shards[0].shard_id)
        stale = SegmentManifest(
            name=current.name,
            epoch=current.epoch + 5,
            nbytes=current.nbytes,
            checksum=current.checksum,
        )
        payload = pickle.dumps(("item", item, 6), protocol=pickle.HIGHEST_PROTOCOL)
        seq = pool._send(worker, "serve", (stale, None, payload))
        with pytest.raises(ShmemError, match="stale manifest"):
            pool._reply_from(worker, 0, seq)
        # The worker survives the bad manifest and keeps serving the
        # real epoch afterwards.
        assert service.recommend(item, 6)

    def test_shmem_error_is_a_shard_worker_error(self):
        # One except-clause catches the whole worker failure family.
        assert issubclass(ShmemError, ShardWorkerError)


class TestErrorKindRouting:
    def test_non_shmem_worker_errors_stay_generic(self, service):
        """The typed re-raise must not over-claim: a generic worker
        failure (unknown op) is a ShardWorkerError, not a ShmemError."""
        service, _, _ = service
        pool = service._pool
        with pytest.raises(ShardWorkerError, match="unknown worker op") as info:
            pool.call(0, "teleport")
        assert not isinstance(info.value, ShmemError)
        # The worker survives a failed request.
        assert pool.call(0, "ping") == "pong"


class TestStartMethods:
    def test_forkserver_pool_serves_identically(self, service):
        """The battery's CI matrix runs spawn and forkserver; prove the
        forkserver pool is wire-compatible in-tree too."""
        service, item, baseline = service
        pool = ShardWorkerPool(service.shards, start_method="forkserver")
        try:
            got = pool.serve_item(item, 6)
        finally:
            pool.close()
        from repro.serve.sharding import merge_top_k

        assert merge_top_k(got, 6) == baseline

    def test_fork_is_rejected(self, service):
        service, _, _ = service
        with pytest.raises(ValueError, match="start_method"):
            ShardWorkerPool(service.shards, start_method="fork")


class TestNoLeakOnFailure:
    def test_faulted_pool_close_leaves_no_segments(self, service):
        service, item, _ = service
        pool = service._pool
        names = [
            pool.publisher.manifest(s.shard_id).name for s in service.shards
        ]
        _kill(pool, 0)
        with pytest.raises(ShardWorkerError):
            service.recommend(item, 6)
        service.close()
        live = set(live_segment_names())
        assert not (set(names) & live)


class _DiesOnLoad:
    """A stand-in shard whose published copy kills the reading worker:
    unpickling it calls ``os._exit`` — a worker dying before its first
    reply, however it got there."""

    shard_id = 0

    def prepare_for_publish(self) -> None:
        pass

    def __reduce__(self):
        return (os._exit, (3,))


class TestBootstrapDeath:
    @pytest.mark.parametrize("backend", MULTI_PROCESS_BACKENDS)
    def test_worker_dying_before_first_reply_is_typed_error(
        self, ytube_stream, backend
    ):
        item = ytube_stream.items_in_partition(2)[0]
        started = time.monotonic()
        pool = ShardWorkerPool([_DiesOnLoad()], backend=backend)
        try:
            with pytest.raises(ShardWorkerError, match="died"):
                pool.serve_item(item, 6)
            assert not pool.alive
        finally:
            pool.close()
        # Spawn, the doomed first request and close: seconds, never the
        # reply timeout.
        assert time.monotonic() - started < pool.reply_timeout / 10


_OWNER_SCRIPT = textwrap.dedent(
    """
    import json, sys, time
    from repro.core.config import SsRecConfig
    from repro.core.ssrec import SsRecRecommender
    from repro.datasets.partitions import partition_interactions
    from repro.datasets.ytube import YTubeConfig, generate_ytube
    from repro.serve import ShardedRecommender

    if __name__ == "__main__":
        dataset = generate_ytube(YTubeConfig.small())
        stream = partition_interactions(dataset)
        rec = SsRecRecommender(config=SsRecConfig(), use_index=False, seed=1)
        rec.fit(dataset, stream.training_interactions())
        service = ShardedRecommender.from_trained(
            rec, n_shards=2, strategy="hash", backend=sys.argv[1]
        )
        service.recommend_batch(stream.items_in_partition(2)[:4], 5)
        pids = [worker.process.pid for worker in service._pool._workers]
        print(json.dumps(pids), flush=True)
        time.sleep(600)
    """
)


def _gone(pid: int) -> bool:
    """No such process, or only its zombie is left."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return True
    state = next(
        (line.split()[1] for line in status.splitlines() if line.startswith("State:")),
        "",
    )
    return state == "Z"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
class TestOwnerDeath:
    @pytest.mark.parametrize("backend", MULTI_PROCESS_BACKENDS)
    def test_workers_exit_when_owner_is_killed(self, tmp_path, backend):
        """SIGKILL the owner and leave it unreaped (a zombie): its
        workers notice the closed pipe and exit within 5 s."""
        script = tmp_path / "owner.py"
        script.write_text(_OWNER_SCRIPT)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        owner = subprocess.Popen(
            [sys.executable, str(script), backend],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        pids: list[int] = []
        try:
            line = owner.stdout.readline()
            assert line, f"owner exited early with {owner.wait()}"
            pids = json.loads(line)
            assert len(pids) == 2 and not any(_gone(pid) for pid in pids)
            os.kill(owner.pid, signal.SIGKILL)  # no wait(): owner stays a zombie
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not all(map(_gone, pids)):
                time.sleep(0.1)
            assert _gone(owner.pid)
            assert [pid for pid in pids if not _gone(pid)] == []
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()
            for pid in pids:  # a failed run must not leave orphans behind
                if not _gone(pid):
                    os.kill(pid, signal.SIGKILL)
