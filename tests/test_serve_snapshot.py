"""Snapshot persistence: save -> load -> identical recommendations.

Round-trip exactness is asserted on the ``(user_id, score)`` lists with
``==`` — a warm-started server must be indistinguishable from the live
one, including after mid-stream updates and index maintenance.
"""

import json

import pytest

from repro.core.config import SsRecConfig
from repro.core.ssrec import SsRecRecommender
from repro.serve import (
    SNAPSHOT_FORMAT_VERSION,
    ShardedRecommender,
    SnapshotError,
    read_manifest,
    save_snapshot,
)


def _fresh(ytube_small, ytube_stream, use_index, **kwargs):
    rec = SsRecRecommender(config=SsRecConfig(**kwargs), use_index=use_index, seed=1)
    rec.fit(ytube_small, ytube_stream.training_interactions())
    return rec


def _stream_some(rec, ytube_small, ytube_stream, n=30):
    """Push updates + observed items so caches/index state are non-trivial."""
    for inter in ytube_stream.partitions[2][:n]:
        rec.update(inter, ytube_small.item(inter.item_id))
    for item in ytube_stream.items_in_partition(2)[:5]:
        rec.observe_item(item)


class TestRecommenderRoundTrip:
    @pytest.mark.parametrize("use_index", [False, True])
    def test_identical_after_reload(
        self, ytube_small, ytube_stream, tmp_path, use_index
    ):
        rec = _fresh(ytube_small, ytube_stream, use_index, maintenance_interval=7)
        _stream_some(rec, ytube_small, ytube_stream)
        rec.save(tmp_path / "snap")
        reloaded = SsRecRecommender.load(tmp_path / "snap")
        items = ytube_stream.items_in_partition(2)[:12]
        assert [reloaded.recommend(it, 7) for it in items] == [
            rec.recommend(it, 7) for it in items
        ]
        assert reloaded.recommend_batch(items, 7) == rec.recommend_batch(items, 7)

    def test_reloaded_recommender_keeps_streaming(
        self, ytube_small, ytube_stream, tmp_path
    ):
        rec = _fresh(ytube_small, ytube_stream, True)
        rec.save(tmp_path / "snap")
        reloaded = SsRecRecommender.load(tmp_path / "snap")
        # Twin streams stay in lockstep after the warm start.
        for inter in ytube_stream.partitions[2][:20]:
            payload = ytube_small.item(inter.item_id)
            rec.update(inter, payload)
            reloaded.update(inter, payload)
        for item in ytube_stream.items_in_partition(2)[:6]:
            rec.observe_item(item)
            reloaded.observe_item(item)
            assert reloaded.recommend(item, 5) == rec.recommend(item, 5)

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises((ValueError, RuntimeError)):
            SsRecRecommender().save(tmp_path / "snap")


class TestShardedRoundTrip:
    def test_identical_after_reload(self, ytube_small, ytube_stream, tmp_path):
        trained = _fresh(ytube_small, ytube_stream, False, maintenance_interval=7)
        service = ShardedRecommender.from_trained(
            trained, n_shards=3, strategy="block", use_index=True
        )
        _stream_some(service, ytube_small, ytube_stream)
        service.save(tmp_path / "snap")
        reloaded = ShardedRecommender.load(tmp_path / "snap")
        assert reloaded.plan.assignments == service.plan.assignments
        assert reloaded.n_shards == service.n_shards
        items = ytube_stream.items_in_partition(2)[:12]
        assert [reloaded.recommend(it, 7) for it in items] == [
            service.recommend(it, 7) for it in items
        ]
        assert reloaded.recommend_batch(items, 7) == service.recommend_batch(items, 7)

    def test_ssrec_snapshot_shards_on_load(self, ytube_small, ytube_stream, tmp_path):
        rec = _fresh(ytube_small, ytube_stream, False, n_shards=2)
        rec.save(tmp_path / "snap")
        service = ShardedRecommender.load(tmp_path / "snap")
        assert service.n_shards == 2
        items = ytube_stream.items_in_partition(2)[:8]
        assert [service.recommend(it, 5) for it in items] == [
            rec.recommend(it, 5) for it in items
        ]

    def test_configured_axes_survive_round_trip(self, ytube_small, ytube_stream, tmp_path):
        """``config`` is the one record of the serving axes: what
        ``configure`` set after fit is what the manifest documents and
        what both facades serve with after a load."""
        rec = _fresh(ytube_small, ytube_stream, False)
        rec.configure(dedup="approx", dedup_threshold=0.75, result_cache_size=17)
        rec.save(tmp_path / "local")
        manifest = read_manifest(tmp_path / "local")
        assert manifest["config"]["dedup_threshold"] == 0.75
        restored = SsRecRecommender.load(tmp_path / "local")
        assert restored.config == rec.config
        assert restored.executor().plan.name == "scan-item-dedup-approx"
        state = restored.executor().dedup_state
        assert state.threshold == 0.75 and state.max_groups == 17

        service = ShardedRecommender.from_trained(rec, n_shards=2, strategy="hash")
        service.configure(dedup="exact", scoring="native")
        service.save(tmp_path / "sharded")
        assert read_manifest(tmp_path / "sharded")["config"]["dedup"] == "exact"
        reloaded = ShardedRecommender.load(tmp_path / "sharded")
        assert reloaded.config == service.config
        assert reloaded.config.dedup == "exact" and reloaded.config.scoring == "native"
        assert reloaded.executor().plan.name == service.executor().plan.name
        assert all(shard._scoring == "native" for shard in reloaded.shards)
        # The single-node view of the same snapshot serves the same way.
        assert SsRecRecommender.load(tmp_path / "sharded").config == service.config

    def test_load_overrides_workers(self, ytube_small, ytube_stream, tmp_path):
        trained = _fresh(ytube_small, ytube_stream, False)
        service = ShardedRecommender.from_trained(trained, n_shards=2)
        service.save(tmp_path / "snap")
        reloaded = ShardedRecommender.load(tmp_path / "snap", workers=4)
        assert reloaded.workers == 4


class TestManifest:
    def test_manifest_contents(self, ytube_small, ytube_stream, tmp_path):
        rec = _fresh(ytube_small, ytube_stream, True)
        save_snapshot(rec, tmp_path / "snap")
        manifest = read_manifest(tmp_path / "snap")
        assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert manifest["kind"] == "ssrec"
        assert manifest["use_index"] is True
        assert manifest["n_users"] == len(rec.profiles)
        assert SsRecConfig.from_dict(manifest["config"]) == rec.config

    def test_missing_snapshot(self, tmp_path):
        with pytest.raises(SnapshotError, match="manifest"):
            read_manifest(tmp_path / "nowhere")

    # 2: the object-tree index era; 3: facades pickled shadow copies of
    # the serving axes beside config.
    @pytest.mark.parametrize("version", [2, 3, 999])
    def test_unsupported_version(self, ytube_small, ytube_stream, tmp_path, version):
        rec = _fresh(ytube_small, ytube_stream, False)
        save_snapshot(rec, tmp_path / "snap")
        manifest_path = tmp_path / "snap" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = version
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="format"):
            SsRecRecommender.load(tmp_path / "snap")

    def test_corrupt_payload_detected(self, ytube_small, ytube_stream, tmp_path):
        rec = _fresh(ytube_small, ytube_stream, False)
        save_snapshot(rec, tmp_path / "snap")
        payload = tmp_path / "snap" / "state.pkl"
        payload.write_bytes(payload.read_bytes() + b"tamper")
        with pytest.raises(SnapshotError, match="checksum"):
            SsRecRecommender.load(tmp_path / "snap")


class TestFailurePaths:
    """Corruption must raise the one typed error, never partial state."""

    @pytest.fixture()
    def snap(self, ytube_small, ytube_stream, tmp_path):
        rec = _fresh(ytube_small, ytube_stream, False)
        save_snapshot(rec, tmp_path / "snap")
        return tmp_path / "snap"

    def test_truncated_payload_with_matching_checksum(self, snap):
        """A pickle truncated *before* the manifest was written carries a
        valid checksum of the truncated bytes — deserialization itself
        must still fail with the typed error, not EOFError garbage."""
        import hashlib

        payload = snap / "state.pkl"
        truncated = payload.read_bytes()[: payload.stat().st_size // 2]
        payload.write_bytes(truncated)
        manifest = json.loads((snap / "manifest.json").read_text())
        manifest["payload_sha256"] = hashlib.sha256(truncated).hexdigest()
        (snap / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="deserialize"):
            SsRecRecommender.load(snap)

    def test_missing_payload_file(self, snap):
        (snap / "state.pkl").unlink()
        with pytest.raises(SnapshotError, match="payload missing"):
            SsRecRecommender.load(snap)

    def test_malformed_manifest_json(self, snap):
        (snap / "manifest.json").write_text("{not json")
        with pytest.raises(SnapshotError, match="unreadable"):
            read_manifest(snap)

    def test_non_object_manifest(self, snap):
        (snap / "manifest.json").write_text("[1, 2, 3]")
        with pytest.raises(SnapshotError, match="not an object"):
            read_manifest(snap)

    def test_manifest_missing_required_keys(self, snap):
        manifest = json.loads((snap / "manifest.json").read_text())
        del manifest["payload"], manifest["payload_sha256"]
        (snap / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="payload, payload_sha256"):
            SsRecRecommender.load(snap)

    def test_sharded_load_fails_typed_too(self, snap):
        (snap / "state.pkl").write_bytes(b"\x80\x05garbage")
        manifest = json.loads((snap / "manifest.json").read_text())
        import hashlib

        manifest["payload_sha256"] = hashlib.sha256(b"\x80\x05garbage").hexdigest()
        (snap / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="deserialize"):
            ShardedRecommender.load(snap)


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = SsRecConfig(lambda_s=0.3, n_shards=4, shard_strategy="hash")
        assert SsRecConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_is_json_safe(self):
        json.dumps(SsRecConfig().to_dict())

    def test_unknown_keys_rejected(self):
        data = SsRecConfig().to_dict()
        data["warp_factor"] = 9
        with pytest.raises(ValueError, match="warp_factor"):
            SsRecConfig.from_dict(data)

    def test_invalid_values_still_validated(self):
        data = SsRecConfig().to_dict()
        data["window_size"] = 0
        with pytest.raises(ValueError, match="window_size"):
            SsRecConfig.from_dict(data)
