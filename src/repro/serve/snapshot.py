"""Versioned on-disk snapshots of trained serving state.

A snapshot is a directory::

    <path>/
      manifest.json   # format version, kind, config, shard plan, checksum
      state.pkl       # the live recommender/service object graph

``state.pkl`` pickles the fitted object itself — profiles, entity
vocabulary/extractor/expander, the BiHMM, the interest predictor
(including its per-user filtered states), the vectorized matcher and any
CPPse-index, shard stores included for a sharded service.  Persisting
the *live* structures rather than re-deriving them on load matters for
exactness: a maintained CPPse-index has absorbed Algorithm-2 updates
(reserved-zone claims, block rebuilds) that a fresh re-clustering of the
same profiles would not reproduce, and a query probes trees by block
universe — so only the preserved index is guaranteed to return
bit-identical recommendations after a warm start.

``manifest.json`` duplicates the :class:`~repro.core.config.SsRecConfig`
and the optional :class:`~repro.serve.sharding.ShardPlan` as plain JSON
for operator inspection, records the format version, and carries a
SHA-256 of the payload so corruption fails loudly instead of serving
garbage.  On load the manifest config is round-tripped through
``SsRecConfig.from_dict`` (unknown keys rejected) and cross-checked
against the pickled object's config.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time
from pathlib import Path

from repro.core.config import SsRecConfig
from repro.core.ssrec import SsRecRecommender

#: Bump when the payload layout changes incompatibly.
#: Version 2: the execution-plan core (repro.exec) added pickled state —
#: ProfileStore.version, VectorizedMatcher._synced_store_version, the
#: facades' exec epoch/result-cache flags, EntityExpander's expand memo.
#: Version-1 snapshots lack those attributes and would load cleanly only
#: to crash on first serve, so they are rejected by the version check.
#: Version 3: the pickled CPPse-index is a flat forest per block
#: (``CPPseIndex.forests``) — version-2 payloads pickle node/entry classes
#: that no longer exist.
#: Version 4: the facades no longer pickle shadow copies of the serving
#: axes (scoring, dedup mode, result-cache switch) — ``config`` is the
#: one record.  A version-3 payload would unpickle with the shadows as
#: dead attributes and a config that never heard of a post-fit retune,
#: so it is rejected rather than served differently.
SNAPSHOT_FORMAT_VERSION = 4
MANIFEST_NAME = "manifest.json"
STATE_NAME = "state.pkl"


class SnapshotError(ValueError):
    """A snapshot directory is missing, corrupt, or incompatible."""


def _trained_of(recommender) -> SsRecRecommender:
    trained = getattr(recommender, "trained", recommender)
    if not isinstance(trained, SsRecRecommender) or trained.bihmm is None:
        raise ValueError("only a fitted recommender can be snapshotted")
    return trained


def save_snapshot(recommender, path) -> Path:
    """Write ``recommender`` (a fitted :class:`SsRecRecommender` or a
    :class:`~repro.serve.service.ShardedRecommender`) to ``path``.

    Returns the snapshot directory.  The payload is written before the
    manifest, so a torn write leaves no valid manifest behind.
    """
    trained = _trained_of(recommender)
    plan = getattr(recommender, "plan", None)
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    blob = pickle.dumps(recommender, protocol=pickle.HIGHEST_PROTOCOL)
    (directory / STATE_NAME).write_bytes(blob)
    manifest = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "kind": "sharded" if plan is not None else "ssrec",
        "created_unix": time.time(),
        "config": trained.config.to_dict(),
        "use_index": bool(getattr(recommender, "use_index", trained.use_index)),
        # Informational: the backend the service ran under at save time.
        # Segments/pools are runtime artifacts — never persisted; a
        # loaded shmem service republishes lazily on its first serve.
        "serve_backend": str(
            getattr(recommender, "backend", trained.config.serve_backend)
        ),
        "seed": trained.seed,
        "n_categories": trained.bihmm.n_categories,
        "n_users": len(trained.profiles),
        "payload": STATE_NAME,
        "payload_sha256": hashlib.sha256(blob).hexdigest(),
        "shard_plan": plan.to_dict() if plan is not None else None,
    }
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    return directory


def read_manifest(path) -> dict:
    """Parse and version-check a snapshot's manifest.

    Every failure mode — missing directory, unreadable file, malformed
    JSON, unsupported version — raises :class:`SnapshotError`, so callers
    handle exactly one exception type.
    """
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.exists():
        raise SnapshotError(f"no snapshot manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"unreadable snapshot manifest at {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise SnapshotError(f"snapshot manifest at {manifest_path} is not an object")
    missing = [
        key
        for key in ("format_version", "payload", "payload_sha256", "config")
        if key not in manifest
    ]
    if missing:
        raise SnapshotError(
            f"snapshot manifest at {manifest_path} is missing "
            f"required keys: {', '.join(missing)}"
        )
    version = manifest.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format {version!r} unsupported "
            f"(this code reads version {SNAPSHOT_FORMAT_VERSION})"
        )
    return manifest


def _load_payload(path, manifest: dict):
    payload_path = Path(path) / manifest["payload"]
    try:
        blob = payload_path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"snapshot payload missing at {payload_path}: {exc}") from exc
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest["payload_sha256"]:
        raise SnapshotError(
            f"snapshot payload checksum mismatch at {path} "
            f"(expected {manifest['payload_sha256'][:12]}…, got {digest[:12]}…)"
        )
    try:
        restored = pickle.loads(blob)
    except Exception as exc:
        # Checksum passed but the pickle does not deserialize: the payload
        # was written by incompatible code (or truncated before the
        # manifest was).  Surface the typed error, never partial state.
        raise SnapshotError(
            f"snapshot payload at {payload_path} failed to deserialize: {exc}"
        ) from exc
    # The manifest config is authoritative documentation of what was
    # saved; round-trip it (rejecting unknown keys) and cross-check.
    config = SsRecConfig.from_dict(manifest["config"])
    trained = _trained_of(restored)
    if trained.config != config:
        raise SnapshotError(
            "snapshot manifest config disagrees with the pickled state"
        )
    return restored


def load_recommender(path) -> SsRecRecommender:
    """Warm-start a single-process :class:`SsRecRecommender` from ``path``.

    For ``"sharded"`` snapshots this returns the underlying trained
    recommender (use :func:`load_sharded` to restore the full service).
    """
    manifest = read_manifest(path)
    restored = _load_payload(path, manifest)
    return _trained_of(restored)


def load_sharded(path, workers: int | None = None, backend: str | None = None):
    """Warm-start a :class:`~repro.serve.service.ShardedRecommender`.

    ``"sharded"`` snapshots restore their shards — indexes, pending
    maintenance and plan — exactly as saved (worker pools are never part
    of a snapshot; the process backend respawns lazily on first use).
    ``"ssrec"`` snapshots are sharded on load using the config's
    ``n_shards``/``shard_strategy``.  ``backend`` overrides the restored
    service's fan-out backend without touching its state.
    """
    from repro.core.config import SERVE_BACKENDS
    from repro.serve.service import ShardedRecommender  # local: avoids cycle

    if backend is not None and backend not in SERVE_BACKENDS:
        raise ValueError(f"backend must be one of {SERVE_BACKENDS}, got {backend!r}")
    manifest = read_manifest(path)
    restored = _load_payload(path, manifest)
    if isinstance(restored, ShardedRecommender):
        if workers is not None:
            restored.workers = max(0, int(workers))
        if backend is not None:
            restored.backend = backend
        return restored
    return ShardedRecommender.from_trained(
        restored,
        use_index=bool(manifest["use_index"]),
        workers=workers,
        backend=backend,
    )
