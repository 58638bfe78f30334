"""Shared-memory shard fan-out: zero-copy workers, epoch copy-on-publish.

The process backend (:mod:`repro.serve.workers`) ships every worker a
*full pickle copy* of its shard and pays a pickle round-trip per
request — measured in ``BENCH_shard_scaling.json``, that overhead eats
the parallelism the block-partitioned CPPse index was supposed to buy
(throughput *drops* as shards grow).  This module keeps the processes
but removes both copies:

- **State is mapped, not copied.**  A shard's read-mostly model state —
  the stacked score matrices and smoothed interest columns
  (:meth:`~repro.core.matching.VectorizedMatcher.state_arrays`), block
  encodings, profile count arrays — is published *once* per version into
  a ``multiprocessing.shared_memory`` segment.  Publication pickles the
  shard with **protocol 5 out-of-band buffers**: the object graph
  (dicts, profile metadata, config) stays a small pickle stream while
  every C-contiguous array body lands in the segment verbatim.  A worker
  attaches by rebuilding the graph from the stream with ``buffers=``
  pointing at **read-only** views of the segment, so its arrays alias
  shared pages — zero copies, and any accidental in-place write raises
  ``ValueError`` instead of corrupting shared state.
- **Epoch copy-on-publish.**  Workers never write.  Mutations
  (update/observe/maintenance) happen on the parent's authoritative
  shard objects and mark the shard *dirty*; at the next serve window the
  parent settles lazy writes (:meth:`RecommenderShard.prepare_for_publish`),
  publishes a fresh segment under a bumped epoch, and retires the old
  one.  A reader either holds the old (complete, immutable) mapping or
  attaches the new one — there is no in-between, so torn reads are
  structurally impossible.  The :class:`SegmentManifest` a request
  carries names the segment *and* its epoch; an epoch mismatch between
  manifest and segment header is a typed :class:`ShmemError`, never a
  silently wrong answer.
- **One message per shard per window.**  A serve window sends each
  worker a single ``(manifest, payload)`` request — the payload (item
  or micro-batch plus ``k``) is pickled once and shared by every shard —
  and receives one packed reply, replacing per-request pickle queues.

Segment layout (all little-endian)::

    offset 0   : MAGIC = b"RPSHM001"            (8 bytes)
    offset 8   : header length H                (uint32)
    offset 12  : header JSON                    (H bytes)
    align64    : pickle stream                  (protocol 5, no buffers)
    align64    : buffer 0, buffer 1, ...        (each 64-byte aligned)

    header JSON = {"epoch": int,
                   "pickle":  [rel_offset, length],
                   "buffers": [[rel_offset, length], ...]}

    (offsets relative to the 64-aligned data region start, which is
    derived from H — keeping the header independent of its own size)

The manifest carries a SHA-256 over magic + header + pickle stream, so a
manifest/segment mismatch (wrong segment reused under a recycled name,
truncated publish) is detected at attach.

A note on CPython's ``resource_tracker`` (no ``track=False`` before
3.13): attaching registers the segment again, which is infamous for
spurious unlink-at-exit when the attacher runs its *own* tracker.  Here
every worker is spawned through ``multiprocessing``, whose preparation
data hands the child the parent's tracker fd — all processes share one
tracker, so the attach-side registration is an idempotent set-add, the
parent's explicit ``unlink()`` unregisters exactly once, and an
abandoned session still gets its segments reclaimed by the tracker.
Nothing here must ever call ``resource_tracker.unregister`` manually;
doing so would erase that crash cleanup.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import secrets
import struct
import traceback
from dataclasses import dataclass, field
from multiprocessing import shared_memory

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Trace, span, use_trace
from repro.serve.workers import _WorkerPoolBase, ShardWorkerError

#: Every segment name starts with this — the suite-wide leak guard in
#: ``tests/conftest.py`` scans ``/dev/shm`` for it after each test.
SEGMENT_PREFIX = "repro-shm-"

#: Format magic; bump the trailing digits on layout changes.
MAGIC = b"RPSHM001"

_HEADER_LEN_STRUCT = struct.Struct("<I")
_ALIGN = 64


class ShmemError(ShardWorkerError):
    """A shared-memory segment is missing, stale, or malformed."""


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# ----------------------------------------------------------------------
# Publish / attach
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentManifest:
    """Versioned pointer to one published segment.

    Travels on worker request queues (and in pool/publisher bookkeeping);
    a worker attaches *by manifest*, and the manifest's ``epoch`` must
    match the epoch baked into the segment header — the handshake that
    turns a stale or recycled segment into a typed error.
    """

    name: str
    epoch: int
    nbytes: int
    checksum: str


#: Segments whose close was blocked by a still-exported buffer view are
#: parked here instead of leaking the mapping silently (closing with
#: exports raises ``BufferError``).  Process exit reclaims them.
_GRAVEYARD: list[shared_memory.SharedMemory] = []


@dataclass
class Attachment:
    """A live read-only mapping of one published segment.

    ``state`` is the reconstructed object graph whose array bodies alias
    the segment; keep the attachment alive as long as the state is used,
    then :meth:`close` it (dropping ``state`` first — the arrays pin the
    mapping).
    """

    shm: shared_memory.SharedMemory
    state: object
    manifest: SegmentManifest
    _views: list = field(default_factory=list, repr=False)

    def close(self) -> None:
        """Drop the state graph and unmap the segment.

        Safe to call twice.  If a caller still holds arrays backed by the
        segment, the mapping cannot be unmapped — it is parked in a
        module graveyard (reclaimed at process exit) rather than raising
        out of teardown.
        """
        self.state = None
        gc.collect()  # collect the array graph so buffer exports drop
        views, self._views = self._views, []
        for view in reversed(views):
            try:
                view.release()
            except BufferError:  # pragma: no cover - caller kept arrays
                pass
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - caller kept arrays
            _GRAVEYARD.append(self.shm)


def publish_state(
    state, *, epoch: int, prefix: str = SEGMENT_PREFIX
) -> tuple[SegmentManifest, shared_memory.SharedMemory]:
    """Serialize ``state`` into a fresh shared-memory segment.

    Returns the manifest plus the open segment handle; the caller owns
    the segment (keeps it mapped for the readers, unlinks it on retire —
    :class:`ShardPublisher` does both).  Array buffers are written
    64-byte aligned so attached views keep NumPy's preferred alignment.
    """
    buffers: list[pickle.PickleBuffer] = []
    blob = pickle.dumps(state, protocol=5, buffer_callback=buffers.append)
    raws = [buf.raw() for buf in buffers]

    # Offsets are relative to the data region so the header's own size
    # (unknown until encoded) cannot shift them.
    pickle_off = 0
    cursor = _align(len(blob))
    buffer_spans = []
    for raw in raws:
        buffer_spans.append([cursor, raw.nbytes])
        cursor = _align(cursor + raw.nbytes)
    header = json.dumps(
        {
            "epoch": int(epoch),
            "pickle": [pickle_off, len(blob)],
            "buffers": buffer_spans,
        },
        separators=(",", ":"),
    ).encode("ascii")
    data_start = _align(len(MAGIC) + _HEADER_LEN_STRUCT.size + len(header))
    nbytes = data_start + cursor

    shm = None
    for _ in range(8):  # name collisions are possible, just retry
        name = f"{prefix}{os.getpid():x}-{secrets.token_hex(6)}"
        try:
            shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
            break
        except FileExistsError:  # pragma: no cover - astronomically rare
            continue
    if shm is None:  # pragma: no cover - astronomically rare
        raise ShmemError("could not allocate a uniquely named segment")

    try:
        buf = shm.buf
        buf[: len(MAGIC)] = MAGIC
        hlen_end = len(MAGIC) + _HEADER_LEN_STRUCT.size
        buf[len(MAGIC) : hlen_end] = _HEADER_LEN_STRUCT.pack(len(header))
        buf[hlen_end : hlen_end + len(header)] = header
        start = data_start + pickle_off
        buf[start : start + len(blob)] = blob
        for (off, length), raw in zip(buffer_spans, raws):
            start = data_start + off
            buf[start : start + length] = raw
    except BaseException:  # pragma: no cover - don't leak on write failure
        shm.close()
        shm.unlink()
        raise
    finally:
        for raw in raws:
            raw.release()
        for buf_obj in buffers:
            buf_obj.release()

    checksum = hashlib.sha256(MAGIC + header + blob).hexdigest()
    manifest = SegmentManifest(
        name=name, epoch=int(epoch), nbytes=nbytes, checksum=checksum
    )
    return manifest, shm


def attach_state(manifest: SegmentManifest, *, writable: bool = False) -> Attachment:
    """Map the segment named by ``manifest`` and rebuild its state graph.

    Array bodies alias the mapping (read-only unless ``writable`` — the
    writable escape hatch exists for tests that *prove* the read-only
    protection).  Raises :class:`ShmemError` when the segment has
    vanished (unlinked under us), has the wrong magic, fails its
    checksum, or carries an epoch other than the manifest's.
    """
    try:
        shm = shared_memory.SharedMemory(name=manifest.name)
    except FileNotFoundError:
        raise ShmemError(
            f"segment {manifest.name!r} (epoch {manifest.epoch}) has vanished"
        ) from None

    views: list = []
    try:
        if shm.size < manifest.nbytes:
            raise ShmemError(
                f"segment {manifest.name!r} is {shm.size} bytes, manifest "
                f"says {manifest.nbytes}"
            )
        base = bytes(shm.buf[: len(MAGIC)])
        if base != MAGIC:
            raise ShmemError(f"segment {manifest.name!r} has bad magic {base!r}")
        hlen_end = len(MAGIC) + _HEADER_LEN_STRUCT.size
        (header_len,) = _HEADER_LEN_STRUCT.unpack(shm.buf[len(MAGIC) : hlen_end])
        header_bytes = bytes(shm.buf[hlen_end : hlen_end + header_len])
        header = json.loads(header_bytes)
        if int(header["epoch"]) != manifest.epoch:
            raise ShmemError(
                f"segment {manifest.name!r} holds epoch {header['epoch']}, "
                f"manifest expects {manifest.epoch} (stale manifest)"
            )
        data_start = _align(hlen_end + header_len)
        pickle_off, pickle_len = header["pickle"]
        start = data_start + pickle_off
        blob = bytes(shm.buf[start : start + pickle_len])
        checksum = hashlib.sha256(MAGIC + header_bytes + blob).hexdigest()
        if checksum != manifest.checksum:
            raise ShmemError(
                f"segment {manifest.name!r} checksum mismatch "
                f"({checksum[:12]}… != {manifest.checksum[:12]}…)"
            )
        root = memoryview(shm.buf)
        views.append(root)
        pickle_buffers = []
        for off, length in header["buffers"]:
            start = data_start + off
            view = root[start : start + length]
            views.append(view)
            if not writable:
                view = view.toreadonly()
                views.append(view)
            pickle_buffers.append(view)
        state = pickle.loads(blob, buffers=pickle_buffers)
    except ShmemError:
        for view in reversed(views):
            view.release()
        shm.close()
        raise
    except Exception as exc:
        for view in reversed(views):
            view.release()
        shm.close()
        raise ShmemError(
            f"segment {manifest.name!r} could not be decoded: {exc!r}"
        ) from exc
    return Attachment(shm=shm, state=state, manifest=manifest, _views=views)


def live_segment_names(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of live segments under ``prefix`` (via ``/dev/shm``).

    The suite-wide leak guard uses this; on platforms without a
    ``/dev/shm`` listing it returns ``[]`` (the guard degrades to a
    no-op rather than false-failing).
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-Linux
        return []
    return sorted(entry for entry in entries if entry.startswith(prefix))


# ----------------------------------------------------------------------
# Publisher (parent side)
# ----------------------------------------------------------------------
class ShardPublisher:
    """Owns the published segment per shard; bumps epochs, retires old.

    Epochs are per-shard and strictly monotonic — the property tests
    interleave publishes and assert it.  Republishing retires the
    previous segment immediately (close + unlink): POSIX keeps existing
    mappings valid, so a reader mid-window on the old epoch finishes
    unharmed, while any *new* attach of the old name fails loudly.
    """

    def __init__(self, prefix: str = SEGMENT_PREFIX) -> None:
        self.prefix = prefix
        self._epochs: dict[int, int] = {}
        self._segments: dict[int, shared_memory.SharedMemory] = {}
        self._manifests: dict[int, SegmentManifest] = {}
        self.publishes = 0
        self.retired = 0
        self.bytes_published = 0
        self._closed = False

    def publish(self, shard_id: int, state) -> SegmentManifest:
        """Publish ``state`` for ``shard_id`` under the next epoch."""
        if self._closed:
            raise ShmemError("publisher is closed")
        shard_id = int(shard_id)
        epoch = self._epochs.get(shard_id, 0) + 1
        manifest, shm = publish_state(state, epoch=epoch, prefix=self.prefix)
        self._retire(shard_id)
        self._epochs[shard_id] = epoch
        self._segments[shard_id] = shm
        self._manifests[shard_id] = manifest
        self.publishes += 1
        self.bytes_published += manifest.nbytes
        return manifest

    def manifest(self, shard_id: int) -> SegmentManifest | None:
        return self._manifests.get(int(shard_id))

    def epoch(self, shard_id: int) -> int:
        return self._epochs.get(int(shard_id), 0)

    def _retire(self, shard_id: int) -> None:
        shm = self._segments.pop(shard_id, None)
        self._manifests.pop(shard_id, None)
        if shm is None:
            return
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - raced by a test
            pass
        self.retired += 1

    def close(self) -> None:
        """Retire every live segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for shard_id in list(self._segments):
            self._retire(shard_id)

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def obs_registry(self) -> MetricsRegistry:
        """Segment/epoch telemetry (``shmem.publisher.*``)."""
        registry = MetricsRegistry()
        registry.counter("shmem.publisher.publishes").inc(self.publishes)
        registry.counter("shmem.publisher.retired_segments").inc(self.retired)
        registry.counter("shmem.publisher.bytes_published").inc(self.bytes_published)
        registry.gauge("shmem.publisher.live_segments").set(len(self._segments))
        for shard_id in sorted(self._epochs):
            registry.gauge("shmem.publisher.epoch", shard=str(shard_id)).set(
                self._epochs[shard_id]
            )
        return registry


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _ShmemShardReader:
    """Worker-local state: the current attachment plus persistent metrics.

    Re-attaching replaces the shard object wholesale, so serving metrics
    live in one :class:`~repro.serve.shard.ShardMetrics` (and one index
    counter dict) owned by the reader and re-installed on every freshly
    attached shard — telemetry survives epoch bumps.
    """

    def __init__(self, shard_id: int) -> None:
        from repro.serve.shard import ShardMetrics

        self.shard_id = int(shard_id)
        self.attachment: Attachment | None = None
        self.metrics = ShardMetrics()
        self.index_counters: dict | None = None
        self.attaches = 0

    def ensure(self, manifest: SegmentManifest):
        """The shard for ``manifest``, re-attaching on epoch change."""
        att = self.attachment
        if att is not None and att.manifest == manifest:
            return att.state
        if att is not None:
            self.attachment = None
            att.close()
        att = attach_state(manifest)
        self.attachment = att
        self.attaches += 1
        att.state.metrics = self.metrics
        if att.state.index is not None:
            # Same for the index's pruning counters: this worker's own,
            # not the parent's as of the publish.
            if self.index_counters is None:
                self.index_counters = dict.fromkeys(att.state.index.counters, 0)
            att.state.index.counters = self.index_counters
        return att.state

    def close(self) -> None:
        if self.attachment is not None:
            attachment, self.attachment = self.attachment, None
            attachment.close()

    def apply(self, op: str, args: tuple):
        if op == "serve":
            manifest, payload = args
            shard = self.ensure(manifest)
            kind, data, k = pickle.loads(payload)
            if kind == "item":
                return shard.recommend(data, k)
            return shard.recommend_batch(data, k)
        if op == "metrics":
            row = {
                "shard_id": self.shard_id,
                "users": (
                    self.attachment.state.n_users
                    if self.attachment is not None
                    else 0
                ),
            }
            row.update(self.metrics.as_dict())
            return row
        if op == "obs":
            return self.obs_dump()
        if op == "ping":
            return "pong"
        raise ShardWorkerError(f"unknown shmem worker op {op!r}")

    def obs_dump(self) -> dict:
        shard_label = str(self.shard_id)
        if self.attachment is not None:
            registry = self.attachment.state.obs_registry()
            epoch = self.attachment.manifest.epoch
        else:
            registry = MetricsRegistry()
            epoch = 0
        registry.counter("shmem.worker.attaches", shard=shard_label).inc(self.attaches)
        registry.gauge("shmem.worker.epoch", shard=shard_label).set(epoch)
        return registry.to_dict()


def _shmem_worker_main(shard_id: int, requests, replies) -> None:
    """Stateless worker loop: attach by manifest, serve, repeat.

    Unlike :func:`~repro.serve.workers._shard_worker_main` it receives no
    state at spawn — every serve request names the segment (and epoch) to
    read, so a respawned worker needs nothing but its shard id.  Shmem
    failures ship back typed (``("err", ("shmem", …))``) so the parent
    re-raises :class:`ShmemError` rather than a generic worker error.
    """
    reader = _ShmemShardReader(shard_id)
    while True:
        seq, op, args, trace_ctx = requests.get()
        if op == "stop":
            reader.close()
            replies.put((seq, "ok", None, None))
            break
        try:
            if trace_ctx is None:
                replies.put((seq, "ok", reader.apply(op, args), None))
            else:
                trace = Trace(trace_ctx["trace_id"])
                with use_trace(trace, trace_ctx.get("parent_id")):
                    with span(f"worker.{op}", shard=shard_id):
                        value = reader.apply(op, args)
                replies.put((seq, "ok", value, trace.spans()))
        except ShmemError as exc:
            replies.put(
                (seq, "err", ("shmem", f"{exc!r}\n{traceback.format_exc()}"), None)
            )
        except Exception as exc:  # noqa: BLE001 - shipped to the parent
            replies.put(
                (seq, "err", ("worker", f"{exc!r}\n{traceback.format_exc()}"), None)
            )


# ----------------------------------------------------------------------
# Pool (parent side)
# ----------------------------------------------------------------------
class ShmemWorkerPool(_WorkerPoolBase):
    """Worker pool where the *parent* stays authoritative over shards.

    The inversion relative to :class:`~repro.serve.workers.ShardWorkerPool`:
    workers are stateless readers; the parent's shard objects remain the
    single source of truth and every mutation applies to them directly
    (so ``observe``/``update`` cost **zero** worker round-trips).  The
    price is a republish before the next serve window after any mutation
    — amortized across the whole window, and skipped entirely while the
    shard is clean.

    ``start_method`` defaults to the ``REPRO_SHMEM_START_METHOD``
    environment variable (``spawn`` when unset); the CI fault battery
    runs under both ``spawn`` and ``forkserver``.
    """

    #: Signals the service that worker state never diverges from the
    #: parent's shards (``_sync_from_workers`` becomes a no-op).
    parent_authoritative = True

    def __init__(
        self,
        shards,
        reply_timeout: float = 300.0,
        start_method: str | None = None,
    ) -> None:
        if start_method is None:
            start_method = os.environ.get("REPRO_SHMEM_START_METHOD", "spawn")
        super().__init__(reply_timeout=reply_timeout, start_method=start_method)
        self.shards = list(shards)
        if not self.shards:
            raise ValueError("ShmemWorkerPool needs at least one shard")
        self.publisher = ShardPublisher()
        self._dirty = [True] * len(self.shards)
        for shard in self.shards:
            self._workers.append(self._spawn(shard.shard_id))

    def _spawn(self, shard_id: int):
        return self._spawn_worker(
            _shmem_worker_main, (int(shard_id),), name=f"repro-shmem-{shard_id}"
        )

    # ------------------------------------------------------------------
    # Copy-on-publish
    # ------------------------------------------------------------------
    def invalidate(self, index: int | None = None) -> None:
        """Mark shard ``index`` (or all shards) dirty for republish."""
        if index is None:
            self._dirty = [True] * len(self.shards)
        else:
            self._dirty[index] = True

    def refresh(self) -> None:
        """Republish every dirty shard (bumping its epoch)."""
        for index, shard in enumerate(self.shards):
            if self._dirty[index]:
                shard.prepare_for_publish()
                self.publisher.publish(shard.shard_id, shard)
                self._dirty[index] = False

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _serve(self, request: tuple, trace_ctx: dict | None) -> list:
        self._require_open()
        self.refresh()
        # One pickle of the query payload, shared by every shard's message.
        payload = pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
        seqs = []
        for index, worker in enumerate(self._workers):
            manifest = self.publisher.manifest(self.shards[index].shard_id)
            seqs.append(self._send(worker, "serve", (manifest, payload), trace_ctx))
        return [
            self._reply_from(worker, index, seq)
            for (index, worker), seq in zip(enumerate(self._workers), seqs)
        ]

    def serve_item(self, item, k: int, trace_ctx: dict | None = None) -> list:
        """Per-shard top-``k`` lists for one item, in shard order."""
        return self._serve(("item", item, int(k)), trace_ctx)

    def serve_batch(self, items, k: int, trace_ctx: dict | None = None) -> list:
        """Per-shard lists of top-``k`` lists for a micro-batch."""
        return self._serve(("batch", list(items), int(k)), trace_ctx)

    # ------------------------------------------------------------------
    # Lifecycle / state
    # ------------------------------------------------------------------
    def restart(self, index: int) -> None:
        """Stop worker ``index`` and respawn it (workers are stateless —
        no state collection needed; the next serve re-attaches)."""
        self._stop_worker(self._workers[index])
        self._workers[index] = self._spawn(self.shards[index].shard_id)

    def restart_all(self) -> None:
        for index in range(len(self._workers)):
            self.restart(index)

    def collect(self, index: int):
        """The authoritative shard — the parent's own object."""
        return self.shards[index]

    def collect_all(self) -> list:
        return list(self.shards)

    def close(self) -> None:
        super().close()
        self.publisher.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("alive" if self.alive else "degraded")
        return f"ShmemWorkerPool(workers={self.n_workers}, {state})"
