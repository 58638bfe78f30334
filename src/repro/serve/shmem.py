"""Shard state publication: epoch-versioned, zero-copy, copy-on-publish.

Worker processes (:mod:`repro.serve.workers`) never own shard state:
the parent's shard objects are authoritative under every multi-process
backend, and workers read *published* copies of them.  This module is
that copy's format, writer and reader:

- **State is encoded once per version.**  A shard's read-mostly model
  state — the stacked score matrices and smoothed interest columns
  (:meth:`~repro.core.matching.VectorizedMatcher.state_arrays`), block
  encodings, profile count arrays — is pickled with **protocol 5
  out-of-band buffers**: the object graph (dicts, profile metadata,
  config) stays a small pickle stream while every C-contiguous array
  body lands in the byte layout below verbatim.  A reader rebuilds the
  graph from the stream with ``buffers=`` pointing at **read-only**
  views of those bytes, so its arrays alias them — zero copies, and any
  accidental in-place write raises ``ValueError`` instead of corrupting
  shared state.
- **Two byte sources, one reader.**  Under ``shmem`` the layout lives in
  a named ``multiprocessing.shared_memory`` segment every worker maps;
  under ``process`` the same bytes sit in a private ``bytearray`` the
  pool ships over a worker's request queue.  :func:`attach_state`
  decodes either.
- **Epoch copy-on-publish.**  Workers never write.  Mutations
  (update/observe/maintenance/configure) happen on the parent's shard
  objects and mark the shard *dirty*; at the next serve window the
  parent settles lazy writes (:meth:`RecommenderShard.prepare_for_publish`),
  publishes a fresh copy under a bumped epoch, and retires the old one.
  A reader either holds the old (complete, immutable) copy or attaches
  the new one — there is no in-between, so torn reads are structurally
  impossible.  The :class:`SegmentManifest` a request carries names the
  copy *and* its epoch; an epoch mismatch between manifest and header is
  a typed :class:`ShmemError`, never a silently wrong answer.

Layout (all little-endian)::

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
manifest/copy mismatch (wrong segment reused under a recycled name,
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
from dataclasses import dataclass, field
from multiprocessing import shared_memory

from repro.obs.metrics import MetricsRegistry

#: Every segment name starts with this — the suite-wide leak guard in
#: ``tests/conftest.py`` scans ``/dev/shm`` for it after each test.
SEGMENT_PREFIX = "repro-shm-"

#: Format magic; bump the trailing digits on layout changes.
MAGIC = b"RPSHM001"

#: Manifest name of a copy published into process memory (``process``
#: transport): it has no segment to look up, only bytes shipped with it.
INLINE = "<inline>"

_HEADER_LEN_STRUCT = struct.Struct("<I")
_ALIGN = 64


class ShardWorkerError(RuntimeError):
    """A shard worker process failed, died, or timed out.

    Defined beside the state reader (and re-exported by
    :mod:`repro.serve.workers`) so :class:`ShmemError` can be one.
    """


class ShmemError(ShardWorkerError):
    """A published state copy is missing, stale, or malformed."""


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# ----------------------------------------------------------------------
# Publish / attach
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentManifest:
    """Versioned pointer to one published copy (a segment, or
    :data:`INLINE` bytes shipped beside it).

    Travels on worker request queues (and in pool/publisher bookkeeping);
    a worker attaches *by manifest*, and the manifest's ``epoch`` must
    match the epoch baked into the copy's header — the handshake that
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
    """A live read-only view of one published copy.

    ``state`` is the reconstructed object graph whose array bodies alias
    the copy's bytes (a mapped segment, or a shipped ``bytearray`` when
    ``shm`` is None); keep the attachment alive as long as the state is
    used, then :meth:`close` it (dropping ``state`` first — the arrays
    pin the bytes).
    """

    shm: shared_memory.SharedMemory | None
    state: object
    manifest: SegmentManifest
    _views: list = field(default_factory=list, repr=False)

    def close(self) -> None:
        """Drop the state graph and release the bytes (unmap a segment).

        Safe to call twice.  If a caller still holds arrays backed by a
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
        if self.shm is None:
            return
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - caller kept arrays
            _GRAVEYARD.append(self.shm)


def publish_state(
    state, *, epoch: int, prefix: str | None = SEGMENT_PREFIX
) -> tuple[SegmentManifest, shared_memory.SharedMemory | bytearray]:
    """Serialize ``state`` into a fresh copy in the layout above.

    Returns the manifest plus the copy: an open shared-memory segment
    named under ``prefix``, or — ``prefix=None`` — a private
    ``bytearray`` (manifest name :data:`INLINE`) for the caller to ship.
    The caller owns the copy (keeps a segment mapped for the readers,
    unlinks it on retire — :class:`ShardPublisher` does both).  Array
    buffers are written 64-byte aligned so attached views keep NumPy's
    preferred alignment.
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
    copy: shared_memory.SharedMemory | bytearray
    if prefix is None:
        name, copy = INLINE, bytearray(nbytes)
    else:
        for _ in range(8):  # name collisions are possible, just retry
            name = f"{prefix}{os.getpid():x}-{secrets.token_hex(6)}"
            try:
                shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
                break
            except FileExistsError:  # pragma: no cover - astronomically rare
                continue
        if shm is None:  # pragma: no cover - astronomically rare
            raise ShmemError("could not allocate a uniquely named segment")
        copy = shm

    try:
        with memoryview(copy if shm is None else shm.buf) as buf:
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
        if shm is not None:
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
    return manifest, copy


def attach_state(manifest: SegmentManifest, data: bytearray | None = None) -> Attachment:
    """Rebuild the state graph of the copy ``manifest`` names.

    The bytes are ``data`` when given (a copy shipped inline), otherwise
    the shared-memory segment called ``manifest.name``.  Array bodies
    alias those bytes through read-only views.  Raises
    :class:`ShmemError` when the segment has vanished (unlinked under
    us), has the wrong magic, fails its checksum, or carries an epoch
    other than the manifest's.
    """
    shm = None
    if data is None:
        try:
            shm = shared_memory.SharedMemory(name=manifest.name)
        except FileNotFoundError:
            raise ShmemError(
                f"segment {manifest.name!r} (epoch {manifest.epoch}) has vanished"
            ) from None

    root = memoryview(data if shm is None else shm.buf)
    views: list = [root]
    try:
        if root.nbytes < manifest.nbytes:
            raise ShmemError(
                f"segment {manifest.name!r} is {root.nbytes} bytes, manifest "
                f"says {manifest.nbytes}"
            )
        base = bytes(root[: len(MAGIC)])
        if base != MAGIC:
            raise ShmemError(f"segment {manifest.name!r} has bad magic {base!r}")
        hlen_end = len(MAGIC) + _HEADER_LEN_STRUCT.size
        (header_len,) = _HEADER_LEN_STRUCT.unpack(root[len(MAGIC) : hlen_end])
        header_bytes = bytes(root[hlen_end : hlen_end + header_len])
        header = json.loads(header_bytes)
        if int(header["epoch"]) != manifest.epoch:
            raise ShmemError(
                f"segment {manifest.name!r} holds epoch {header['epoch']}, "
                f"manifest expects {manifest.epoch} (stale manifest)"
            )
        data_start = _align(hlen_end + header_len)
        pickle_off, pickle_len = header["pickle"]
        start = data_start + pickle_off
        blob = bytes(root[start : start + pickle_len])
        checksum = hashlib.sha256(MAGIC + header_bytes + blob).hexdigest()
        if checksum != manifest.checksum:
            raise ShmemError(
                f"segment {manifest.name!r} checksum mismatch "
                f"({checksum[:12]}… != {manifest.checksum[:12]}…)"
            )
        pickle_buffers = []
        for off, length in header["buffers"]:
            start = data_start + off
            view = root[start : start + length]
            views.append(view)
            view = view.toreadonly()
            views.append(view)
            pickle_buffers.append(view)
        state = pickle.loads(blob, buffers=pickle_buffers)
    except Exception as exc:
        for view in reversed(views):
            view.release()
        if shm is not None:
            shm.close()
        if isinstance(exc, ShmemError):
            raise
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
    """Owns the published copy per shard; bumps epochs, retires old.

    Epochs are per-shard and strictly monotonic — the property tests
    interleave publishes and assert it.  Republishing retires the
    previous copy immediately (a segment is closed and unlinked): POSIX
    keeps existing mappings valid, so a reader mid-window on the old
    epoch finishes unharmed, while any *new* attach of the old name
    fails loudly.  ``prefix=None`` keeps each copy as in-process bytes
    (:meth:`data`) instead of a named segment.
    """

    def __init__(self, prefix: str | None = SEGMENT_PREFIX) -> None:
        self.prefix = prefix
        self._epochs: dict[int, int] = {}
        self._segments: dict[int, shared_memory.SharedMemory | bytearray] = {}
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
        manifest, copy = publish_state(state, epoch=epoch, prefix=self.prefix)
        self._retire(shard_id)
        self._epochs[shard_id] = epoch
        self._segments[shard_id] = copy
        self._manifests[shard_id] = manifest
        self.publishes += 1
        self.bytes_published += manifest.nbytes
        return manifest

    def manifest(self, shard_id: int) -> SegmentManifest | None:
        return self._manifests.get(int(shard_id))

    def epoch(self, shard_id: int) -> int:
        return self._epochs.get(int(shard_id), 0)

    def data(self, shard_id: int) -> bytearray | None:
        """The current copy's bytes when published in-process, else None
        (readers map the segment by name)."""
        copy = self._segments.get(int(shard_id))
        return copy if isinstance(copy, bytearray) else None

    def _retire(self, shard_id: int) -> None:
        copy = self._segments.pop(shard_id, None)
        self._manifests.pop(shard_id, None)
        if copy is None:
            return
        if isinstance(copy, shared_memory.SharedMemory):
            try:
                copy.close()
                copy.unlink()
            except FileNotFoundError:  # pragma: no cover - raced by a test
                pass
        self.retired += 1

    def close(self) -> None:
        """Retire every live copy.  Idempotent."""
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
