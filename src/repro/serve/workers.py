"""Shard worker processes: one OS process per :class:`RecommenderShard`.

The thread backend of :class:`~repro.serve.service.ShardedRecommender`
fans queries out on a ``ThreadPoolExecutor``, but the scoring work inside a
shard is largely GIL-bound Python (best-first tree search, per-pair
arithmetic), so threads barely parallelize it.  A :class:`ShardWorkerPool`
serves every shard from its *own process* instead — the Storm-worker
layout the paper deploys on — so N shards score on N cores.

Mechanics:

- **Authority.** The parent's shard objects are the only state there is.
  Mutations (update/observe/maintenance/configure) apply to them and mark
  the shard *dirty*; workers are stateless readers that are handed the
  shard's current published copy (:mod:`repro.serve.shmem`) and never
  write.  Nothing is collected back from a worker, ever.
- **Transport.** The one per-backend difference.  Before a serve window
  every dirty shard is republished under a bumped epoch: ``"shmem"``
  writes it into a named shared-memory segment each worker maps
  zero-copy; ``"process"`` writes the same bytes into a private buffer
  and ships them on the worker's request queue with its next serve
  message (only once per epoch per worker).  Both decode through
  :func:`~repro.serve.shmem.attach_state`.  A window sends each worker
  one ``serve`` message — the payload (item or micro-batch plus ``k``) is
  pickled once and shared by every shard.
- **Queues.** One request queue and one reply queue per worker
  (``multiprocessing`` under ``spawn`` or ``forkserver``).  Every request
  produces exactly one reply and each worker serves its queue FIFO, so
  the parent can pipeline a fan-out (send to all workers, then collect in
  shard order).  Requests and replies carry a per-worker sequence tag;
  replies left uncollected by a failed exchange are recognized as stale
  and discarded, never misattributed to a later call.
- **Collection safety.** The parent never reads a reply queue directly:
  a per-worker daemon *pump thread* drains the multiprocessing queue into
  an in-process ``queue.Queue`` the parent waits on with real timeouts.
  ``multiprocessing.Queue.get(timeout)`` only applies its timeout to the
  initial poll — once a frame header is seen, the subsequent
  ``recv_bytes`` blocks unboundedly, so a worker killed mid-write of a
  large reply could deadlock the parent.  With the pump, that blocking
  read happens on an abandonable daemon thread and the parent's wait
  keeps honoring liveness and deadlines.
- **Owner watch.** Workers get no state at spawn, only their shard id and
  the read end of a pipe whose write end only the owning pool holds.  A
  worker waits for requests with a bounded timeout and, between
  requests, exits once that pipe reports EOF — the kernel closes the
  owner's end when the owner dies, even while it is an unreaped zombie —
  so no worker outlives its owner by more than a few seconds.
- **Restart.** Workers hold nothing the parent lacks, so :meth:`restart`
  is stop + respawn; the fresh worker receives (``process``) or
  re-attaches (``shmem``) the current epoch on its first serve — the
  mid-stream restart the conformance harness replays to prove it is
  invisible in results.

Failures surface as :class:`ShardWorkerError` carrying the remote
traceback (:class:`~repro.serve.shmem.ShmemError` for a bad published
copy); a dead worker is detected by liveness polling instead of hanging
the parent forever.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_lib
import threading
import time
import traceback
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Trace, current_trace, span, use_trace
from repro.serve.shmem import (
    SEGMENT_PREFIX,
    Attachment,
    SegmentManifest,
    ShardPublisher,
    ShardWorkerError,
    ShmemError,
    attach_state,
)

#: Serving backends whose shards a :class:`ShardWorkerPool` serves; each
#: names how published state reaches the workers.
POOL_BACKENDS = ("process", "shmem")

#: Sent through a reply queue by the *parent* to release that queue's pump
#: thread (a blocked cross-process read is not interrupted by closing the
#: queue).  A plain string so it survives the queue's pickle round trip.
_PUMP_STOP = "__repro_pump_stop__"

#: Start methods a pool accepts.  ``fork`` is excluded on purpose: it is
#: unsafe under NumPy/BLAS threading and macOS system libraries.
POOL_START_METHODS = ("spawn", "forkserver")

#: Seconds an idle worker waits for a request before checking its owner.
_OWNER_POLL = 0.5


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _ShardReader:
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

    def ensure(self, manifest: SegmentManifest, data: bytearray | None):
        """The shard for ``manifest``, re-attaching on epoch change."""
        att = self.attachment
        if att is not None and att.manifest == manifest:
            return att.state
        if att is not None:
            self.attachment = None
            att.close()
        att = attach_state(manifest, data)
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
        """One request (``serve``, ``metrics``, ``obs`` or ``ping``)."""
        if op == "serve":
            manifest, data, payload = args
            shard = self.ensure(manifest, data)
            kind, items, k = pickle.loads(payload)
            if kind == "item":
                return shard.recommend(items, k)
            return shard.recommend_batch(items, k)
        if op == "metrics":
            return self.metrics.as_dict()
        if op == "obs":
            return self.obs_dump()
        if op == "ping":
            return "pong"
        raise ShardWorkerError(f"unknown worker op {op!r}")

    def obs_dump(self) -> dict:
        from repro.core import kernels

        shard_label = str(self.shard_id)
        if self.attachment is not None:
            registry = self.attachment.state.obs_registry()
            epoch = self.attachment.manifest.epoch
        else:
            registry = MetricsRegistry()
            epoch = 0
        registry.counter("shmem.worker.attaches", shard=shard_label).inc(self.attaches)
        registry.gauge("shmem.worker.epoch", shard=shard_label).set(epoch)
        if kernels.fallback_count():  # native scoring fell back here
            registry.counter("native.fallbacks", shard=shard_label).inc(
                kernels.fallback_count()
            )
        return registry.to_dict()


def _worker_main(shard_id: int, owner, requests, replies) -> None:
    """Worker process entry point: attach the current epoch, serve, repeat.

    Module-level so the ``spawn`` start method can import it by reference.
    Every exception is shipped back as an ``("err", (kind, traceback))``
    reply rather than killing the process; a bad published copy ships as
    kind ``"shmem"`` so the parent re-raises :class:`ShmemError`.  Exits
    on ``stop``, or — checked whenever no request arrived within
    :data:`_OWNER_POLL` — once ``owner`` reads EOF: its only write end
    died with the owning process.
    """
    reader = _ShardReader(shard_id)
    try:
        while True:
            try:
                seq, op, args, trace_ctx = requests.get(timeout=_OWNER_POLL)
            except queue_lib.Empty:
                if owner.poll():  # EOF: the owner is gone
                    # Nobody will drain our replies; don't block exit on them.
                    replies.cancel_join_thread()
                    return
                continue
            if op == "stop":
                replies.put((seq, "ok", None, None))
                return
            try:
                if trace_ctx is None:
                    replies.put((seq, "ok", reader.apply(op, args), None))
                else:
                    # Re-hydrate the parent's trace on this side of the
                    # process boundary; the recorded spans travel back on
                    # the reply and are grafted into the parent's tree.
                    trace = Trace(trace_ctx["trace_id"])
                    with use_trace(trace, trace_ctx.get("parent_id")):
                        with span(f"worker.{op}", shard=shard_id):
                            value = reader.apply(op, args)
                    replies.put((seq, "ok", value, trace.spans()))
            except Exception as exc:  # noqa: BLE001 - shipped to the parent
                kind = "shmem" if isinstance(exc, ShmemError) else "worker"
                replies.put(
                    (seq, "err", (kind, f"{exc!r}\n{traceback.format_exc()}"), None)
                )
    finally:
        reader.close()


def _pump_replies(replies, inbox: queue_lib.Queue) -> None:
    """Drain one worker's multiprocessing reply queue into ``inbox``.

    Runs on a daemon thread.  The blocking cross-process read lives here
    so the parent's reply wait can honor timeouts and liveness checks —
    a worker that dies mid-write leaves this thread blocked (or raises a
    truncated-frame error), never the parent.  Exits on the
    :data:`_PUMP_STOP` sentinel, on queue teardown, or on any decode
    error from a torn frame.
    """
    while True:
        try:
            item = replies.get()
        except (EOFError, OSError):
            break
        except Exception:  # noqa: BLE001 - torn frame from a dying worker
            break
        if isinstance(item, str) and item == _PUMP_STOP:
            break
        inbox.put(item)


# ----------------------------------------------------------------------
# Pool (parent side)
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """Parent-side handle of one shard worker.

    ``seq`` is the per-worker exchange counter: every request carries the
    next value and its reply must echo it back.  When an exchange fails —
    a timeout, a worker error raised mid-:meth:`ShardWorkerPool.map` —
    the un-collected replies of that exchange stay queued; the tag lets
    later exchanges recognize and discard them instead of mistaking a
    stale reply for their own (an off-by-one that would silently serve
    the wrong shard's results forever after).

    ``inbox`` is the in-process queue the pump thread forwards replies
    into; the parent only ever waits on it, never on ``replies`` directly
    (see the module docstring on collection safety).  ``delivered`` is
    the manifest whose copy this worker was last sent, so inline bytes
    travel once per epoch.
    """

    process: multiprocessing.process.BaseProcess
    requests: object  # multiprocessing.Queue
    replies: object  # multiprocessing.Queue
    inbox: queue_lib.Queue = field(default_factory=queue_lib.Queue)
    pump: threading.Thread | None = None
    seq: int = 0
    delivered: SegmentManifest | None = None


class ShardWorkerPool:
    """One worker process per shard, serving published copies of the
    parent's authoritative shards.

    Args:
        shards: the :class:`~repro.serve.shard.RecommenderShard` objects to
            serve; worker ``i`` serves ``shards[i]`` (shard order is the
            reply order of :meth:`map`, so merging stays deterministic).
        backend: ``"shmem"`` (named shared-memory segments) or
            ``"process"`` (the same bytes shipped on the request queue) —
            see the module docstring on transport.
        reply_timeout: seconds to wait for one reply before declaring the
            worker hung (liveness is polled, so a *dead* worker fails fast
            regardless of this value).
        start_method: ``"spawn"`` or ``"forkserver"``; defaults to the
            ``REPRO_SHMEM_START_METHOD`` environment variable (``spawn``
            when unset).  The CI fault battery runs under both.

    The constructor spawns every worker immediately and returns once the
    processes are launched; nothing is published until the first serve.
    Mutations cost **zero** worker round-trips; the price is a republish
    before the next serve window after any mutation — amortized across
    the whole window, and skipped entirely while the shard is clean.
    """

    #: Seconds a detected-dead worker's pump is still given to deliver a
    #: final already-sent reply before the death is surfaced.
    death_grace = 0.5

    def __init__(
        self,
        shards: Sequence,
        backend: str = "shmem",
        reply_timeout: float = 300.0,
        start_method: str | None = None,
    ) -> None:
        if backend not in POOL_BACKENDS:
            raise ValueError(f"backend must be one of {POOL_BACKENDS}, got {backend!r}")
        if start_method is None:
            start_method = os.environ.get("REPRO_SHMEM_START_METHOD", "spawn")
        if start_method not in POOL_START_METHODS:
            raise ValueError(
                f"start_method must be one of {POOL_START_METHODS}, "
                f"got {start_method!r}"
            )
        self.shards = list(shards)
        if not self.shards:
            raise ValueError("ShardWorkerPool needs at least one shard")
        self.backend = backend
        self.reply_timeout = float(reply_timeout)
        self.start_method = start_method
        self._ctx = multiprocessing.get_context(start_method)
        self._closed = False
        self.publisher = ShardPublisher(SEGMENT_PREFIX if backend == "shmem" else None)
        self._dirty = [True] * len(self.shards)
        # Workers get the read end; only this pool ever holds the write end.
        self._owner_watch, self._owner_alive = self._ctx.Pipe(duplex=False)
        self._workers = [self._spawn(shard.shard_id) for shard in self.shards]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, shard_id: int) -> _Worker:
        """Launch one worker process plus its reply pump thread."""
        requests = self._ctx.Queue()
        replies = self._ctx.Queue()
        name = f"repro-shard-{shard_id}"
        process = self._ctx.Process(
            target=_worker_main,
            args=(int(shard_id), self._owner_watch, requests, replies),
            name=name,
            daemon=True,
        )
        process.start()
        worker = _Worker(process=process, requests=requests, replies=replies)
        worker.pump = threading.Thread(
            target=_pump_replies,
            args=(replies, worker.inbox),
            name=f"{name}-pump",
            daemon=True,
        )
        worker.pump.start()
        return worker

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    @property
    def alive(self) -> bool:
        """Every worker process is still running."""
        return not self._closed and all(w.process.is_alive() for w in self._workers)

    def restart(self, index: int) -> None:
        """Stop worker ``index`` and respawn it; its first serve receives
        (or re-attaches) the current epoch."""
        self._stop_worker(self._workers[index])
        self._workers[index] = self._spawn(self.shards[index].shard_id)

    def restart_all(self) -> None:
        """Rolling restart of every worker (stop → respawn)."""
        for index in range(len(self._workers)):
            self.restart(index)

    def _stop_worker(self, worker: _Worker) -> None:
        if worker.process.is_alive():
            seq = self._send(worker, "stop", ())
            try:
                self._reply_from(worker, len(self._workers), seq)
            except ShardWorkerError:
                pass  # dying while stopping is not worth surfacing
            worker.process.join(timeout=10.0)
            if worker.process.is_alive():  # pragma: no cover - defensive
                worker.process.terminate()
                worker.process.join(timeout=5.0)
        # Release the pump: it is blocked in a cross-process read that
        # closing the queue does not interrupt, so route a sentinel
        # through the queue itself.  If a worker died mid-write the
        # sentinel may arrive as a torn frame — the pump treats decode
        # errors as exit, and in the worst case (the queue's shared write
        # lock died held) the daemon thread is abandoned after the join
        # timeout rather than blocking teardown.
        try:
            worker.replies.put(_PUMP_STOP)
        except Exception:  # noqa: BLE001 - queue already broken
            pass
        if worker.pump is not None:
            worker.pump.join(timeout=2.0)
        for q in (worker.requests, worker.replies):
            q.close()
            q.cancel_join_thread()

    def close(self) -> None:
        """Stop every worker process, retire every published copy and
        release the queues.  The pool is unusable afterwards; the
        parent's shards lose nothing."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            self._stop_worker(worker)
        self.publisher.close()
        self._owner_alive.close()
        self._owner_watch.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

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
        for shard, worker in zip(self.shards, self._workers):
            manifest = self.publisher.manifest(shard.shard_id)
            data = None
            if worker.delivered != manifest:
                data = self.publisher.data(shard.shard_id)  # None for segments
                worker.delivered = manifest
            seqs.append(self._send(worker, "serve", (manifest, data, payload), trace_ctx))
        try:
            return [
                self._reply_from(worker, index, seq)
                for (index, worker), seq in zip(enumerate(self._workers), seqs)
            ]
        except ShardWorkerError:
            for worker in self._workers:  # unknown what each one holds now
                worker.delivered = None
            raise

    def serve_item(self, item, k: int, trace_ctx: dict | None = None) -> list:
        """Per-shard top-``k`` lists for one item, in shard order."""
        return self._serve(("item", item, int(k)), trace_ctx)

    def serve_batch(self, items, k: int, trace_ctx: dict | None = None) -> list:
        """Per-shard lists of top-``k`` lists for a micro-batch."""
        return self._serve(("batch", list(items), int(k)), trace_ctx)

    # ------------------------------------------------------------------
    # Request/reply plumbing
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise ShardWorkerError("worker pool is closed")

    @staticmethod
    def _send(
        worker: _Worker, op: str, args: tuple, trace_ctx: dict | None = None
    ) -> int:
        """Enqueue one sequence-tagged request; returns the tag to await."""
        worker.seq += 1
        worker.requests.put((worker.seq, op, args, trace_ctx))
        return worker.seq

    def _reply_from(self, worker: _Worker, index: int, seq: int):
        """Await the reply tagged ``seq``, discarding stale leftovers.

        A reply with a lower tag belongs to an exchange whose collection
        was abandoned (a prior :class:`ShardWorkerError` unwound ``map``
        mid-collection); consuming it as ours would shift every later
        reply off by one, so it is dropped.  The wait runs against the
        pump's in-process inbox, so it is never exposed to a blocking
        cross-process read: a worker that died after the request was
        enqueued surfaces within the poll interval (plus a short grace
        period for a final in-flight reply), and a hung worker surfaces
        at the reply timeout.
        """
        deadline = time.monotonic() + self.reply_timeout
        death_deadline: float | None = None
        while True:
            try:
                reply = worker.inbox.get(timeout=0.05)
            except queue_lib.Empty:
                now = time.monotonic()
                if not worker.process.is_alive():
                    if death_deadline is None:
                        death_deadline = now + self.death_grace
                    elif now > death_deadline:
                        raise ShardWorkerError(
                            f"shard worker {index} died "
                            f"(exit code {worker.process.exitcode})"
                        ) from None
                if now > deadline:
                    raise ShardWorkerError(
                        f"shard worker {index} timed out after "
                        f"{self.reply_timeout:.0f}s"
                    ) from None
                continue
            got_seq, status, value = reply[0], reply[1], reply[2]
            # Stale replies may predate the span slot; tolerate 3-tuples.
            spans = reply[3] if len(reply) > 3 else None
            if got_seq != seq:
                continue  # stale reply from an abandoned exchange
            if spans:
                trace = current_trace()
                if trace is not None:
                    trace.extend(spans)
            if status == "ok":
                return value
            kind, text = value
            error = ShmemError if kind == "shmem" else ShardWorkerError
            raise error(f"shard worker {index} failed:\n{text}")

    def call(self, index: int, op: str, *args, trace_ctx: dict | None = None):
        """One request to one worker; blocks for the reply."""
        self._require_open()
        worker = self._workers[index]
        return self._reply_from(worker, index, self._send(worker, op, args, trace_ctx))

    def map(self, op: str, *args, trace_ctx: dict | None = None) -> list:
        """Send the same request to every worker, collect in shard order.

        All workers compute concurrently; only the collection is
        sequential.  ``trace_ctx`` (from
        :func:`repro.obs.trace.trace_context`) rides along to every
        worker; the spans each one records come back on its reply and are
        grafted into the caller's active trace.
        """
        self._require_open()
        seqs = [self._send(worker, op, args, trace_ctx) for worker in self._workers]
        return [
            self._reply_from(worker, index, seq)
            for (index, worker), seq in zip(enumerate(self._workers), seqs)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("alive" if self.alive else "degraded")
        return (
            f"ShardWorkerPool(backend={self.backend!r}, "
            f"workers={self.n_workers}, {state})"
        )
