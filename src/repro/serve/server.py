"""The network front door: an asyncio socket server over any recommender.

:class:`RecommenderServer` exposes the serving facade's operations —
``observe`` / ``update`` / ``recommend`` / ``recommend_batch`` /
``snapshot`` / ``stats`` / ``metrics`` — over the framed JSON protocol of
:mod:`repro.serve.protocol`.  It serves any owner with the recommender
shape (:class:`~repro.core.ssrec.SsRecRecommender`,
:class:`~repro.serve.service.ShardedRecommender`, or a test double) via
the :func:`repro.exec.as_executor` seam, so every request executes
through the owner's compiled execution plan.

Three serving-layer mechanisms live here:

- **Dynamic micro-batch coalescing.**  Concurrently arriving
  ``recommend`` requests queue in a :class:`_Coalescer` and execute as
  *one* call to the executor's mixed-``k`` ``run_requests`` batch entry
  — so the amortized micro-batch costs (one profile sync, shared
  smoothed columns, shared sigtree descents) apply to open-loop traffic
  that never asked to be a batch.  Windows close on the batch cap
  (``max_batch``), on the model thread freeing up with requests queued
  (batch size tracks the arrival rate under steady load), or — when the
  model is idle — at the next event-loop tick (greedy, the default) or
  after the ``max_delay`` latency budget.  Coalescing is
  exact: the batch entry is bit-identical to per-item serving, which
  the wire conformance family asserts through the socket.
- **Admission control.**  At most ``max_pending`` requests may be
  admitted-but-unfinished; one more gets an immediate typed ``overload``
  reply (never silently queued, never executed), so a slow or flooded
  server sheds load instead of growing an unbounded queue.
- **Ordering.**  All model work — mutations and coalesced batches —
  runs on one model thread in *admission order* (the order frames were
  decoded per connection), which is what makes served streams
  bit-reproducible against the in-process library call sequence.  A
  mutation closes the open coalescing window before it is queued, so a
  write pipelined behind a read never overtakes it.

Observability (see :mod:`repro.obs`): per-route, queue-wait and
batch-execution latency live in mergeable
:class:`~repro.obs.metrics.LatencyHistogram` s (``stats`` returns the
p50/p95/p99 summaries over the wire); ``metrics`` returns the merged
server + owner registry (JSON dump and Prometheus text) plus the
slow-request log; a ``recommend`` with ``trace=true`` carries its full
cross-process span tree back on the reply.

Synchronous contexts (tests, the conformance runner, the eval CLI) run
the server on a background event loop via :class:`ServerThread`::

    with ServerThread(RecommenderServer(recommender)) as (host, port):
        with RecommenderClient(host, port) as client:
            top = client.recommend(item, k=10)
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.exec.compile import as_executor
from repro.obs.metrics import LatencyHistogram, MetricsRegistry
from repro.obs.trace import Trace, make_span, new_id, span, use_trace
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    REQUEST_OPS,
    FrameDecoder,
    ProtocolError,
    Reply,
    Request,
    decode_request,
    encode_reply,
    ranked_to_wire,
)


@dataclass
class ServerStats:
    """Serving counters plus per-route latency percentiles.

    Latency is kept in fixed-bucket mergeable
    :class:`~repro.obs.metrics.LatencyHistogram` s: ``route_latency``
    per request op, ``queue_seconds`` for coalescer queue wait (from
    submit to window close) and ``batch_seconds`` for model-thread
    batch execution — the queue-vs-service split the loadgen report
    surfaces.
    """

    requests: int = 0
    replies: int = 0
    overloads: int = 0
    errors: int = 0
    protocol_errors: int = 0
    disconnects: int = 0
    slow_requests: int = 0
    coalesced_batches: int = 0
    coalesced_requests: int = 0
    max_batch_size: int = 0
    route_latency: dict[str, LatencyHistogram] = field(
        default_factory=lambda: {op: LatencyHistogram() for op in REQUEST_OPS}
    )
    queue_seconds: LatencyHistogram = field(default_factory=LatencyHistogram)
    batch_seconds: LatencyHistogram = field(default_factory=LatencyHistogram)

    def record_batch(self, size: int) -> None:
        self.coalesced_batches += 1
        self.coalesced_requests += size
        self.max_batch_size = max(self.max_batch_size, size)

    @property
    def mean_batch_size(self) -> float:
        return (
            self.coalesced_requests / self.coalesced_batches
            if self.coalesced_batches
            else 0.0
        )

    def as_dict(self) -> dict:
        """The wire shape of the ``stats`` reply."""
        return {
            "requests": self.requests,
            "replies": self.replies,
            "overloads": self.overloads,
            "errors": self.errors,
            "protocol_errors": self.protocol_errors,
            "disconnects": self.disconnects,
            "slow_requests": self.slow_requests,
            "coalescing": {
                "batches": self.coalesced_batches,
                "batched_requests": self.coalesced_requests,
                "mean_batch_size": self.mean_batch_size,
                "max_batch_size": self.max_batch_size,
                "queue": {"count": self.queue_seconds.count,
                          **self.queue_seconds.summary_ms()},
                "batch_exec": {"count": self.batch_seconds.count,
                               **self.batch_seconds.summary_ms()},
            },
            "routes": {
                op: {"count": hist.count, **hist.summary_ms()}
                for op, hist in self.route_latency.items()
                if hist.count
            },
        }

    def to_registry(self) -> MetricsRegistry:
        """The same counters/latencies as a mergeable registry — the
        server's contribution to the ``metrics`` route."""
        registry = MetricsRegistry()
        registry.counter("server.requests").inc(self.requests)
        registry.counter("server.replies").inc(self.replies)
        registry.counter("server.overloads").inc(self.overloads)
        registry.counter("server.errors").inc(self.errors)
        registry.counter("server.protocol_errors").inc(self.protocol_errors)
        registry.counter("server.disconnects").inc(self.disconnects)
        registry.counter("server.slow_requests").inc(self.slow_requests)
        registry.counter("server.coalesced_batches").inc(self.coalesced_batches)
        registry.counter("server.coalesced_requests").inc(self.coalesced_requests)
        registry.gauge("server.max_batch_size").set(self.max_batch_size)
        for op, hist in self.route_latency.items():
            if hist.count:
                registry.histogram(
                    "server.route_seconds", bounds=hist.bounds, op=op
                ).merge(hist)
        if self.queue_seconds.count:
            registry.histogram(
                "server.queue_seconds", bounds=self.queue_seconds.bounds
            ).merge(self.queue_seconds)
        if self.batch_seconds.count:
            registry.histogram(
                "server.batch_seconds", bounds=self.batch_seconds.bounds
            ).merge(self.batch_seconds)
        return registry


class _RequestTrace:
    """Book-keeping of one traced request, from admission to reply.

    ``wire=True`` means the client asked for the span tree on its reply
    (``recommend`` with ``trace=true``); ``wire=False`` traces are
    implicit — recorded only so the slow-request log has a full tree to
    capture when the request crosses the latency threshold.
    """

    __slots__ = ("trace", "root_id", "started", "started_wall", "wire")

    def __init__(self, wire: bool) -> None:
        self.trace = Trace()
        self.root_id = new_id()
        self.started = time.perf_counter()
        self.started_wall = time.time()
        self.wire = bool(wire)

    def attach_batch(self, batch_spans: list[dict]) -> None:
        """Graft a coalesced batch's shared spans under this request's
        root (the batch root re-parents; its subtree comes verbatim)."""
        self.trace.extend(
            {**span_dict, "parent_id": self.root_id}
            if span_dict.get("parent_id") is None
            else span_dict
            for span_dict in batch_spans
        )


class _Coalescer:
    """Queue recommend requests into dynamic micro-batches for the model
    thread.

    A window closes on whichever comes first:

    - the batch cap (``max_batch``) is reached;
    - the model thread *frees up* with requests queued — while a batch
      executes no timer runs, requests simply accumulate, and the next
      window dispatches the moment the previous one completes.  Under
      steady open-loop load batch size therefore tracks the arrival
      rate instead of racing a timer against the model;
    - the model is idle and the window expires: with ``max_delay <= 0``
      (greedy, the default) at the *next event-loop tick* — every
      request decoded from the same read joins the window, and a lone
      sparse request dispatches immediately as a batch of one, so
      greedy coalescing never adds latency a timer would; with
      ``max_delay > 0`` after that many seconds since the first queued
      request — the classic latency-for-throughput trade for sparse
      open-loop traffic.
    """

    def __init__(self, server: "RecommenderServer", max_batch: int, max_delay: float) -> None:
        self._server = server
        self.max_batch = max(1, int(max_batch))
        self.max_delay = float(max_delay)
        self._pending: list[
            tuple[object, int | None, asyncio.Future, _RequestTrace | None, float]
        ] = []
        self._timer: asyncio.TimerHandle | asyncio.Handle | None = None
        self._inflight_batches = 0

    def submit(
        self, item, k: int | None, request_trace: _RequestTrace | None = None
    ) -> asyncio.Future:
        """Admit one recommend request; resolves with its ranked list."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((item, k, future, request_trace, time.perf_counter()))
        if len(self._pending) >= self.max_batch:
            self.flush()
        elif self._inflight_batches == 0 and self._timer is None:
            # Greedy (max_delay <= 0): close at the next loop tick, after
            # every request already decoded this pass has joined.
            self._timer = (
                loop.call_soon(self.flush)
                if self.max_delay <= 0.0
                else loop.call_later(self.max_delay, self.flush)
            )
        return future

    def flush(self) -> None:
        """Close the current window and dispatch it (no-op when empty)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        stats = self._server.stats
        stats.record_batch(len(batch))
        closed_at = time.perf_counter()
        requests = [(item, k) for item, k, _, _, _ in batch]
        futures = [future for _, _, future, _, _ in batch]
        traced = [rt for _, _, _, rt, _ in batch if rt is not None]
        for _, _, _, rt, submitted in batch:
            waited = closed_at - submitted
            stats.queue_seconds.record(waited)
            if rt is not None:
                rt.trace.add(make_span(
                    "server.coalesce",
                    parent_id=rt.root_id,
                    start=rt.started_wall,
                    duration=waited,
                    batch_size=len(batch),
                ))
        self._inflight_batches += 1
        # One shared trace per traced batch: the model-thread execution
        # (exec operators, fan-out, worker spans) records once, then the
        # subtree is grafted under every traced request's root.
        batch_trace = Trace() if traced else None
        batch_span_id = new_id() if traced else None

        def run() -> list:
            start_wall = time.time()
            start = time.perf_counter()
            try:
                if batch_trace is None:
                    return self._server._executor().run_requests(requests)
                with use_trace(batch_trace, batch_span_id):
                    return self._server._executor().run_requests(requests)
            finally:
                duration = time.perf_counter() - start
                stats.batch_seconds.record(duration)
                if batch_trace is not None:
                    batch_trace.add(make_span(
                        "server.batch",
                        span_id=batch_span_id,
                        parent_id=None,
                        start=start_wall,
                        duration=duration,
                        batch_size=len(requests),
                    ))

        def resolve(ranked_lists: list) -> None:
            if batch_trace is not None:
                batch_spans = batch_trace.spans()
                for rt in traced:
                    rt.attach_batch(batch_spans)
            for future, ranked in zip(futures, ranked_lists):
                if not future.done():
                    future.set_result(ranked)
            self._batch_done()

        def fail(exc: BaseException) -> None:
            for future in futures:
                if not future.done():
                    future.set_exception(exc)
            self._batch_done()

        self._server._submit_model(run, on_result=resolve, on_error=fail)

    def _batch_done(self) -> None:
        """The model freed up: dispatch whatever queued while it ran."""
        self._inflight_batches -= 1
        if self._inflight_batches == 0 and self._pending:
            self.flush()


class RecommenderServer:
    """Asyncio socket server serving one recommender over the wire.

    Args:
        recommender: the owner to serve (anything :func:`as_executor`
            accepts; mutations additionally need ``observe_item`` /
            ``update``, snapshots need ``save`` / ``load``).
        host, port: bind address; port 0 picks an ephemeral port
            (read :attr:`port` after :meth:`start`).
        coalesce: dynamic micro-batching of ``recommend`` requests; off
            means strict per-request dispatch (the bench's control arm).
        max_batch: coalescer batch cap.
        max_delay: idle-window close policy.  ``0`` (the default) is
            greedy — an idle-opened window closes at the next event-loop
            tick, so coalescing adds no timer latency; a positive value
            holds the window that many seconds for sparse traffic to
            fill it.
        max_pending: admission bound on admitted-but-unfinished requests;
            excess requests get an immediate typed overload reply.
        max_frame_bytes: wire frame size limit (both directions).
        slow_request_seconds: when set, every ``recommend`` is implicitly
            traced and requests slower than this many seconds land —
            with their full span tree — in the slow-request log the
            ``metrics`` route exposes.  ``None`` (the default) disables
            the log and keeps the untraced fast path.
        slow_request_log_size: how many slow requests the log retains
            (oldest evicted first).
    """

    def __init__(
        self,
        recommender,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        coalesce: bool = True,
        max_batch: int = 32,
        max_delay: float = 0.0,
        max_pending: int = 256,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        slow_request_seconds: float | None = None,
        slow_request_log_size: int = 32,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if slow_request_seconds is not None and slow_request_seconds < 0:
            raise ValueError(
                f"slow_request_seconds must be >= 0, got {slow_request_seconds}"
            )
        self.recommender = recommender
        self.host = host
        self.port = int(port)
        self.coalesce = bool(coalesce)
        self.max_pending = int(max_pending)
        self.max_frame_bytes = int(max_frame_bytes)
        self.slow_request_seconds = (
            None if slow_request_seconds is None else float(slow_request_seconds)
        )
        self.slow_requests: deque[dict] = deque(maxlen=int(slow_request_log_size))
        self.stats = ServerStats()
        self.snapshot_reloads = 0
        self._coalescer = _Coalescer(self, max_batch=max_batch, max_delay=max_delay)
        # One model thread: every mutation and every (coalesced) batch
        # executes here in admission order — the bit-reproducibility and
        # thread-safety story in one mechanism.
        self._model = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-model")
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._tasks: set[asyncio.Task] = set()
        self._pending: set[asyncio.Future] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._inflight = 0
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the live ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(self._on_connect, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return (self.host, self.port)

    async def stop(self) -> None:
        """Stop accepting, **drain**, release.

        Draining means: the coalescer's open window is flushed, every
        admitted request runs to completion and writes its reply — no
        request is dropped and none is served twice (the shutdown test
        counts replies).  Only then are connections closed.
        """
        self._stopping = True
        if self._server is not None:
            # close() alone: 3.12's wait_closed() also waits for every
            # *connection handler*, which deadlocks a drain while clients
            # are still connected.  Handlers exit when their writer is
            # closed below (or with the loop).
            self._server.close()
            self._server = None
        self._coalescer.flush()
        while self._pending or self._tasks:
            await asyncio.gather(
                *list(self._pending), *list(self._tasks), return_exceptions=True
            )
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        self._model.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Model-thread plumbing
    # ------------------------------------------------------------------
    def _executor(self):
        """The owner's current compiled plan (re-read per dispatch so a
        snapshot-reload swap takes effect immediately)."""
        return as_executor(self.recommender)

    def _submit_model(self, fn, on_result=None, on_error=None) -> asyncio.Future:
        """Queue ``fn`` on the model thread *now* (admission order) and
        bridge its outcome back onto the event loop."""
        assert self._loop is not None
        future = self._loop.run_in_executor(self._model, fn)
        if on_result is not None or on_error is not None:
            def _done(fut: asyncio.Future) -> None:
                exc = fut.exception()
                if exc is not None:
                    if on_error is not None:
                        on_error(exc)
                elif on_result is not None:
                    on_result(fut.result())
            future.add_done_callback(_done)
        return future

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connect(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        decoder = FrameDecoder(self.max_frame_bytes)
        self._writers.add(writer)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    # A partial buffered frame here is a torn frame; the
                    # peer is gone, so there is nobody to reply to.
                    try:
                        decoder.close()
                    except ProtocolError:
                        self.stats.protocol_errors += 1
                    break
                for message in decoder.feed(data):
                    request = decode_request(message)
                    self._admit(request, writer)
        except ProtocolError as exc:
            # Frame- or message-level garbage: send one typed error reply
            # (best effort; id 0 when the request id never decoded) and
            # drop the connection — resynchronizing a framed stream after
            # corruption is guesswork.
            self.stats.protocol_errors += 1
            await self._try_write(
                writer,
                Reply(request_id=0, status="error", error=f"ProtocolError: {exc}"),
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            self.stats.disconnects += 1
        finally:
            self._writers.discard(writer)
            writer.close()

    def _admit(self, request: Request, writer) -> None:
        """Admission control + dispatch, synchronously at decode time.

        Dispatching here (not inside a per-request reply task) pins the
        model-thread execution order to frame arrival order, which is the
        ordering contract served conformance relies on.
        """
        self.stats.requests += 1
        if self._stopping:
            self._watch(
                request, writer, started=time.perf_counter(),
                outcome=_ready(Reply(request.request_id, "error", error="server is shutting down")),
            )
            return
        if self._inflight >= self.max_pending:
            self.stats.overloads += 1
            self._watch(
                request, writer, started=time.perf_counter(),
                outcome=_ready(Reply(
                    request.request_id,
                    "overload",
                    error=f"admission queue full ({self.max_pending} pending)",
                )),
            )
            return
        self._inflight += 1
        started = time.perf_counter()
        outcome = self._dispatch(request)
        self._watch(request, writer, started=started, outcome=outcome, admitted=True)

    def _request_trace(self, payload: dict) -> _RequestTrace | None:
        """The trace for one ``recommend``, or None (the fast path).

        Traced when the client asked for spans on its reply, or
        implicitly — without touching the wire — when the slow-request
        log is enabled, so a slow request always has a tree to capture.
        """
        wire = bool(payload.get("trace", False))
        if not wire and self.slow_request_seconds is None:
            return None
        return _RequestTrace(wire=wire)

    def _traced_reply(self, rid: int, op: str, rt: _RequestTrace, result) -> Reply:
        """Assemble a traced request's reply: close the root span, feed
        the slow-request log, ship the tree when the client asked."""
        elapsed = time.perf_counter() - rt.started
        rt.trace.add(make_span(
            "server.request",
            span_id=rt.root_id,
            parent_id=None,
            start=rt.started_wall,
            duration=elapsed,
            op=op,
        ))
        threshold = self.slow_request_seconds
        if threshold is not None and elapsed >= threshold:
            self.stats.slow_requests += 1
            self.slow_requests.append({
                "op": op,
                "request_id": rid,
                "seconds": elapsed,
                "trace_id": rt.trace.trace_id,
                "spans": rt.trace.spans(),
            })
        return Reply(
            rid, "ok", result=result,
            trace=rt.trace.to_dict() if rt.wire else None,
        )

    def _dispatch(self, request: Request) -> "asyncio.Future":
        """Start one admitted operation; returns an awaitable Reply."""
        op, payload = request.op, request.payload
        rid = request.request_id
        if op == "recommend" and self.coalesce:
            rt = self._request_trace(payload)
            ranked_future = self._coalescer.submit(payload["item"], payload["k"], rt)
            if rt is None:
                return _map_future(ranked_future, lambda ranked: Reply(
                    rid, "ok", result=ranked_to_wire(ranked)))
            return _map_future(ranked_future, lambda ranked: self._traced_reply(
                rid, op, rt, ranked_to_wire(ranked)))
        if op != "stats":
            # Admission order across reads and writes: the open window
            # holds recommends admitted *before* this operation, so it is
            # queued on the model thread first (a no-op when empty).
            self._coalescer.flush()
        if op == "recommend":
            item, k = payload["item"], payload["k"]
            rt = self._request_trace(payload)
            if rt is None:
                model_future = self._submit_model(
                    lambda: self._executor().run_requests([(item, k)])[0]
                )
                return _map_future(model_future, lambda ranked: Reply(
                    rid, "ok", result=ranked_to_wire(ranked)))

            def run_traced():
                with use_trace(rt.trace, rt.root_id):
                    with span("server.execute"):
                        return self._executor().run_requests([(item, k)])[0]

            model_future = self._submit_model(run_traced)
            return _map_future(model_future, lambda ranked: self._traced_reply(
                rid, op, rt, ranked_to_wire(ranked)))
        if op == "recommend_batch":
            items, k = payload["items"], payload["k"]
            model_future = self._submit_model(
                lambda: self._executor().run_batch(items, k)
                if items
                else []
            )
            return _map_future(model_future, lambda ranked_lists: Reply(
                rid, "ok", result=[ranked_to_wire(r) for r in ranked_lists]))
        if op == "observe":
            item = payload["item"]
            model_future = self._submit_model(
                lambda: self.recommender.observe_item(item)
            )
            return _map_future(model_future, lambda _: Reply(rid, "ok"))
        if op == "update":
            interaction, item = payload["interaction"], payload["item"]
            model_future = self._submit_model(
                lambda: self.recommender.update(interaction, item)
            )
            return _map_future(model_future, lambda _: Reply(rid, "ok"))
        if op == "snapshot":
            path, reload_flag = payload["path"], payload["reload"]
            model_future = self._submit_model(
                lambda: self._snapshot(path, reload_flag)
            )
            return _map_future(model_future, lambda result: Reply(rid, "ok", result=result))
        if op == "stats":
            return _ready(Reply(rid, "ok", result=self.stats.as_dict()))
        if op == "metrics":
            # Runs on the model thread: collecting the owner's registry
            # may fan out over the worker pool, whose request/reply
            # queues are only safe from the thread that serves on them.
            model_future = self._submit_model(self._collect_metrics)
            return _map_future(model_future, lambda result: Reply(
                rid, "ok", result=result))
        raise AssertionError(f"unreachable op {op!r}")  # pragma: no cover

    def _collect_metrics(self) -> dict:
        """The ``metrics`` route payload (model thread): the server's own
        registry merged with the owner's, as JSON dump + Prometheus text,
        plus the slow-request log."""
        registry = self.stats.to_registry()
        owner_registry = getattr(self.recommender, "obs_registry", None)
        if callable(owner_registry):
            registry.merge(owner_registry())
        return {
            "registry": registry.to_dict(),
            "prometheus": registry.to_prometheus(),
            "slow_requests": list(self.slow_requests),
        }

    def _snapshot(self, path: str, reload_flag: bool) -> dict:
        """Save the owner; optionally swap in a fresh warm-started copy.

        Runs on the model thread, so the reload is atomic with respect to
        every other operation — requests admitted after this one serve
        from the reloaded state, exactly like a process restart would.
        """
        self.recommender.save(path)
        if reload_flag:
            old = self.recommender
            self.recommender = type(old).load(path)
            close = getattr(old, "close", None)
            if callable(close):
                close()
            self.snapshot_reloads += 1
        return {"path": str(path), "reloaded": bool(reload_flag)}

    #: Reply writes above this much buffered outbound data switch from the
    #: synchronous fast path to an awaited ``drain`` that keeps holding the
    #: request's admission slot — a slow reader therefore throttles its own
    #: admission, not the event loop.
    DRAIN_THRESHOLD_BYTES = 1 << 16

    def _watch(self, request, writer, *, started, outcome, admitted: bool = False) -> None:
        """Arrange the reply write for when ``outcome`` resolves.

        Callback-chained, not task-wrapped: this runs once per request on
        the serving hot path, and resolving a future into a synchronous
        ``transport.write`` costs a fraction of a task + coroutine.  Only
        the rare above-threshold drain (see :data:`DRAIN_THRESHOLD_BYTES`)
        spawns a task.  ``stop()`` drains by awaiting :attr:`_pending` —
        every watched outcome — plus any drain tasks in :attr:`_tasks`.
        """
        self._pending.add(outcome)
        outcome.add_done_callback(
            lambda fut: self._finish(request, writer, started, admitted, fut)
        )

    def _finish(self, request, writer, started, admitted, outcome: "asyncio.Future") -> None:
        self._pending.discard(outcome)
        try:
            reply = outcome.result()
        except asyncio.CancelledError:  # pragma: no cover - shutdown race
            reply = Reply(request.request_id, "error", error="request cancelled")
        except Exception as exc:  # noqa: BLE001 - shipped as a typed error reply
            reply = Reply(
                request.request_id, "error", error=f"{type(exc).__name__}: {exc}"
            )
        if reply.status == "error":
            self.stats.errors += 1
        self.stats.route_latency[request.op].record(time.perf_counter() - started)
        # Write path: a vanished client is a counted non-event (its
        # in-flight work still completed — state mutations hold).
        try:
            writer.write(encode_reply(reply))
            self.stats.replies += 1
        except (ConnectionError, RuntimeError):
            self.stats.disconnects += 1
            self._release(admitted)
            return
        transport = writer.transport
        if (
            transport is not None
            and transport.get_write_buffer_size() > self.DRAIN_THRESHOLD_BYTES
        ):
            task = asyncio.get_running_loop().create_task(
                self._drain_then_release(writer, admitted)
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        else:
            self._release(admitted)

    def _release(self, admitted: bool) -> None:
        if admitted:
            self._inflight -= 1

    async def _drain_then_release(self, writer, admitted: bool) -> None:
        try:
            await writer.drain()
        except (ConnectionError, RuntimeError):
            self.stats.disconnects += 1
        finally:
            self._release(admitted)

    async def _try_write(self, writer, reply: Reply) -> None:
        """Best-effort reply outside the request path (protocol errors)."""
        try:
            writer.write(encode_reply(reply))
            await writer.drain()
            self.stats.replies += 1
        except (ConnectionError, RuntimeError):
            self.stats.disconnects += 1


def _ready(reply: Reply) -> "asyncio.Future":
    future: asyncio.Future = asyncio.get_running_loop().create_future()
    future.set_result(reply)
    return future


def _map_future(source: "asyncio.Future", transform) -> "asyncio.Future":
    """An awaitable applying ``transform`` to ``source``'s result
    (exceptions pass through untransformed).

    Chained through ``add_done_callback`` rather than a wrapping task:
    this runs once per request on the serving hot path, and a future
    callback costs a fraction of a task + coroutine."""
    mapped: asyncio.Future = asyncio.get_running_loop().create_future()

    def _done(fut: "asyncio.Future") -> None:
        if mapped.cancelled():
            return
        exc = fut.exception()
        if exc is not None:
            mapped.set_exception(exc)
            return
        try:
            mapped.set_result(transform(fut.result()))
        except Exception as transform_exc:  # noqa: BLE001 - surfaced to awaiter
            mapped.set_exception(transform_exc)

    source.add_done_callback(_done)
    return mapped


class ServerThread:
    """Run a :class:`RecommenderServer` on a dedicated background event
    loop — the bridge synchronous callers (tests, the conformance
    runner, the CLI) use.

    Context-manager form::

        with ServerThread(RecommenderServer(rec)) as (host, port):
            ...

    ``stop()`` performs the server's full drain before the thread exits,
    so leaving the ``with`` block never drops an in-flight request.
    """

    def __init__(self, server: RecommenderServer) -> None:
        self.server = server
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        """Spawn the loop thread; blocks until the server is accepting."""
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return (self.server.host, self.server.port)

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as exc:  # pragma: no cover - bind failures
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            await self._stop_event.wait()
            await self.server.stop()

        asyncio.run(main())

    def stop(self) -> None:
        """Drain the server and join the loop thread (idempotent)."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=60.0)
        self._thread = None

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
