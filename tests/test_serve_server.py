"""RecommenderServer fault injection: the failure modes a socket front
door must absorb without corrupting the served stream.

Covered here, each against a cheap deterministic stub owner so the
serving machinery — not the model — is what's under test:

- admission control: a full queue gets typed ``overload`` replies and
  the rejected requests are **never executed**;
- client disconnect mid-request: the admitted work still completes
  (mutations hold), the server stays healthy for the next client;
- slow-reader backpressure: an unread connection stalls only itself —
  other clients keep being served — and delivers every reply once the
  reader catches up;
- clean shutdown: stopping mid-window flushes the coalescer and drains
  every admitted request — no reply dropped, nothing served twice;
- remote failures and wire garbage: typed ``error`` replies, counted,
  connection dropped only on unparseable bytes.

Bitwise parity of served results against the in-process path is the wire
conformance suite's job (``test_serve_wire_conformance.py``); here the
stub makes request accounting exact instead.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading
import time
from pathlib import Path

import pytest

from repro.datasets.schema import SocialItem
from repro.serve import (
    AsyncRecommenderClient,
    ProtocolError,
    RecommenderClient,
    RecommenderServer,
    ServerError,
    ServerOverloadError,
    ServerThread,
)
from repro.serve.protocol import FrameDecoder, decode_reply, item_to_wire


def make_item(item_id: int) -> SocialItem:
    return SocialItem(
        item_id=item_id, category=1, producer=2, entities=(3,),
        text=f"item {item_id}", timestamp=float(item_id),
    )


class StubRecommender:
    """Deterministic owner with exact request accounting.

    ``served`` records every ``(item_id, k)`` that actually executed —
    the ground truth for "rejected requests never run" and "drained
    requests run exactly once".
    """

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self.observed: list[int] = []
        self.updated: list[int] = []
        self.served: list[tuple[int, int]] = []
        self._lock = threading.Lock()

    @staticmethod
    def expected(item_id: int, k: int) -> list[tuple[int, float]]:
        return [(item_id * 100 + rank, float(rank)) for rank in range(k)]

    def recommend(self, item, k=None):
        return self.recommend_batch([item], k)[0]

    def recommend_batch(self, items, k=None):
        if self.delay:
            time.sleep(self.delay)
        depth = 3 if k is None else int(k)
        with self._lock:
            self.served.extend((item.item_id, depth) for item in items)
        return [self.expected(item.item_id, depth) for item in items]

    def observe_item(self, item):
        self.observed.append(item.item_id)

    def update(self, interaction, item=None):
        self.updated.append(interaction.user_id)


def wait_until(predicate, timeout: float = 10.0, what: str = "condition") -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.01)


class TestAdmissionControl:
    def test_overload_is_typed_and_never_executed(self):
        stub = StubRecommender(delay=0.15)
        server = RecommenderServer(stub, coalesce=False, max_pending=2)

        async def flood():
            client = await AsyncRecommenderClient.connect(server.host, server.port)
            try:
                return await asyncio.gather(
                    *[client.recommend(make_item(i), 3) for i in range(10)],
                    return_exceptions=True,
                )
            finally:
                await client.close()

        with ServerThread(server):
            results = asyncio.run(flood())

        oks = [r for r in results if isinstance(r, list)]
        overloads = [r for r in results if isinstance(r, ServerOverloadError)]
        assert len(oks) + len(overloads) == 10
        assert overloads, "flooding past max_pending must shed load"
        assert oks, "admitted requests must still be served"
        assert server.stats.overloads == len(overloads)
        # The shed requests never touched the model: executed work
        # matches the ok replies exactly.
        assert len(stub.served) == len(oks)
        for ranked in oks:
            assert ranked == stub.expected(ranked[0][0] // 100, 3)

    def test_max_pending_validation(self):
        with pytest.raises(ValueError, match="max_pending"):
            RecommenderServer(StubRecommender(), max_pending=0)


class TestDisconnects:
    def test_disconnect_mid_request_work_still_completes(self):
        stub = StubRecommender(delay=0.2)
        server = RecommenderServer(stub, coalesce=False)
        with ServerThread(server) as (host, port):
            # Observe + recommend, then vanish without reading a byte.
            sock = socket.create_connection((host, port))
            from repro.serve.protocol import Request, encode_request

            sock.sendall(encode_request(Request("observe", 0, {"item": item_to_wire(make_item(7))})))
            sock.sendall(encode_request(Request("recommend", 1, {"item": item_to_wire(make_item(8)), "k": 3})))
            sock.close()
            # The admitted work runs to completion: the mutation holds and
            # the recommend executed exactly once, reply or no reply.
            wait_until(lambda: stub.served == [(8, 3)], what="abandoned request to finish")
            assert stub.observed == [7]
            # The server shrugged it off — the next client is served.
            with RecommenderClient(host, port) as healthy:
                assert healthy.recommend(make_item(9), 2) == stub.expected(9, 2)
        assert stub.served == [(8, 3), (9, 2)]

    def test_protocol_garbage_gets_typed_reply_then_drop(self):
        server = RecommenderServer(StubRecommender())
        with ServerThread(server) as (host, port):
            sock = socket.create_connection((host, port), timeout=10)
            bad = json.dumps({"v": 99, "kind": "request", "op": "stats", "id": 1}).encode()
            sock.sendall(struct.pack(">I", len(bad)) + bad)
            decoder = FrameDecoder()
            replies = []
            while not replies:
                data = sock.recv(65536)
                assert data, "server closed without the typed error reply"
                replies.extend(decoder.feed(data))
            reply = decode_reply(replies[0])
            assert reply.status == "error"
            assert "ProtocolError" in reply.error
            assert "version" in reply.error
            # After wire corruption the connection is dropped, not resynced.
            assert sock.recv(65536) == b""
            sock.close()
        assert server.stats.protocol_errors == 1

    def test_torn_frame_on_eof_is_counted(self):
        server = RecommenderServer(StubRecommender())
        with ServerThread(server) as (host, port):
            sock = socket.create_connection((host, port))
            sock.sendall(struct.pack(">I", 100) + b"only-half-a-frame")
            sock.close()
            wait_until(
                lambda: server.stats.protocol_errors == 1,
                what="torn frame to be counted",
            )


class TestBackpressure:
    def test_slow_reader_stalls_only_itself(self):
        stub = StubRecommender()
        server = RecommenderServer(stub, coalesce=False)
        n_requests, k = 40, 1500  # ~40 replies x ~30KB >> socket buffers
        with ServerThread(server) as (host, port):
            slow = RecommenderClient(host, port, timeout=60.0)
            ids = [
                slow._send("recommend", {"item": item_to_wire(make_item(i)), "k": k})
                for i in range(n_requests)
            ]
            # Let replies pile into the kernel buffers until writes stall.
            wait_until(lambda: len(stub.served) == n_requests, what="all requests to execute")
            time.sleep(0.2)
            # A second client is served promptly while the first stalls.
            with RecommenderClient(host, port) as nimble:
                started = time.perf_counter()
                assert nimble.recommend(make_item(777), 2) == stub.expected(777, 2)
                assert time.perf_counter() - started < 5.0
            # The slow reader catches up: every reply arrives, in ids.
            for i, rid in enumerate(ids):
                from repro.serve.protocol import ranked_from_wire

                reply = slow._receive(rid)
                assert reply.status == "ok"
                assert ranked_from_wire(reply.result) == stub.expected(i, k)
            slow.close()
        assert server.stats.replies == n_requests + 1


class TestShutdownDrain:
    def test_stop_flushes_coalescer_no_drop_no_double_serve(self):
        stub = StubRecommender()
        # A huge latency budget: the window only closes because stop()
        # flushes it.
        server = RecommenderServer(stub, coalesce=True, max_batch=64, max_delay=30.0)
        thread = ServerThread(server)
        host, port = thread.start()
        client = RecommenderClient(host, port, timeout=30.0)
        ids = [
            client._send("recommend", {"item": item_to_wire(make_item(i)), "k": 2})
            for i in range(5)
        ]
        # All five are admitted and parked in the open coalescer window.
        wait_until(lambda: server.stats.requests == 5, what="admission of all requests")
        assert stub.served == []  # nothing dispatched yet — window is open
        thread.stop()  # drain: flush the window, run it, write every reply
        replies = [client._receive(rid) for rid in ids]
        client.close()
        assert [r.status for r in replies] == ["ok"] * 5
        # Exactly one execution per request — nothing dropped, nothing
        # served twice — and the drain ran them as the one flushed batch.
        assert sorted(stub.served) == [(i, 2) for i in range(5)]
        assert server.stats.coalesced_batches == 1
        assert server.stats.max_batch_size == 5
        assert server.stats.replies == 5

    def test_stop_is_idempotent_and_double_start_rejected(self):
        thread = ServerThread(RecommenderServer(StubRecommender()))
        with thread:
            with pytest.raises(RuntimeError, match="already started"):
                thread.start()
        thread.stop()  # stopping again is a no-op


class TestErrorsAndOps:
    def test_remote_failure_is_typed_and_survivable(self):
        class Exploding(StubRecommender):
            def recommend_batch(self, items, k=None):
                if any(item.item_id == 13 for item in items):
                    raise ValueError("unlucky item")
                return super().recommend_batch(items, k)

        stub = Exploding()
        server = RecommenderServer(stub, coalesce=False)
        with ServerThread(server) as (host, port):
            with RecommenderClient(host, port) as client:
                with pytest.raises(ServerError, match="unlucky item"):
                    client.recommend(make_item(13), 3)
                # The server survives the failed request.
                assert client.recommend(make_item(14), 3) == stub.expected(14, 3)
        assert server.stats.errors == 1

    def test_coalesced_batch_failure_fails_all_and_server_survives(self):
        class Exploding(StubRecommender):
            def recommend_batch(self, items, k=None):
                if any(item.item_id == 13 for item in items):
                    raise ValueError("poisoned batch")
                return super().recommend_batch(items, k)

        server = RecommenderServer(Exploding(), coalesce=True, max_delay=0.05)

        async def run():
            client = await AsyncRecommenderClient.connect(server.host, server.port)
            try:
                poisoned = await asyncio.gather(
                    *[client.recommend(make_item(i), 2) for i in (12, 13)],
                    return_exceptions=True,
                )
                healthy = await client.recommend(make_item(20), 2)
                return poisoned, healthy
            finally:
                await client.close()

        with ServerThread(server):
            poisoned, healthy = asyncio.run(run())
        # One poisoned member fails the whole coalesced batch (they ran
        # as one model call), each member getting its own error reply...
        assert all(isinstance(r, ServerError) for r in poisoned)
        # ...and the next window serves normally.
        assert healthy == StubRecommender.expected(20, 2)

    def test_snapshot_reload_swaps_owner_atomically(self, tmp_path):
        class Snapshottable(StubRecommender):
            generation = 0

            def save(self, path):
                Path(path).write_text("stub-state")

            @classmethod
            def load(cls, path):
                assert Path(path).read_text() == "stub-state"
                loaded = cls()
                Snapshottable.generation += 1
                loaded.generation = Snapshottable.generation
                return loaded

        original = Snapshottable()
        server = RecommenderServer(original, coalesce=False)
        target = tmp_path / "snap"
        with ServerThread(server) as (host, port):
            with RecommenderClient(host, port) as client:
                result = client.snapshot(target, reload=True)
                assert result == {"path": str(target), "reloaded": True}
                # Served by the reloaded owner, not the original.
                assert client.recommend(make_item(5), 2) == original.expected(5, 2)
        assert server.recommender is not original
        assert server.recommender.generation == 1
        assert server.snapshot_reloads == 1
        assert original.served == []
        assert server.recommender.served == [(5, 2)]

    def test_stats_route_latency_over_the_wire(self):
        stub = StubRecommender()
        server = RecommenderServer(stub)
        with ServerThread(server) as (host, port):
            with RecommenderClient(host, port) as client:
                client.observe(make_item(1))
                client.recommend(make_item(1), 2)
                stats = client.stats()
        assert stats["requests"] == 3
        assert stats["routes"]["observe"]["count"] == 1
        assert stats["routes"]["recommend"]["count"] == 1
        assert stats["routes"]["recommend"]["p95_ms"] >= 0.0
        assert stats["coalescing"]["batches"] == 1

    def test_mixed_k_coalesced_window(self):
        stub = StubRecommender()
        server = RecommenderServer(stub, max_delay=0.05)

        async def run():
            client = await AsyncRecommenderClient.connect(server.host, server.port)
            try:
                return await asyncio.gather(
                    *[client.recommend(make_item(i), k) for i, k in ((1, 2), (2, 5), (3, 2))]
                )
            finally:
                await client.close()

        with ServerThread(server):
            results = asyncio.run(run())
        assert results == [
            stub.expected(1, 2), stub.expected(2, 5), stub.expected(3, 2)
        ]

    @pytest.mark.parametrize("max_delay", [0.0, 0.05])
    def test_write_pipelined_behind_read_keeps_admission_order(self, max_delay):
        """recommend -> update -> recommend pipelined on one connection must
        answer like the in-process sequence: the update closes the open
        coalescing window instead of overtaking the read waiting in it."""
        from repro.datasets.schema import Interaction

        class CountingStub(StubRecommender):
            def recommend_batch(self, items, k=None):
                return [[(item.item_id, float(len(self.updated)))] for item in items]

        interaction = Interaction(user_id=7, item_id=1, category=1, producer=2, timestamp=1.0)
        reference = CountingStub()
        expected = [reference.recommend(make_item(1), 1)]
        reference.update(interaction, make_item(1))
        expected.append(reference.recommend(make_item(2), 1))

        server = RecommenderServer(CountingStub(), max_delay=max_delay)

        async def run():
            client = await AsyncRecommenderClient.connect(server.host, server.port)
            try:
                first, _, second = await asyncio.gather(
                    client.recommend(make_item(1), 1),
                    client.update(interaction, make_item(1)),
                    client.recommend(make_item(2), 1),
                )
                return [first, second]
            finally:
                await client.close()

        with ServerThread(server):
            assert asyncio.run(run()) == expected

    def test_port_conflict_surfaces_on_start(self):
        server = RecommenderServer(StubRecommender())
        with ServerThread(server) as (host, port):
            clash = RecommenderServer(StubRecommender(), host=host, port=port)
            with pytest.raises(OSError):
                ServerThread(clash).start()

    def test_client_timeout_on_silent_server(self):
        # A listener that accepts and never replies.
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()
        client = RecommenderClient(host, port, timeout=0.2)
        try:
            with pytest.raises(TimeoutError):
                client.recommend(make_item(1), 2)
        finally:
            client.close()
            listener.close()


class TestObservability:
    """The metrics route, wire-level tracing, and the slow-request log."""

    def test_metrics_route_schema_and_counts(self):
        from repro.obs import MetricsRegistry

        stub = StubRecommender()
        server = RecommenderServer(stub, coalesce=False)
        with ServerThread(server) as (host, port):
            with RecommenderClient(host, port) as client:
                for i in range(3):
                    client.recommend(make_item(i), 2)
                payload = client.metrics()
        assert set(payload) == {"registry", "prometheus", "slow_requests"}
        # The dump must survive the strict schema validator — the CI
        # metrics gate parses it exactly this way.
        registry = MetricsRegistry.from_dict(payload["registry"])
        assert registry.to_dict() == payload["registry"]
        assert registry.counter("server.requests").value >= 3
        assert registry.histogram("server.route_seconds", op="recommend").count == 3
        assert "server_requests" in payload["prometheus"]
        assert payload["slow_requests"] == []

    def test_traced_recommend_ships_span_tree(self):
        from repro.obs import build_tree

        stub = StubRecommender()
        server = RecommenderServer(stub, coalesce=False)
        with ServerThread(server) as (host, port):
            with RecommenderClient(host, port) as client:
                ranked, trace = client.recommend_traced(make_item(7), 3)
                # Tracing never changes what is served.
                assert ranked == client.recommend(make_item(7), 3)
        assert trace is not None
        assert set(trace) == {"trace_id", "spans"}
        names = [entry["name"] for entry in trace["spans"]]
        assert "server.request" in names
        assert "server.execute" in names
        # Exactly one root, everything else hangs off it.
        (root,) = build_tree(trace["spans"])
        assert root["name"] == "server.request"
        assert root["tags"]["op"] == "recommend"
        # Exactly one parentless span — the request root; every other
        # span nests under it.
        orphans = [e for e in trace["spans"] if e["parent_id"] is None]
        assert [e["name"] for e in orphans] == ["server.request"]

    def test_untraced_recommend_carries_no_trace_field(self):
        # The wire conformance suite holds the byte layout; here we hold
        # the reply object: no trace unless asked.
        stub = StubRecommender()
        server = RecommenderServer(stub, coalesce=False)
        with ServerThread(server) as (host, port):
            with socket.create_connection((host, port), timeout=10) as sock:
                from repro.serve.protocol import Request, encode_request

                sock.sendall(encode_request(Request(
                    "recommend", 0, {"item": item_to_wire(make_item(1)), "k": 2}
                )))
                decoder = FrameDecoder()
                messages = []
                while not messages:
                    messages = list(decoder.feed(sock.recv(65536)))
        assert "trace" not in messages[0]

    def test_coalesced_traced_requests_share_batch_spans(self):
        from repro.obs import build_tree

        stub = StubRecommender(delay=0.02)
        server = RecommenderServer(stub, coalesce=True, max_delay=0.05)

        async def run():
            client = await AsyncRecommenderClient.connect(server.host, server.port)
            try:
                return await asyncio.gather(*[
                    client.recommend_traced(make_item(i), 2) for i in range(4)
                ])
            finally:
                await client.close()

        with ServerThread(server):
            outcomes = asyncio.run(run())
        for ranked, trace in outcomes:
            assert ranked == StubRecommender.expected(ranked[0][0] // 100, 2)
            names = [entry["name"] for entry in trace["spans"]]
            assert "server.request" in names
            assert "server.coalesce" in names  # queue wait, per request
            assert "server.batch" in names     # shared model-thread span
            (root,) = build_tree(trace["spans"])
            assert root["name"] == "server.request"

    def test_slow_request_log_captures_span_trees(self):
        stub = StubRecommender(delay=0.05)
        # Threshold zero: every request is "slow" — and the log must
        # capture traces even though the client never asked for one.
        server = RecommenderServer(
            stub, coalesce=False, slow_request_seconds=0.0, slow_request_log_size=2
        )
        with ServerThread(server) as (host, port):
            with RecommenderClient(host, port) as client:
                for i in range(3):
                    client.recommend(make_item(i), 2)
                payload = client.metrics()
        entries = payload["slow_requests"]
        assert len(entries) == 2  # deque bound: only the latest kept
        for entry in entries:
            assert entry["op"] == "recommend"
            assert entry["seconds"] >= 0.05
            assert any(s["name"] == "server.execute" for s in entry["spans"])
        assert server.stats.slow_requests == 3

    def test_slow_threshold_validation(self):
        with pytest.raises(ValueError, match="slow_request_seconds"):
            RecommenderServer(StubRecommender(), slow_request_seconds=-1.0)
