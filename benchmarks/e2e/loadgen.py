"""The load generator: one process, one thread, one connection.

Everything goes through ``AsyncRecommenderClient`` on a single pipelined
connection.  Three traffic shapes:

- :meth:`LoadGenerator.saturate` — **closed loop**: a fixed number of
  recommends in flight, the next sent when one completes, timed from
  send.  A slow server receives less load; the result is a capacity.
- :meth:`LoadGenerator.paced` — **open loop**: requests leave on an
  absolute schedule (``origin + i / rate`` from one ``perf_counter``
  origin) whether or not replies arrive, and each is timed **from its due
  time**, so a stall is charged to every request it delays.  Overload
  replies are not retried.  How late the generator itself ran and its CPU
  share are reported so a generator-bound phase is visible.
  (``repro.serve.loadgen.drive_queries`` is not reused: it is a closed
  loop timed from send that retries overloads.)
- :meth:`LoadGenerator.replay` — a scenario stream in order: every
  ``observe``/``update`` awaited before the next event, every window of
  uploads recommended concurrently.

Every operation is appended to :attr:`LoadGenerator.log` at send time
(= admission order on one connection), with the served list filled in on
reply; :func:`verify` replays that log on an in-process replica
afterwards — never during a timed phase — and compares bit for bit.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from api import ServerError, ServerOverloadError
from spans import SpanRecorder

#: Seconds a phase waits for replies still outstanding when its schedule
#: ends before it declares them unanswered.
DRAIN_TIMEOUT_S = 10.0

#: Replica batch size during verification (any size gives the same lists).
VERIFY_CHUNK = 64


@dataclass
class Phase:
    """What one timed phase measured."""

    name: str
    wall_s: float = 0.0
    cpu_share: float = 0.0
    recommend_s: list[float] = field(default_factory=list)
    mutation_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    events: int = 0
    windows: int = 0
    observes: int = 0
    updates: int = 0


class LoadGenerator:
    def __init__(self, client, k: int, recorder: SpanRecorder | None = None) -> None:
        self.client = client
        self.k = k
        self.recorder = recorder
        self.log: list[list] = []
        self.counts: Counter = Counter()
        self.cursor = 0  # position in the item pool, carried across phases

    # ------------------------------------------------------------------
    # Single operations
    # ------------------------------------------------------------------
    async def _round_trip(self, span: str, call, due: float | None, parent: int | None):
        """Await one request already appended to the log; returns
        ``(latency, result)`` — latency from ``due`` when given, else from
        send — or ``(None, None)`` when the server refused or failed it."""
        request = len(self.log) - 1
        self.counts["sent"] += 1
        sent = time.perf_counter()
        try:
            result = await call
        except ServerOverloadError:
            self.counts["overloaded"] += 1
            return None, None
        except ServerError:
            self.counts["errors"] += 1
            return None, None
        except asyncio.CancelledError:
            self.counts["unanswered"] += 1
            raise
        done = time.perf_counter()
        self.counts["ok"] += 1
        if self.recorder is not None:
            if due is not None:
                self.recorder.add("loadgen.slip", due, sent, parent, request)
            self.recorder.add(span, sent, done, parent, request)
        return done - (sent if due is None else due), result

    async def recommend(self, item, due: float | None = None, parent: int | None = None):
        """One recommend; returns its latency in seconds, ``None`` on failure."""
        entry = ["recommend", item, None]
        self.log.append(entry)
        latency, entry[2] = await self._round_trip(
            "client.recommend", self.client.recommend(item, self.k), due, parent)
        return latency

    async def mutate(self, op: str, *payload, parent: int | None = None) -> float | None:
        """One awaited ``observe``/``update``; returns its round trip."""
        self.log.append([op, *payload])
        latency, _ = await self._round_trip(
            f"client.{op}", getattr(self.client, op)(*payload), None, parent)
        return latency

    def next_item(self, pool):
        item = pool[self.cursor % len(pool)]
        self.cursor += 1
        return item

    @contextmanager
    def _timed(self, phase: Phase):
        """Time ``phase`` (wall and this process's CPU share); in a traced
        run the body is also a ``phase.<name>`` span, whose id is yielded."""
        traced = self.recorder.span(f"phase.{phase.name}") if self.recorder else nullcontext()
        with traced as span_id:
            cpu0, started = time.process_time(), time.perf_counter()
            try:
                yield span_id
            finally:
                phase.wall_s = time.perf_counter() - started
                phase.cpu_share = (time.process_time() - cpu0) / phase.wall_s

    # ------------------------------------------------------------------
    # Traffic shapes
    # ------------------------------------------------------------------
    async def warm_up(self, pool, n_items: int, inflight: int) -> None:
        """Untimed pass over the first ``n_items`` pool items."""
        items = [self.next_item(pool) for _ in range(n_items)]
        for start in range(0, len(items), inflight):
            await asyncio.gather(*(self.recommend(it) for it in items[start:start + inflight]))

    async def saturate(self, pool, seconds: float, inflight: int) -> Phase:
        """Closed loop: ``inflight`` recommends outstanding for ``seconds``."""
        phase = Phase("sat")
        with self._timed(phase) as span_id:
            deadline = time.perf_counter() + seconds

            async def lane() -> None:
                while time.perf_counter() < deadline:
                    latency = await self.recommend(self.next_item(pool), parent=span_id)
                    if latency is not None:
                        phase.recommend_s.append(latency)

            await asyncio.gather(*(lane() for _ in range(inflight)))
        return phase

    async def paced(self, pool, rate: float, seconds: float, max_outstanding: int) -> Phase:
        """Open loop at a constant ``rate`` for ``seconds``.

        The phase must end with at most ``max_outstanding`` requests
        unanswered; otherwise the backlog was growing and every request
        still outstanding at that moment counts as unanswered (failed).
        """
        phase = Phase("paced")
        n_requests = int(rate * seconds)
        tasks: list[asyncio.Task] = []
        with self._timed(phase) as span_id:
            origin = time.perf_counter() + 0.01
            sent = 0
            while sent < n_requests:
                now = time.perf_counter()
                while sent < n_requests and origin + sent / rate <= now:
                    due = origin + sent / rate
                    phase.late_s.append(time.perf_counter() - due)
                    tasks.append(asyncio.ensure_future(
                        self.recommend(self.next_item(pool), due=due, parent=span_id)
                    ))
                    sent += 1
                if sent < n_requests:
                    await asyncio.sleep(max(0.0, origin + sent / rate - time.perf_counter()))
            await asyncio.sleep(0)  # let replies already received resolve
            backlog = [task for task in tasks if not task.done()]
            if backlog and len(backlog) <= max_outstanding:
                _, backlog = await asyncio.wait(backlog, timeout=DRAIN_TIMEOUT_S)
            for task in backlog:  # a growing backlog, or silence: unanswered
                task.cancel()
            await asyncio.gather(*backlog, return_exceptions=True)
        phase.recommend_s = [
            task.result() for task in tasks
            if not task.cancelled() and task.result() is not None
        ]
        return phase

    async def write_burst(self, updates, reads) -> Phase:
        """``updates`` awaited one at a time, then ``reads`` concurrently."""
        phase = Phase("burst")
        with self._timed(phase) as span_id:
            for interaction, item in updates:
                latency = await self.mutate("update", interaction, item, parent=span_id)
                if latency is not None:
                    phase.mutation_s.append(latency)
            await asyncio.gather(*(self.recommend(item, parent=span_id) for item in reads))
        return phase

    async def replay(self, scenario, seconds: float, window: int) -> Phase:
        """A scenario stream, in order, until it ends or ``seconds`` pass
        (checked at window boundaries, so no window is cut short)."""
        phase = Phase("replay")
        uploads: list = []
        with self._timed(phase) as span_id:
            deadline = time.perf_counter() + seconds

            async def flush() -> None:
                latencies = await asyncio.gather(
                    *(self.recommend(item, parent=span_id) for item in uploads)
                )
                phase.recommend_s.extend(lat for lat in latencies if lat is not None)
                phase.events += len(uploads)
                phase.windows += 1
                uploads.clear()

            for event in scenario.events:
                if event.kind == "upload":
                    latency = await self.mutate("observe", event.payload, parent=span_id)
                    uploads.append(event.payload)
                    phase.observes += 1
                else:
                    latency = await self.mutate(
                        "update", event.payload, scenario.item_payload(event.payload),
                        parent=span_id,
                    )
                    phase.updates += 1
                if latency is not None:
                    phase.mutation_s.append(latency)
                phase.events += 1
                if len(uploads) == window:
                    await flush()
                    if time.perf_counter() >= deadline:
                        break
            if uploads:
                await flush()
        return phase

    # ------------------------------------------------------------------
    # Wire floors (no model work)
    # ------------------------------------------------------------------
    async def idle_round_trips(self, n: int) -> list[float]:
        """``n`` sequential ``stats`` round trips on an idle server."""
        trips = []
        for _ in range(n):
            sent = time.perf_counter()
            await self.client.stats()
            trips.append(time.perf_counter() - sent)
        return trips

    async def pipelined_floor(self, seconds: float, inflight: int) -> float:
        """Seconds per empty ``recommend_batch`` with ``inflight`` outstanding:
        decode, admission, the hop to the model thread and back, encode —
        everything a served request pays except the model's own work."""
        done = 0
        started = time.perf_counter()
        deadline = started + seconds

        async def lane() -> None:
            nonlocal done
            while time.perf_counter() < deadline:
                await self.client.recommend_batch([], self.k)
                done += 1

        await asyncio.gather(*(lane() for _ in range(inflight)))
        return (time.perf_counter() - started) / done


def verify(replica, log, k: int) -> int:
    """Replay ``log`` on ``replica``; returns how many served lists differ.

    Mutations are applied in log order.  Between two mutations the served
    state is constant, so each distinct item is answered once and every
    delivery of it is compared against that answer, bit for bit.
    """
    divergent = 0
    reads: list[tuple[object, list]] = []

    def settle() -> int:
        distinct = {item.item_id: item for item, _ in reads}
        items = list(distinct.values())
        expected = {}
        for start in range(0, len(items), VERIFY_CHUNK):
            chunk = items[start:start + VERIFY_CHUNK]
            for item, ranked in zip(chunk, replica.recommend_batch(chunk, k)):
                expected[item.item_id] = ranked
        wrong = sum(1 for item, served in reads if served != expected[item.item_id])
        reads.clear()
        return wrong

    for op, *payload in log:
        if op == "recommend":
            item, served = payload
            if served is not None:  # failed requests are already counted
                reads.append((item, served))
            continue
        if reads:
            divergent += settle()
        if op == "observe":
            replica.observe_item(*payload)
        else:
            replica.update(*payload)
    if reads:
        divergent += settle()
    return divergent
