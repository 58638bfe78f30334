"""Open-loop load generation: replay sim scenarios as network traffic.

The generator drives a live :class:`~repro.serve.server.RecommenderServer`
through the :class:`~repro.serve.client.AsyncRecommenderClient`:
mutations (uploads, interactions) replay in stream order — each awaited,
preserving the library-call ordering — while every recommendation window
is issued **open-loop**: all of the window's recommend requests go out
concurrently (bounded by ``concurrency`` in-flight), which is the
traffic shape the server's dynamic coalescer is built for.

Two drivers:

- :func:`drive_scenario` — replay one :class:`~repro.sim.scenarios.Scenario`
  as traffic, optionally judging every served ranked list **bit for
  bit** against an in-process replica fed the identical event sequence
  (the CI server-smoke gate: zero divergences through the socket);
- :func:`drive_queries` — a pure-query open loop over a fixed item set
  against an already-warmed server (the throughput bench's measured
  section; returns the ranked lists so the bench can assert parity).

Typed overload replies are retried with a small backoff and counted —
an overloaded server sheds load without corrupting the replay.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.datasets.schema import SocialItem
from repro.eval.metrics import TimingStats
from repro.serve.client import AsyncRecommenderClient, RankedList
from repro.serve.protocol import ServerOverloadError
from repro.sim.scenarios import Scenario

#: Retry schedule for typed overload replies (attempts x backoff
#: seconds); an open-loop generator must tolerate shed load.
OVERLOAD_RETRIES = 200
OVERLOAD_BACKOFF = 0.005


@dataclass
class LoadgenReport:
    """Outcome of one scenario replayed as traffic.

    Attributes:
        scenario: replayed scenario name.
        n_observes / n_updates / n_recommends: traffic counts.
        divergences: served ranked lists that failed the bitwise
            comparison against the in-process replica (0 when unverified).
        verified: whether a replica judged the replay.
        overloads: typed overload replies absorbed (after retries).
        seconds: wall clock of the whole replay.
        latency: recommend round-trip times (client-observed).
        server_stats: the server's own ``stats`` reply at the end.
        server_obs: the server's ``metrics``-route payload at the end
            (merged registry dump + Prometheus text + slow-request log)
            — the server-side view the client-observed latency alone
            cannot give: how long requests queued in the coalescer vs
            how long batches actually executed.
    """

    scenario: str
    n_observes: int = 0
    n_updates: int = 0
    n_recommends: int = 0
    divergences: int = 0
    verified: bool = False
    overloads: int = 0
    seconds: float = 0.0
    latency: TimingStats = field(default_factory=TimingStats)
    server_stats: dict = field(default_factory=dict)
    server_obs: dict = field(default_factory=dict)

    @property
    def items_per_sec(self) -> float:
        return self.n_recommends / self.seconds if self.seconds else 0.0

    def to_text(self) -> str:
        lat = self.latency.summary_ms()
        verdict = (
            "unverified"
            if not self.verified
            else ("EXACT" if self.divergences == 0 else f"BROKEN ({self.divergences})")
        )
        coalescing = self.server_stats.get("coalescing", {})
        lines = (
            f"{self.scenario:<24} recommends={self.n_recommends:<5} "
            f"items/sec={self.items_per_sec:8.1f} "
            f"p50={lat['p50_ms']:6.2f}ms p95={lat['p95_ms']:6.2f}ms "
            f"p99={lat['p99_ms']:6.2f}ms overloads={self.overloads:<3} "
            f"mean_batch={coalescing.get('mean_batch_size', 0.0):4.1f} "
            f"wire={verdict}"
        )
        queue = coalescing.get("queue", {})
        batch_exec = coalescing.get("batch_exec", {})
        if queue.get("count") or batch_exec.get("count"):
            # Server-side decomposition of the client round-trip: time
            # spent queued in the coalescer vs executing on the model.
            lines += (
                f"\n{'':<24} server: queue p95={queue.get('p95_ms', 0.0):6.2f}ms "
                f"batch-exec p95={batch_exec.get('p95_ms', 0.0):6.2f}ms "
                f"({batch_exec.get('count', 0)} batches)"
            )
        return lines


async def _recommend_with_retry(
    client: AsyncRecommenderClient, item: SocialItem, k: int, report
) -> RankedList:
    """One recommend; typed overload replies are retried, and counted (with
    the round-trip latency) on ``report`` — either report class."""
    for attempt in range(OVERLOAD_RETRIES):
        started = time.perf_counter()
        try:
            ranked = await client.recommend(item, k)
        except ServerOverloadError:
            report.overloads += 1
            await asyncio.sleep(OVERLOAD_BACKOFF * (attempt + 1))
            continue
        report.latency.record(time.perf_counter() - started)
        return ranked
    raise ServerOverloadError(
        f"recommend for item {item.item_id} still overloaded after "
        f"{OVERLOAD_RETRIES} retries"
    )


async def _drive_scenario_async(
    host: str,
    port: int,
    scenario: Scenario,
    k: int,
    window_size: int,
    concurrency: int,
    replica,
) -> LoadgenReport:
    report = LoadgenReport(scenario=scenario.name, verified=replica is not None)
    client = await AsyncRecommenderClient.connect(host, port)
    semaphore = asyncio.Semaphore(max(1, concurrency))

    async def recommend(item: SocialItem) -> RankedList:
        async with semaphore:
            return await _recommend_with_retry(client, item, k, report)

    started = time.perf_counter()
    try:
        for step in scenario.steps(window_size):
            if step.kind == "observe":
                await client.observe(step.item)
                report.n_observes += 1
            elif step.kind == "update":
                await client.update(step.interaction, step.item)
                report.n_updates += 1
            else:
                served = await asyncio.gather(*map(recommend, step.window))
                report.n_recommends += len(served)
                if replica is not None:
                    expected = replica.recommend_batch(step.window, k)
                    report.divergences += sum(
                        got != want for got, want in zip(served, expected)
                    )
            if replica is not None:
                step.write_to(replica)
        report.seconds = time.perf_counter() - started
        report.server_stats = await client.stats()
        report.server_obs = await client.metrics()
    finally:
        await client.close()
    return report


def drive_scenario(
    host: str,
    port: int,
    scenario: Scenario,
    k: int = 10,
    window_size: int = 8,
    concurrency: int = 8,
    replica=None,
) -> LoadgenReport:
    """Replay one scenario as open-loop traffic against a live server.

    Args:
        replica: an in-process recommender fed the identical event
            sequence; every served ranked list is compared to its
            ``recommend_batch`` output bitwise.  The replica must start
            from the same trained state the server's owner did (the
            experiments driver deepcopies one fitted template for both).
    """
    return asyncio.run(_drive_scenario_async(
        host, port, scenario, int(k), int(window_size), int(concurrency), replica
    ))


@dataclass
class QueryLoadReport:
    """A pure-query open loop's measurement (the bench's unit)."""

    n_queries: int
    seconds: float = 0.0
    overloads: int = 0
    latency: TimingStats = field(default_factory=TimingStats)
    results: list[RankedList] = field(default_factory=list)
    server_stats: dict = field(default_factory=dict)
    server_obs: dict = field(default_factory=dict)

    @property
    def items_per_sec(self) -> float:
        return self.n_queries / self.seconds if self.seconds else 0.0


async def _drive_queries_async(
    host: str,
    port: int,
    items: Sequence[SocialItem],
    k: int,
    concurrency: int,
) -> QueryLoadReport:
    report = QueryLoadReport(n_queries=len(items))
    client = await AsyncRecommenderClient.connect(host, port)
    started = time.perf_counter()
    try:
        # A fixed worker pool instead of one task + semaphore per query:
        # ``concurrency`` tasks total, each pulling the next item index —
        # the open-loop in-flight bound without per-query task overhead
        # (this loop shares one core with the server under test, so the
        # generator's own cost is part of the measurement).
        results: list[RankedList | None] = [None] * len(items)
        next_index = 0

        async def worker() -> None:
            nonlocal next_index
            while next_index < len(items):
                index = next_index
                next_index += 1
                results[index] = await _recommend_with_retry(
                    client, items[index], k, report
                )

        await asyncio.gather(*[worker() for _ in range(max(1, concurrency))])
        report.seconds = time.perf_counter() - started
        report.results = list(results)
        report.server_stats = await client.stats()
        report.server_obs = await client.metrics()
    finally:
        await client.close()
    return report


def drive_queries(
    host: str,
    port: int,
    items: Sequence[SocialItem],
    k: int = 10,
    concurrency: int = 16,
) -> QueryLoadReport:
    """Fire ``items`` as concurrent recommends (bounded in-flight) and
    measure items/sec + latency; results return for parity checks."""
    return asyncio.run(_drive_queries_async(host, port, list(items), int(k), int(concurrency)))
