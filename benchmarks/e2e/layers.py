"""Per-layer probes of the traced run.

Each probe times calls into one layer's *public* functions from the
benchmark's own :class:`~spans.SpanRecorder` — in the generator process,
on the replica, after the timed phases and after verification, so nothing
here can disturb an end-to-end number or the correctness check.  Probes
that only read run first; probes that mutate the replica run last.

A probe a workload's serving path never executes is skipped and its
metrics are reported as 0 (``index.*`` on the scan workloads,
``core.matching.score_us`` on the index workloads, ``serve.service.*``
on the local ones): the driver wants every declared per-layer metric
printed for every workload, and "this workload spends nothing here" is
exactly what 0 says.

Values are per item (``*_us``) unless a name says otherwise; each is the
median over its spans, returned with the span count as ``(value, n)``.
"""

from __future__ import annotations

import importlib.util
import itertools
import statistics
import time
from dataclasses import dataclass

from api import (
    SERVE_BACKENDS,
    FrameDecoder,
    Reply,
    Request,
    ScenarioGenerator,
    ShardedRecommender,
    SsRecConfig,
    SsRecRecommender,
    decode_reply,
    decode_request,
    encode_reply,
    encode_request,
    item_to_wire,
    merge_top_k,
    ranked_from_wire,
    ranked_to_wire,
)
from spans import SpanRecorder

#: Items a read-only probe covers, in windows of the ``sat`` in-flight bound.
PROBE_ITEMS = 512
PROBE_WINDOW = 16
#: Algorithm-2 flushes the mutation probe times.  Two, not more: one flush
#: of 199 profiles can rebuild a block and take a second at 3,000 users.
MAINTENANCE_FLUSHES = 2
#: Write-then-read rounds per fan-out backend, and updates per round.
SERVICE_ROUNDS = 5
SERVICE_UPDATES = 4

Metric = tuple[float, int]


@dataclass
class ProbeContext:
    recorder: SpanRecorder
    rec: SsRecRecommender      # the trained local facade
    replica: object            # what verification replayed on (rec, or a sequential service)
    k: int
    pool: list                 # items the server has already been asked about
    fresh_items: list          # items nobody has asked about or observed yet
    fresh_updates: list        # (interaction, item) pairs not yet applied anywhere
    maintenance_interval: int
    plan: str                  # "scan" | "index" | "sharded-index"
    seed: int


def _windows(items: list, size: int = PROBE_WINDOW) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def _median_us(ctx: ProbeContext, name: str, per: int = 1) -> Metric:
    """Median duration of the spans called ``name``, in µs per ``per`` items."""
    durations = ctx.recorder.durations(name)
    if not durations:
        return (0.0, 0)
    return (statistics.median(durations) / per * 1e6, len(durations))


# ----------------------------------------------------------------------
# Read-only probes
# ----------------------------------------------------------------------
def probe_exec(ctx: ProbeContext) -> tuple[dict[str, Metric], list]:
    """The compiled plan, whole (``recommend_batch`` on the replica), timed
    once through spans and once bare; the ratio is the tracing overhead.
    Returns the metrics and the ranked lists (the protocol probe's input)."""
    ranked: list = []
    bare: list[float] = []
    for number, window in enumerate(_windows(ctx.pool[:PROBE_ITEMS])):
        def spanned() -> None:
            with ctx.recorder.span("exec.run_batch"):
                ranked.extend(ctx.replica.recommend_batch(window, ctx.k))

        def unspanned() -> None:
            started = time.perf_counter()
            ctx.replica.recommend_batch(window, ctx.k)
            bare.append(time.perf_counter() - started)

        # Alternate which goes first so neither always runs on warm caches.
        first, second = (spanned, unspanned) if number % 2 else (unspanned, spanned)
        first()
        second()
    with_spans = _median_us(ctx, "exec.run_batch", PROBE_WINDOW)
    without = statistics.median(bare) / PROBE_WINDOW * 1e6
    return {
        "exec.run_batch_us": with_spans,
        "trace.overhead_share": (with_spans[0] / without - 1.0, len(bare)),
    }, ranked


def probe_protocol(ctx: ProbeContext, ranked: list) -> dict[str, Metric]:
    """The four codec directions of one recommend, on real payloads."""
    rec = ctx.recorder
    request_bytes: list[int] = []
    reply_bytes: list[int] = []
    windows = _windows(ctx.pool[:PROBE_ITEMS])
    for number, window in enumerate(windows):
        lists = ranked[number * PROBE_WINDOW:(number + 1) * PROBE_WINDOW]
        with rec.span("serve.protocol.encode_request"):
            requests = [
                encode_request(Request("recommend", i, {"item": item_to_wire(item), "k": ctx.k}))
                for i, item in enumerate(window)
            ]
        with rec.span("serve.protocol.decode_request"):
            decoder = FrameDecoder()
            for frame in requests:
                for message in decoder.feed(frame):
                    decode_request(message)
        with rec.span("serve.protocol.encode_reply"):
            replies = [
                encode_reply(Reply(i, "ok", result=ranked_to_wire(ranked_list)))
                for i, ranked_list in enumerate(lists)
            ]
        with rec.span("serve.protocol.decode_reply"):
            decoder = FrameDecoder()
            for frame in replies:
                for message in decoder.feed(frame):
                    ranked_from_wire(decode_reply(message).result)
        request_bytes.extend(len(frame) for frame in requests)
        reply_bytes.extend(len(frame) for frame in replies)
    metrics = {
        f"serve.protocol.{step}_us": _median_us(ctx, f"serve.protocol.{step}", PROBE_WINDOW)
        for step in ("encode_request", "decode_request", "encode_reply", "decode_reply")
    }
    metrics["serve.protocol.request_bytes"] = (statistics.mean(request_bytes), len(request_bytes))
    metrics["serve.protocol.reply_bytes"] = (statistics.mean(reply_bytes), len(reply_bytes))
    return metrics


def probe_entities(ctx: ProbeContext) -> dict[str, Metric]:
    """Query resolution on items whose expansion is not memoised yet."""
    for item in ctx.fresh_items[:PROBE_ITEMS]:
        with ctx.recorder.span("entities.expand"):
            ctx.rec.scorer.expanded_query(item)
    return {"entities.expand_us": _median_us(ctx, "entities.expand")}


def probe_matching(ctx: ProbeContext) -> dict[str, Metric]:
    """Eq. 1–4 full scan and top-k selection (scan plans only)."""
    matcher = ctx.rec.matcher
    for window in _windows(ctx.pool[:PROBE_ITEMS]):
        with ctx.recorder.span("core.matching.score"):
            scores = matcher.score_all_batch(window)
        with ctx.recorder.span("core.matching.select"):
            for row in scores:
                matcher.select_top_k(row, ctx.k)
    return {
        "core.matching.score_us": _median_us(ctx, "core.matching.score", PROBE_WINDOW),
        "core.matching.select_us": _median_us(ctx, "core.matching.select", PROBE_WINDOW),
    }


def probe_index(ctx: ProbeContext) -> dict[str, Metric]:
    """Algorithm 1 on the local CPPse index: tree location, the batched
    KNN descent, and how much of the population a query can still reach."""
    index = ctx.rec.index
    n_users = len(ctx.rec.matcher.user_ids)
    items = ctx.pool[:PROBE_ITEMS]
    for window in _windows(items):
        with ctx.recorder.span("index.locate"):
            for item in window:
                index.locate_trees(item)
        with ctx.recorder.span("index.knn"):
            index.knn_batch(window, ctx.k)
    reachable = [len(index.users_in_probed_trees(item)) / n_users for item in items[:128]]
    return {
        "index.locate_us": _median_us(ctx, "index.locate", PROBE_WINDOW),
        "index.knn_us": _median_us(ctx, "index.knn", PROBE_WINDOW),
        "index.candidate_share": (statistics.mean(reachable), len(reachable)),
    }


def probe_memo(ctx: ProbeContext) -> dict[str, Metric]:
    """The result-cache axis (off in every workload): a small
    ``result_cache=True`` recommender fed the redelivery scenario's uploads
    one at a time.  The first delivery of each item id is a miss and every
    redelivery between two mutations a hit, so the share repeats exactly."""
    scenario = ScenarioGenerator(seed=ctx.seed, max_events=600).generate("duplicate_out_of_order")
    cached = SsRecRecommender(SsRecConfig(result_cache=True), use_index=False, seed=ctx.seed)
    cached.fit(scenario.dataset, scenario.train_interactions)
    seen: set[int] = set()
    hits = misses = 0
    for item in scenario.uploads():
        hit = item.item_id in seen
        seen.add(item.item_id)
        with ctx.recorder.span("exec.memo.hit" if hit else "exec.memo.miss"):
            cached.recommend_batch([item], ctx.k)
        hits += hit
        misses += not hit
    return {
        "exec.memo.hit_share": (hits / (hits + misses), hits + misses),
        "exec.memo.hit_us": _median_us(ctx, "exec.memo.hit"),
        "exec.memo.miss_us": _median_us(ctx, "exec.memo.miss"),
    }


def probe_kernels(ctx: ProbeContext, dataset, train) -> dict[str, Metric]:
    """``scoring="native"`` is reported, not a workload: when numba is
    importable a native-scoring twin is fitted and its whole-plan cost
    timed; without numba the plan would silently serve vectorized, so
    only the 0 is reported."""
    ready = importlib.util.find_spec("numba") is not None
    if not ready:
        return {"core.kernels.native_ready": (0.0, 1), "core.kernels.topk_us": (0.0, 0)}
    native = SsRecRecommender(SsRecConfig(scoring="native"), use_index=False, seed=ctx.seed)
    native.fit(dataset, train)
    windows = _windows(ctx.pool[:PROBE_ITEMS])
    native.recommend_batch(windows[0], ctx.k)  # compile outside the spans
    for window in windows:
        with ctx.recorder.span("core.kernels.topk"):
            native.recommend_batch(window, ctx.k)
    return {
        "core.kernels.native_ready": (1.0, 1),
        "core.kernels.topk_us": _median_us(ctx, "core.kernels.topk", PROBE_WINDOW),
    }


def probe_merge(ctx: ProbeContext, ranked: list) -> dict[str, Metric]:
    """Fan-in of two per-shard partial lists."""
    for left, right in zip(ranked[0::2], ranked[1::2]):
        with ctx.recorder.span("serve.service.merge"):
            merge_top_k([left, right], ctx.k)
    return {"serve.service.merge_us": _median_us(ctx, "serve.service.merge")}


# ----------------------------------------------------------------------
# Mutating probes (run last: they move the replica's state)
# ----------------------------------------------------------------------
def probe_mutations(ctx: ProbeContext) -> dict[str, Metric]:
    """``observe_item``/``update`` on the local facade, the matcher resync
    they force, and one Algorithm-2 flush per ``maintenance_interval - 1``
    updates when an index is attached."""
    rec, recorder = ctx.rec, ctx.recorder
    metrics: dict[str, Metric] = {}
    for item in ctx.fresh_items[:64]:
        with recorder.span("core.ssrec.observe"):
            rec.observe_item(item)
    per_flush = min(200, ctx.maintenance_interval - 1) if rec.index is not None else 200
    refreshed: list[int] = []
    updates = iter(ctx.fresh_updates)
    for _ in range(MAINTENANCE_FLUSHES):
        for interaction, item in itertools.islice(updates, per_flush):
            with recorder.span("core.ssrec.update"):
                rec.update(interaction, item)
        if rec.index is not None:
            with recorder.span("index.maintain"):
                refreshed.append(rec.run_maintenance())
        if ctx.plan != "index":
            with recorder.span("core.matching.sync"):
                rec.matcher.sync()
    metrics["core.ssrec.observe_us"] = _median_us(ctx, "core.ssrec.observe")
    metrics["core.ssrec.update_us"] = _median_us(ctx, "core.ssrec.update")
    sync_us, n_sync = _median_us(ctx, "core.matching.sync")
    metrics["core.matching.sync_ms"] = (sync_us / 1e3, n_sync)
    maintain_us, n_flush = _median_us(ctx, "index.maintain")
    metrics["index.maintain_ms"] = (maintain_us / 1e3, n_flush)
    metrics["index.maintain_users"] = (
        statistics.mean(refreshed) if refreshed else 0.0, len(refreshed)
    )
    return metrics


def probe_service(ctx: ProbeContext, window: int) -> dict[str, Metric]:
    """Every fan-out backend at two shards over the same trained state:
    steady batch cost, the two mutations, and the first batch after a
    write — where an epoch republish or a worker resync lands."""
    recorder = ctx.recorder
    metrics: dict[str, Metric] = {}
    items = ctx.pool[:16 * window]
    updates = iter(ctx.fresh_updates[-len(SERVE_BACKENDS) * SERVICE_ROUNDS * SERVICE_UPDATES:])
    for backend in SERVE_BACKENDS:
        prefix = f"serve.service.{backend}"
        service = ShardedRecommender.from_trained(
            ctx.rec, n_shards=2, strategy="block", use_index=True, backend=backend
        )
        try:
            service.recommend_batch(items[:window], ctx.k)  # spawn + publish, untimed
            for batch in _windows(items, window):
                with recorder.span(f"{prefix}.batch"):
                    service.recommend_batch(batch, ctx.k)
            for item in ctx.fresh_items[-16:]:
                with recorder.span(f"{prefix}.observe"):
                    service.observe_item(item)
            for _ in range(SERVICE_ROUNDS):
                for interaction, item in itertools.islice(updates, SERVICE_UPDATES):
                    with recorder.span(f"{prefix}.update"):
                        service.update(interaction, item)
                with recorder.span(f"{prefix}.read_after_write"):
                    service.recommend_batch(items[:window], ctx.k)
            metrics["serve.service.shard_skew"] = (service.balance_stats()["imbalance"], 2)
        finally:
            service.close()
        metrics[f"{prefix}.batch_us"] = _median_us(ctx, f"{prefix}.batch", window)
        metrics[f"{prefix}.observe_us"] = _median_us(ctx, f"{prefix}.observe")
        metrics[f"{prefix}.update_us"] = _median_us(ctx, f"{prefix}.update")
        raw_us, n_raw = _median_us(ctx, f"{prefix}.read_after_write")
        metrics[f"{prefix}.read_after_write_ms"] = (raw_us / 1e3, n_raw)
    return metrics


#: Metrics of probes a workload skips (reported as 0, see module docstring).
SKIPPABLE = (
    "core.matching.score_us", "core.matching.select_us", "core.matching.sync_ms",
    "index.locate_us", "index.knn_us", "index.candidate_share",
    "index.maintain_ms", "index.maintain_users",
    "exec.memo.hit_share", "exec.memo.hit_us", "exec.memo.miss_us",
    "serve.service.merge_us", "serve.service.shard_skew",
    *(f"serve.service.{backend}.{what}" for backend in SERVE_BACKENDS
      for what in ("batch_us", "observe_us", "update_us", "read_after_write_ms")),
)
