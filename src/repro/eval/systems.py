"""Serving-stack experiments beyond the paper's figures.

Each throughput driver builds *arms* — ways of serving the same inputs —
and hands them to :func:`repro.eval.serving.time_arms`, the one
warm-up / rotating-order / judged-while-timed protocol:

| Subsystem measured                      | Driver                   |
|-----------------------------------------|--------------------------|
| micro-batched serving (recommend_batch) | run_batch_throughput     |
| sharded runtime (repro.serve) x backend | run_sharded_throughput   |
| the memo stage (``*-dedup`` plans)      | run_dedup                |
| fused native kernels                    | run_native_kernels       |
| socket server's dynamic coalescing      | run_server_throughput    |
| scenario catalog as socket traffic      | run_loadgen              |
| every registered plan vs the oracle     | run_conformance          |
| fit + host over the wire                | run_serve                |
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from contextlib import ExitStack
from dataclasses import dataclass, field

from repro.core.config import SsRecConfig
from repro.core.ssrec import SsRecRecommender
from repro.datasets.partitions import partition_interactions
from repro.datasets.schema import Dataset
from repro.eval.metrics import TimingStats
from repro.eval.reporting import format_series
from repro.eval.serving import (
    ArmsResult,
    fit_ssrec,
    rate,
    serve_arm,
    serving_slice,
    time_arms,
    windows_of,
)


# ----------------------------------------------------------------------
# Batched serving throughput (the recommend_batch path)
# ----------------------------------------------------------------------
@dataclass
class BatchThroughputResult:
    """Items/sec of micro-batched vs per-item serving.

    Attributes:
        dataset: benchmark dataset name.
        n_items: items served per measurement.
        items_per_sec: scenario -> {batch_size: items/sec}; batch size 1 is
            the per-item ``recommend`` loop, larger sizes go through
            ``recommend_batch``.  Scenarios: ``scan`` (vectorized matcher),
            ``index`` (CPPse-index, pure serving) and ``index+updates``
            (CPPse-index with interleaved profile updates, where batching
            also amortizes the Algorithm 2 maintenance flush).
        parity_ok: on the update-free scenarios every batch size returned
            the per-item loop's ranked lists, bitwise, while timed.
    """

    dataset: str
    n_items: int
    items_per_sec: dict[str, dict[int, float]]
    parity_ok: bool = True

    def speedup(self, scenario: str, batch_size: int) -> float:
        """Throughput of ``batch_size`` relative to the per-item loop."""
        series = self.items_per_sec[scenario]
        return rate(series[int(batch_size)], series[1])

    def to_text(self) -> str:
        return format_series(
            f"Batched serving throughput ({self.dataset}) — items/sec vs batch size",
            self.items_per_sec,
            x_label="batch",
        )


def run_batch_throughput(
    dataset: Dataset,
    batch_sizes: Sequence[int] = (1, 16, 64),
    k: int = 30,
    max_items: int = 512,
    updates_per_item: int = 1,
    config: SsRecConfig | None = None,
    seed: int = 1,
) -> BatchThroughputResult:
    """Measure ``recommend_batch`` against the per-item serving loop.

    Scan and index scenarios serve a fixed item slice with one arm per
    batch size on one recommender (the untimed warm-up fills the
    expanded-query and column caches, so the comparison isolates the
    serving machinery rather than one-off cache fills).  The
    ``index+updates`` scenario interleaves ``updates_per_item`` profile
    updates per served item — arriving window-by-window, as micro-batching
    delivers them — so the per-item loop flushes index maintenance before
    every query while the batched path flushes once per window; only
    serving calls (including their maintenance flushes) are timed.
    """
    base = config or SsRecConfig()
    batch_sizes = sorted({1, *(int(b) for b in batch_sizes)})
    stream, items = serving_slice(dataset, max_items)

    items_per_sec: dict[str, dict[int, float]] = {}
    parity_ok = True
    for scenario, use_index in (("scan", False), ("index", True)):
        rec = fit_ssrec(dataset, stream, base, use_index=use_index, seed=seed)
        timings = time_arms({bs: serve_arm(rec, k, bs) for bs in batch_sizes}, [items])
        items_per_sec[scenario] = {
            bs: rate(len(items), timings.total(bs)) for bs in batch_sizes
        }
        parity_ok = parity_ok and timings.parity_ok

    interactions = [
        inter
        for partition in stream.test_indices
        for inter in stream.partitions[partition]
    ]
    item_by_id = {item.item_id: item for item in dataset.items}

    def updatedwindows_of(rec: SsRecRecommender, batch_size: int):
        """The slice's windows, each preceded (untimed) by its updates."""
        cursor = 0
        for window in windows_of(items, batch_size):
            for _ in range(updates_per_item * len(window)):
                inter = interactions[cursor % len(interactions)]
                cursor += 1
                rec.update(inter, item_by_id.get(inter.item_id))
            yield window

    template = fit_ssrec(dataset, stream, base, use_index=True, seed=seed)
    items_per_sec["index+updates"] = {}
    for bs in batch_sizes:
        rec = copy.deepcopy(template)
        timings = time_arms(
            {bs: serve_arm(rec, k, bs)}, updatedwindows_of(rec, bs), warm=False
        )
        items_per_sec["index+updates"][bs] = rate(len(items), timings.total(bs))
    return BatchThroughputResult(dataset.name, len(items), items_per_sec, parity_ok)


# ----------------------------------------------------------------------
# Sharded serving throughput (the repro.serve runtime)
# ----------------------------------------------------------------------
def shard_path_key(mode: str, serve: str, backend: str) -> str:
    """Series key of one sharded measurement: ``sharded-<mode>-<serve>``
    for the sequential backend, ``@<backend>`` appended for any other, so
    one sweep renders backends side by side."""
    key = f"sharded-{mode}-{serve}"
    return key if backend == "sequential" else f"{key}@{backend}"


@dataclass
class ShardScalingResult:
    """Throughput and tail latency of the sharded runtime vs shard count.

    Attributes:
        dataset: benchmark dataset name.
        n_items: items served per measurement.
        strategy: shard strategy swept (``"block"`` for exact parity).
        backends: fan-out backends swept (any of
            :data:`repro.core.config.SERVE_BACKENDS`).
        items_per_sec: :func:`shard_path_key` -> {n_shards: items/sec},
            for mode in scan/index and serve in item (per-item fan-out) /
            batch (micro-batched fan-out).
        baselines: unsharded reference throughputs — ``scan-item``,
            ``scan-batch``, ``index-item``, ``index-batch``.
        latency_ms: n_shards -> mean/p50/p95/p99 milliseconds of the first
            backend's sharded-index per-item path.
        parity_ok: every swept (shard count, backend) returned the single
            recommender's results in the same mode, per item and per
            batch, bitwise, while timed.
    """

    dataset: str
    n_items: int
    strategy: str
    backends: tuple[str, ...]
    items_per_sec: dict[str, dict[int, float]]
    baselines: dict[str, float]
    latency_ms: dict[int, dict[str, float]]
    parity_ok: bool

    def speedup_over_scan(self, n_shards: int, path: str = "sharded-scan-batch") -> float:
        """Sharded throughput relative to the unsharded per-item scan."""
        return rate(self.items_per_sec[path][int(n_shards)], self.baselines["scan-item"])

    def best_backend_speedup(
        self, n_shards: int, backend: str = "process", over: str = "sequential"
    ) -> float:
        """Best throughput ratio of ``backend`` over ``over`` across the
        (mode, serve) paths at one shard count — the parallelism headline."""

        def ips(mode: str, serve: str, which: str) -> float:
            return self.items_per_sec[shard_path_key(mode, serve, which)][int(n_shards)]

        return max(
            rate(ips(mode, serve, backend), ips(mode, serve, over))
            for mode in ("scan", "index")
            for serve in ("item", "batch")
        )

    def to_text(self) -> str:
        latency = {
            stat: {n: self.latency_ms[n][stat] for n in sorted(self.latency_ms)}
            for stat in ("mean_ms", "p50_ms", "p95_ms", "p99_ms")
        }
        return "\n".join([
            format_series(
                f"Sharded serving ({self.dataset}) — items/sec vs shard count "
                f"(backends: {', '.join(self.backends)})",
                self.items_per_sec,
                x_label="shards",
            ),
            "",
            "Unsharded baselines (items/sec): "
            + "  ".join(f"{name}={ips:.1f}" for name, ips in self.baselines.items()),
            "",
            format_series(
                "Sharded-index per-item serving latency (ms) vs shard count",
                latency,
                x_label="shards",
            ),
            "",
            f"parity with single index: {'exact' if self.parity_ok else 'BROKEN'}",
        ])


def run_sharded_throughput(
    dataset: Dataset,
    shard_counts: Sequence[int] = (1, 2, 4),
    k: int = 30,
    max_items: int = 512,
    strategy: str = "block",
    backends: Sequence[str] = ("sequential",),
    config: SsRecConfig | None = None,
    seed: int = 1,
) -> ShardScalingResult:
    """Sweep shard counts and fan-out backends over a fixed serving slice.

    One scan-mode recommender is trained and reused — upgraded in place
    to index mode for the second half — so the unsharded baselines and
    every sharded service share its trained state, and results can only
    differ through the serving structures.  The unsharded recommender and
    then each sharded service (one alive at a time) put their item and
    batch paths through :func:`~repro.eval.serving.time_arms`: the untimed
    warm-up also pays a worker backend's spawn, and every sharded arm is
    judged against the unsharded per-item answers while timed.
    """
    from repro.serve.service import ShardedRecommender  # local: keeps eval import-light

    base = config or SsRecConfig()
    backends = tuple(backends)
    shard_counts = sorted({int(n) for n in shard_counts})
    stream, items = serving_slice(dataset, max_items)
    trained = fit_ssrec(dataset, stream, base, use_index=False, seed=seed)

    baselines: dict[str, float] = {}
    items_per_sec: dict[str, dict[int, float]] = {
        shard_path_key(mode, serve, backend): {}
        for mode in ("scan", "index")
        for serve in ("item", "batch")
        for backend in backends
    }
    latency: dict[int, list[float]] = {n: [] for n in shard_counts}
    parity_ok = True

    def measure(recommender, samples: list | None = None, reference: list | None = None):
        """Time ``recommender``'s item and batch paths over the slice;
        returns ``({serve: items/sec}, the per-item answers)``."""
        nonlocal parity_ok
        arms = {
            "item": serve_arm(recommender, k, 1, samples),
            "batch": serve_arm(recommender, k, base.batch_size),
        }
        if reference is not None:  # a free first arm: the answers to match
            arms = {"reference": lambda _: reference, **arms}
        timings = time_arms(arms, [items])
        parity_ok = parity_ok and timings.parity_ok
        rates = {serve: rate(len(items), timings.total(serve)) for serve in ("item", "batch")}
        return rates, timings.outputs["item"][0]

    for mode in ("scan", "index"):
        if mode == "index":
            trained.attach_index()
        rates, reference = measure(trained)
        baselines.update({f"{mode}-{serve}": ips for serve, ips in rates.items()})
        for n_shards in shard_counts:
            for backend in backends:
                with ShardedRecommender.from_trained(
                    trained,
                    n_shards=n_shards,
                    strategy=strategy,
                    use_index=(mode == "index"),
                    backend=backend,
                ) as service:
                    timed = mode == "index" and backend == backends[0]
                    rates, _ = measure(service, latency[n_shards] if timed else None, reference)
                for serve, ips in rates.items():
                    items_per_sec[shard_path_key(mode, serve, backend)][n_shards] = ips
    return ShardScalingResult(
        dataset=dataset.name,
        n_items=len(items),
        strategy=strategy,
        backends=backends,
        items_per_sec=items_per_sec,
        baselines=baselines,
        latency_ms={
            n: TimingStats(samples=samples).summary_ms()
            for n, samples in latency.items()
        },
        parity_ok=parity_ok,
    )


# ----------------------------------------------------------------------
# The memo stage — deduplicated vs anchor serving
# ----------------------------------------------------------------------
@dataclass
class DedupResult(ArmsResult):
    """Deduplicated-vs-anchor serving over one near-duplicate scenario.

    Arms: the dedup-off ``"anchor"``, the ``"exact"`` replica, and one
    approx replica per swept threshold (keyed by tau).  ``parity_ok`` is
    exact mode's contract — every exact ranked list equalled the anchor's,
    bitwise (the CLI exits non-zero when it is False).

    Attributes:
        scenario / seed: the replayed scenario and its generator seed.
        k / window_size / n_windows: traffic shape (``n_served`` counts
            redeliveries).
        exact_stats: collapse counters of the exact-mode replica.
        default_tau: the Jaccard threshold the config defaults to (its
            sweep row is the one the recall gate reads).
        approx: tau -> ``{"recall", "stats"}``, in ascending tau.
    """

    scenario: str
    seed: int
    k: int
    window_size: int
    n_windows: int
    exact_stats: dict
    default_tau: float
    approx: dict[float, dict]

    @property
    def exact_speedup(self) -> float:
        return self.speedup("exact", "anchor")

    @property
    def exact_collapse_rate(self) -> float:
        return float(self.exact_stats.get("collapse_rate", 0.0))

    @property
    def default_recall(self) -> float:
        """Anchor-judged recall@k at the config-default threshold (0 when
        it was not swept)."""
        return float(self.approx.get(self.default_tau, {}).get("recall", 0.0))

    def to_text(self) -> str:
        lines = [
            "Near-duplicate collapse — deduplicated vs anchor serving "
            f"({self.scenario!r}, seed {self.seed})",
            f"  windows={self.n_windows} items_served={self.n_served} "
            f"k={self.k} window={self.window_size}",
            self._arm_line("anchor:", "anchor"),
            self._arm_line("exact: ", "exact")
            + f"  speedup: {self.exact_speedup:.2f}x  "
            f"collapse_rate: {self.exact_collapse_rate:.1%} "
            f"(collapsed={self.exact_stats.get('collapsed', 0)} "
            f"groups={self.exact_stats.get('groups', 0)})",
            f"  exact parity: {'bit-identical' if self.parity_ok else 'BROKEN'}",
            "  approx sweep (tau  recall@k  collapse_rate  items/sec):",
        ]
        for tau, row in self.approx.items():
            lines.append(
                f"    {tau:.2f}  {row['recall']:8.4f}  "
                f"{float(row['stats'].get('collapse_rate', 0.0)):13.1%}  "
                f"{self.items_per_sec(tau):9.1f}"
                + (" *" if tau == self.default_tau else "")
            )
        lines.append("  (* = config-default threshold)")
        return "\n".join(lines)


def _audience_recall(want: list, got: list) -> float:
    """Fraction of ``want``'s top-k audience that ``got`` retains."""
    users = {user for user, _ in want}
    if not users:
        return 1.0
    return len(users & {user for user, _ in got}) / len(users)


def run_dedup(
    base: Dataset | None = None,
    scenario: str = "mutated_retry",
    seed: int = 7,
    k: int = 30,
    window_size: int = 16,
    max_events: int = 4800,
    fit_seed: int = 1,
    config: SsRecConfig | None = None,
    taus: Sequence[float] | None = None,
) -> DedupResult:
    """Measure the ``*-dedup`` execution plans on near-duplicate traffic.

    Replicas of one trained scan-mode recommender replay the same
    scenario stream (writes applied to all): a dedup-off anchor serves
    every delivered upload from scratch, an exact-mode replica collapses
    bit-identical resolved queries, and one approx-mode replica per swept
    Jaccard threshold (default: 0.4, the config default, 0.8) collapses
    near-duplicates onto group representatives.  Exact output must equal
    the anchor's bitwise; approx output is judged by recall@k — the share
    of the anchor's top-k audience it retains, averaged over every served
    upload.  Each served window is one :func:`~repro.eval.serving.time_arms`
    round, unwarmed: a memo stage's first serve of a window *is* the
    measurement.
    """
    from repro.sim import ScenarioGenerator, fit_template  # local: keeps eval import-light

    scn = ScenarioGenerator(base=base, seed=seed, max_events=max_events).generate(scenario)
    template = fit_template(scn, config, fit_seed)
    default_tau = round(template.config.dedup_threshold, 9)
    taus = sorted({round(float(t), 9) for t in taus or (0.4, default_tau, 0.8)})
    replicas = {
        "anchor": copy.deepcopy(template),
        "exact": copy.deepcopy(template).configure(dedup="exact"),
        **{
            tau: copy.deepcopy(template).configure(dedup="approx", dedup_threshold=tau)
            for tau in taus
        },
    }

    def windows():
        for step in scn.steps(window_size):
            if step.kind == "serve":
                # Absorb accumulated updates *untimed* in every replica, so
                # the timed rounds isolate the serving machinery.
                for replica in replicas.values():
                    replica.matcher.sync()
                yield step.window
            else:
                for replica in replicas.values():
                    step.write_to(replica)

    timings = time_arms(
        {name: serve_arm(replica, k, 1) for name, replica in replicas.items()},
        windows(),
        warm=False,
    )
    anchor_windows = timings.outputs["anchor"]
    n_served = sum(len(window) for window in anchor_windows)

    def recall(tau: float) -> float:
        return rate(
            sum(
                _audience_recall(want, got)
                for want_window, got_window in zip(anchor_windows, timings.outputs[tau])
                for want, got in zip(want_window, got_window)
            ),
            n_served,
        )

    return DedupResult(
        n_served=n_served,
        seconds={name: timings.total(name) for name in replicas},
        parity_ok="exact" not in timings.diverged,
        scenario=scenario,
        seed=int(seed),
        k=int(k),
        window_size=int(window_size),
        n_windows=len(anchor_windows),
        exact_stats=replicas["exact"].stats()["dedup"],
        default_tau=default_tau,
        approx={
            tau: {"recall": recall(tau), "stats": replicas[tau].stats()["dedup"]}
            for tau in taus
        },
    )


# ----------------------------------------------------------------------
# Native scoring kernels — fused-kernel vs vectorized scan-batch serving
# ----------------------------------------------------------------------
@dataclass
class NativeKernelsResult(ArmsResult):
    """Fused-kernel (``"native"`` arm) vs ``"vectorized"`` scan-batch
    serving; ``parity_ok`` holds within the 1e-9 tie discipline (bitwise
    when falling back).

    Attributes:
        dataset: benchmark dataset name.
        k / batch_size: recommendation depth and micro-batch window.
        rounds: timed passes per arm (``n_served`` spans all of them).
        native_engaged: the compiled kernels actually served (numba
            present and self-tested); False means the native arm ran the
            bit-identical vectorized fallback — parity still judged, the
            >=5x headline not claimed.
        fallbacks: ``repro.core.kernels`` fallback counter after the run.
    """

    dataset: str
    k: int
    batch_size: int
    rounds: int
    native_engaged: bool
    fallbacks: int

    @property
    def n_items(self) -> int:
        """Items served per timed pass."""
        return self.n_served // self.rounds

    def to_text(self) -> str:
        mode = "compiled kernels" if self.native_engaged else "FALLBACK (vectorized)"
        return "\n".join([
            f"Native scoring kernels — scan-batch serving ({self.dataset})",
            f"  items={self.n_items} k={self.k} batch={self.batch_size} "
            f"rounds={self.rounds}",
            self._arm_line("vectorized:", "vectorized"),
            self._arm_line("native:    ", "native") + f"  [{mode}]",
            f"  speedup: {self.speedup('native', 'vectorized'):.2f}x   "
            f"fallbacks={self.fallbacks}",
            f"  parity: {'within 1e-9 ties' if self.parity_ok else 'BROKEN'}",
        ])


def run_native_kernels(
    dataset: Dataset,
    k: int = 30,
    batch_size: int = 64,
    max_items: int = 512,
    rounds: int = 3,
    config: SsRecConfig | None = None,
    seed: int = 1,
) -> NativeKernelsResult:
    """Measure the fused native kernels on the scan-batch serving path.

    Two replicas of one trained scan-mode recommender serve the same item
    slice through ``recommend_batch``: the vectorized arm and a replica
    switched to ``scoring="native"``.  numba compiles during the untimed
    warm-up pass, so compile time never enters the timed region (the rule
    docs/BENCHMARKS.md states).  Without numba the native arm serves
    through the bit-identical vectorized fallback: parity still gates,
    the arms approximately tie, and ``native_engaged`` is False.
    """
    from repro.core import kernels
    from repro.sim.oracle import matches_within_ties  # local: keeps eval import-light

    stream, items = serving_slice(dataset, max_items)
    vectorized = fit_ssrec(dataset, stream, config or SsRecConfig(), seed=seed)
    native = copy.deepcopy(vectorized).configure(scoring="native")
    arms = {"vectorized": vectorized, "native": native}
    timings = time_arms(
        {name: serve_arm(rec, k, int(batch_size)) for name, rec in arms.items()},
        [items] * int(rounds),
        judge=lambda got, want: all(map(matches_within_ties, got, want)),
    )
    return NativeKernelsResult(
        n_served=len(items) * int(rounds),
        seconds={name: timings.total(name) for name in arms},
        parity_ok=timings.parity_ok,
        dataset=dataset.name,
        k=int(k),
        batch_size=int(batch_size),
        rounds=int(rounds),
        native_engaged=kernels.native_ready(),
        fallbacks=kernels.fallback_count(),
    )


# ----------------------------------------------------------------------
# Network serving — coalescing throughput and scenario load generation
# ----------------------------------------------------------------------
@dataclass
class ServerThroughputResult(ArmsResult):
    """Open-loop served throughput: the ``"coalesced"`` arm (dynamic
    micro-batch coalescing) vs ``"per-request"`` dispatch.

    Both arms fire the same concurrent recommend traffic through the
    socket at one live server each; ``seconds`` is each arm's best pass
    and ``parity_ok`` says every served list matched the in-process
    ``recommend_batch`` reference, bitwise, as it was timed.

    Attributes:
        dataset: served dataset name.
        k / concurrency: recommendation depth and the load generator's
            in-flight request bound.
        latency_ms: arm -> client-observed round-trip percentiles.
        mean_batch_size / max_batch_size: the coalescer's formed batches.
        obs: the coalesced server's ``metrics``-route payload (cumulative
            up to its best pass) — the server-side queue-wait vs
            batch-exec decomposition behind the client-observed latencies.
    """

    dataset: str
    k: int
    concurrency: int
    latency_ms: dict[str, dict]
    mean_batch_size: float
    max_batch_size: int
    obs: dict = field(default_factory=dict)

    def to_text(self) -> str:
        def arm_line(label: str, arm: str, batches: str = "") -> str:
            latency = self.latency_ms[arm]
            return (
                f"  {label} {self.items_per_sec(arm):9.1f} items/sec "
                f"(p50={latency.get('p50_ms', 0.0):.2f}ms "
                f"p95={latency.get('p95_ms', 0.0):.2f}ms{batches})"
            )

        lines = [
            f"Network serving — dynamic coalescing vs per-request dispatch "
            f"({self.dataset})",
            f"  queries={self.n_served} k={self.k} concurrency={self.concurrency}",
            arm_line("per-request:", "per-request"),
            arm_line(
                "coalesced:  ",
                "coalesced",
                f", mean_batch={self.mean_batch_size:.1f} max={self.max_batch_size}",
            ),
            f"  speedup: {self.speedup('coalesced', 'per-request'):.2f}x",
            f"  parity: {'bit-identical' if self.parity_ok else 'BROKEN'}",
        ]
        histograms = {
            entry.get("name"): entry.get("count", 0)
            for entry in self.obs.get("registry", {}).get("histograms", [])
        }
        if {"server.queue_seconds", "server.batch_seconds"} & set(histograms):
            lines.append(
                "  server-side: "
                f"queued {histograms.get('server.queue_seconds', 0)} requests, "
                f"executed {histograms.get('server.batch_seconds', 0)} batches "
                "(scrape the metrics route for the full registry)"
            )
        return "\n".join(lines)


def run_server_throughput(
    dataset: Dataset,
    k: int = 10,
    max_items: int = 256,
    concurrency: int = 16,
    max_batch: int | None = None,
    max_delay: float = 0.0,
    rounds: int = 3,
    config: SsRecConfig | None = None,
    seed: int = 1,
) -> ServerThroughputResult:
    """Measure the server's dynamic micro-batch coalescing win.

    One fitted scan-mode recommender serves all three arms (read-only
    traffic): the in-process ``recommend_batch`` reference and two live
    servers, coalescing off and on, each fired ``max_items`` concurrent
    recommends — the open-loop shape the coalescer is built for.

    The ``rounds`` passes rotate the serve order, so drift (client,
    server and model share cores here) hits the arms evenly, and each
    served arm reports its best pass by the load generator's own clock
    (which excludes connection set-up and the closing metrics scrape) —
    the min-time discipline of pytest-benchmark.  ``max_batch`` defaults
    to twice the concurrency so the coalescer's natural window (see
    :class:`~repro.serve.server._Coalescer`) is never split by the cap.
    """
    from repro.serve.loadgen import drive_queries  # local: keeps eval import-light
    from repro.serve.server import RecommenderServer, ServerThread

    if max_batch is None:
        max_batch = max(2, 2 * int(concurrency))
    stream, items = serving_slice(dataset, max_items)
    rec = fit_ssrec(dataset, stream, config or SsRecConfig(), seed=seed)

    def served(server: RecommenderServer):
        return lambda queries: drive_queries(
            server.host, server.port, queries, k=k, concurrency=concurrency
        )

    arms = {"in-process": lambda queries: rec.recommend_batch(queries, k)}
    with ExitStack() as stack:
        for arm, coalesce in (("per-request", False), ("coalesced", True)):
            server = RecommenderServer(
                rec, coalesce=coalesce, max_batch=max_batch, max_delay=max_delay
            )
            stack.enter_context(ServerThread(server))
            arms[arm] = served(server)
        timings = time_arms(
            arms,
            [items] * max(1, int(rounds)),
            judge=lambda report, want: report.results == want,
        )
    best = {
        arm: min(timings.outputs[arm], key=lambda report: report.seconds)
        for arm in ("per-request", "coalesced")
    }
    return ServerThroughputResult(
        n_served=len(items),
        seconds={arm: report.seconds for arm, report in best.items()},
        parity_ok=timings.parity_ok,
        dataset=dataset.name,
        k=int(k),
        concurrency=int(concurrency),
        latency_ms={arm: report.latency.summary_ms() for arm, report in best.items()},
        mean_batch_size=server.stats.mean_batch_size,  # the coalescing server's
        max_batch_size=server.stats.max_batch_size,
        obs=best["coalesced"].server_obs,
    )


@dataclass
class LoadgenSuiteResult:
    """Scenario catalog replayed as network traffic, one report each.

    Attributes:
        seed: scenario generator seed.
        k / window_size / concurrency: traffic shape.
        verified: reports carry bitwise verdicts against a replica.
        reports: one :class:`~repro.serve.loadgen.LoadgenReport` per
            scenario, in replay order.
    """

    seed: int
    k: int
    window_size: int
    concurrency: int
    verified: bool
    reports: list  # list[LoadgenReport]

    @property
    def total_divergences(self) -> int:
        return sum(report.divergences for report in self.reports)

    def to_text(self) -> str:
        if not self.verified:
            verdict = "unverified (no replica)"
        elif self.total_divergences:
            verdict = f"BROKEN: {self.total_divergences} divergences"
        else:
            verdict = "all scenarios EXACT through the socket"
        return "\n".join([
            "Open-loop load generation — scenarios replayed through the wire "
            f"(seed {self.seed}, k={self.k}, window={self.window_size}, "
            f"concurrency={self.concurrency})",
            *(f"  {report.to_text()}" for report in self.reports),
            f"  loadgen verdict: {verdict}",
        ])


def run_loadgen(
    scenarios: Sequence[str] | None = None,
    seed: int = 7,
    k: int = 10,
    window_size: int = 8,
    concurrency: int = 8,
    max_events: int = 600,
    base: Dataset | None = None,
    config: SsRecConfig | None = None,
    verify: bool = True,
    coalesce: bool = True,
    fit_seed: int = 1,
    address: tuple[str, int] | None = None,
) -> LoadgenSuiteResult:
    """Replay the adversarial scenario catalog as open-loop traffic.

    By default each scenario is self-hosted: one fitted template is
    deep-copied into the served owner (on a background server thread) and,
    when ``verify``, an in-process replica fed the identical event
    sequence; the asyncio client replays mutations in order and fires
    each recommendation window concurrently.  Every served ranked list
    must then match the replica **bit for bit** (the CI server-smoke job
    gates on zero divergences).

    Args:
        address: replay against an already-running external server at
            ``(host, port)`` instead; unverified (its state is unknown).
    """
    from repro.serve.loadgen import drive_scenario  # local: keeps eval import-light
    from repro.serve.server import RecommenderServer, ServerThread
    from repro.sim import ScenarioGenerator, fit_template

    generator = ScenarioGenerator(base=base, seed=seed, max_events=max_events)
    verify = bool(verify) and address is None
    shape = dict(k=k, window_size=window_size, concurrency=concurrency)
    reports = []
    for scenario in generator.generate_all(scenarios):
        if address is not None:
            reports.append(drive_scenario(*address, scenario, **shape))
            continue
        template = fit_template(scenario, config, fit_seed)
        replica = copy.deepcopy(template) if verify else None
        server = RecommenderServer(copy.deepcopy(template), coalesce=coalesce)
        with ServerThread(server) as (host, port):
            reports.append(
                drive_scenario(host, port, scenario, replica=replica, **shape)
            )
    return LoadgenSuiteResult(int(seed), verified=verify, reports=reports, **shape)


def run_serve(
    dataset: Dataset,
    host: str = "127.0.0.1",
    port: int = 0,
    coalesce: bool = True,
    use_index: bool = False,
    config: SsRecConfig | None = None,
    seed: int = 1,
):
    """Fit on ``dataset`` and host it over the wire on a background loop.

    Returns the started :class:`~repro.serve.server.ServerThread`; the
    caller reads the bound address from ``thread.server`` and calls
    ``stop()`` to drain (the CLI does so on Ctrl-C).
    """
    from repro.serve.server import RecommenderServer, ServerThread

    stream = partition_interactions(dataset)
    rec = fit_ssrec(dataset, stream, config or SsRecConfig(), use_index, seed)
    thread = ServerThread(RecommenderServer(rec, host=host, port=port, coalesce=coalesce))
    thread.start()
    return thread


# ----------------------------------------------------------------------
# Differential conformance (the repro.sim harness)
# ----------------------------------------------------------------------
@dataclass
class ConformanceSuiteResult:
    """Per-scenario conformance reports over the serving-path matrix.

    Attributes:
        reports: one :class:`~repro.sim.conformance.ConformanceReport`
            per replayed scenario, in replay order.
    """

    reports: list  # list[ConformanceReport]

    @property
    def total_divergences(self) -> int:
        return sum(report.total_divergences for report in self.reports)

    @property
    def conformant(self) -> bool:
        return self.total_divergences == 0

    def to_text(self) -> str:
        verdict = (
            "all scenarios EXACT"
            if self.conformant
            else f"BROKEN: {self.total_divergences} divergences"
        )
        lines = ["Differential conformance — serving paths vs the naive oracle", ""]
        for report in self.reports:
            lines += [report.to_text(), ""]
        return "\n".join([*lines, f"suite verdict: {verdict}"])


def run_conformance(
    scenarios: Sequence[str] | None = None,
    seed: int = 7,
    k: int = 10,
    window_size: int = 8,
    n_shards: int = 3,
    max_events: int = 600,
    base: Dataset | None = None,
    config: SsRecConfig | None = None,
    paths: Sequence[str] | None = None,
) -> ConformanceSuiteResult:
    """Replay the adversarial scenario catalog through every serving path.

    Each scenario is generated deterministically from ``seed``, replayed
    through every requested execution plan — with one mid-stream snapshot
    reload, rolling worker restart and server-side owner swap on the
    paths that test them (see :mod:`repro.sim.conformance`) — and judged
    window by window against the naive per-pair oracle.  Zero total
    divergences is the acceptance bar every serving-path change must hold.

    Args:
        scenarios: catalog names to replay (default: the full catalog).
        base: the scenario generator's base dataset (default: small YTube).
        paths: registry plan names to replay (default: every plan
            :data:`repro.exec.PLAN_REGISTRY` marks for conformance).
    """
    from repro.sim import ConformanceRunner, ScenarioGenerator  # local: keeps eval import-light

    generator = ScenarioGenerator(base=base, seed=seed, max_events=max_events)
    runner = ConformanceRunner(
        k=k,
        window_size=window_size,
        n_shards=n_shards,
        config=config,
        snapshot_window=1,
        restart_window=1,
        paths=None if paths is None else tuple(paths),
    )
    return ConformanceSuiteResult(
        [runner.run(scenario) for scenario in generator.generate_all(scenarios)]
    )
