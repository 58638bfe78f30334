"""One driver per table/figure of the paper's evaluation (Sec. VI).

Every ``run_*`` function takes explicit datasets/parameters (so tests and
benchmarks control scale) and returns a structured result whose
``to_text()`` renders the same rows/series the paper reports.

| Paper artifact | Driver        |
|----------------|---------------|
| Table II       | run_table2    |
| Table III      | run_table3    |
| Fig. 5         | run_fig5      |
| Fig. 6         | run_fig6      |
| Fig. 7         | run_fig7      |
| Fig. 8         | run_fig8      |
| Fig. 9         | run_fig9      |
| Fig. 10        | run_fig10     |
| Fig. 11        | run_fig11     |

Beyond the paper, ``run_batch_throughput`` measures the repo's batched
serving path (``recommend_batch``) against the per-item loop,
``run_sharded_throughput`` sweeps the sharded serving runtime
(:mod:`repro.serve`) over shard counts and fan-out backends
(sequential/thread/process), asserting exact parity with the
single index while reporting throughput and tail-latency percentiles, and
``run_conformance`` replays the :mod:`repro.sim` adversarial scenario
catalog through every serving path against the naive oracle.
"""

from __future__ import annotations

import copy
import time
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.ctt import CTTRecommender
from repro.baselines.hmm_rec import SingleLayerInterestModel
from repro.baselines.ucd import UCDRecommender
from repro.core.config import SsRecConfig
from repro.core.profiles import ProfileEvent, UserProfile
from repro.core.ssrec import SsRecRecommender
from repro.datasets.mlens import MLensConfig, generate_mlens
from repro.datasets.partitions import partition_interactions
from repro.datasets.schema import Dataset
from repro.datasets.synthpop import synthesize_dataset
from repro.datasets.ytube import YTubeConfig, generate_ytube
from repro.eval.harness import StreamEvaluator
from repro.eval.metrics import TimingStats
from repro.eval.reporting import format_series, format_table
from repro.hmm.bihmm import BiHMM
from repro.index.blocks import block_statistics, one_pass_clustering

DEFAULT_KS = (5, 10, 20, 30)


# ----------------------------------------------------------------------
# Dataset bundles
# ----------------------------------------------------------------------
def make_datasets(scale: str = "small", seed: int = 7) -> dict[str, Dataset]:
    """The paper's four datasets (Table III) at a given scale.

    Args:
        scale: ``"small"`` (tests), ``"default"`` (benchmarks) or
            ``"paper_shape"`` (paper category counts, laptop sizes).
    """
    if scale == "small":
        yt_cfg, ml_cfg = YTubeConfig.small(seed), MLensConfig.small(seed + 6)
    elif scale == "default":
        yt_cfg, ml_cfg = YTubeConfig(seed=seed), MLensConfig(seed=seed + 6)
    elif scale == "paper_shape":
        yt_cfg, ml_cfg = YTubeConfig.paper_shape(seed), MLensConfig.paper_shape(seed + 6)
    else:
        raise ValueError(f"unknown scale {scale!r}")
    ytube = generate_ytube(yt_cfg)
    mlens = generate_mlens(ml_cfg)
    return {
        "YTube": ytube,
        "SynYTube": synthesize_dataset(ytube, seed=seed + 100),
        "MLens": mlens,
        "SynMLens": synthesize_dataset(mlens, seed=seed + 200),
    }


def _profiles_from_dataset(dataset: Dataset, window_size: int = 1) -> list[UserProfile]:
    """Full-history user profiles (for blocking studies).

    ``window_size=1`` flushes every event into the long-term list, so the
    blocking features see each user's complete history even for users with
    very short histories.
    """
    item_by_id = {it.item_id: it for it in dataset.items}
    events: dict[int, list[ProfileEvent]] = defaultdict(list)
    for inter in sorted(dataset.interactions, key=lambda i: (i.timestamp, i.item_id)):
        item = item_by_id[inter.item_id]
        events[inter.user_id].append(
            ProfileEvent(
                category=inter.category,
                producer=inter.producer,
                item_id=inter.item_id,
                entities=item.entities,
                timestamp=inter.timestamp,
            )
        )
    profiles = []
    for user_id in sorted(events):
        profile = UserProfile(user_id, window_size=window_size)
        profile.bootstrap(events[user_id])
        profiles.append(profile)
    return profiles


# ----------------------------------------------------------------------
# Table II — signature-size factors vs block count
# ----------------------------------------------------------------------
@dataclass
class Table2Result:
    """Max entity/producer universe per signature entry vs block count."""

    block_counts: list[int]
    max_entities: list[int]
    max_producers: list[int]

    def rows(self) -> list[list]:
        return [
            ["User block num"] + self.block_counts,
            ["Max entity num"] + self.max_entities,
            ["Max producer num"] + self.max_producers,
        ]

    def to_text(self) -> str:
        headers = [""] + [str(b) for b in self.block_counts]
        body = [row for row in self.rows()]
        return "Table II — factors relevant to user profile signature size\n" + format_table(
            headers, body
        )


def run_table2(
    dataset: Dataset, block_counts: Sequence[int] = (1, 10, 20, 30, 40, 50)
) -> Table2Result:
    """Sweep the user-block count and report the worst-case signature size.

    A high similarity threshold forces the one-pass clustering to open new
    blocks until the cap, so the sweep controls the block count exactly
    (matching the paper's row of target counts).
    """
    profiles = _profiles_from_dataset(dataset)
    max_entities, max_producers = [], []
    for count in block_counts:
        # A moderate threshold lets genuinely similar users share a block
        # while dissimilar ones open new blocks until the cap — coherent
        # blocks are what shrinks the per-block universes.
        blocks = one_pass_clustering(
            profiles,
            dataset.n_categories,
            similarity_threshold=0.7 if count > 1 else 0.0,
            max_blocks=count,
        )
        stats = block_statistics(blocks)
        max_entities.append(stats["max_entity_num"])
        max_producers.append(stats["max_producer_num"])
    return Table2Result(list(block_counts), max_entities, max_producers)


# ----------------------------------------------------------------------
# Table III — dataset overview
# ----------------------------------------------------------------------
@dataclass
class Table3Result:
    rows_: list[dict]

    def to_text(self) -> str:
        headers = list(self.rows_[0].keys())
        return "Table III — overview of datasets\n" + format_table(
            headers, [[row[h] for h in headers] for row in self.rows_]
        )


def run_table3(
    datasets: dict[str, Dataset] | None = None, scale: str = "small", seed: int = 7
) -> Table3Result:
    """Dataset statistics in Table III's column layout."""
    datasets = datasets or make_datasets(scale, seed=seed)
    return Table3Result([ds.stats().as_row() for ds in datasets.values()])


# ----------------------------------------------------------------------
# Fig. 5 — BiHMM vs HMM prediction accuracy
# ----------------------------------------------------------------------
@dataclass
class Fig5Result:
    """Mean accuracy per optimal-hidden-state group, both models."""

    dataset: str
    hmm_by_group: dict[int, float]
    bihmm_by_group: dict[int, float]
    users_by_group: dict[int, int]

    def to_text(self) -> str:
        return format_series(
            f"Fig. 5 ({self.dataset}) — prediction accuracy by optimal state count",
            {"HMM": self.hmm_by_group, "BiHMM": self.bihmm_by_group, "n_users": self.users_by_group},
            x_label="states",
        )


def _bihmm_sequential_accuracy(
    bihmm: BiHMM,
    train_pairs: list[tuple[int, int]],
    test_pairs: list[tuple[int, int]],
) -> float:
    """Teacher-forced top-1 next-category accuracy of a trained BiHMM."""
    if not test_pairs:
        return 0.0
    context = list(train_pairs)
    hits = 0
    for category, item_id in test_pairs:
        dist = bihmm.predict_next_distribution(context)
        if int(np.argmax(dist)) == int(category):
            hits += 1
        context.append((category, item_id))
    return hits / len(test_pairs)


def run_fig5(
    dataset: Dataset,
    max_users: int = 40,
    max_states: int = 8,
    min_history: int = 20,
    train_fraction: float = 0.8,
    seed: int = 0,
    hmm_iterations: int = 15,
) -> Fig5Result:
    """Per-user BiHMM-vs-HMM accuracy comparison, grouped by the user's
    optimal hidden-state count (the paper's Fig. 5 protocol).

    For each selected consumer: the first 80% of the browsing history
    trains, the rest tests.  The HMM state count is tuned per user; the
    BiHMM uses the same count for its consumer layer and a producer layer
    shared across users (trained on the items created during the training
    window).
    """
    histories = dataset.consumer_histories()
    eligible = [
        (uid, h) for uid, h in histories.items() if len(h) >= min_history
    ]
    eligible.sort(key=lambda kv: (-len(kv[1]), kv[0]))
    eligible = eligible[:max_users]
    if not eligible:
        raise ValueError("no consumer has enough history for Fig. 5")

    # Shared producer layer trained on all creations (both modes considered).
    shared = BiHMM(n_categories=dataset.n_categories, seed=seed)
    shared.producer_layer.fit(dataset.producer_creations(), n_iter=hmm_iterations)

    hmm_acc: dict[int, list[float]] = defaultdict(list)
    bihmm_acc: dict[int, list[float]] = defaultdict(list)
    for uid, history in eligible:
        cats = [i.category for i in history]
        pairs = [(i.category, i.item_id) for i in history]
        cut = max(1, int(len(history) * train_fraction))
        if cut >= len(history):
            cut = len(history) - 1
        n_star, acc_h, _ = SingleLayerInterestModel.tune_states(
            cats[:cut],
            cats[cut:],
            dataset.n_categories,
            max_states=max_states,
            seed=seed + uid,
            n_iter=hmm_iterations,
        )
        # Symmetric per-user tuning for the BiHMM ("obtain the optimal
        # parameters for BiHMM"): its consumer-layer state count is searched
        # over the same range the HMM's was, and the producer-coupling
        # strength (shrinkage toward the pooled single-layer behaviour) is
        # part of the search space — at shrinkage 1.0 the model degrades
        # gracefully to single-layer behaviour when z carries no signal.
        acc_b = 0.0
        for n_states in range(1, max_states + 1):
            for shrinkage in (0.2, 0.6, 0.9):
                bi = BiHMM(
                    n_categories=dataset.n_categories,
                    n_consumer_states=n_states,
                    n_producer_states=shared.producer_layer.n_states,
                    seed=seed + uid,
                )
                bi.producer_layer = shared.producer_layer
                bi.consumer_model = type(bi.consumer_model)(
                    n_states=n_states,
                    n_symbols=dataset.n_categories,
                    n_inputs=shared.producer_layer.n_input_symbols,
                    seed=seed + uid + n_states,
                )
                bi.fit_consumers_only(
                    [pairs[:cut]], n_iter=hmm_iterations, shrinkage=shrinkage
                )
                acc_b = max(
                    acc_b, _bihmm_sequential_accuracy(bi, pairs[:cut], pairs[cut:])
                )
        hmm_acc[n_star].append(acc_h)
        bihmm_acc[n_star].append(acc_b)

    groups = sorted(hmm_acc)
    return Fig5Result(
        dataset=dataset.name,
        hmm_by_group={g: float(np.mean(hmm_acc[g])) for g in groups},
        bihmm_by_group={g: float(np.mean(bihmm_acc[g])) for g in groups},
        users_by_group={g: len(hmm_acc[g]) for g in groups},
    )


# ----------------------------------------------------------------------
# Shared helper for effectiveness runs
# ----------------------------------------------------------------------
def _fit_ssrec(
    dataset: Dataset,
    stream,
    config: SsRecConfig,
    use_index: bool = False,
    seed: int = 1,
) -> SsRecRecommender:
    rec = SsRecRecommender(config=config, use_index=use_index, seed=seed)
    rec.fit(dataset, stream.training_interactions())
    return rec


# ----------------------------------------------------------------------
# Fig. 6 — effect of the short-term window size |W|
# ----------------------------------------------------------------------
@dataclass
class Fig6Result:
    dataset: str
    #: window size -> {k: best P@k over the lambda grid}
    precision: dict[int, dict[int, float]]

    def to_text(self) -> str:
        series = {
            f"Top {k}": {w: self.precision[w][k] for w in sorted(self.precision)}
            for k in sorted(next(iter(self.precision.values())))
        }
        return format_series(
            f"Fig. 6 ({self.dataset}) — P@k vs short-term window size |W|",
            series,
            x_label="|W|",
        )


def run_fig6(
    dataset: Dataset,
    window_sizes: Iterable[int] = range(1, 11),
    lambdas: Sequence[float] = tuple(round(0.1 * i, 1) for i in range(1, 11)),
    ks: Sequence[int] = DEFAULT_KS,
    min_truth: int = 1,
    config: SsRecConfig | None = None,
    seed: int = 1,
) -> Fig6Result:
    """For each |W|, the best P@k over the lambda grid (paper protocol:
    "At each |W| value, we measure the prediction precision ... by changing
    the weight ... and report the optimal precision value")."""
    base = config or SsRecConfig()
    precision: dict[int, dict[int, float]] = {}
    for w in window_sizes:
        stream = partition_interactions(dataset)
        rec = _fit_ssrec(dataset, stream, base.with_options(window_size=int(w)), seed=seed)
        evaluator = StreamEvaluator(stream, ks=ks, min_truth=min_truth)
        sweep = evaluator.run_lambda_sweep(rec, lambdas)
        precision[int(w)] = {
            k: max(sweep[lam][k] for lam in sweep) for k in evaluator.ks
        }
    return Fig6Result(dataset=dataset.name, precision=precision)


# ----------------------------------------------------------------------
# Fig. 7 — effect of the short-term weight lambda_s
# ----------------------------------------------------------------------
@dataclass
class Fig7Result:
    dataset: str
    #: lambda -> {k: P@k}
    precision: dict[float, dict[int, float]]

    def optimal_lambda(self, k: int) -> float:
        return max(self.precision, key=lambda lam: self.precision[lam][k])

    def to_text(self) -> str:
        ks = sorted(next(iter(self.precision.values())))
        series = {
            f"Top {k}": {lam: self.precision[lam][k] for lam in sorted(self.precision)}
            for k in ks
        }
        return format_series(
            f"Fig. 7 ({self.dataset}) — P@k vs short-term weight lambda_s",
            series,
            x_label="lambda",
        )


def run_fig7(
    dataset: Dataset,
    lambdas: Sequence[float] = tuple(round(0.1 * i, 1) for i in range(0, 11)),
    ks: Sequence[int] = DEFAULT_KS,
    window_size: int = 5,
    min_truth: int = 1,
    config: SsRecConfig | None = None,
    seed: int = 1,
) -> Fig7Result:
    """P@k over the lambda grid with |W| fixed to its optimum (5)."""
    base = (config or SsRecConfig()).with_options(window_size=window_size)
    stream = partition_interactions(dataset)
    rec = _fit_ssrec(dataset, stream, base, seed=seed)
    evaluator = StreamEvaluator(stream, ks=ks, min_truth=min_truth)
    sweep = evaluator.run_lambda_sweep(rec, lambdas)
    return Fig7Result(dataset=dataset.name, precision=sweep)


# ----------------------------------------------------------------------
# Fig. 8 — effectiveness comparison (CTT, UCD, ssRec-ne, ssRec)
# ----------------------------------------------------------------------
@dataclass
class Fig8Result:
    dataset: str
    #: method -> {k: P@k}
    precision: dict[str, dict[int, float]]

    def to_text(self) -> str:
        return format_series(
            f"Fig. 8 ({self.dataset}) — effectiveness comparison",
            self.precision,
            x_label="k",
        )


def run_fig8(
    dataset: Dataset,
    ks: Sequence[int] = DEFAULT_KS,
    config: SsRecConfig | None = None,
    min_truth: int = 1,
    seed: int = 1,
) -> Fig8Result:
    """P@k of CTT, UCD, ssRec-ne (no expansion) and full ssRec."""
    base = config or SsRecConfig()
    precision: dict[str, dict[int, float]] = {}

    stream = partition_interactions(dataset)
    ctt = CTTRecommender().fit(dataset, stream.training_interactions())
    precision["CTT"] = StreamEvaluator(stream, ks=ks, min_truth=min_truth).run(ctt).p_at_k

    stream = partition_interactions(dataset)
    ucd = UCDRecommender().fit(dataset, stream.training_interactions())
    precision["UCD"] = StreamEvaluator(stream, ks=ks, min_truth=min_truth).run(ucd).p_at_k

    stream = partition_interactions(dataset)
    ssrec_ne = _fit_ssrec(
        dataset, stream, base.with_options(use_expansion=False), seed=seed
    )
    precision["ssRec-ne"] = (
        StreamEvaluator(stream, ks=ks, min_truth=min_truth).run(ssrec_ne).p_at_k
    )

    stream = partition_interactions(dataset)
    ssrec = _fit_ssrec(dataset, stream, base, seed=seed)
    precision["ssRec"] = (
        StreamEvaluator(stream, ks=ks, min_truth=min_truth).run(ssrec).p_at_k
    )
    return Fig8Result(dataset=dataset.name, precision=precision)


# ----------------------------------------------------------------------
# Fig. 9 — effect of user profile updates
# ----------------------------------------------------------------------
@dataclass
class Fig9Result:
    dataset: str
    precision: dict[str, dict[int, float]]

    def to_text(self) -> str:
        return format_series(
            f"Fig. 9 ({self.dataset}) — effect of user profile updates",
            self.precision,
            x_label="k",
        )


def run_fig9(
    dataset: Dataset,
    ks: Sequence[int] = DEFAULT_KS,
    config: SsRecConfig | None = None,
    min_truth: int = 1,
    seed: int = 1,
) -> Fig9Result:
    """ssRec (stream setting, updates on) vs ssRec-nu (static setting)."""
    base = config or SsRecConfig()
    precision: dict[str, dict[int, float]] = {}
    stream = partition_interactions(dataset)
    nu = _fit_ssrec(dataset, stream, base, seed=seed)
    precision["ssRec-nu"] = (
        StreamEvaluator(stream, ks=ks, min_truth=min_truth).run(nu, update=False).p_at_k
    )
    stream = partition_interactions(dataset)
    full = _fit_ssrec(dataset, stream, base, seed=seed)
    precision["ssRec"] = (
        StreamEvaluator(stream, ks=ks, min_truth=min_truth).run(full, update=True).p_at_k
    )
    return Fig9Result(dataset=dataset.name, precision=precision)


# ----------------------------------------------------------------------
# Fig. 10 — recommendation efficiency comparison
# ----------------------------------------------------------------------
@dataclass
class Fig10Result:
    dataset: str
    #: method -> {n_partitions: mean per-item milliseconds over the first n
    #: test partitions}
    time_ms: dict[str, dict[int, float]]

    def to_text(self) -> str:
        return format_series(
            f"Fig. 10 ({self.dataset}) — mean per-item time (ms) vs partitions",
            self.time_ms,
            x_label="partitions",
        )


def _cumulative_means(per_partition) -> dict[int, float]:
    out = {}
    total, count = 0.0, 0
    for i, stats in enumerate(per_partition, start=1):
        total += stats.total
        count += stats.n
        out[i] = (total / count * 1000.0) if count else 0.0
    return out


def run_fig10(
    dataset: Dataset,
    k: int = 30,
    max_items_per_partition: int | None = 50,
    min_truth: int = 1,
    config: SsRecConfig | None = None,
    seed: int = 1,
) -> Fig10Result:
    """Per-item response time of CTT, UCD and the CPPse-index, accumulated
    over growing numbers of test partitions (the paper's x-axis)."""
    base = config or SsRecConfig()
    time_ms: dict[str, dict[int, float]] = {}

    stream = partition_interactions(dataset)
    ctt = CTTRecommender().fit(dataset, stream.training_interactions())
    outcome = StreamEvaluator(
        stream, ks=(k,), min_truth=min_truth, max_items_per_partition=max_items_per_partition
    ).run(ctt, k=k)
    time_ms["CTT"] = _cumulative_means(outcome.per_partition_timing)

    stream = partition_interactions(dataset)
    ucd = UCDRecommender().fit(dataset, stream.training_interactions())
    outcome = StreamEvaluator(
        stream, ks=(k,), min_truth=min_truth, max_items_per_partition=max_items_per_partition
    ).run(ucd, k=k)
    time_ms["UCD"] = _cumulative_means(outcome.per_partition_timing)

    stream = partition_interactions(dataset)
    indexed = _fit_ssrec(dataset, stream, base, use_index=True, seed=seed)
    outcome = StreamEvaluator(
        stream, ks=(k,), min_truth=min_truth, max_items_per_partition=max_items_per_partition
    ).run(indexed, k=k)
    time_ms["CPPse-index"] = _cumulative_means(outcome.per_partition_timing)
    return Fig10Result(dataset=dataset.name, time_ms=time_ms)


# ----------------------------------------------------------------------
# Fig. 11 — efficiency of media updates
# ----------------------------------------------------------------------
@dataclass
class Fig11Result:
    #: dataset -> {n_update_partitions: seconds in Algorithm 2}
    seconds: dict[str, dict[int, float]]

    def to_text(self) -> str:
        return format_series(
            "Fig. 11 — index maintenance cost vs update size (partitions)",
            self.seconds,
            x_label="partitions",
        )


def run_fig11(
    datasets: dict[str, Dataset],
    sizes: Sequence[int] = (1, 2, 3, 4),
    config: SsRecConfig | None = None,
    seed: int = 1,
) -> Fig11Result:
    """Algorithm 2 cost while absorbing 1..4 test partitions of updates."""
    base = config or SsRecConfig()
    seconds: dict[str, dict[int, float]] = {}
    for name, dataset in datasets.items():
        per_size: dict[int, float] = {}
        for n in sizes:
            stream = partition_interactions(dataset)
            rec = _fit_ssrec(dataset, stream, base, use_index=True, seed=seed)
            evaluator = StreamEvaluator(stream)
            per_size[int(n)] = evaluator.maintenance_cost(rec, n)
        seconds[name] = per_size
    return Fig11Result(seconds=seconds)


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
    """

    dataset: str
    n_items: int
    items_per_sec: dict[str, dict[int, float]]

    def speedup(self, scenario: str, batch_size: int) -> float:
        """Throughput of ``batch_size`` relative to the per-item loop."""
        base = self.items_per_sec[scenario][1]
        return self.items_per_sec[scenario][int(batch_size)] / base if base else 0.0

    def to_text(self) -> str:
        return format_series(
            f"Batched serving throughput ({self.dataset}) — items/sec vs batch size",
            self.items_per_sec,
            x_label="batch",
        )


# ----------------------------------------------------------------------
# Sharded serving throughput (the repro.serve runtime)
# ----------------------------------------------------------------------
def _shard_path_key(mode: str, serve: str, backend: str) -> str:
    """Series key of one sharded measurement.

    The sequential backend keeps the historical ``sharded-<mode>-<serve>``
    names; other backends append ``@<backend>`` so one sweep renders
    backends side by side.
    """
    key = f"sharded-{mode}-{serve}"
    return key if backend == "sequential" else f"{key}@{backend}"


@dataclass
class ShardScalingResult:
    """Throughput and tail latency of the sharded runtime vs shard count.

    Attributes:
        dataset: benchmark dataset name.
        n_items: items served per measurement.
        strategy: shard strategy swept (``"block"`` for exact parity).
        backends: fan-out backends swept (``sequential``/``thread``/
            ``process``).
        items_per_sec: path -> {n_shards: items/sec}; paths are
            ``sharded-<mode>-<serve>`` for mode in scan/index and serve in
            item (per-item fan-out) / batch (micro-batched fan-out), with
            ``@<backend>`` appended for non-sequential backends.
        baselines: unsharded reference throughputs — ``scan-item``,
            ``scan-batch``, ``index-item``, ``index-batch``.
        latency_ms: n_shards -> mean/p50/p95/p99 of the first backend's
            sharded-index per-item path in milliseconds (tail latency is
            what the percentile satellite surfaces).
        parity_ok: every swept (shard count, backend) returned results
            identical to the single recommender in the same mode, per item
            and per batch — the bit-identical guarantee across sequential,
            thread and process fan-out.
    """

    dataset: str
    n_items: int
    strategy: str
    backends: tuple[str, ...]
    items_per_sec: dict[str, dict[int, float]]
    baselines: dict[str, float]
    latency_ms: dict[int, dict[str, float]]
    parity_ok: bool

    def speedup_over_scan(
        self, n_shards: int, path: str = "sharded-scan-batch"
    ) -> float:
        """Sharded throughput relative to the unsharded per-item scan."""
        base = self.baselines["scan-item"]
        return self.items_per_sec[path][int(n_shards)] / base if base else 0.0

    def backend_speedup(
        self,
        n_shards: int,
        mode: str = "scan",
        serve: str = "batch",
        backend: str = "process",
        over: str = "sequential",
    ) -> float:
        """Throughput of one backend relative to another on the same
        sharded path (the process-vs-sequential acceptance ratio)."""
        base = self.items_per_sec[_shard_path_key(mode, serve, over)][int(n_shards)]
        fast = self.items_per_sec[_shard_path_key(mode, serve, backend)][int(n_shards)]
        return fast / base if base else 0.0

    def best_backend_speedup(
        self, n_shards: int, backend: str = "process", over: str = "sequential"
    ) -> float:
        """Best ``backend_speedup`` over all (mode, serve) paths at one
        shard count — the headline parallelism win."""
        return max(
            self.backend_speedup(n_shards, mode, serve, backend, over)
            for mode in ("scan", "index")
            for serve in ("item", "batch")
        )

    def to_text(self) -> str:
        lines = [
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
                {
                    stat: {n: self.latency_ms[n][stat] for n in sorted(self.latency_ms)}
                    for stat in ("mean_ms", "p50_ms", "p95_ms", "p99_ms")
                },
                x_label="shards",
            ),
            "",
            f"parity with single index: {'exact' if self.parity_ok else 'BROKEN'}",
        ]
        return "\n".join(lines)


def run_sharded_throughput(
    dataset: Dataset,
    shard_counts: Sequence[int] = (1, 2, 4),
    k: int = 30,
    max_items: int = 512,
    strategy: str = "block",
    workers: int = 0,
    backends: Sequence[str] = ("sequential",),
    config: SsRecConfig | None = None,
    seed: int = 1,
) -> ShardScalingResult:
    """Sweep shard counts (and fan-out backends) over a fixed serving
    slice, with parity checks.

    One scan-mode recommender is trained and reused: the unsharded scan
    and index baselines, the parity reference, and every sharded service
    all share its trained state (serving is read-only), so differences in
    results can only come from the serving structures — which is exactly
    what the parity check isolates.  All paths are warmed untimed first
    (for the process backend the warm-up also pays the worker spawn, so
    the timed loops measure steady-state serving).
    """
    from repro.serve.service import ShardedRecommender  # local: keeps eval import-light

    base = config or SsRecConfig()
    backends = tuple(backends)
    stream = partition_interactions(dataset)
    items = [
        item
        for partition in stream.test_indices
        for item in stream.items_in_partition(partition)
    ][: int(max_items)]
    if not items:
        raise ValueError("dataset has no test items to serve")
    batch_size = base.batch_size

    trained = _fit_ssrec(dataset, stream, base, use_index=False, seed=seed)

    def timed_item_loop(rec) -> tuple[float, list[float]]:
        stats: list[float] = []
        started_all = time.perf_counter()
        for item in items:
            started = time.perf_counter()
            rec.recommend(item, k)
            stats.append(time.perf_counter() - started)
        return time.perf_counter() - started_all, stats

    def timed_batch_loop(rec) -> float:
        started = time.perf_counter()
        for start in range(0, len(items), batch_size):
            rec.recommend_batch(items[start : start + batch_size], k)
        return time.perf_counter() - started

    # Scan baselines first (warmed untimed), then upgrade the same trained
    # state to index mode for the index baselines and parity references —
    # one measurement protocol for both modes.
    baselines: dict[str, float] = {}
    references: dict[str, list] = {}
    for mode in ("scan", "index"):
        if mode == "index":
            trained.attach_index()
        for item in items:
            trained.recommend(item, k)
        trained.recommend_batch(items, k)
        item_seconds, _ = timed_item_loop(trained)
        baselines[f"{mode}-item"] = len(items) / item_seconds
        baselines[f"{mode}-batch"] = len(items) / timed_batch_loop(trained)
        references[mode] = [trained.recommend(item, k) for item in items]

    items_per_sec: dict[str, dict[int, float]] = {
        _shard_path_key(mode, serve, backend): {}
        for mode in ("scan", "index")
        for serve in ("item", "batch")
        for backend in backends
    }
    latency_ms: dict[int, dict[str, float]] = {}
    parity_ok = True
    for n_shards in sorted({int(n) for n in shard_counts}):
        for mode, reference in references.items():
            for backend in backends:
                with ShardedRecommender.from_trained(
                    trained,
                    n_shards=n_shards,
                    strategy=strategy,
                    use_index=(mode == "index"),
                    workers=workers,
                    backend=backend,
                ) as service:
                    # Parity first (also warms the shard structures and,
                    # for the process backend, spawns the workers).
                    per_item = [service.recommend(item, k) for item in items]
                    per_batch = service.recommend_batch(items, k)
                    parity_ok = (
                        parity_ok and per_item == reference and per_batch == reference
                    )
                    seconds, samples = timed_item_loop(service)
                    items_per_sec[_shard_path_key(mode, "item", backend)][
                        n_shards
                    ] = len(items) / seconds
                    items_per_sec[_shard_path_key(mode, "batch", backend)][
                        n_shards
                    ] = len(items) / timed_batch_loop(service)
                    if mode == "index" and backend == backends[0]:
                        latency_ms[n_shards] = TimingStats(samples=samples).summary_ms()
    return ShardScalingResult(
        dataset=dataset.name,
        n_items=len(items),
        strategy=strategy,
        backends=backends,
        items_per_sec=items_per_sec,
        baselines=baselines,
        latency_ms=latency_ms,
        parity_ok=parity_ok,
    )


# ----------------------------------------------------------------------
# Differential conformance (the repro.sim harness)
# ----------------------------------------------------------------------
@dataclass
class ConformanceSuiteResult:
    """Per-scenario conformance reports over the serving-path matrix.

    Attributes:
        seed: master seed the scenario generator ran with.
        k: recommendation depth per query.
        reports: one :class:`~repro.sim.conformance.ConformanceReport`
            per replayed scenario, in replay order.
    """

    seed: int
    k: int
    reports: list  # list[ConformanceReport]

    @property
    def total_divergences(self) -> int:
        return sum(report.total_divergences for report in self.reports)

    @property
    def conformant(self) -> bool:
        return self.total_divergences == 0

    def to_text(self) -> str:
        lines = ["Differential conformance — serving paths vs the naive oracle", ""]
        for report in self.reports:
            lines.append(report.to_text())
            lines.append("")
        verdict = (
            "all scenarios EXACT"
            if self.conformant
            else f"BROKEN: {self.total_divergences} divergences"
        )
        lines.append(f"suite verdict: {verdict}")
        return "\n".join(lines)


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
    through the per-item scan, batched scan, CPPse-index (per-item and
    batched), and sharded paths — hash-scan, block-index with one
    mid-stream snapshot reload, and the process backend with one
    mid-stream rolling worker restart — and judged window by window
    against the naive per-pair oracle.  Zero total divergences is the
    acceptance bar every serving-path change must hold.

    Args:
        scenarios: catalog names to replay (default: the full catalog).
        base: base dataset for the scenario generator (default: the small
            YTube generator at ``seed``).
        paths: registry plan names to replay (default: every plan the
            :data:`repro.exec.PLAN_REGISTRY` marks for conformance,
            ``*-dedup`` variants included).
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
    reports = [runner.run(scenario) for scenario in generator.generate_all(scenarios)]
    return ConformanceSuiteResult(seed=int(seed), k=int(k), reports=reports)


@dataclass
class DedupResult:
    """Deduplicated-vs-anchor serving over one near-duplicate scenario.

    Attributes:
        scenario: replayed scenario name.
        seed: scenario generator seed.
        k: recommendation depth per query.
        window_size: uploads per served window.
        n_windows: windows served.
        n_served: items served per replica (redeliveries included).
        anchor_seconds: serve-loop wall clock of the dedup-off anchor.
        exact_seconds: serve-loop wall clock of the exact-mode replica.
        exact_stats: collapse counters of the exact-mode replica.
        exact_parity_ok: every exact-mode ranked list equalled the
            anchor's, bitwise (the mode's contract — CI exits non-zero
            when this is False).
        default_tau: the Jaccard threshold the config defaults to (its
            sweep row is the one the recall gate reads).
        approx: one row per swept threshold:
            ``{"tau", "seconds", "recall", "stats"}``.
    """

    scenario: str
    seed: int
    k: int
    window_size: int
    n_windows: int
    n_served: int
    anchor_seconds: float
    exact_seconds: float
    exact_stats: dict
    exact_parity_ok: bool
    default_tau: float
    approx: list

    @property
    def anchor_items_per_sec(self) -> float:
        return self.n_served / self.anchor_seconds if self.anchor_seconds else 0.0

    @property
    def exact_items_per_sec(self) -> float:
        return self.n_served / self.exact_seconds if self.exact_seconds else 0.0

    @property
    def exact_speedup(self) -> float:
        return (
            self.exact_items_per_sec / self.anchor_items_per_sec
            if self.anchor_items_per_sec
            else 0.0
        )

    @property
    def exact_collapse_rate(self) -> float:
        return float(self.exact_stats.get("collapse_rate", 0.0))

    def approx_at(self, tau: float) -> dict | None:
        """The sweep row for ``tau`` (None when not swept)."""
        for row in self.approx:
            if abs(row["tau"] - tau) < 1e-9:
                return row
        return None

    @property
    def default_recall(self) -> float:
        """Oracle-judged recall@k at the config-default threshold."""
        row = self.approx_at(self.default_tau)
        return float(row["recall"]) if row else 0.0

    def to_text(self) -> str:
        lines = [
            "Near-duplicate collapse — deduplicated vs anchor serving "
            f"({self.scenario!r}, seed {self.seed})",
            f"  windows={self.n_windows} items_served={self.n_served} "
            f"k={self.k} window={self.window_size}",
            f"  anchor: {self.anchor_items_per_sec:9.1f} items/sec "
            f"({self.anchor_seconds:.3f}s)",
            f"  exact:  {self.exact_items_per_sec:9.1f} items/sec "
            f"({self.exact_seconds:.3f}s)  speedup: {self.exact_speedup:.2f}x  "
            f"collapse_rate: {self.exact_collapse_rate:.1%} "
            f"(collapsed={self.exact_stats.get('collapsed', 0)} "
            f"groups={self.exact_stats.get('groups', 0)})",
            f"  exact parity: "
            f"{'bit-identical' if self.exact_parity_ok else 'BROKEN'}",
            "  approx sweep (tau  recall@k  collapse_rate  items/sec):",
        ]
        for row in self.approx:
            stats = row["stats"]
            rate = float(stats.get("collapse_rate", 0.0))
            ips = self.n_served / row["seconds"] if row["seconds"] else 0.0
            marker = " *" if abs(row["tau"] - self.default_tau) < 1e-9 else ""
            lines.append(
                f"    {row['tau']:.2f}  {row['recall']:8.4f}  "
                f"{rate:13.1%}  {ips:9.1f}{marker}"
            )
        lines.append("  (* = config-default threshold)")
        return "\n".join(lines)


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
    scenario stream (observes and updates applied to all): a dedup-off
    anchor serves every delivered upload from scratch, an exact-mode
    replica collapses bit-identical resolved queries, and one
    approx-mode replica per swept Jaccard threshold collapses
    near-duplicates onto group representatives.  Exact-mode output is
    compared to the anchor's bitwise (its contract); approx-mode output
    is judged by recall@k against the anchor — the fraction of the
    anchor's top-k audience each approx list retains, averaged over
    every served upload.

    The replica serve order rotates per window so no replica
    systematically benefits from warmed CPU caches.
    """
    from repro.sim import ScenarioGenerator  # local: keeps eval import-light

    generator = ScenarioGenerator(base=base, seed=seed, max_events=max_events)
    scn = generator.generate(scenario)
    cfg = (config or SsRecConfig()).with_options(
        maintenance_interval=scn.maintenance_interval
    )
    default_tau = cfg.dedup_threshold
    if taus is None:
        taus = (0.4, default_tau, 0.8)
    taus = sorted({round(float(t), 9) for t in taus})
    template = SsRecRecommender(config=cfg, use_index=False, seed=fit_seed)
    template.fit(scn.dataset, scn.train_interactions)

    anchor = copy.deepcopy(template)
    exact = copy.deepcopy(template).configure(dedup="exact")
    approx_replicas = [
        (tau, copy.deepcopy(template).configure(dedup="approx", dedup_threshold=tau))
        for tau in taus
    ]
    replicas = [anchor, exact, *(rep for _, rep in approx_replicas)]

    seconds = [0.0] * len(replicas)
    recall_sums = dict.fromkeys(taus, 0.0)
    n_windows = 0
    n_served = 0
    exact_parity_ok = True

    def serve(recommender, window) -> tuple[list, float]:
        started = time.perf_counter()
        ranked = [recommender.recommend(item, k) for item in window]
        return ranked, time.perf_counter() - started

    window: list = []
    for event in scn.events:
        if event.kind == "upload":
            item = event.payload
            for replica in replicas:
                replica.observe_item(item)
            window.append(item)
            if len(window) < window_size:
                continue
            # Absorb accumulated updates *untimed* in every replica, so
            # the timed loops isolate the serving machinery.
            for replica in replicas:
                replica.matcher.sync()
            results: list = [None] * len(replicas)
            # Rotate who serves first each window.
            offset = n_windows % len(replicas)
            for step in range(len(replicas)):
                position = (offset + step) % len(replicas)
                ranked, secs = serve(replicas[position], window)
                results[position] = ranked
                seconds[position] += secs
            want = results[0]
            exact_parity_ok = exact_parity_ok and results[1] == want
            for tau_index, tau in enumerate(taus):
                got = results[2 + tau_index]
                for anchor_ranked, approx_ranked in zip(want, got):
                    anchor_users = {user for user, _ in anchor_ranked}
                    if not anchor_users:
                        recall_sums[tau] += 1.0
                        continue
                    approx_users = {user for user, _ in approx_ranked}
                    recall_sums[tau] += (
                        len(anchor_users & approx_users) / len(anchor_users)
                    )
            n_served += len(window)
            n_windows += 1
            window = []
        else:
            interaction = event.payload
            payload_item = scn.item_payload(interaction)
            for replica in replicas:
                replica.update(interaction, payload_item)

    approx_rows = []
    for tau_index, (tau, replica) in enumerate(approx_replicas):
        approx_rows.append(
            {
                "tau": tau,
                "seconds": seconds[2 + tau_index],
                "recall": recall_sums[tau] / n_served if n_served else 0.0,
                "stats": replica.stats()["dedup"],
            }
        )
    return DedupResult(
        scenario=scenario,
        seed=int(seed),
        k=int(k),
        window_size=int(window_size),
        n_windows=n_windows,
        n_served=n_served,
        anchor_seconds=seconds[0],
        exact_seconds=seconds[1],
        exact_stats=exact.stats()["dedup"],
        exact_parity_ok=exact_parity_ok,
        default_tau=default_tau,
        approx=approx_rows,
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

    Scan and index scenarios serve a fixed item slice with warm caches (a
    full per-item pass runs untimed first, so the comparison isolates the
    serving machinery rather than one-off cache fills).  The
    ``index+updates`` scenario interleaves ``updates_per_item`` profile
    updates per served item — arriving window-by-window, as micro-batching
    delivers them — so the per-item loop flushes index maintenance before
    every query while the batched path flushes once per window; only
    serving calls (including their maintenance flushes) are timed.
    """
    base = config or SsRecConfig()
    batch_sizes = sorted({1, *(int(b) for b in batch_sizes)})
    stream = partition_interactions(dataset)
    items = [
        item
        for partition in stream.test_indices
        for item in stream.items_in_partition(partition)
    ][: int(max_items)]
    if not items:
        raise ValueError("dataset has no test items to serve")
    interactions = [
        inter
        for partition in stream.test_indices
        for inter in stream.partitions[partition]
    ]
    item_by_id = {item.item_id: item for item in dataset.items}

    def serve_seconds(rec: SsRecRecommender, batch_size: int) -> float:
        if batch_size == 1:
            started = time.perf_counter()
            for item in items:
                rec.recommend(item, k)
            return time.perf_counter() - started
        started = time.perf_counter()
        for start in range(0, len(items), batch_size):
            rec.recommend_batch(items[start : start + batch_size], k)
        return time.perf_counter() - started

    items_per_sec: dict[str, dict[int, float]] = {}
    for scenario, use_index in (("scan", False), ("index", True)):
        rec = _fit_ssrec(dataset, stream, base, use_index=use_index, seed=seed)
        # Untimed warm-up of both paths: the per-item pass fills the
        # expanded-query cache, the batch pass fills the persistent column
        # caches — so no measured batch size pays one-off cache fills for
        # the others.
        for item in items:
            rec.recommend(item, k)
        rec.recommend_batch(items, k)
        items_per_sec[scenario] = {
            bs: len(items) / serve_seconds(rec, bs) for bs in batch_sizes
        }

    template = _fit_ssrec(dataset, stream, base, use_index=True, seed=seed)
    with_updates: dict[int, float] = {}
    for bs in batch_sizes:
        rec = copy.deepcopy(template)
        cursor = 0
        elapsed = 0.0
        for start in range(0, len(items), bs):
            window = items[start : start + bs]
            for _ in range(updates_per_item * len(window)):
                inter = interactions[cursor % len(interactions)]
                cursor += 1
                rec.update(inter, item_by_id.get(inter.item_id))
            started = time.perf_counter()
            if bs == 1:
                rec.recommend(window[0], k)
            else:
                rec.recommend_batch(window, k)
            elapsed += time.perf_counter() - started
        with_updates[bs] = len(items) / elapsed
    items_per_sec["index+updates"] = with_updates
    return BatchThroughputResult(
        dataset=dataset.name, n_items=len(items), items_per_sec=items_per_sec
    )


# ----------------------------------------------------------------------
# Native scoring kernels — fused-kernel vs vectorized scan-batch serving
# ----------------------------------------------------------------------
@dataclass
class NativeKernelsResult:
    """Fused-kernel (``scoring="native"``) vs vectorized scan-batch serving.

    Attributes:
        dataset: benchmark dataset name.
        n_items: items served per timed pass.
        k: recommendation depth per query.
        batch_size: micro-batch window of the timed passes.
        rounds: timed passes per arm (throughput uses the total).
        vectorized_seconds: total timed seconds of the vectorized arm.
        native_seconds: total timed seconds of the native arm.
        native_engaged: the compiled kernels actually served (numba
            present and self-tested); False means the native arm ran the
            bit-identical vectorized fallback — parity still judged, the
            >=5x headline not claimed.
        fallbacks: ``repro.core.kernels`` fallback counter after the run.
        parity_ok: every native ranked list matched the vectorized arm's
            within the 1e-9 tie discipline (bitwise when falling back).
    """

    dataset: str
    n_items: int
    k: int
    batch_size: int
    rounds: int
    vectorized_seconds: float
    native_seconds: float
    native_engaged: bool
    fallbacks: int
    parity_ok: bool

    @property
    def vectorized_items_per_sec(self) -> float:
        total = self.n_items * self.rounds
        return total / self.vectorized_seconds if self.vectorized_seconds else 0.0

    @property
    def native_items_per_sec(self) -> float:
        total = self.n_items * self.rounds
        return total / self.native_seconds if self.native_seconds else 0.0

    @property
    def speedup(self) -> float:
        return (
            self.native_items_per_sec / self.vectorized_items_per_sec
            if self.vectorized_items_per_sec
            else 0.0
        )

    def to_text(self) -> str:
        mode = "compiled kernels" if self.native_engaged else "FALLBACK (vectorized)"
        lines = [
            f"Native scoring kernels — scan-batch serving ({self.dataset})",
            f"  items={self.n_items} k={self.k} batch={self.batch_size} "
            f"rounds={self.rounds}",
            f"  vectorized: {self.vectorized_items_per_sec:9.1f} items/sec "
            f"({self.vectorized_seconds:.3f}s)",
            f"  native:     {self.native_items_per_sec:9.1f} items/sec "
            f"({self.native_seconds:.3f}s)  [{mode}]",
            f"  speedup: {self.speedup:.2f}x   fallbacks={self.fallbacks}",
            f"  parity: {'within 1e-9 ties' if self.parity_ok else 'BROKEN'}",
        ]
        return "\n".join(lines)


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
    switched to ``scoring="native"``.  Both arms run one full **untimed**
    warm-up pass first — for the native arm that is where numba JIT
    compilation happens, so compile time is excluded from the timed
    region by construction (the rule docs/BENCHMARKS.md states).  The
    timed passes alternate arm order per round so neither arm
    systematically benefits from warmed CPU caches, and the native arm's
    ranked lists are compared to the vectorized arm's within the 1e-9
    tie discipline while being timed, so the measured win is proven
    correct as it is measured.

    Without numba the native arm serves through the bit-identical
    vectorized fallback: parity still gates, the throughput columns
    approximately tie, and ``native_engaged`` records that the >=5x
    headline was not claimable on this machine.
    """
    from repro.core import kernels
    from repro.sim.oracle import matches_within_ties  # local: keeps eval import-light

    base = config or SsRecConfig()
    stream = partition_interactions(dataset)
    items = [
        item
        for partition in stream.test_indices
        for item in stream.items_in_partition(partition)
    ][: int(max_items)]
    if not items:
        raise ValueError("dataset has no test items to serve")
    windows = [
        items[start : start + int(batch_size)]
        for start in range(0, len(items), int(batch_size))
    ]

    template = _fit_ssrec(dataset, stream, base, use_index=False, seed=seed)
    vectorized = template
    native = copy.deepcopy(template).configure(scoring="native")

    def serve(rec: SsRecRecommender) -> tuple[list, float]:
        started = time.perf_counter()
        ranked = [rec.recommend_batch(window, k) for window in windows]
        return ranked, time.perf_counter() - started

    # Untimed warm-up passes: JIT compilation (native), expanded-query
    # and column caches (both arms).
    serve(vectorized)
    serve(native)

    vectorized_seconds = 0.0
    native_seconds = 0.0
    parity_ok = True
    for round_index in range(int(rounds)):
        if round_index % 2 == 0:
            want, v_secs = serve(vectorized)
            got, n_secs = serve(native)
        else:
            got, n_secs = serve(native)
            want, v_secs = serve(vectorized)
        vectorized_seconds += v_secs
        native_seconds += n_secs
        for want_window, got_window in zip(want, got):
            for want_ranked, got_ranked in zip(want_window, got_window):
                parity_ok = parity_ok and matches_within_ties(got_ranked, want_ranked)

    return NativeKernelsResult(
        dataset=dataset.name,
        n_items=len(items),
        k=int(k),
        batch_size=int(batch_size),
        rounds=int(rounds),
        vectorized_seconds=vectorized_seconds,
        native_seconds=native_seconds,
        native_engaged=kernels.native_ready(),
        fallbacks=kernels.fallback_count(),
        parity_ok=parity_ok,
    )


# ----------------------------------------------------------------------
# Network serving — coalescing throughput and scenario load generation
# ----------------------------------------------------------------------
@dataclass
class ServerThroughputResult:
    """Open-loop served throughput: dynamic coalescing vs per-request.

    Both arms fire the same concurrent recommend traffic through the
    socket at one live server; the only difference is whether the server
    coalesces concurrently queued requests into micro-batches.  Every
    served ranked list is compared bitwise against the in-process
    ``recommend_batch`` reference, so the measured win is proven exact
    as it is timed.

    Attributes:
        dataset: served dataset name.
        n_items: queries per measured arm.
        k: recommendation depth per query.
        concurrency: load generator's in-flight request bound.
        per_request_seconds / coalesced_seconds: measured wall clock.
        per_request_latency_ms / coalesced_latency_ms: client-observed
            round-trip percentiles per arm.
        mean_batch_size / max_batch_size: the coalescer's formed batches.
        parity_ok: every served list matched the in-process reference.
        obs: the coalesced server's ``metrics``-route payload after the
            measured rounds — the server-side queue-wait vs batch-exec
            decomposition behind the client-observed latencies.
    """

    dataset: str
    n_items: int
    k: int
    concurrency: int
    per_request_seconds: float
    coalesced_seconds: float
    per_request_latency_ms: dict
    coalesced_latency_ms: dict
    mean_batch_size: float
    max_batch_size: int
    parity_ok: bool
    obs: dict = field(default_factory=dict)

    @property
    def per_request_items_per_sec(self) -> float:
        return self.n_items / self.per_request_seconds if self.per_request_seconds else 0.0

    @property
    def coalesced_items_per_sec(self) -> float:
        return self.n_items / self.coalesced_seconds if self.coalesced_seconds else 0.0

    @property
    def speedup(self) -> float:
        return (
            self.coalesced_items_per_sec / self.per_request_items_per_sec
            if self.per_request_items_per_sec
            else 0.0
        )

    def to_text(self) -> str:
        lines = [
            f"Network serving — dynamic coalescing vs per-request dispatch "
            f"({self.dataset})",
            f"  queries={self.n_items} k={self.k} concurrency={self.concurrency}",
            f"  per-request: {self.per_request_items_per_sec:9.1f} items/sec "
            f"(p50={self.per_request_latency_ms.get('p50_ms', 0.0):.2f}ms "
            f"p95={self.per_request_latency_ms.get('p95_ms', 0.0):.2f}ms)",
            f"  coalesced:   {self.coalesced_items_per_sec:9.1f} items/sec "
            f"(p50={self.coalesced_latency_ms.get('p50_ms', 0.0):.2f}ms "
            f"p95={self.coalesced_latency_ms.get('p95_ms', 0.0):.2f}ms, "
            f"mean_batch={self.mean_batch_size:.1f} max={self.max_batch_size})",
            f"  speedup: {self.speedup:.2f}x",
            f"  parity: {'bit-identical' if self.parity_ok else 'BROKEN'}",
        ]
        histograms = {
            entry.get("name"): entry
            for entry in self.obs.get("registry", {}).get("histograms", [])
        }
        queue = histograms.get("server.queue_seconds")
        batch = histograms.get("server.batch_seconds")
        if queue or batch:
            lines.append(
                "  server-side: "
                f"queued {0 if queue is None else queue.get('count', 0)} requests, "
                f"executed {0 if batch is None else batch.get('count', 0)} batches "
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

    One scan-mode recommender is fitted and serves both arms (read-only
    query traffic, warmed untimed first, so neither arm pays one-off
    cache fills).  The load generator fires ``max_items`` concurrent
    recommends per arm — the open-loop shape the coalescer is built
    for — and the in-process ``recommend_batch`` output is the bitwise
    reference for every served list.

    Both arms run ``rounds`` measured passes, *alternating* so drift
    (allocator state, CPU contention — client, server and model share
    cores here) hits them evenly, and each arm reports its best pass —
    the min-time discipline every other bench in this repo inherits
    from pytest-benchmark.  Parity is asserted on every pass of every
    round.  ``max_batch`` defaults to twice the concurrency so the
    coalescer's natural window (it tracks the arrival rate — see
    :class:`~repro.serve.server._Coalescer`) is never split by the cap.
    """
    from repro.serve.loadgen import drive_queries  # local: keeps eval import-light
    from repro.serve.server import RecommenderServer, ServerThread

    base = config or SsRecConfig()
    if max_batch is None:
        max_batch = max(2, 2 * int(concurrency))
    stream = partition_interactions(dataset)
    items = [
        item
        for partition in stream.test_indices
        for item in stream.items_in_partition(partition)
    ][: int(max_items)]
    if not items:
        raise ValueError("dataset has no test items to serve")
    rec = _fit_ssrec(dataset, stream, base, use_index=False, seed=seed)
    # Untimed warm-up doubling as the bitwise reference.
    expected = rec.recommend_batch(items, k)

    measured = {}
    parity_ok = True
    batch_stats = (0.0, 0)
    arms = (("per-request", False), ("coalesced", True))
    servers = {}
    threads = {}
    try:
        for arm, coalesce in arms:
            server = RecommenderServer(
                rec, coalesce=coalesce, max_batch=max_batch, max_delay=max_delay
            )
            threads[arm] = ServerThread(server)
            threads[arm].start()
            servers[arm] = server
            drive_queries(
                server.host, server.port, items[:8], k=k, concurrency=concurrency
            )
        for rnd in range(max(1, int(rounds))):
            # Reverse the arm order on odd rounds so a monotone drift in
            # the box (thermal, cgroup throttling) cannot systematically
            # favor whichever arm runs first.
            for arm, _coalesce in (arms if rnd % 2 == 0 else arms[::-1]):
                server = servers[arm]
                report = drive_queries(
                    server.host, server.port, items, k=k, concurrency=concurrency
                )
                parity_ok = parity_ok and report.results == expected
                best = measured.get(arm)
                if best is None or report.seconds < best.seconds:
                    measured[arm] = report
    finally:
        for thread in threads.values():
            thread.stop()
    batch_stats = (
        servers["coalesced"].stats.mean_batch_size,
        servers["coalesced"].stats.max_batch_size,
    )
    return ServerThroughputResult(
        dataset=dataset.name,
        n_items=len(items),
        k=int(k),
        concurrency=int(concurrency),
        per_request_seconds=measured["per-request"].seconds,
        coalesced_seconds=measured["coalesced"].seconds,
        per_request_latency_ms=measured["per-request"].latency.summary_ms(),
        coalesced_latency_ms=measured["coalesced"].latency.summary_ms(),
        mean_batch_size=batch_stats[0],
        max_batch_size=batch_stats[1],
        parity_ok=parity_ok,
        # The coalesced arm's metrics scrape (cumulative up to its best
        # round): the server-side queue/batch decomposition behind the
        # client-observed latencies.
        obs=measured["coalesced"].server_obs,
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

    @property
    def total_overloads(self) -> int:
        return sum(report.overloads for report in self.reports)

    @property
    def conformant(self) -> bool:
        return self.total_divergences == 0

    def to_text(self) -> str:
        lines = [
            "Open-loop load generation — scenarios replayed through the wire "
            f"(seed {self.seed}, k={self.k}, window={self.window_size}, "
            f"concurrency={self.concurrency})",
        ]
        lines.extend(f"  {report.to_text()}" for report in self.reports)
        if self.verified:
            verdict = (
                "all scenarios EXACT through the socket"
                if self.conformant
                else f"BROKEN: {self.total_divergences} divergences"
            )
        else:
            verdict = "unverified (no replica)"
        lines.append(f"  loadgen verdict: {verdict}")
        return "\n".join(lines)


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

    Self-hosting mode (the default): each scenario fits one template,
    deep-copies it into the served owner and (when ``verify``) an
    in-process replica fed the identical event sequence, hosts the owner
    on a background server thread and drives the stream through the
    asyncio client — mutations in order, recommendation windows fired
    concurrently.  With ``verify`` every served ranked list must match
    the replica **bit for bit**; any divergence fails the suite (the CI
    server-smoke job gates on this).

    Args:
        address: replay against an already-running external server at
            ``(host, port)`` instead of self-hosting; verification is
            off in this mode (the external state is unknown).
    """
    from repro.serve.loadgen import drive_scenario  # local: keeps eval import-light
    from repro.serve.server import RecommenderServer, ServerThread
    from repro.sim import ScenarioGenerator

    generator = ScenarioGenerator(base=base, seed=seed, max_events=max_events)
    verify = bool(verify) and address is None
    reports = []
    for scenario in generator.generate_all(scenarios):
        if address is not None:
            host, port = address
            reports.append(drive_scenario(
                host, port, scenario, k=k, window_size=window_size,
                concurrency=concurrency,
            ))
            continue
        cfg = (config or SsRecConfig()).with_options(
            maintenance_interval=scenario.maintenance_interval
        )
        template = SsRecRecommender(config=cfg, use_index=False, seed=fit_seed)
        template.fit(scenario.dataset, scenario.train_interactions)
        owner = copy.deepcopy(template)
        replica = copy.deepcopy(template) if verify else None
        server = RecommenderServer(owner, coalesce=coalesce)
        with ServerThread(server) as (host, port):
            reports.append(drive_scenario(
                host, port, scenario, k=k, window_size=window_size,
                concurrency=concurrency, replica=replica,
            ))
    return LoadgenSuiteResult(
        seed=int(seed),
        k=int(k),
        window_size=int(window_size),
        concurrency=int(concurrency),
        verified=verify,
        reports=reports,
    )


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
    ``stop()`` to drain (the CLI blocks until Ctrl-C and does exactly
    that).
    """
    from repro.serve.server import RecommenderServer, ServerThread

    base = config or SsRecConfig()
    stream = partition_interactions(dataset)
    rec = _fit_ssrec(dataset, stream, base, use_index=use_index, seed=seed)
    thread = ServerThread(RecommenderServer(
        rec, host=host, port=port, coalesce=coalesce
    ))
    thread.start()
    return thread
