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

The serving-stack experiments beyond the paper (throughput, sharding,
dedup, kernels, the wire, conformance) live in :mod:`repro.eval.systems`.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.baselines.ctt import CTTRecommender
from repro.baselines.hmm_rec import SingleLayerInterestModel
from repro.baselines.ucd import UCDRecommender
from repro.core.config import SsRecConfig
from repro.core.profiles import ProfileEvent, UserProfile
from repro.datasets.mlens import MLensConfig, generate_mlens
from repro.datasets.partitions import PartitionedStream, partition_interactions
from repro.datasets.schema import Dataset
from repro.datasets.synthpop import synthesize_dataset
from repro.datasets.ytube import YTubeConfig, generate_ytube
from repro.eval.harness import EvalOutcome, StreamEvaluator
from repro.eval.reporting import format_series, format_table
from repro.eval.serving import fit_ssrec
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


def profiles_from_dataset(dataset: Dataset, window_size: int = 1) -> list[UserProfile]:
    """Full-history user profiles (for blocking studies).

    ``window_size=1`` flushes every event into the long-term list, so the
    blocking features see each user's complete history even for users with
    very short histories.
    """
    item_by_id = {it.item_id: it for it in dataset.items}
    events: dict[int, list[ProfileEvent]] = defaultdict(list)
    for inter in sorted(dataset.interactions, key=lambda i: (i.timestamp, i.item_id)):
        events[inter.user_id].append(
            ProfileEvent.from_interaction(inter, item_by_id[inter.item_id])
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
        return "Table II — factors relevant to user profile signature size\n" + format_table(
            headers, self.rows()
        )


def run_table2(
    dataset: Dataset, block_counts: Sequence[int] = (1, 10, 20, 30, 40, 50)
) -> Table2Result:
    """Sweep the user-block count and report the worst-case signature size.

    A moderate similarity threshold lets genuinely similar users share a
    block while dissimilar ones open new blocks until the cap, so the
    sweep controls the block count exactly (matching the paper's row of
    target counts) — and coherent blocks are what shrinks the per-block
    universes.
    """
    profiles = profiles_from_dataset(dataset)
    max_entities, max_producers = [], []
    for count in block_counts:
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
    """One ``DatasetStats.as_row()`` dict per dataset."""

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
# Fig. 6-11 — one titled-series result, one fit-then-evaluate loop
# ----------------------------------------------------------------------
@dataclass
class SeriesResult:
    """One of Fig. 6-11: a title plus the measured series.

    Attributes:
        title: the printed heading (figure number, dataset, quantity).
        x_label: name of the x axis.
        series: outer key -> {inner key: value}, as measured.  For the
            method-comparison figures (8-11) the outer key is the plotted
            series (method or dataset) and the inner key the x value (k or
            partition count).  For the parameter sweeps (6-7) the outer
            key is the swept parameter (|W| or lambda_s), the inner key k.
        swept: the outer key is the x axis (Fig. 6-7): render one
            ``Top k`` series per inner key over the swept values.
    """

    title: str
    x_label: str
    series: dict
    swept: bool = False

    def optimal_lambda(self, k: int) -> float:
        """The swept parameter value (Fig. 7: lambda_s) with the best P@k."""
        return max(self.series, key=lambda x: self.series[x][k])

    def to_text(self) -> str:
        series = self.series
        if self.swept:
            series = {
                f"Top {k}": {x: self.series[x][k] for x in sorted(self.series)}
                for k in sorted(next(iter(self.series.values())))
            }
        return format_series(self.title, series, x_label=self.x_label)


def _evaluate(
    dataset: Dataset,
    methods: Sequence[tuple[str, Callable[[PartitionedStream], object], dict]],
    **evaluator_kwargs,
) -> dict[str, EvalOutcome]:
    """Fit each ``(label, factory, run kwargs)`` method on a fresh
    partitioning of ``dataset`` and replay the test partitions through it."""
    outcomes = {}
    for label, factory, run_kwargs in methods:
        stream = partition_interactions(dataset)
        evaluator = StreamEvaluator(stream, **evaluator_kwargs)
        outcomes[label] = evaluator.run(factory(stream), **run_kwargs)
    return outcomes


def _baseline(cls, dataset: Dataset) -> Callable[[PartitionedStream], object]:
    return lambda stream: cls().fit(dataset, stream.training_interactions())


def _ssrec(dataset: Dataset, config: SsRecConfig, seed: int, use_index: bool = False):
    return lambda stream: fit_ssrec(dataset, stream, config, use_index, seed)


def run_fig6(
    dataset: Dataset,
    window_sizes: Iterable[int] = range(1, 11),
    lambdas: Sequence[float] = tuple(round(0.1 * i, 1) for i in range(1, 11)),
    ks: Sequence[int] = DEFAULT_KS,
    min_truth: int = 1,
    config: SsRecConfig | None = None,
    seed: int = 1,
) -> SeriesResult:
    """For each |W|, the best P@k over the lambda grid (paper protocol:
    "At each |W| value, we measure the prediction precision ... by changing
    the weight ... and report the optimal precision value")."""
    base = config or SsRecConfig()
    precision: dict[int, dict[int, float]] = {}
    for w in window_sizes:
        stream = partition_interactions(dataset)
        rec = fit_ssrec(dataset, stream, base.with_options(window_size=int(w)), seed=seed)
        evaluator = StreamEvaluator(stream, ks=ks, min_truth=min_truth)
        sweep = evaluator.run_lambda_sweep(rec, lambdas)
        precision[int(w)] = {
            k: max(sweep[lam][k] for lam in sweep) for k in evaluator.ks
        }
    return SeriesResult(
        f"Fig. 6 ({dataset.name}) — P@k vs short-term window size |W|",
        "|W|",
        precision,
        swept=True,
    )


def run_fig7(
    dataset: Dataset,
    lambdas: Sequence[float] = tuple(round(0.1 * i, 1) for i in range(0, 11)),
    ks: Sequence[int] = DEFAULT_KS,
    window_size: int = 5,
    min_truth: int = 1,
    config: SsRecConfig | None = None,
    seed: int = 1,
) -> SeriesResult:
    """P@k over the lambda grid with |W| fixed to its optimum (5)."""
    base = (config or SsRecConfig()).with_options(window_size=window_size)
    stream = partition_interactions(dataset)
    rec = fit_ssrec(dataset, stream, base, seed=seed)
    evaluator = StreamEvaluator(stream, ks=ks, min_truth=min_truth)
    return SeriesResult(
        f"Fig. 7 ({dataset.name}) — P@k vs short-term weight lambda_s",
        "lambda",
        evaluator.run_lambda_sweep(rec, lambdas),
        swept=True,
    )


def run_fig8(
    dataset: Dataset,
    ks: Sequence[int] = DEFAULT_KS,
    config: SsRecConfig | None = None,
    min_truth: int = 1,
    seed: int = 1,
) -> SeriesResult:
    """P@k of CTT, UCD, ssRec-ne (no expansion) and full ssRec."""
    base = config or SsRecConfig()
    methods = [
        ("CTT", _baseline(CTTRecommender, dataset), {}),
        ("UCD", _baseline(UCDRecommender, dataset), {}),
        ("ssRec-ne", _ssrec(dataset, base.with_options(use_expansion=False), seed), {}),
        ("ssRec", _ssrec(dataset, base, seed), {}),
    ]
    outcomes = _evaluate(dataset, methods, ks=ks, min_truth=min_truth)
    return SeriesResult(
        f"Fig. 8 ({dataset.name}) — effectiveness comparison",
        "k",
        {label: outcome.p_at_k for label, outcome in outcomes.items()},
    )


def run_fig9(
    dataset: Dataset,
    ks: Sequence[int] = DEFAULT_KS,
    config: SsRecConfig | None = None,
    min_truth: int = 1,
    seed: int = 1,
) -> SeriesResult:
    """ssRec (stream setting, updates on) vs ssRec-nu (static setting)."""
    fit = _ssrec(dataset, config or SsRecConfig(), seed)
    methods = [("ssRec-nu", fit, {"update": False}), ("ssRec", fit, {"update": True})]
    outcomes = _evaluate(dataset, methods, ks=ks, min_truth=min_truth)
    return SeriesResult(
        f"Fig. 9 ({dataset.name}) — effect of user profile updates",
        "k",
        {label: outcome.p_at_k for label, outcome in outcomes.items()},
    )


def cumulative_means(per_partition) -> dict[int, float]:
    """Mean per-item milliseconds over the first n partitions' timings,
    for n = 1..len (Fig. 10's accumulation over its x axis)."""
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
) -> SeriesResult:
    """Per-item response time of CTT, UCD and the CPPse-index, accumulated
    over growing numbers of test partitions (the paper's x-axis)."""
    indexed = _ssrec(dataset, config or SsRecConfig(), seed, use_index=True)
    methods = [
        ("CTT", _baseline(CTTRecommender, dataset), {"k": k}),
        ("UCD", _baseline(UCDRecommender, dataset), {"k": k}),
        ("CPPse-index", indexed, {"k": k}),
    ]
    outcomes = _evaluate(
        dataset,
        methods,
        ks=(k,),
        min_truth=min_truth,
        max_items_per_partition=max_items_per_partition,
    )
    return SeriesResult(
        f"Fig. 10 ({dataset.name}) — mean per-item time (ms) vs partitions",
        "partitions",
        {
            label: cumulative_means(outcome.per_partition_timing)
            for label, outcome in outcomes.items()
        },
    )


def run_fig11(
    datasets: dict[str, Dataset],
    sizes: Sequence[int] = (1, 2, 3, 4),
    config: SsRecConfig | None = None,
    seed: int = 1,
) -> SeriesResult:
    """Algorithm 2 cost (seconds) while absorbing 1..4 test partitions of
    updates, per dataset."""
    base = config or SsRecConfig()
    seconds: dict[str, dict[int, float]] = {}
    for name, dataset in datasets.items():
        seconds[name] = {}
        for n in sizes:
            stream = partition_interactions(dataset)
            rec = fit_ssrec(dataset, stream, base, use_index=True, seed=seed)
            seconds[name][int(n)] = StreamEvaluator(stream).maintenance_cost(rec, n)
    return SeriesResult(
        "Fig. 11 — index maintenance cost vs update size (partitions)",
        "partitions",
        seconds,
    )
