"""Stream evaluation harness implementing the paper's protocol.

Interactions are split into six timestamp-ordered partitions (2 train /
4 test, Wang et al. [31]).  Each test partition is replayed as a merged
event stream: item uploads trigger a recommendation that is judged against
the users who interact with that item *within the partition*; interaction
events update the user profiles (unless updates are disabled — the
ssRec-nu setting of Fig. 9).  Once a partition has been tested it has, by
construction, also been absorbed into the models, realizing "when the
current partition is used for training, its immediate next partition is
used for testing".

The harness also offers a *decomposed-score sweep*: because Eq. 3 combines
the cached long/short components linearly, P@k for every ``lambda_s`` on a
grid can be measured in a single replay — which is what makes the Fig. 6/7
parameter studies affordable.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.ssrec import SsRecRecommender
from repro.datasets.partitions import PartitionedStream
from repro.datasets.schema import SocialItem
from repro.eval.metrics import PrecisionAccumulator, TimingStats


@dataclass
class EvalOutcome:
    """Result of one harness run.

    Attributes:
        p_at_k: overall P@k across all test partitions.
        hits: raw hit counts per k.
        n_items: judged items (the paper's |V| over test partitions).
        timing: per-item recommendation response times.
        per_partition_timing: one TimingStats per test partition, in order
            (Fig. 10's accumulation basis).
    """

    p_at_k: dict[int, float]
    hits: dict[int, int]
    n_items: int
    timing: TimingStats = field(default_factory=TimingStats)
    per_partition_timing: list[TimingStats] = field(default_factory=list)


class StreamEvaluator:
    """Replays the test partitions against a recommender.

    Args:
        stream: the partitioned dataset.
        ks: P@k cutoffs (paper: 5, 10, 20, 30).
        min_truth: only items with at least this many interacting users in
            the partition are judged (ground-truth density control; the
            shapes are insensitive to it, the absolute level is not).
        max_items_per_partition: judge at most this many items per test
            partition (timing-run cost control); None = all.
    """

    def __init__(
        self,
        stream: PartitionedStream,
        ks: Iterable[int] = (5, 10, 20, 30),
        min_truth: int = 1,
        max_items_per_partition: int | None = None,
    ) -> None:
        self.stream = stream
        self.ks = sorted(set(int(k) for k in ks))
        self.min_truth = int(min_truth)
        self.max_items = max_items_per_partition
        self._item_by_id = {it.item_id: it for it in stream.dataset.items}

    # ------------------------------------------------------------------
    # Event replay (per-item, micro-batched and the lambda sweep share it)
    # ------------------------------------------------------------------
    def _partition_events(
        self, partition: int
    ) -> tuple[list[tuple[float, int, object]], dict[int, set[int]]]:
        """Merged (timestamp, kind, payload) events of one test partition.

        kind 0 = item upload (recommend + judge), kind 1 = interaction
        (profile update).  Uploads sort before interactions at equal time.
        """
        truth = self.stream.ground_truth(partition)
        events: list[tuple[float, int, object]] = []
        judged = 0
        for item in self.stream.items_in_partition(partition):
            keep = len(truth.get(item.item_id, ())) >= self.min_truth
            if keep and (self.max_items is None or judged < self.max_items):
                judged += 1
            else:
                keep = False
            events.append((item.timestamp, 0, (item, keep)))
        for inter in self.stream.partitions[partition]:
            events.append((inter.timestamp, 1, inter))
        events.sort(key=lambda e: (e[0], e[1]))
        return events, truth

    def _replay(self, recommender, update: bool = True, observe_items: bool = True):
        """The one walk over the test partitions' events.

        Applies uploads (``observe_item``) and interactions (``update``)
        to ``recommender`` in stream order and yields ``(item, truth)``
        for every judged upload, at the moment it arrives — the consumer
        serves it before the next event is applied.  ``(None, None)``
        marks the end of each test partition.
        """
        for partition in self.stream.test_indices:
            events, truth = self._partition_events(partition)
            for _, kind, payload in events:
                if kind == 0:
                    item, keep = payload
                    if observe_items and hasattr(recommender, "observe_item"):
                        recommender.observe_item(item)
                    if keep:
                        yield item, truth.get(item.item_id, set())
                elif update:
                    recommender.update(payload, self._item_by_id.get(payload.item_id))
            yield None, None

    def run(
        self,
        recommender,
        update: bool = True,
        observe_items: bool = True,
        k: int | None = None,
    ) -> EvalOutcome:
        """Replay all test partitions against ``recommender``, one
        ``recommend(item, k)`` per judged upload — :meth:`run_batch` at
        ``batch_size=1``.

        The recommender must expose ``recommend(item, k)`` and, when
        ``update``/``observe_items`` are on, ``update(interaction, item)``
        and ``observe_item(item)`` (extra arguments are tolerated via
        duck typing; baselines ignore what they don't model).

        Args:
            update: apply interaction events to the model (ssRec vs
                ssRec-nu, Fig. 9).
            observe_items: forward item uploads to the model.
            k: recommendation depth; defaults to ``max(ks)``.
        """
        return self.run_batch(recommender, 1, update, observe_items, k)

    def run_batch(
        self,
        recommender,
        batch_size: int | None = None,
        update: bool = True,
        observe_items: bool = True,
        k: int | None = None,
    ) -> EvalOutcome:
        """Replay all test partitions in micro-batched windows.

        Judged items are buffered into windows of ``batch_size`` (default:
        the recommender's ``config.batch_size`` when it has one) and served
        with one ``recommend_batch`` call per window (partial windows flush
        at partition end; a window of one is served through ``recommend``,
        the per-item entry point Fig. 10 times).  Interaction events still
        update profiles in stream order, so a window's items are scored
        with the profile state at window-flush time — the inherent
        freshness trade of micro-batching.  Timing records the per-item
        share of each window's serving cost; pending index maintenance is
        flushed outside the timer — the paper reports recommendation and
        update costs separately (Fig. 10 vs Fig. 11).
        """
        if batch_size is None:
            config = getattr(recommender, "config", None)
            batch_size = int(getattr(config, "batch_size", 64))
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        depth = int(k) if k is not None else max(self.ks)
        accumulator = PrecisionAccumulator(self.ks)
        timing = TimingStats()
        per_partition = [TimingStats()]
        window: list[tuple[SocialItem, set[int]]] = []

        def flush() -> None:
            if not window:
                return
            items = [item for item, _ in window]
            if hasattr(recommender, "run_maintenance"):
                recommender.run_maintenance()
            started = time.perf_counter()
            if batch_size == 1:
                ranked_lists = [recommender.recommend(items[0], depth)]
            else:
                ranked_lists = recommender.recommend_batch(items, depth)
            per_item = (time.perf_counter() - started) / len(window)
            for (_, item_truth), ranked in zip(window, ranked_lists):
                timing.record(per_item)
                per_partition[-1].record(per_item)
                accumulator.add([user for user, _ in ranked], item_truth)
            window.clear()

        for item, item_truth in self._replay(recommender, update, observe_items):
            if item is None:
                flush()
                per_partition.append(TimingStats())
                continue
            window.append((item, item_truth))
            if len(window) >= batch_size:
                flush()
        return EvalOutcome(
            p_at_k=accumulator.precision(),
            hits=dict(accumulator.hits),
            n_items=accumulator.n_items,
            timing=timing,
            per_partition_timing=per_partition[:-1],
        )

    # ------------------------------------------------------------------
    # Decomposed-score lambda sweep (Figs. 6-7)
    # ------------------------------------------------------------------
    def run_lambda_sweep(
        self,
        recommender: SsRecRecommender,
        lambdas: Sequence[float],
        update: bool = True,
    ) -> dict[float, dict[int, float]]:
        """P@k for every ``lambda_s`` in one replay.

        Requires an ssRec recommender in scan mode: per judged item the
        vectorized matcher returns the (R_l, R_s) component arrays once,
        and the Eq. 3 recombination ranks users for each lambda.  Profile
        updates do not depend on lambda, so the sweep is exact.
        """
        if recommender.matcher is None:
            raise ValueError("recommender must be fitted (scan mode) for the sweep")
        lambdas = [float(l) for l in lambdas]
        accumulators = {l: PrecisionAccumulator(self.ks) for l in lambdas}
        depth = max(self.ks)
        for item, item_truth in self._replay(recommender, update):
            if item is None:
                continue
            r_long, r_short = recommender.matcher.score_components(item)
            user_ids = np.asarray(recommender.matcher.user_ids)
            for lam in lambdas:
                scores = (1.0 - lam) * r_long + lam * r_short
                order = np.lexsort((user_ids, -scores))[:depth]
                accumulators[lam].add([int(user_ids[i]) for i in order], item_truth)
        return {lam: acc.precision() for lam, acc in accumulators.items()}

    # ------------------------------------------------------------------
    # Index maintenance cost (Fig. 11)
    # ------------------------------------------------------------------
    def maintenance_cost(
        self,
        recommender: SsRecRecommender,
        n_update_partitions: int,
        batch_size: int = 100,
    ) -> float:
        """Seconds spent in Algorithm 2 while absorbing the first
        ``n_update_partitions`` test partitions' interactions.

        Interactions go through ``recommender.update`` and the index is
        maintained by an explicit, timed ``run_maintenance()`` every
        ``batch_size`` updates (the paper maintains the index
        "periodically"), so the recommender's own ``maintenance_interval``
        must exceed ``batch_size`` — otherwise ``update`` would flush
        inside the untimed region.
        """
        if recommender.index is None:
            raise ValueError("recommender must be fitted with use_index=True")
        if not (1 <= n_update_partitions <= len(self.stream.test_indices)):
            raise ValueError(
                f"n_update_partitions must be in [1, {len(self.stream.test_indices)}]"
            )
        if recommender.maintenance_interval <= batch_size:
            raise ValueError(
                f"maintenance_interval ({recommender.maintenance_interval}) must "
                f"exceed batch_size ({batch_size}) to time every flush"
            )
        interactions = [
            inter
            for partition in self.stream.test_indices[:n_update_partitions]
            for inter in self.stream.partitions[partition]
        ]
        total = 0.0
        for start in range(0, len(interactions), batch_size):
            for inter in interactions[start : start + batch_size]:
                recommender.update(inter, self._item_by_id.get(inter.item_id))
            started = time.perf_counter()
            recommender.run_maintenance()
            total += time.perf_counter() - started
        return total
