"""One serving shard: an exact recommender over a slice of the users.

A :class:`RecommenderShard` owns a per-shard :class:`~repro.core.profiles.ProfileStore`
(aliasing the global profile objects), its own
:class:`~repro.core.matching.VectorizedMatcher` and — in index mode — its
own :class:`~repro.index.cppse.CPPseIndex` built over just its user slice.
The trained model state (BiHMM, interest predictor, expander, scorer) is
*shared* across shards: scoring a user involves only that user's profile
and the shared parameters, so per-shard results are bit-identical to the
corresponding rows of a single global matcher/index.

Algorithm 2 maintenance runs shard-locally: each shard tracks its own
pending profile updates and flushes them into its own index on the
configured cadence (or lazily before serving), exactly as the single-index
facade does — just over a smaller population.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.config import SsRecConfig
from repro.core.matching import MatchingScorer, VectorizedMatcher
from repro.core.profiles import ProfileEvent, ProfileStore, UserProfile
from repro.datasets.schema import Interaction, SocialItem
from repro.index.cppse import CPPseIndex
from repro.obs.metrics import LatencyHistogram, MetricsRegistry
from repro.obs.trace import span


@dataclass
class ShardMetrics:
    """Serving statistics of one shard.

    Attributes:
        queries: per-item ``recommend`` calls answered.
        batches: ``recommend_batch`` windows answered.
        items_served: items across both paths.
        candidates_returned: total ``(user, score)`` pairs returned.
        maintenance_runs: Algorithm 2 flushes executed.
        profiles_refreshed: profiles Algorithm 2 touched in total.
        item_latency: per-*item* serving seconds as a fixed-bucket
            :class:`~repro.obs.metrics.LatencyHistogram` — a window's
            wall-clock is amortized over its items so per-item and
            batched traffic contribute on the same scale (mirrors
            ``StreamEvaluator.run_batch``'s accounting), and shard
            histograms merge exactly across processes.
    """

    queries: int = 0
    batches: int = 0
    items_served: int = 0
    candidates_returned: int = 0
    maintenance_runs: int = 0
    profiles_refreshed: int = 0
    item_latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def record_serve(self, seconds: float, n_items: int, n_candidates: int) -> None:
        per_item = float(seconds) / n_items if n_items else 0.0
        self.item_latency.record(per_item, n_items)
        self.items_served += n_items
        self.candidates_returned += n_candidates

    @property
    def total_seconds(self) -> float:
        return self.item_latency.sum

    @property
    def mean_latency(self) -> float:
        return self.item_latency.mean

    def as_dict(self) -> dict:
        """Summary row the service's ``metrics()`` report exposes."""
        row = {
            "queries": self.queries,
            "batches": self.batches,
            "items_served": self.items_served,
            "candidates_returned": self.candidates_returned,
            "maintenance_runs": self.maintenance_runs,
            "profiles_refreshed": self.profiles_refreshed,
        }
        row.update(
            (name.replace("_ms", "_latency_ms"), value)
            for name, value in self.item_latency.summary_ms().items()
        )
        return row


class RecommenderShard:
    """Exact top-k serving over one user slice.

    Args:
        shard_id: dense id within the service.
        profiles: the shard-local store (aliases global profile objects).
        scorer: the shared trained scorer (interest + expansion + config).
        n_categories: category count for index construction.
        config: ssRec tunables (maintenance cadence, index parameters).
        use_index: build a shard-local CPPse-index; otherwise the shard
            serves through its vectorized sequential scan.
        blocks: pre-assigned slice of the global blocking (block-aware
            plans); when given, the index is built over exactly these
            blocks instead of re-clustering the shard's users — the key
            to bit-identical parity with the single index.
        maintenance_interval: Algorithm-2 flush cadence; defaults to the
            config value.  The service passes the trained facade's
            (mutable) ``maintenance_interval`` attribute through so a
            runtime-tuned cadence survives sharding.
    """

    def __init__(
        self,
        shard_id: int,
        profiles: ProfileStore,
        scorer: MatchingScorer,
        n_categories: int,
        config: SsRecConfig,
        use_index: bool = False,
        blocks=None,
        maintenance_interval: int | None = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self.profiles = profiles
        self.scorer = scorer
        self.n_categories = int(n_categories)
        self.config = config
        self.use_index = bool(use_index)
        self.matcher = VectorizedMatcher(scorer, profiles)
        self.matcher.sync()
        self.index: CPPseIndex | None = None
        if self.use_index:
            if blocks is not None:
                self.index = CPPseIndex.build_from_blocks(
                    profiles=profiles,
                    scorer=scorer,
                    n_categories=self.n_categories,
                    blocks=blocks,
                    config=config,
                )
            else:
                self.index = CPPseIndex.build(
                    profiles=profiles,
                    scorer=scorer,
                    n_categories=self.n_categories,
                    config=config,
                )
        self.metrics = ShardMetrics()
        self.maintenance_interval = int(
            config.maintenance_interval
            if maintenance_interval is None
            else maintenance_interval
        )
        self._maintenance_pending: set[int] = set()
        self._updates_since_maintenance = 0
        self._scoring = config.scoring
        self._native = None  # lazily-built NativeEngine (native scoring only)

    def set_scoring(self, mode: str) -> None:
        """Switch this shard's scoring backend (pushed down, already
        validated, by the sharded facade's ``configure(scoring=...)``);
        the native engine is rebuilt lazily."""
        self._scoring = mode
        self._native = None

    def _native_engine(self):
        """The shard's fused-kernel engine when native scoring is both
        requested and available; None otherwise (vectorized serving).

        Shards serve their slice directly (no compiled plan), so the
        native-vs-fallback decision the plan compiler makes in
        :func:`repro.exec.compile._use_native` is restated here, with the
        same one-time warning and obs counter on fallback.
        """
        if self._scoring != "native":
            return None
        if self._native is None:
            from repro.core.kernels import (
                NativeEngine,
                native_ready,
                record_fallback,
            )

            if not native_ready():
                record_fallback(f"shard-{self.shard_id}")
                self._scoring = "vectorized"  # don't re-probe per request
                return None
            self._native = NativeEngine(self.matcher, self.index)
        return self._native

    @property
    def n_users(self) -> int:
        return len(self.profiles)

    # ------------------------------------------------------------------
    # Stream updates (shard-local Algorithm 2)
    # ------------------------------------------------------------------
    def adopt(self, profile: UserProfile) -> None:
        """Take ownership of a (possibly brand-new) user profile."""
        self.profiles.add(profile)

    def update(self, interaction: Interaction, item: SocialItem | None = None) -> None:
        """Record one interaction for a user this shard owns."""
        event = ProfileEvent.from_interaction(interaction, item)
        profile, _ = self.profiles.record(interaction.user_id, event)
        if self.index is not None:
            self._maintenance_pending.add(profile.user_id)
            self._updates_since_maintenance += 1
            if self._updates_since_maintenance >= self.maintenance_interval:
                self.run_maintenance()

    def run_maintenance(self) -> int:
        """Flush pending profile updates into this shard's index."""
        if self.index is None or not self._maintenance_pending:
            self._maintenance_pending.clear()
            self._updates_since_maintenance = 0
            return 0
        with span("shard.maintenance", shard=self.shard_id):
            updated = self.index.maintain(sorted(self._maintenance_pending))
        self._maintenance_pending.clear()
        self._updates_since_maintenance = 0
        self.metrics.maintenance_runs += 1
        self.metrics.profiles_refreshed += updated
        return updated

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def recommend(self, item: SocialItem, k: int) -> list[tuple[int, float]]:
        """Shard-local exact top-``k``, sorted by ``(-score, user_id)``."""
        started = time.perf_counter()
        engine = self._native_engine()
        if self.index is not None:
            if self._maintenance_pending:
                self.run_maintenance()
            with span("shard.knn", shard=self.shard_id, n_items=1):
                ranked = engine.knn(item, k) if engine else self.index.knn(item, k)
        else:
            with span("shard.scan", shard=self.shard_id, n_items=1):
                ranked = engine.top_k(item, k) if engine else self.matcher.top_k(item, k)
        self.metrics.queries += 1
        self.metrics.record_serve(time.perf_counter() - started, 1, len(ranked))
        return ranked

    def recommend_batch(
        self, items: Sequence[SocialItem], k: int
    ) -> list[list[tuple[int, float]]]:
        """Shard-local exact top-``k`` lists for a micro-batch."""
        items = list(items)
        if not items:
            return []
        started = time.perf_counter()
        engine = self._native_engine()
        if self.index is not None:
            if self._maintenance_pending:
                self.run_maintenance()
            with span("shard.knn", shard=self.shard_id, n_items=len(items)):
                ranked_lists = (
                    engine.knn_batch(items, k)
                    if engine
                    else self.index.knn_batch(items, k)
                )
        else:
            with span("shard.scan", shard=self.shard_id, n_items=len(items)):
                ranked_lists = (
                    engine.top_k_batch(items, k)
                    if engine
                    else self.matcher.top_k_batch(items, k)
                )
        self.metrics.batches += 1
        self.metrics.record_serve(
            time.perf_counter() - started,
            len(items),
            sum(len(r) for r in ranked_lists),
        )
        return ranked_lists

    # ------------------------------------------------------------------
    # Publication (shared-memory backend)
    # ------------------------------------------------------------------
    def prepare_for_publish(self) -> None:
        """Settle every lazily-deferred write before a read-only publish.

        The shared-memory backend (:mod:`repro.serve.shmem`) hands workers
        *read-only* views of this shard's arrays, so any write a worker
        would have performed lazily at serve time must happen here, in the
        parent, first — at the **same stream position** the worker would
        have performed it, which is what keeps the published copy
        bit-identical to in-process serving:

        - pending index maintenance is flushed (mirroring the lazy flush
          at the top of :meth:`recommend`/:meth:`recommend_batch`);
        - the matcher is synced, so a worker-side ``sync()`` takes the
          O(1) version fast path instead of refreshing rows in place.
        """
        if self.index is not None and self._maintenance_pending:
            self.run_maintenance()
        self.matcher.sync()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def obs_registry(self) -> MetricsRegistry:
        """This shard's serving telemetry as a mergeable registry.

        Every metric carries a ``shard`` label, so the per-shard views a
        worker ships back (or the service collects in-process) merge into
        one aggregate without collisions.
        """
        registry = MetricsRegistry()
        shard = str(self.shard_id)
        metrics = self.metrics
        registry.counter("shard.queries", shard=shard).inc(metrics.queries)
        registry.counter("shard.batches", shard=shard).inc(metrics.batches)
        registry.counter("shard.items_served", shard=shard).inc(metrics.items_served)
        registry.counter("shard.candidates_returned", shard=shard).inc(
            metrics.candidates_returned
        )
        registry.counter("shard.maintenance_runs", shard=shard).inc(
            metrics.maintenance_runs
        )
        registry.counter("shard.profiles_refreshed", shard=shard).inc(
            metrics.profiles_refreshed
        )
        registry.gauge("shard.users", shard=shard).set(self.n_users)
        registry.histogram(
            "shard.item_seconds", bounds=metrics.item_latency.bounds, shard=shard
        ).merge(metrics.item_latency)
        if self.index is not None:
            registry.merge(self.index.obs_registry(shard=shard))
        return registry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "index" if self.use_index else "scan"
        return f"RecommenderShard(id={self.shard_id}, users={self.n_users}, mode={mode})"
