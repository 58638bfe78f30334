"""The ssRec facade: train once, then recommend/update over the stream.

Ties together every component of Fig. 1: the BiHMM interest prediction
(a), the entity-based item-user matching (b), and — when ``use_index`` is
on — the CPPse-index (c) for sub-linear top-k search.

Typical usage::

    recommender = SsRecRecommender(config)
    recommender.fit(dataset, train_interactions)
    for item in item_stream:
        recommender.observe_item(item)              # producer layer update
        top_users = recommender.recommend(item, k=30)
    recommender.update(interaction)                 # user profile update

High-throughput serving drains the item stream in micro-batches instead::

    for window in batched(item_stream, 64):
        ranked_lists = recommender.recommend_batch(window, k=30)
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence

from repro.core.config import SsRecConfig
from repro.core.interest import InterestPredictor
from repro.core.matching import MatchingScorer, VectorizedMatcher
from repro.core.profiles import ProfileEvent, ProfileStore
from repro.datasets.schema import Dataset, Interaction, SocialItem
from repro.entities.expansion import EntityExpander
from repro.entities.extractor import EntityExtractor
from repro.entities.vocabulary import EntityVocabulary
from repro.hmm.bihmm import BiHMM


class SsRecRecommender:
    """End-to-end ssRec recommender.

    Args:
        config: ssRec tunables; defaults to the paper's optima.
        use_index: route top-k queries through the CPPse-index (Sec. V).
            When off, an exact vectorized sequential scan is used — the
            results are identical, only the cost profile differs.
        seed: seed for model initialization.
    """

    def __init__(
        self,
        config: SsRecConfig | None = None,
        use_index: bool = False,
        seed: int = 0,
    ) -> None:
        self.config = config or SsRecConfig()
        self.use_index = bool(use_index)
        self.seed = int(seed)
        self.profiles = ProfileStore(window_size=self.config.window_size)
        self.vocabulary = EntityVocabulary()
        self.extractor = EntityExtractor(self.vocabulary)
        self.expander: EntityExpander | None = None
        self.bihmm: BiHMM | None = None
        self.interest: InterestPredictor | None = None
        self.scorer: MatchingScorer | None = None
        self.matcher: VectorizedMatcher | None = None
        self.index = None  # CPPseIndex, built lazily to avoid an import cycle
        self._maintenance_pending: set[int] = set()
        self.maintenance_interval = self.config.maintenance_interval
        self._updates_since_maintenance = 0
        self._fitted = False
        # Execution-plan state (repro.exec): the compiled pipeline serving
        # runs through (derived from ``config``) and the mutation epoch
        # that invalidates memoized results.
        self.exec_epoch = 0
        self._compiled = None  # CompiledPlan, built lazily per current state

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: Dataset,
        train_interactions: Sequence[Interaction] | None = None,
        max_bihmm_sequences: int = 200,
    ) -> "SsRecRecommender":
        """Train every component from the training slice of ``dataset``.

        Args:
            dataset: supplies the entity universe, items and user sets.
            train_interactions: the training partitions' interactions; when
                None, all of ``dataset.interactions`` are used.
            max_bihmm_sequences: cap on consumer sequences used to train the
                shared b-HMM (training cost control; sequences are taken
                from the most active consumers).
        """
        interactions = (
            list(train_interactions)
            if train_interactions is not None
            else list(dataset.interactions)
        )
        interactions.sort(key=lambda i: (i.timestamp, i.item_id))
        train_item_ids = {i.item_id for i in interactions}
        last_time = interactions[-1].timestamp if interactions else float("inf")
        train_items = [
            it
            for it in dataset.items
            if it.timestamp <= last_time or it.item_id in train_item_ids
        ]

        # 1. Entity pipeline: gazetteer + expansion statistics.
        self.extractor.add_phrases(dataset.entity_names)
        self.expander = EntityExpander(
            alpha=self.config.expansion_alpha,
            max_expansions=self.config.max_expansions,
            min_weight=self.config.expansion_min_weight,
        )
        for item in train_items:
            mentions = self.extractor.annotate(item.text)
            if mentions:
                self.expander.observe(item.category, mentions)
                self.vocabulary.observe_document(
                    [m.entity_id for m in mentions], category=item.category
                )
            else:
                # Items without recoverable text fall back to declared ids.
                self.expander.observe_entity_list(item.category, item.entities)
                self.vocabulary.observe_document(item.entities, category=item.category)

        # 2. Profiles from the training interactions.
        item_by_id = {it.item_id: it for it in dataset.items}
        events_by_user: dict[int, list[ProfileEvent]] = defaultdict(list)
        for inter in interactions:
            item = item_by_id[inter.item_id]
            events_by_user[inter.user_id].append(
                ProfileEvent(
                    category=inter.category,
                    producer=inter.producer,
                    item_id=inter.item_id,
                    entities=item.entities,
                    timestamp=inter.timestamp,
                )
            )
        for user_id in dataset.consumer_ids:
            profile = self.profiles.get_or_create(user_id)
            events = events_by_user.get(user_id)
            if events:
                profile.bootstrap(events)

        # 3. BiHMM: producer layer on training creations, shared b-HMM on
        #    the most active consumers' sequences.
        self.bihmm = BiHMM(
            n_categories=dataset.n_categories,
            n_consumer_states=self.config.n_consumer_states,
            n_producer_states=self.config.n_producer_states,
            seed=self.seed,
        )
        creations: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for it in sorted(train_items, key=lambda x: (x.timestamp, x.item_id)):
            creations[it.producer].append((it.item_id, it.category))
        by_activity = sorted(events_by_user.items(), key=lambda kv: -len(kv[1]))
        consumer_sequences = [
            [(ev.category, ev.item_id) for ev in events]
            for _, events in by_activity[:max_bihmm_sequences]
            if len(events) >= 2
        ]
        if not consumer_sequences:
            raise ValueError("no consumer has enough training interactions")
        self.bihmm.fit(
            dict(creations), consumer_sequences, n_iter=self.config.hmm_iterations
        )

        # 4. Scorers.
        self.interest = InterestPredictor(self.bihmm, self.config)
        self.scorer = MatchingScorer(
            self.interest,
            self.expander,
            self.config,
            n_producers=max(len(dataset.producer_ids), 1),
            n_entities=max(len(dataset.entity_names), 1),
        )
        self.matcher = VectorizedMatcher(self.scorer, self.profiles)
        self.matcher.sync()

        # 5. Optional CPPse-index.
        if self.use_index:
            from repro.index.cppse import CPPseIndex  # local: avoids cycle

            self.index = CPPseIndex.build(
                profiles=self.profiles,
                scorer=self.scorer,
                n_categories=dataset.n_categories,
                config=self.config,
            )
        self._fitted = True
        self._compiled = None  # state shape changed: recompile on next serve
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("fit() must be called before this operation")

    def attach_index(self) -> "SsRecRecommender":
        """Build (or rebuild) the CPPse-index over the current profiles and
        switch serving to index mode.

        Lets a recommender fitted in scan mode upgrade without refitting —
        the serving layer and throughput harness use this to compare both
        modes on one trained state.
        """
        self._require_fitted()
        from repro.index.cppse import CPPseIndex  # local: avoids cycle

        assert self.interest is not None and self.scorer is not None
        self.index = CPPseIndex.build(
            profiles=self.profiles,
            scorer=self.scorer,
            n_categories=self.interest.n_categories,
            config=self.config,
        )
        self.use_index = True
        self._maintenance_pending.clear()
        self._updates_since_maintenance = 0
        self._compiled = None  # candidate source changed: recompile
        return self

    # ------------------------------------------------------------------
    # Streaming operations
    # ------------------------------------------------------------------
    def observe_item(self, item: SocialItem) -> list:
        """Register a newly streamed item (the social-item stream).

        Advances the producer layer's filtered state and feeds the item's
        entity co-occurrences to the expander so future expansions reflect
        recent content.  Returns the annotated entity mentions (possibly
        empty), so callers that must replay this mutation elsewhere — the
        process backend forwards it to every shard worker — reuse the one
        annotation pass instead of re-extracting.
        """
        self._require_fitted()
        assert self.interest is not None and self.expander is not None
        self.interest.observe_new_item(item.producer, item.item_id, item.category)
        mentions = self.extractor.annotate(item.text)
        if mentions:
            self.expander.observe(item.category, mentions)
        else:
            self.expander.observe_entity_list(item.category, item.entities)
        return mentions

    def update(self, interaction: Interaction, item: SocialItem | None = None) -> None:
        """Record one user-item interaction (the interaction stream).

        Updates the user's CPPse profile; the CPPse-index is maintained
        periodically per Algorithm 2 ("We maintain the CPPse-index
        periodically by checking the activities of social users").
        """
        self._require_fitted()
        event = ProfileEvent.from_interaction(interaction, item)
        profile, _ = self.profiles.record(interaction.user_id, event)
        self.exec_epoch += 1  # scores may move: orphan memoized results
        if self.index is not None:
            self._maintenance_pending.add(profile.user_id)
            self._updates_since_maintenance += 1
            if self._updates_since_maintenance >= self.maintenance_interval:
                self.run_maintenance()

    def run_maintenance(self) -> int:
        """Flush pending profile updates into the index (Algorithm 2).

        Returns the number of user profiles refreshed.
        """
        self._require_fitted()
        self.exec_epoch += 1  # Algorithm-2 flush: orphan memoized results
        if self.index is None or not self._maintenance_pending:
            self._maintenance_pending.clear()
            self._updates_since_maintenance = 0
            return 0
        updated = self.index.maintain(sorted(self._maintenance_pending))
        self._maintenance_pending.clear()
        self._updates_since_maintenance = 0
        return updated

    # ------------------------------------------------------------------
    # Serving (thin facade over the compiled execution plan)
    # ------------------------------------------------------------------
    def executor(self):
        """The compiled execution plan serving runs through.

        The plan is derived from the current state and config by
        :meth:`repro.exec.PlanRegistry.for_config` (candidate source from
        the attached index; scoring and the memo stage from ``config``)
        and compiled once; structural changes (``fit``,
        :meth:`attach_index`, :meth:`configure`) drop it for lazy
        recompilation.
        """
        if self._compiled is None:
            from repro.exec import (  # local: avoids cycle
                PLAN_REGISTRY,
                Placement,
                compile_plan,
            )

            # Placement is pinned to local: this facade serves in-process
            # even when its config carries a sharded deployment shape (a
            # snapshot loaded for single-node serving, say) — sharding is
            # the ShardedRecommender's job.
            plan = PLAN_REGISTRY.for_config(
                self.config,
                use_index=self.index is not None,
                placement=Placement.local(),
            )
            self._compiled = compile_plan(plan, self)
        return self._compiled

    def configure(self, **axes) -> "SsRecRecommender":
        """Replace serving fields of ``config`` — ``scoring``, ``dedup``,
        ``result_cache``/``result_cache_size`` and the ``dedup_*``
        parameters, as documented on :class:`SsRecConfig` — on a live
        recommender; the next serve recompiles with a cold memo.  Any
        other field, or an invalid value, raises ``ValueError`` (see
        :func:`repro.exec.configure`).
        """
        from repro.exec import configure  # local: avoids cycle

        return configure(self, **axes)

    def stats(self) -> dict:
        """``{"plan": name, "dedup": counters | None}`` of the compiled
        plan — which registered plan serves, and what its memo stage has
        collapsed, founded and evicted since the last recompile."""
        self._require_fitted()
        return self.executor().stats()

    def obs_registry(self):
        """The compiled plan's telemetry (the memo stage's collapse and
        eviction counters) plus the CPPse-index's pruning and maintenance
        counters, as a
        :class:`~repro.obs.metrics.MetricsRegistry` — the same surface
        the sharded facade exposes, so the server's ``metrics`` route and
        ``python -m repro.obs summarize`` work against either."""
        from repro.obs.metrics import MetricsRegistry  # local: keeps core light

        registry = MetricsRegistry()
        if self._compiled is not None:
            registry.merge(self._compiled.obs_registry())
        if self.index is not None:
            registry.merge(self.index.obs_registry())
        return registry

    def recommend(self, item: SocialItem, k: int | None = None) -> list[tuple[int, float]]:
        """Top-``k`` ``(user_id, score)`` for an incoming item (Eq. 3 order).

        ``k=None`` means the configured ``default_k``; an explicit ``k=0``
        is an empty recommendation window and yields an empty list.
        Execution — candidate admission, the Algorithm-2 serve-time flush,
        the memo stage, scoring, selection — is entirely the compiled plan's.
        """
        self._require_fitted()
        return self.executor().run_item(item, k)

    def recommend_batch(
        self, items: Sequence[SocialItem], k: int | None = None
    ) -> list[list[tuple[int, float]]]:
        """Top-``k`` lists for a micro-batch of items, one per input item.

        Result-identical to calling :meth:`recommend` per item on the same
        profile state, but the compiled plan's batch entry amortizes the
        serving cost across the window: one profile sync / maintenance
        flush, shared smoothed columns in scan mode, shared query
        encodings and sigtree descents in index mode.
        """
        self._require_fitted()
        return self.executor().run_batch(items, k)

    # ------------------------------------------------------------------
    # Persistence (delegates to the serving layer's snapshot format)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Snapshots and replicas drop the compiled plan (it holds live
        object references and the in-memory memo); it recompiles lazily
        from ``config`` — cold memo, same plan — on the next serve."""
        state = dict(self.__dict__)
        state["_compiled"] = None
        return state

    def save(self, path) -> None:
        """Write a warm-startable snapshot (see :mod:`repro.serve.snapshot`)."""
        from repro.serve.snapshot import save_snapshot  # local: avoids cycle

        self._require_fitted()
        save_snapshot(self, path)

    @staticmethod
    def load(path) -> "SsRecRecommender":
        """Restore a fitted recommender from a snapshot without retraining."""
        from repro.serve.snapshot import load_recommender  # local: avoids cycle

        return load_recommender(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "index" if self.use_index else "scan"
        return f"SsRecRecommender(fitted={self._fitted}, mode={mode}, users={len(self.profiles)})"
