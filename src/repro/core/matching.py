"""Entity-based item-user matching: Equations 1-4 of the paper.

The relevance of item ``v = <c, u^p, E>`` to consumer ``u^c`` is::

    R_l(v, u^c) = log p(c|u^c) + log p^(u^p|u^c) + log sum_{e in E u E'} w_e * p^(e|u^c)   (Eq. 2)
    R_s(v, u^c) = log p_s(c|u^c)                                                          (Eq. 4)
    R(v, u^c)   = (1 - lambda_s) * R_l + lambda_s * R_s                                   (Eq. 3)

with ``p(c|u^c)`` / ``p_s(c|u^c)`` from the BiHMM, ``p^`` Dirichlet-smoothed
MLE over the long-term list ("To prevent the zero probability, we apply the
Dirichlet smoothing technique to both producer and entities"), and ``E'``
the proximity-expansion set with weights ``w_e`` (original entities weigh
1, repetitions counted — Example 1).

Two scorer implementations share the exact same arithmetic:

- :class:`MatchingScorer` — per-(item, user) reference implementation; the
  CPPse-index leaf scoring must agree with it bit-for-bit, which the tests
  assert.
- :class:`VectorizedMatcher` — NumPy batch scorer over all users at once,
  used by the naive-scan recommender and by the evaluation harness's
  lambda-sweep (R_l and R_s are returned separately so Eq. 3 can be
  recombined for free).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.config import SsRecConfig
from repro.core.interest import InterestPredictor
from repro.core.profiles import ProfileStore, UserProfile
from repro.datasets.schema import SocialItem
from repro.entities.expansion import EntityExpander
from repro.hmm.utils import PROB_FLOOR


@dataclass(frozen=True)
class ScoreParts:
    """The four probabilities entering Eq. 2-4, before log/combination.

    Keeping the parts separate lets callers sweep ``lambda_s`` without
    rescoring (Fig. 7) and lets the index prove its upper bound per part.
    """

    p_long_category: float
    p_producer: float
    entity_sum: float
    p_short_category: float

    def long_score(self) -> float:
        """R_l of Eq. 2 (log-space)."""
        return (
            math.log(max(self.p_long_category, PROB_FLOOR))
            + math.log(max(self.p_producer, PROB_FLOOR))
            + math.log(max(self.entity_sum, PROB_FLOOR))
        )

    def short_score(self) -> float:
        """R_s of Eq. 4 (log-space)."""
        return math.log(max(self.p_short_category, PROB_FLOOR))

    def combine(self, lambda_s: float) -> float:
        """R of Eq. 3."""
        return (1.0 - lambda_s) * self.long_score() + lambda_s * self.short_score()


class MatchingScorer:
    """Reference per-pair scorer for Eq. 1-4.

    Args:
        interest: the BiHMM-backed predictor supplying ``p(c|u^c)``.
        expander: entity expander; ignored when ``config.use_expansion`` is
            off (the ssRec-ne ablation).
        config: ssRec tunables (lambda_s, Dirichlet mass, expansion).
        n_producers: global producer vocabulary size (background model of
            the producer smoothing).
        n_entities: global entity vocabulary size (background model of the
            entity smoothing).
    """

    def __init__(
        self,
        interest: InterestPredictor,
        expander: EntityExpander | None,
        config: SsRecConfig,
        n_producers: int,
        n_entities: int,
    ) -> None:
        if n_producers < 1:
            raise ValueError(f"n_producers must be >= 1, got {n_producers}")
        if n_entities < 1:
            raise ValueError(f"n_entities must be >= 1, got {n_entities}")
        self.interest = interest
        self.expander = expander
        self.config = config
        self.n_producers = int(n_producers)
        self.n_entities = int(n_entities)
        self._query_cache: dict[int, tuple[tuple[int, float], ...]] = {}

    # ------------------------------------------------------------------
    # Query construction
    # ------------------------------------------------------------------
    def expanded_query(self, item: SocialItem) -> tuple[tuple[int, float], ...]:
        """``(entity_id, weight)`` pairs of ``E u E'``.

        Original entities carry weight 1 and keep their multiplicity;
        expansion entities carry their proximity weight (Sec. IV-B).
        Frozen per item id as one tuple — queries are immutable, and the
        serving memo (:mod:`repro.exec.dedup`) keys on the tuple as is.
        """
        cached = self._query_cache.get(item.item_id)
        if cached is not None:
            return cached
        pairs: list[tuple[int, float]] = [(int(e), 1.0) for e in item.entities]
        if self.expander is not None and self.config.use_expansion:
            for expansion in self.expander.expand_set(item.category, item.entities):
                pairs.append((expansion.entity_id, expansion.weight))
        query = self._query_cache[item.item_id] = tuple(pairs)
        return query

    # ------------------------------------------------------------------
    # Smoothed MLE estimates (Sec. IV-C)
    # ------------------------------------------------------------------
    def producer_probability(self, profile: UserProfile, producer: int) -> float:
        """Dirichlet-smoothed ``p^(u^p | u^c)`` over the long-term list."""
        mu = self.config.dirichlet_mu
        count = profile.producer_counts.get(int(producer), 0)
        return (count + mu / self.n_producers) / (profile.n_long_events + mu)

    def entity_probability(self, profile: UserProfile, entity: int) -> float:
        """Dirichlet-smoothed ``p^(e | u^c)`` over the long-term list."""
        mu = self.config.dirichlet_mu
        count = profile.entity_counts.get(int(entity), 0)
        return (count + mu / self.n_entities) / (profile.n_entity_tokens + mu)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_parts(self, item: SocialItem, profile: UserProfile) -> ScoreParts:
        """The Eq. 2-4 probability parts for one (item, user) pair."""
        entity_sum = 0.0
        for entity_id, weight in self.expanded_query(item):
            entity_sum += weight * self.entity_probability(profile, entity_id)
        return ScoreParts(
            p_long_category=self.interest.long_term_probability(profile, item.category),
            p_producer=self.producer_probability(profile, item.producer),
            entity_sum=entity_sum,
            p_short_category=self.interest.short_term_probability(profile, item.category),
        )

    def score(self, item: SocialItem, profile: UserProfile) -> float:
        """R(v, u^c) of Eq. 3."""
        return self.score_parts(item, profile).combine(self.config.lambda_s)


class VectorizedMatcher:
    """Batch scorer: R_l and R_s for *all* registered users at once.

    Maintains dense per-user count matrices synchronized lazily with the
    profiles (via their version counters), so one item scores against U
    users in a handful of NumPy gathers.  Produces numbers identical to
    :class:`MatchingScorer` — asserted by tests.

    Args:
        scorer: the reference scorer (shares interest/expander/config).
        profiles: the profile store to mirror.
    """

    def __init__(self, scorer: MatchingScorer, profiles: ProfileStore) -> None:
        self.scorer = scorer
        self.profiles = profiles
        self._user_ids: list[int] = []
        self._user_id_array: np.ndarray | None = None
        self._row_of: dict[int, int] = {}
        self._versions: dict[int, int] = {}
        # Store-version the rows were last synced at; lets sync() answer
        # "nothing changed" in O(1) instead of sweeping every profile's
        # version counter per query (None = never synced).
        self._synced_store_version: int | None = None
        # Column caches for the batched path, valid for one data epoch (any
        # refreshed/added row invalidates them — the underlying count
        # matrices changed).
        self._data_epoch = 0
        self._cols_epoch = -1
        self._producer_col_cache: dict[int, np.ndarray] = {}
        self._entity_col_cache: dict[int, np.ndarray] = {}
        # Sparse overflow counts for symbols outside the trained universe
        # (a producer or entity first seen mid-stream has no dense column;
        # dropping its counts would silently diverge from the reference
        # scorer and the CPPse-index, which both count it).
        self._extra_producer_counts: dict[int, dict[int, float]] = {}
        self._extra_entity_counts: dict[int, dict[int, float]] = {}
        self._capacity = 0
        config = scorer.config
        self._mu = config.dirichlet_mu
        self._producer_counts = np.zeros((0, scorer.n_producers), dtype=np.float64)
        self._entity_counts = np.zeros((0, scorer.n_entities), dtype=np.float64)
        self._n_long = np.zeros(0, dtype=np.float64)
        self._n_tokens = np.zeros(0, dtype=np.float64)
        n_categories = scorer.interest.n_categories
        self._long_dist = np.zeros((0, n_categories), dtype=np.float64)
        self._short_dist = np.zeros((0, n_categories), dtype=np.float64)

    # ------------------------------------------------------------------
    # Row management
    # ------------------------------------------------------------------
    def _grow(self, new_capacity: int) -> None:
        def grown(arr: np.ndarray) -> np.ndarray:
            shape = (new_capacity,) + arr.shape[1:]
            out = np.zeros(shape, dtype=arr.dtype)
            out[: arr.shape[0]] = arr
            return out

        self._producer_counts = grown(self._producer_counts)
        self._entity_counts = grown(self._entity_counts)
        self._n_long = grown(self._n_long)
        self._n_tokens = grown(self._n_tokens)
        self._long_dist = grown(self._long_dist)
        self._short_dist = grown(self._short_dist)
        self._capacity = new_capacity

    def _ensure_row(self, user_id: int) -> int:
        row = self._row_of.get(user_id)
        if row is not None:
            return row
        row = len(self._user_ids)
        if row >= self._capacity:
            self._grow(max(16, self._capacity * 2, row + 1))
        self._user_ids.append(user_id)
        self._user_id_array = None
        self._row_of[user_id] = row
        return row

    def _refresh_row(self, profile: UserProfile) -> None:
        row = self._ensure_row(profile.user_id)
        if self._versions.get(profile.user_id) == profile.version:
            return
        self._producer_counts[row, :] = 0.0
        self._clear_overflow_row(self._extra_producer_counts, row)
        for producer, count in profile.producer_counts.items():
            if 0 <= producer < self.scorer.n_producers:
                self._producer_counts[row, producer] = count
            else:
                self._extra_producer_counts.setdefault(int(producer), {})[row] = count
        self._entity_counts[row, :] = 0.0
        self._clear_overflow_row(self._extra_entity_counts, row)
        for entity, count in profile.entity_counts.items():
            if 0 <= entity < self.scorer.n_entities:
                self._entity_counts[row, entity] = count
            else:
                self._extra_entity_counts.setdefault(int(entity), {})[row] = count
        self._n_long[row] = profile.n_long_events
        self._n_tokens[row] = profile.n_entity_tokens
        self._long_dist[row] = self.scorer.interest.long_term_distribution(profile)
        self._short_dist[row] = self.scorer.interest.short_term_distribution(profile)
        self._versions[profile.user_id] = profile.version
        self._data_epoch += 1

    def sync(self) -> None:
        """Bring every registered profile's row up to date.

        Fast path: when the store's mutation counter is unchanged since
        the last sync, nothing can be stale and the per-profile sweep is
        skipped entirely — per-item serving otherwise pays an O(U)
        version scan on every query.  The contract this rests on: all
        profile mutations route through the :class:`ProfileStore`
        (``record``/``add``/``get_or_create``); out-of-band mutation of a
        profile object must be followed by ``store.touch()``.
        """
        store_version = getattr(self.profiles, "version", None)
        if store_version is not None and store_version == self._synced_store_version:
            return
        for profile in self.profiles:
            self._refresh_row(profile)
        self._synced_store_version = store_version

    @property
    def user_ids(self) -> list[int]:
        """Row order of the score arrays."""
        return list(self._user_ids)

    def user_id_array(self) -> np.ndarray:
        """Row-aligned user ids as one cached integer array.

        Shared by the selection path and the native kernels
        (:mod:`repro.core.kernels`), which break score ties on user id —
        never on the matcher's internal row order.
        """
        if self._user_id_array is None or self._user_id_array.size != len(self._user_ids):
            self._user_id_array = np.asarray(self._user_ids, dtype=np.int64)
        return self._user_id_array

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The dense score-state arrays, by name.

        This is the read-mostly state the shared-memory backend
        (:mod:`repro.serve.shmem`) publishes into segments — the stacked
        per-user count matrices and smoothed interest columns that
        dominate a shard's footprint.  The property tests round-trip
        these through publish/attach and assert bitwise equality; the
        mapping exposes the *live* arrays (no copies), so callers must
        not mutate through it.
        """
        return {
            "producer_counts": self._producer_counts,
            "entity_counts": self._entity_counts,
            "n_long": self._n_long,
            "n_tokens": self._n_tokens,
            "long_dist": self._long_dist,
            "short_dist": self._short_dist,
        }

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _producer_column(self, producer: int) -> np.ndarray:
        """Smoothed ``p^(u^p|u)`` over all user rows for one producer.

        Shared by the per-item and batched paths so both produce
        bit-identical probabilities (the batch path additionally caches
        columns across the items of one batch).  Producers outside the
        trained universe read their counts from the sparse overflow store,
        so mid-stream producers score identically to the reference scorer.
        """
        n = len(self._user_ids)
        mu = self._mu
        if 0 <= producer < self.scorer.n_producers:
            count = self._producer_counts[:n, producer]
        else:
            count = self._overflow_column(self._extra_producer_counts.get(producer), n)
        return (count + mu / self.scorer.n_producers) / (self._n_long[:n] + mu)

    @staticmethod
    def _clear_overflow_row(store: dict[int, dict[int, float]], row: int) -> None:
        """Drop ``row``'s counts from every overflow symbol, deleting
        symbols that empty — the store tracks live counts only, so a
        long-lived server never pays for symbols no current profile holds."""
        emptied = []
        for symbol, overflow in store.items():
            overflow.pop(row, None)
            if not overflow:
                emptied.append(symbol)
        for symbol in emptied:
            del store[symbol]

    @staticmethod
    def _overflow_column(overflow: dict[int, float] | None, n: int) -> np.ndarray:
        """Dense column of one out-of-universe symbol's sparse counts."""
        count = np.zeros(n)
        if overflow:
            for row, value in overflow.items():
                if row < n:
                    count[row] = value
        return count

    def _entity_column(self, entity_id: int) -> np.ndarray:
        """Smoothed ``p^(e|u)`` over all user rows for one entity."""
        n = len(self._user_ids)
        mu = self._mu
        if 0 <= entity_id < self.scorer.n_entities:
            count = self._entity_counts[:n, entity_id]
        else:
            count = self._overflow_column(self._extra_entity_counts.get(entity_id), n)
        return (count + mu / self.scorer.n_entities) / (self._n_tokens[:n] + mu)

    def _pair_parts(
        self,
        item: SocialItem,
        producer_cols: dict[int, np.ndarray] | None = None,
        entity_cols: dict[int, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(p_producer, entity_sum)`` of one item over all user rows,
        assuming rows are already synced.

        ``producer_cols`` / ``entity_cols`` are optional cross-item caches:
        within a micro-batch many items share a producer or query entities,
        so their smoothed columns are computed once and reused.
        """
        n = len(self._user_ids)
        producer = int(item.producer)
        if producer_cols is not None and producer in producer_cols:
            p_producer = producer_cols[producer]
        else:
            p_producer = self._producer_column(producer)
            if producer_cols is not None:
                producer_cols[producer] = p_producer
        entity_sum = np.zeros(n)
        for entity_id, weight in self.scorer.expanded_query(item):
            if entity_cols is not None:
                col = entity_cols.get(entity_id)
                if col is None:
                    col = self._entity_column(entity_id)
                    entity_cols[entity_id] = col
            else:
                col = self._entity_column(entity_id)
            entity_sum += weight * col
        return p_producer, entity_sum

    @staticmethod
    def _combine_parts(
        p_long: np.ndarray,
        p_producer: np.ndarray,
        entity_sum: np.ndarray,
        p_short: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 2/4 in log-space; elementwise, so vectors and matrices both
        work — applying it per row or once on stacked rows is bit-identical."""
        r_long = (
            np.log(p_long)
            + np.log(np.maximum(p_producer, PROB_FLOOR))
            + np.log(np.maximum(entity_sum, PROB_FLOOR))
        )
        r_short = np.log(p_short)
        return r_long, r_short

    def score_components(self, item: SocialItem) -> tuple[np.ndarray, np.ndarray]:
        """``(R_l, R_s)`` arrays over all users (row order: ``user_ids``).

        Callers combine with Eq. 3 at any ``lambda_s``:
        ``R = (1 - lam) * R_l + lam * R_s``.
        """
        self.sync()
        n = len(self._user_ids)
        if n == 0:
            return np.zeros(0), np.zeros(0)
        c = item.category
        p_long = np.maximum(self._long_dist[:n, c], PROB_FLOOR)
        p_short = np.maximum(self._short_dist[:n, c], PROB_FLOOR)
        p_producer, entity_sum = self._pair_parts(item)
        return self._combine_parts(p_long, p_producer, entity_sum, p_short)

    def score_components_batch(
        self, items: Sequence[SocialItem]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(R_l, R_s)`` matrices of shape ``[n_items, n_users]``.

        The batched path amortizes over the whole micro-batch what the
        per-item path pays per call: one profile sync instead of one per
        item, one smoothed producer/entity column per distinct symbol
        instead of one per (item, symbol) occurrence, one gather for all
        category parts, and one log/combine pass over the stacked part
        matrices.  Row ``i`` is bit-identical to
        ``score_components(items[i])`` on the same state.
        """
        self.sync()
        n = len(self._user_ids)
        n_items = len(items)
        if n == 0 or n_items == 0:
            return np.zeros((n_items, n)), np.zeros((n_items, n))
        categories = np.fromiter((item.category for item in items), dtype=np.intp)
        p_long = np.maximum(self._long_dist[:n, categories].T, PROB_FLOOR)
        p_short = np.maximum(self._short_dist[:n, categories].T, PROB_FLOOR)
        if self._cols_epoch != self._data_epoch:
            self._producer_col_cache.clear()
            self._entity_col_cache.clear()
            self._cols_epoch = self._data_epoch
        producer_cols = self._producer_col_cache
        entity_cols = self._entity_col_cache
        p_producer = np.empty((n_items, n), dtype=np.float64)
        entity_sum = np.empty((n_items, n), dtype=np.float64)
        for row, item in enumerate(items):
            p_producer[row], entity_sum[row] = self._pair_parts(
                item, producer_cols, entity_cols
            )
        return self._combine_parts(p_long, p_producer, entity_sum, p_short)

    def score_all(self, item: SocialItem, lambda_s: float | None = None) -> np.ndarray:
        """Eq. 3 scores over all users."""
        lam = self.scorer.config.lambda_s if lambda_s is None else float(lambda_s)
        r_long, r_short = self.score_components(item)
        return (1.0 - lam) * r_long + lam * r_short

    def score_all_batch(
        self, items: Sequence[SocialItem], lambda_s: float | None = None
    ) -> np.ndarray:
        """Eq. 3 score matrix ``[n_items, n_users]`` for a micro-batch."""
        lam = self.scorer.config.lambda_s if lambda_s is None else float(lambda_s)
        r_long, r_short = self.score_components_batch(items)
        return (1.0 - lam) * r_long + lam * r_short

    def _select_top_k(self, scores: np.ndarray, k: int) -> list[tuple[int, float]]:
        """Top-``k`` ``(user_id, score)`` by ``(-score, user_id)`` order.

        For ``k`` well below the population a partial selection narrows the
        candidate set before the exact sort; the threshold keeps every score
        tied with the k-th best, so the result equals a full sort's prefix.
        ``k == 0`` (an empty recommendation window) yields an empty list.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k == 0 or scores.size == 0:
            return []
        k = min(int(k), scores.size)
        user_ids = self.user_id_array()
        if k < scores.size // 2:
            kth_best = np.partition(scores, scores.size - k)[scores.size - k]
            candidates = np.flatnonzero(scores >= kth_best)
            order = candidates[np.lexsort((user_ids[candidates], -scores[candidates]))]
        else:
            order = np.lexsort((user_ids, -scores))
        return [(int(user_ids[i]), float(scores[i])) for i in order[:k]]

    def select_top_k(self, scores: np.ndarray, k: int) -> list[tuple[int, float]]:
        """Public selection entry point for the execution-plan layer
        (:class:`repro.exec.ops.TopKSelectOp`); same contract as
        :meth:`_select_top_k`."""
        return self._select_top_k(scores, k)

    def top_k(self, item: SocialItem, k: int, lambda_s: float | None = None) -> list[tuple[int, float]]:
        """Top-``k`` ``(user_id, score)`` pairs, ties broken by user id."""
        return self._select_top_k(self.score_all(item, lambda_s=lambda_s), k)

    def top_k_batch(
        self, items: Sequence[SocialItem], k: int, lambda_s: float | None = None
    ) -> list[list[tuple[int, float]]]:
        """Per-item top-``k`` lists for a micro-batch (one score matrix).

        Entry ``i`` equals ``top_k(items[i], k)`` evaluated on the same
        profile state — the batch amortizes sync and column construction
        but never changes results.
        """
        score_matrix = self.score_all_batch(items, lambda_s=lambda_s)
        return [self._select_top_k(score_matrix[i], k) for i in range(len(items))]
