"""Native-speed scoring kernels: the optional compiled backend of ScoreOp.

The ``scoring: "native"`` execution-plan axis routes serving through the
``@njit(cache=True)`` kernels in this module instead of the NumPy
batch scorer.  The kernels fuse what :class:`~repro.core.matching.
VectorizedMatcher` does in separate passes — the category/producer/entity
gathers, the Dirichlet smoothing, the Eq. 2-4 log/combine and the partial
top-k selection — into single loops over the arrays the matcher already
stacks, so a scan-batch query touches each user row once instead of once
per pipeline stage.  The index path reuses Algorithm 1's probe and bound
machinery (tree location, root upper bounds read off the flat forest, the
``1e-12`` tie-tolerant pruning rule) and replaces the in-block descent
with one fused scoring pass per admitted tree.

**Exactness discipline.**  The kernels replicate the matcher's arithmetic
operation for operation (same smoothing, same floors, same accumulation
order over the expanded query), so native scores may differ from the
vectorized path only at the ULP level: the kernels take scalar ``log``
(libm) per element where NumPy applies its SIMD ``np.log`` over arrays —
the exact divergence already documented between the oracle's ``math.log``
and the matcher's ``np.log`` in :mod:`repro.sim.conformance`.  The
``*-native`` plans are therefore anchored *within the 1e-9 tie
discipline* to their vectorized anchors rather than bit-for-bit
(``ExecPlan.anchor_within_ties``); the index path's tree-level pruning
skips a tree only when its upper bound is below the running k-th best by
more than ``1e-12`` — three orders of magnitude under the judge's
tolerance, so pruning can never cost a within-ties match.

**Optional dependency.**  numba is an extra (``pip install .[native]``),
never a requirement: when it is missing, disabled (``REPRO_NATIVE=0``) or
fails the one-time kernel self-test, ``native_ready()`` answers False and
plan compilation falls back to the vectorized pipeline — bit-identical
serving, one ``RuntimeWarning``, and a fallback counter exposed through
:func:`obs_registry`.  Without numba the ``njit`` decorator below is a
no-op, so every kernel stays callable as plain Python — which is how the
test suite exercises the kernel logic on machines without the extra.
"""

from __future__ import annotations

import heapq
import math
import os
import warnings
from collections.abc import Sequence

import numpy as np

from repro.hmm.utils import PROB_FLOOR

try:  # pragma: no cover - exercised only where the extra is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the fallback decorator below runs
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):  # type: ignore[no-redef]  # numba absent
        """No-op stand-in: kernels remain plain-Python callables."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


# ----------------------------------------------------------------------
# Availability gate, fallback accounting
# ----------------------------------------------------------------------
_ready: bool | None = None
_fallbacks = 0
_warned = False


def _reset_native_state() -> None:
    """Test hook: forget the cached readiness probe and fallback counters."""
    global _ready, _fallbacks, _warned
    _ready = None
    _fallbacks = 0
    _warned = False


def _self_test() -> bool:
    """Compile and sanity-check the kernels on a tiny fixed input.

    Run once per process before the native path is trusted: a numba
    version that fails to compile these kernels (or compiles them wrong)
    must demote to the vectorized fallback, not crash or corrupt serving.
    The reference values are computed with plain NumPy here, compared
    within the conformance tie tolerance.
    """
    n_users, n_items = 3, 2
    long_dist = np.array([[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]])
    short_dist = np.array([[0.4, 0.6], [0.7, 0.3], [0.5, 0.5]])
    producer_counts = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    entity_counts = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 4.0], [2.0, 0.0, 1.0]])
    n_long = np.array([2.0, 3.0, 2.0])
    n_tokens = np.array([3.0, 5.0, 3.0])
    cat = np.array([0, 1], dtype=np.int64)
    prod = np.array([0, 1], dtype=np.int64)
    ent_idx = np.array([0, 2, 1], dtype=np.int64)
    ent_w = np.array([1.0, 0.5, 1.0])
    ent_start = np.array([0, 2, 3], dtype=np.int64)
    mu, lam = 10.0, 0.4
    rows = np.arange(n_users, dtype=np.int64)
    out = np.empty((n_items, n_users))
    for i in range(n_items):
        _fused_scores(
            int(cat[i]), int(prod[i]), ent_idx, ent_w, int(ent_start[i]),
            int(ent_start[i + 1]), rows, producer_counts, entity_counts,
            n_long, n_tokens, long_dist, short_dist, mu, 2, 3, PROB_FLOOR,
            lam, out[i],
        )
        p_long = np.maximum(long_dist[:, cat[i]], PROB_FLOOR)
        p_short = np.maximum(short_dist[:, cat[i]], PROB_FLOOR)
        p_prod = (producer_counts[:, prod[i]] + mu / 2) / (n_long + mu)
        esum = np.zeros(n_users)
        for j in range(ent_start[i], ent_start[i + 1]):
            esum += ent_w[j] * (entity_counts[:, ent_idx[j]] + mu / 3) / (n_tokens + mu)
        r_long = (
            np.log(p_long)
            + np.log(np.maximum(p_prod, PROB_FLOOR))
            + np.log(np.maximum(esum, PROB_FLOOR))
        )
        want = (1.0 - lam) * r_long + lam * np.log(p_short)
        if not np.allclose(out[i], want, rtol=0.0, atol=1e-9):
            return False
    user_ids = np.array([7, 3, 9], dtype=np.int64)
    out_idx = np.empty(2, dtype=np.int64)
    count = _topk_select(out[0], user_ids, 2, out_idx)
    order = sorted(range(n_users), key=lambda r: (-out[0][r], user_ids[r]))
    if count != 2 or list(out_idx[:2]) != order[:2]:
        return False
    scratch = np.empty(n_users)
    count = _fused_topk(
        int(cat[0]), int(prod[0]), ent_idx, ent_w, 0, int(ent_start[1]), rows,
        user_ids, producer_counts, entity_counts, n_long, n_tokens, long_dist,
        short_dist, mu, 2, 3, PROB_FLOOR, lam, 2, scratch, out_idx,
    )
    return count == 2 and list(out_idx[:2]) == order[:2]


def native_ready() -> bool:
    """Whether the compiled kernels are available and trusted.

    False when numba is not installed, when ``REPRO_NATIVE=0`` disables
    the backend, or when the one-time self-test failed.  The probe result
    is cached per process (the self-test pays the JIT compile).
    """
    global _ready
    if os.environ.get("REPRO_NATIVE", "") == "0":
        return False
    if _ready is None:
        if not NUMBA_AVAILABLE:
            _ready = False
        else:
            try:
                _ready = bool(_self_test())
            except Exception:  # pragma: no cover - depends on numba install
                _ready = False
            if not _ready:  # pragma: no cover - depends on numba install
                warnings.warn(
                    "numba is installed but the native scoring kernels failed "
                    "their self-test; serving falls back to the vectorized path",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return _ready


def record_fallback(plan_name: str) -> None:
    """Count one native->vectorized fallback; warn on the first only."""
    global _fallbacks, _warned
    _fallbacks += 1
    if not _warned:
        _warned = True
        warnings.warn(
            f"plan {plan_name!r} requested native scoring but the compiled "
            f"kernels are unavailable (numba missing, REPRO_NATIVE=0, or a "
            f"failed self-test); serving through the bit-identical "
            f"vectorized path instead",
            RuntimeWarning,
            stacklevel=3,
        )


def fallback_count() -> int:
    """Native plans served through the vectorized fallback this process."""
    return _fallbacks


def obs_registry():
    """Kernel-backend telemetry as a mergeable
    :class:`~repro.obs.metrics.MetricsRegistry` (same pattern as the
    shard/server registries): whether the native path is live and how
    many native plans fell back to vectorized serving."""
    from repro.obs.metrics import MetricsRegistry  # local: keeps core import-light

    registry = MetricsRegistry()
    registry.gauge("native.ready").set(1.0 if native_ready() else 0.0)
    registry.counter("native.fallbacks").inc(_fallbacks)
    return registry


# ----------------------------------------------------------------------
# Kernels (njit where numba is present, plain Python otherwise)
# ----------------------------------------------------------------------
@njit(cache=True)
def _fused_scores(
    category,
    producer,
    ent_idx,
    ent_w,
    ent_lo,
    ent_hi,
    rows,
    producer_counts,
    entity_counts,
    n_long,
    n_tokens,
    long_dist,
    short_dist,
    mu,
    n_producers,
    n_entities,
    floor,
    lam,
    out,
):  # pragma: no cover - measured via drivers; compiled body uncounted
    """Eq. 2-4 for one item over the user rows in ``rows``, fused.

    One pass per row: gather the category/producer/entity state, smooth,
    floor, log, combine — the same arithmetic as
    ``VectorizedMatcher.score_components`` in the same order, with scalar
    ``log`` standing in for ``np.log`` (ULP-level divergence only; see
    the module docstring).  ``out[j]`` receives the score of
    ``rows[j]``.  Only in-universe symbols reach this kernel — the
    drivers route items touching out-of-universe overflow symbols through
    the matcher instead.
    """
    prod_prior = mu / n_producers
    ent_prior = mu / n_entities
    for j in range(rows.shape[0]):
        u = rows[j]
        p_long = long_dist[u, category]
        if p_long < floor:
            p_long = floor
        p_short = short_dist[u, category]
        if p_short < floor:
            p_short = floor
        p_prod = (producer_counts[u, producer] + prod_prior) / (n_long[u] + mu)
        if p_prod < floor:
            p_prod = floor
        ent_sum = 0.0
        inv_tokens = 1.0 / (n_tokens[u] + mu)
        for t in range(ent_lo, ent_hi):
            ent_sum += ent_w[t] * ((entity_counts[u, ent_idx[t]] + ent_prior) * inv_tokens)
        if ent_sum < floor:
            ent_sum = floor
        r_long = math.log(p_long) + math.log(p_prod) + math.log(ent_sum)
        out[j] = (1.0 - lam) * r_long + lam * math.log(p_short)
    return 0


@njit(cache=True)
def _worse(scores, user_ids, a, b):  # pragma: no cover - see _fused_scores
    """True when candidate ``a`` ranks strictly below ``b`` in the
    ``(-score, user_id)`` order (user ids are unique, so no third key)."""
    if scores[a] != scores[b]:
        return scores[a] < scores[b]
    return user_ids[a] > user_ids[b]


@njit(cache=True)
def _topk_select(scores, user_ids, k, out_idx):  # pragma: no cover - see above
    """Partial top-k by ``(-score, user_id)`` without sorting the rest.

    A bounded min-heap on rank badness holds the best ``k`` candidates
    seen; the final extraction writes candidate indices into ``out_idx``
    best-first.  Returns the number of entries written
    (``min(k, len(scores))``).  Equivalent to the matcher's
    partition+lexsort selection, fused into the scoring pass's dtype.
    """
    n = scores.shape[0]
    m = k if k < n else n
    if m <= 0:
        return 0
    heap = np.empty(m, dtype=np.int64)
    size = 0
    for i in range(n):
        if size < m:
            heap[size] = i
            child = size
            size += 1
            while child > 0:  # sift up: worst candidate at the root
                parent = (child - 1) // 2
                if _worse(scores, user_ids, heap[child], heap[parent]):
                    heap[child], heap[parent] = heap[parent], heap[child]
                    child = parent
                else:
                    break
        elif _worse(scores, user_ids, heap[0], i):
            heap[0] = i
            parent = 0
            while True:  # sift down
                left = 2 * parent + 1
                if left >= size:
                    break
                worst = left
                right = left + 1
                if right < size and _worse(scores, user_ids, heap[right], heap[left]):
                    worst = right
                if _worse(scores, user_ids, heap[worst], heap[parent]):
                    heap[parent], heap[worst] = heap[worst], heap[parent]
                    parent = worst
                else:
                    break
    for pos in range(size - 1, -1, -1):  # pop worst-first, fill from the back
        out_idx[pos] = heap[0]
        size -= 1
        heap[0] = heap[size]
        parent = 0
        while True:
            left = 2 * parent + 1
            if left >= size:
                break
            worst = left
            right = left + 1
            if right < size and _worse(scores, user_ids, heap[right], heap[left]):
                worst = right
            if _worse(scores, user_ids, heap[worst], heap[parent]):
                heap[parent], heap[worst] = heap[worst], heap[parent]
                parent = worst
            else:
                break
    return m


@njit(cache=True)
def _fused_topk(
    category,
    producer,
    ent_idx,
    ent_w,
    ent_lo,
    ent_hi,
    rows,
    row_uids,
    producer_counts,
    entity_counts,
    n_long,
    n_tokens,
    long_dist,
    short_dist,
    mu,
    n_producers,
    n_entities,
    floor,
    lam,
    k,
    scratch,
    out_idx,
):  # pragma: no cover - see _fused_scores
    """Score ``rows`` for one item and select its top-k, in one call.

    ``row_uids[j]`` is the user id of ``rows[j]`` — ties must break on
    user id, never on the matcher's internal row order.  ``scratch`` is a
    caller-provided ``>= len(rows)`` float64 buffer (reused across the
    items of a batch so the kernel allocates nothing).  Returns the
    number of selected entries; ``out_idx`` receives positions *into
    rows*, best-first.
    """
    _fused_scores(
        category, producer, ent_idx, ent_w, ent_lo, ent_hi, rows,
        producer_counts, entity_counts, n_long, n_tokens, long_dist,
        short_dist, mu, n_producers, n_entities, floor, lam, scratch,
    )
    return _topk_select(scratch[: rows.shape[0]], row_uids, k, out_idx)


# ----------------------------------------------------------------------
# Drivers: the Python surface the native operators call
# ----------------------------------------------------------------------
class NativeEngine:
    """Fused-kernel serving over a matcher's stacked arrays.

    Wraps one :class:`~repro.core.matching.VectorizedMatcher` (and, for
    the index path, its owner's :class:`~repro.index.cppse.CPPseIndex`)
    and answers the same ``top_k`` / ``top_k_batch`` / ``knn`` /
    ``knn_batch`` contracts as the machinery it accelerates — same tie
    order, same ``k`` edge cases, scores within the documented ULP
    envelope.  Holds only references (no jitted state), so engines
    survive ``deepcopy``/pickle along with their owners and are rebuilt
    lazily wherever that is cheaper.
    """

    def __init__(self, matcher, index=None) -> None:
        self.matcher = matcher
        self.index = index
        self.scorer = matcher.scorer
        self._lam = float(self.scorer.config.lambda_s)
        self._mu = float(self.scorer.config.dirichlet_mu)
        self._rows_cache: dict = {}  # block id -> (matcher rows, user ids)
        self._rows_version = -1

    # -- shared plumbing ------------------------------------------------
    def _query_arrays(self, item):
        """``(ent_idx, ent_w, in_universe)`` of one item's expanded query.

        ``in_universe`` is False when the item's producer or any query
        entity lies outside the trained universe — those symbols live in
        the matcher's sparse overflow store, which the dense kernels do
        not read, so the drivers score such items through the matcher
        (still exact; out-of-universe symbols only appear for content
        first seen mid-stream).
        """
        weighted = self.scorer.expanded_query(item)
        n_entities = self.scorer.n_entities
        in_universe = 0 <= int(item.producer) < self.scorer.n_producers and all(
            0 <= e < n_entities for e, _ in weighted
        )
        ent_idx = np.fromiter((e for e, _ in weighted), dtype=np.int64, count=len(weighted))
        ent_w = np.fromiter((w for _, w in weighted), dtype=np.float64, count=len(weighted))
        return ent_idx, ent_w, in_universe

    def _state(self):
        """The synced dense matcher state the kernels read."""
        matcher = self.matcher
        matcher.sync()
        arrays = matcher.state_arrays()
        return matcher.user_id_array(), arrays

    def _rank_rows(self, scores, row_uids, out_idx, count):
        return [(int(row_uids[out_idx[j]]), float(scores[out_idx[j]])) for j in range(count)]

    # -- full-scan path -------------------------------------------------
    def top_k(self, item, k: int) -> list[tuple[int, float]]:
        """Native ``matcher.top_k``: fused scan scoring + selection."""
        return self.top_k_batch([item], k)[0]

    def top_k_batch(self, items: Sequence, k: int) -> list[list[tuple[int, float]]]:
        """Native ``matcher.top_k_batch`` over one micro-batch."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        items = list(items)
        user_ids, arrays = self._state()
        n = user_ids.shape[0]
        if k == 0 or n == 0 or not items:
            return [[] for _ in items]
        rows = np.arange(n, dtype=np.int64)
        scratch = np.empty(n, dtype=np.float64)
        out_idx = np.empty(min(k, n), dtype=np.int64)
        results: list[list[tuple[int, float]]] = []
        for item in items:
            ent_idx, ent_w, in_universe = self._query_arrays(item)
            if not in_universe:
                # Overflow symbols: score through the matcher (exact), keep
                # the kernel selection so tie order stays uniform.
                scores = self.matcher.score_all(item)
                count = _topk_select(scores, user_ids, min(k, n), out_idx)
                results.append(self._rank_rows(scores, user_ids, out_idx, count))
                continue
            count = _fused_topk(
                int(item.category), int(item.producer), ent_idx, ent_w, 0,
                ent_idx.shape[0], rows, user_ids, arrays["producer_counts"],
                arrays["entity_counts"], arrays["n_long"], arrays["n_tokens"],
                arrays["long_dist"], arrays["short_dist"], self._mu,
                self.scorer.n_producers, self.scorer.n_entities, PROB_FLOOR,
                self._lam, min(k, n), scratch, out_idx,
            )
            results.append(self._rank_rows(scratch, user_ids, out_idx, count))
        return results

    # -- CPPse-index path (Algorithm 1, tree-fused) ---------------------
    def knn(self, item, k: int) -> list[tuple[int, float]]:
        """Native ``index.knn``: probe + bound as Algorithm 1, with one
        fused scoring pass per admitted tree instead of the in-block
        descent."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        return self._knn_search(item, k)

    def knn_batch(self, items: Sequence, k: int) -> list[list[tuple[int, float]]]:
        """Native ``index.knn_batch``: same pseudo-query dedup as the
        Python path (grouped by ``(category, producer, E u E')``), one
        fused search per distinct query."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        items = list(items)
        results: list[list[tuple[int, float]]] = [[] for _ in items]
        if k == 0 or not items:
            return results
        groups: dict[tuple, list[int]] = {}
        for position, item in enumerate(items):
            weighted = self.scorer.expanded_query(item)
            query_key = (item.category, item.producer, tuple(weighted))
            groups.setdefault(query_key, []).append(position)
        for positions in groups.values():
            ranked = self._knn_search(items[positions[0]], k)
            for position in positions:
                results[position] = list(ranked)
        return results

    def _block_rows(self, forest):
        """Matcher rows + user ids of one block's members, cached until the
        index's next maintenance flush moves them."""
        index = self.index
        if self._rows_version != index.version:
            self._rows_cache, self._rows_version = {}, index.version
        cached = self._rows_cache.get(forest.block_id)
        if cached is None:
            uids = np.sort(forest.member_ids())
            row_of = self.matcher._row_of
            rows = np.fromiter((row_of[u] for u in uids.tolist()), dtype=np.int64, count=uids.size)
            cached = self._rows_cache[forest.block_id] = (rows, uids)
        return cached

    def _knn_search(self, item, k: int) -> list[tuple[int, float]]:
        from repro.index.cppse import _TIE_EPS
        from repro.index.signature import QueryBatch, QuerySignature

        lam = self._lam
        weighted = self.scorer.expanded_query(item)
        trees = self.index.locate_trees(item)
        if not trees:
            return []
        user_ids, arrays = self._state()
        ent_idx, ent_w, in_universe = self._query_arrays(item)
        # Probe + bound exactly as Algorithm 1: per-tree root upper bounds
        # (Def. 2) put the most promising trees first, and a tree whose
        # bound cannot beat the running k-th best within the 1e-12 tie
        # tolerance is pruned whole (Lemmas 1-2: no false dismissals).
        bounded = []
        for block_id, tree in sorted(trees.items()):
            query = QuerySignature.encode(item, weighted, tree.forest.universe, block_id)
            bounded.append((tree.forest.root_bound(QueryBatch.pack([query]), lam), block_id, tree))
        bounded.sort(key=lambda entry: (-entry[0], entry[1]))
        # Running result heap: min-heap on (score, -user_id); its root is
        # the pruning bound once full.
        result: list[tuple[float, int]] = []
        scratch: np.ndarray | None = None
        out_idx = np.empty(k, dtype=np.int64)
        for bound, _, tree in bounded:
            if len(result) >= k and bound < result[0][0] - _TIE_EPS:
                break  # bounds are sorted: nothing later can qualify
            rows, row_uids = self._block_rows(tree.forest)
            if rows.shape[0] == 0:
                continue
            if scratch is None or scratch.shape[0] < rows.shape[0]:
                scratch = np.empty(rows.shape[0], dtype=np.float64)
            if in_universe:
                count = _fused_topk(
                    int(item.category), int(item.producer), ent_idx, ent_w, 0,
                    ent_idx.shape[0], rows, row_uids, arrays["producer_counts"],
                    arrays["entity_counts"], arrays["n_long"], arrays["n_tokens"],
                    arrays["long_dist"], arrays["short_dist"], self._mu,
                    self.scorer.n_producers, self.scorer.n_entities, PROB_FLOOR,
                    lam, min(k, rows.shape[0]), scratch, out_idx,
                )
                tree_scores = scratch
            else:
                tree_scores = self.matcher.score_all(item)[rows]
                count = _topk_select(tree_scores, row_uids, min(k, rows.shape[0]), out_idx)
            for j in range(count):
                sel = out_idx[j]
                key = (float(tree_scores[sel]), -int(row_uids[sel]))
                if len(result) < k:
                    heapq.heappush(result, key)
                elif key > result[0]:
                    heapq.heapreplace(result, key)
        ranked = sorted(result, key=lambda su: (-su[0], -su[1]))
        return [(-neg_uid, score) for score, neg_uid in ranked]
