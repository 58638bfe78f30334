"""Composable serving operators: the stages every compiled plan runs.

A compiled plan is a short list of operators applied to an
:class:`ExecContext` in order.  Each operator wraps existing, tested
machinery — the :class:`~repro.core.matching.VectorizedMatcher`, the
:class:`~repro.index.cppse.CPPseIndex`, the sharded fan-out — rather than
reimplementing it, so a plan instantiation produces bit-identical results
to the hand-wired path it replaced (the conformance harness holds every
plan to that).

The stage vocabulary:

=====================  ==================================================
:class:`CandidateOp`   admit the candidate population and run the
                       freshness prologue (the lazy Algorithm-2 flush for
                       index plans; the full scan needs none — the
                       matcher syncs rows lazily while scoring)
:class:`ScoreOp`       score the admitted candidates
:class:`SelectOp`      rank and cut to the top-``k`` by ``(-score, user_id)``
:class:`FanoutOp`      broadcast the query to every shard (backend-aware)
:class:`MergeOp`       merge per-shard partial lists into the global top-k
:class:`DedupOp`       the one memo stage: collapse duplicate uploads onto
                       one scoring pass around an inner stage list (the
                       ``*-dedup`` plans)
=====================  ==================================================

One deliberate fusion: :class:`CppseKnnOp` is a ScoreOp *and* performs the
selection, because Algorithm 1 interleaves candidate pruning, scoring and
top-k maintenance during the signature-tree descent — splitting them
would mean reimplementing the algorithm instead of wrapping it.  Index
pipelines therefore pair it with the pass-through
:class:`PreRankedSelectOp`.

Every operator implements both entry points (``run_item`` /
``run_batch``), mirroring the per-item and micro-batched code paths of
the machinery it wraps — the two are bit-identical on the same state but
have very different cost profiles.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.datasets.schema import SocialItem
from repro.exec.dedup import DedupGroup, DedupKey, DedupState

RankedList = list[tuple[int, float]]


class ExecContext:
    """Mutable per-request state flowing through one operator pipeline.

    Attributes:
        items: the queried items (length 1 under ``run_item``).
        k: the already-coerced recommendation depth.
        scores: ScoreOp output awaiting selection (shape depends on the
            scoring implementation; None for fused or fan-out pipelines).
        per_shard: FanoutOp output awaiting the merge.
        ranked: final per-item ranked lists (the pipeline's result).
    """

    __slots__ = ("items", "k", "scores", "per_shard", "ranked")

    def __init__(self, items: Sequence[SocialItem], k: int) -> None:
        self.items = list(items)
        self.k = int(k)
        self.scores = None
        self.per_shard = None
        self.ranked: list[RankedList] | None = None


class ServeOp:
    """Base operator: one pipeline stage with both serving entry points."""

    def run_item(self, ctx: ExecContext) -> None:
        raise NotImplementedError

    def run_batch(self, ctx: ExecContext) -> None:
        raise NotImplementedError


def flush_pending_maintenance(owner) -> int:
    """The serve-time Algorithm-2 prologue, stated exactly once.

    Queries between maintenance cycles must not see stale signatures, so
    any pending profile updates are flushed into the owner's index before
    candidates are admitted.  Returns the number of profiles refreshed
    (0 when nothing was pending).
    """
    if owner._maintenance_pending:
        return owner.run_maintenance()
    return 0


# ----------------------------------------------------------------------
# Candidate admission
# ----------------------------------------------------------------------
class CandidateOp(ServeOp):
    """Stage 1: admit candidates and establish serving freshness."""


class FullScanCandidateOp(CandidateOp):
    """Admit every stored user (the exact sequential-scan population).

    No prologue work: the vectorized matcher syncs profile rows lazily
    at scoring time, which is the scan path's freshness discipline.
    """

    def __init__(self, owner) -> None:
        self.owner = owner

    def run_item(self, ctx: ExecContext) -> None:
        pass

    def run_batch(self, ctx: ExecContext) -> None:
        pass


class CppseProbeCandidateOp(CandidateOp):
    """Admit the CPPse-index's probed trees, after the lazy flush.

    The probe itself happens inside Algorithm 1's descent
    (:class:`CppseKnnOp`); this stage owns the freshness prologue so a
    memoized pipeline still flushes on every request — keeping a
    ``*-dedup`` plan's maintenance cadence bit-identical to its anchor.
    """

    def __init__(self, owner) -> None:
        self.owner = owner

    def run_item(self, ctx: ExecContext) -> None:
        flush_pending_maintenance(self.owner)

    def run_batch(self, ctx: ExecContext) -> None:
        flush_pending_maintenance(self.owner)


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------
class ScoreOp(ServeOp):
    """Stage 2: score the admitted candidates."""


class VectorizedScoreOp(ScoreOp):
    """Eq. 3 over all users via the NumPy matcher (scan plans).

    ``run_item`` scores one vector (``score_all``); ``run_batch`` scores
    one ``[n_items, n_users]`` matrix with shared smoothed columns
    (``score_all_batch``) — row ``i`` is bit-identical to the per-item
    call on the same state.
    """

    def __init__(self, owner) -> None:
        self.owner = owner

    def run_item(self, ctx: ExecContext) -> None:
        ctx.scores = self.owner.matcher.score_all(ctx.items[0])

    def run_batch(self, ctx: ExecContext) -> None:
        ctx.scores = self.owner.matcher.score_all_batch(ctx.items)


class OracleScoreOp(ScoreOp):
    """Naive per-(item, user) reference scoring (diagnostic plans).

    Wraps :class:`repro.sim.oracle.OracleMatcher` — the slowest,
    most obviously-correct scorer the repo can state.  Useful as an
    executable specification; never the serving default.
    """

    def __init__(self, owner) -> None:
        from repro.sim.oracle import OracleMatcher  # local: avoids core<->sim cycle

        self.owner = owner
        self.oracle = OracleMatcher(owner.scorer, owner.profiles)

    def run_item(self, ctx: ExecContext) -> None:
        ctx.scores = [self.oracle.score_all(ctx.items[0])]

    def run_batch(self, ctx: ExecContext) -> None:
        ctx.scores = [self.oracle.score_all(item) for item in ctx.items]


class CppseKnnOp(ScoreOp):
    """Algorithm 1: probe, score and select inside the sigtree descent.

    Candidate pruning, leaf scoring and top-k maintenance are interleaved
    by the algorithm itself, so this operator produces *ranked* results
    directly (see the module docstring on fusion); it pairs with
    :class:`PreRankedSelectOp`.
    """

    def __init__(self, owner) -> None:
        self.owner = owner

    def run_item(self, ctx: ExecContext) -> None:
        ctx.ranked = [self.owner.index.knn(ctx.items[0], ctx.k)]

    def run_batch(self, ctx: ExecContext) -> None:
        ctx.ranked = self.owner.index.knn_batch(ctx.items, ctx.k)


class NativeTopKOp(ScoreOp):
    """Fused gather+log+top-k over the matcher arrays (``scan-*-native``).

    Wraps :class:`repro.core.kernels.NativeEngine`: one compiled pass
    replaces the score-matrix materialization *and* the partial sort, so
    like :class:`CppseKnnOp` this stage produces ranked results directly
    and pairs with :class:`PreRankedSelectOp`.  Only compiled into a
    pipeline when :func:`repro.core.kernels.native_ready` holds — the
    fallback is the (bit-identical) vectorized stage pair, decided at
    plan-compile time in :mod:`repro.exec.compile`.
    """

    def __init__(self, owner) -> None:
        from repro.core.kernels import NativeEngine  # local: optional backend

        self.owner = owner
        self.engine = NativeEngine(owner.matcher)

    def run_item(self, ctx: ExecContext) -> None:
        ctx.ranked = [self.engine.top_k(ctx.items[0], ctx.k)]

    def run_batch(self, ctx: ExecContext) -> None:
        ctx.ranked = self.engine.top_k_batch(ctx.items, ctx.k)


class NativeCppseKnnOp(ScoreOp):
    """Fused Algorithm-1 probe+bound+score (``index-*-native``).

    Same probe, pruning bound and merge order as :class:`CppseKnnOp`'s
    ``CPPseIndex.knn``, with the per-tree leaf scoring and top-k
    maintenance fused into one compiled kernel over the matcher rows of
    each probed tree.  Produces ranked results directly; pairs with
    :class:`PreRankedSelectOp`.  The candidate stage upstream
    (:class:`CppseProbeCandidateOp`) still owns the Algorithm-2 flush.
    """

    def __init__(self, owner) -> None:
        from repro.core.kernels import NativeEngine  # local: optional backend

        self.owner = owner
        self.engine = NativeEngine(owner.matcher, owner.index)

    def run_item(self, ctx: ExecContext) -> None:
        ctx.ranked = [self.engine.knn(ctx.items[0], ctx.k)]

    def run_batch(self, ctx: ExecContext) -> None:
        ctx.ranked = self.engine.knn_batch(ctx.items, ctx.k)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
class SelectOp(ServeOp):
    """Stage 3: rank and cut to ``k`` by the ``(-score, user_id)`` order."""


class TopKSelectOp(SelectOp):
    """Exact top-k over the matcher's score vector/matrix (scan plans)."""

    def __init__(self, owner) -> None:
        self.owner = owner

    def run_item(self, ctx: ExecContext) -> None:
        ctx.ranked = [self.owner.matcher.select_top_k(ctx.scores, ctx.k)]

    def run_batch(self, ctx: ExecContext) -> None:
        matcher = self.owner.matcher
        ctx.ranked = [
            matcher.select_top_k(ctx.scores[i], ctx.k) for i in range(len(ctx.items))
        ]


class OracleSelectOp(SelectOp):
    """Global ``(-score, user_id)`` sort of the oracle's score dicts."""

    def run_item(self, ctx: ExecContext) -> None:
        from repro.sim.oracle import OracleMatcher  # local: avoids core<->sim cycle

        ctx.ranked = [OracleMatcher.rank(ctx.scores[0], ctx.k)]

    def run_batch(self, ctx: ExecContext) -> None:
        from repro.sim.oracle import OracleMatcher  # local: avoids core<->sim cycle

        ctx.ranked = [OracleMatcher.rank(scores, ctx.k) for scores in ctx.scores]


class PreRankedSelectOp(SelectOp):
    """Pass-through selection for fused pipelines (index plans): asserts
    the upstream stage already produced final ranked lists."""

    def run_item(self, ctx: ExecContext) -> None:
        self._check(ctx)

    def run_batch(self, ctx: ExecContext) -> None:
        self._check(ctx)

    @staticmethod
    def _check(ctx: ExecContext) -> None:
        if ctx.ranked is None or len(ctx.ranked) != len(ctx.items):
            raise RuntimeError("fused score stage did not produce ranked results")


# ----------------------------------------------------------------------
# Sharded placement
# ----------------------------------------------------------------------
class FanoutOp(ServeOp):
    """Broadcast one query (or window) to every shard of a service.

    The one split is pool-backed vs in-process: under ``process`` and
    ``shmem`` each worker gets one message naming its shard's current
    published epoch (:meth:`~repro.serve.workers.ShardWorkerPool.serve_item`
    / ``serve_batch``); the in-process backends fan out via the service's
    sequential-or-threaded runner.  Per-shard results come back in shard
    order either way, so the merge downstream is deterministic.
    """

    def __init__(self, service) -> None:
        self.service = service

    @staticmethod
    def _warm(service, items) -> None:
        # Warm the parent's expansion memo at this stream position under
        # every backend: the memo is part of the published state, and
        # expansions are memoized at their *first* computation — skipping
        # the warm would let a republished copy recompute an old item's
        # expansion at a later expander state, silently breaking parity.
        for item in items:
            service.scorer.expanded_query(item)

    def run_item(self, ctx: ExecContext) -> None:
        service = self.service
        item, k = ctx.items[0], ctx.k
        self._warm(service, ctx.items)
        if service.pooled:
            from repro.obs.trace import trace_context

            ctx.per_shard = service._ensure_pool().serve_item(
                item, k, trace_ctx=trace_context()
            )
            return
        ctx.per_shard = service._fan_out(
            self._traced(lambda shard: shard.recommend(item, k))
        )

    def run_batch(self, ctx: ExecContext) -> None:
        service = self.service
        items, k = ctx.items, ctx.k
        self._warm(service, items)
        if service.pooled:
            from repro.obs.trace import trace_context

            ctx.per_shard = service._ensure_pool().serve_batch(
                items, k, trace_ctx=trace_context()
            )
            return
        ctx.per_shard = service._fan_out(
            self._traced(lambda shard: shard.recommend_batch(items, k))
        )

    @staticmethod
    def _traced(call):
        """Carry the caller's active trace onto the fan-out threads.

        The threaded backend runs shards on pool threads whose
        thread-local trace state is empty; re-installing the caller's
        trace there lets per-shard spans attach to the request's tree.
        With no active trace this returns ``call`` untouched.
        """
        from repro.obs.trace import current_parent_id, current_trace, use_trace

        trace = current_trace()
        if trace is None:
            return call
        parent_id = current_parent_id()

        def traced_call(shard):
            with use_trace(trace, parent_id):
                return call(shard)

        return traced_call


class MergeOp(ServeOp):
    """Merge per-shard partial top-k lists into the global top-k.

    Wraps :func:`repro.serve.sharding.merge_top_k` (the global
    ``(-score, user_id)`` order); also used directly by the stream
    layer's merge bolt via :meth:`merge`.
    """

    @staticmethod
    def merge(partials: Sequence[RankedList], k: int) -> RankedList:
        from repro.serve.sharding import merge_top_k  # local: keeps exec import-light

        return merge_top_k(partials, k)

    def run_item(self, ctx: ExecContext) -> None:
        ctx.ranked = [self.merge(ctx.per_shard, ctx.k)]

    def run_batch(self, ctx: ExecContext) -> None:
        per_shard = ctx.per_shard
        ctx.ranked = [
            self.merge([ranked_lists[i] for ranked_lists in per_shard], ctx.k)
            for i in range(len(ctx.items))
        ]


# ----------------------------------------------------------------------
# Near-duplicate collapse
# ----------------------------------------------------------------------
class DedupOp(ServeOp):
    """Collapse duplicate uploads onto one scoring pass (``*-dedup``).

    The one memo stage: wraps an inner stage list ahead of its ScoreOp
    and serves a representative's final ranked list to every delivery
    the scorer could not tell apart from it — a redelivered item id,
    the same content under a fresh id and (in approximate mode) mutated
    retries and cross-producer reposts all skip the Eq. 2-4 pass.  The
    two strictness modes and their soundness arguments live in
    :mod:`repro.exec.dedup`.  Sits *after* the candidate/prologue stage,
    so index plans flush pending Algorithm-2 maintenance on every
    request — hit or miss — exactly like their anchors.

    Exact mode resolves every item's expanded query through the owner's
    scorer to build its key.  On sharded owners that doubles as the
    pre-fan-out expansion warm :class:`FanoutOp` performs (the memo is
    populated at the same stream position either way), and it is the
    reason dedup sits *above* the fan-out: one collapse saves the scoring
    pass on every shard at once.

    ``run_batch`` collapses within the window as well: members of a group
    founded earlier in the same window are resolved from the founder's
    freshly computed list, preserving first-occurrence compute order.
    """

    def __init__(self, state: DedupState, owner, inner: Sequence[ServeOp]) -> None:
        self.state = state
        self.owner = owner
        self.inner = list(inner)

    def _exact_key(self, item: SocialItem, k: int) -> DedupKey:
        return self.state.exact_key(
            item, self.owner.scorer.expanded_query(item), k, self.owner.exec_epoch
        )

    def run_item(self, ctx: ExecContext) -> None:
        if self.state.mode == "exact":
            key = self._exact_key(ctx.items[0], ctx.k)
            hit = self.state.lookup_exact(key)
            if hit is not None:
                ctx.ranked = [hit]
                return
            for op in self.inner:
                op.run_item(ctx)
            self.state.store_exact(key, ctx.ranked[0])
            return
        self.state.sync_epoch(self.owner.exec_epoch)
        group, collapsed = self.state.group_for(ctx.items[0], ctx.k)
        if collapsed and group.ranked is not None:
            ctx.ranked = [list(group.ranked)]
            return
        for op in self.inner:
            op.run_item(ctx)
        group.ranked = list(ctx.ranked[0])

    def run_batch(self, ctx: ExecContext) -> None:
        if self.state.mode == "exact":
            self._run_batch_exact(ctx)
        else:
            self._run_batch_approx(ctx)

    def _run_batch_exact(self, ctx: ExecContext) -> None:
        keys = [self._exact_key(item, ctx.k) for item in ctx.items]
        results: list[RankedList | None] = [None] * len(ctx.items)
        miss_positions: list[int] = []
        missing_keys: set[DedupKey] = set()
        for position, key in enumerate(keys):
            if key in missing_keys:
                continue  # in-window duplicate content: resolved below
            hit = self.state.lookup_exact(key)
            if hit is not None:
                results[position] = hit
            else:
                miss_positions.append(position)
                missing_keys.add(key)
        computed: dict[DedupKey, RankedList] = {}
        if miss_positions:
            sub = ExecContext([ctx.items[i] for i in miss_positions], ctx.k)
            for op in self.inner:
                op.run_batch(sub)
            assert sub.ranked is not None
            for position, ranked in zip(miss_positions, sub.ranked):
                self.state.store_exact(keys[position], ranked)
                computed[keys[position]] = ranked
                results[position] = ranked
        for position, key in enumerate(keys):
            if results[position] is None:
                entry = self.state.lookup_exact(key)
                if entry is None:  # evicted within the window (tiny memo)
                    entry = list(computed[key])
                results[position] = entry
        ctx.ranked = results

    def _run_batch_approx(self, ctx: ExecContext) -> None:
        self.state.sync_epoch(self.owner.exec_epoch)
        results: list[RankedList | None] = [None] * len(ctx.items)
        miss_positions: list[int] = []
        founders: list[DedupGroup] = []
        pending: list[tuple[int, DedupGroup]] = []
        for position, item in enumerate(ctx.items):
            group, collapsed = self.state.group_for(item, ctx.k)
            if collapsed:
                if group.ranked is not None:
                    results[position] = list(group.ranked)
                else:  # collapsed onto an in-window founder, still pending
                    pending.append((position, group))
            else:
                miss_positions.append(position)
                founders.append(group)
        if miss_positions:
            sub = ExecContext([ctx.items[i] for i in miss_positions], ctx.k)
            for op in self.inner:
                op.run_batch(sub)
            assert sub.ranked is not None
            for group, ranked in zip(founders, sub.ranked):
                group.ranked = list(ranked)
            for position, ranked in zip(miss_positions, sub.ranked):
                results[position] = ranked
        for position, group in pending:
            assert group.ranked is not None
            results[position] = list(group.ranked)
        ctx.ranked = results
