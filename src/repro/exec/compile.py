"""Plan compilation: bind an :class:`~repro.exec.plan.ExecPlan` to live state.

``compile_plan(plan, owner)`` turns a declarative plan into a
:class:`CompiledPlan` — the operator pipeline the facades actually serve
through.  The ``owner`` is the state holder the operators wrap:

- local plans bind to a fitted :class:`~repro.core.ssrec.SsRecRecommender`
  (its ``matcher``, ``index``, pending-maintenance set and mutation
  epoch);
- sharded plans bind to a :class:`~repro.serve.service.ShardedRecommender`
  (its shards, fan-out backend and mutation epoch).

The shared request prologue — ``k`` coercion (None means the config's
``default_k``; an explicit ``k=0`` stays an empty window) and the
empty-batch short-circuit — lives here, once, instead of once per facade
method.  So does the one tuning verb both facades expose:
:func:`configure` replaces serving fields of the owner's ``config`` and
drops its compiled plan, and :meth:`CompiledPlan.stats` is what their
``stats()`` returns.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.core.config import SsRecConfig
from repro.datasets.schema import SocialItem
from repro.exec.dedup import DedupState
from repro.obs.hooks import active_hooks
from repro.exec.ops import (
    CppseKnnOp,
    CppseProbeCandidateOp,
    DedupOp,
    ExecContext,
    FanoutOp,
    FullScanCandidateOp,
    MergeOp,
    NativeCppseKnnOp,
    NativeTopKOp,
    OracleScoreOp,
    OracleSelectOp,
    PreRankedSelectOp,
    ServeOp,
    TopKSelectOp,
    VectorizedScoreOp,
)
from repro.exec.plan import ExecPlan

RankedList = list[tuple[int, float]]

#: The ``SsRecConfig`` fields :func:`configure` may replace on a fitted
#: facade: the ones only the compiled plan reads.  Everything else is
#: baked into trained state (profiles, index, shard layout) at fit time.
SERVING_AXES = (
    "scoring",
    "dedup",
    "result_cache",
    "result_cache_size",
    "dedup_threshold",
    "dedup_bands",
    "dedup_rows",
)


def coerce_k(k: int | None, config: SsRecConfig) -> int:
    """The one ``k`` rule every recommend entry point shares:
    ``None`` means the configured ``default_k``; an explicit ``k=0`` is
    an empty recommendation window (and stays 0)."""
    return config.default_k if k is None else int(k)


def configure(owner, **axes):
    """Replace serving fields of ``owner.config`` and drop its compiled
    plan, so the next serve recompiles (with a cold memo) against the
    new axes.  The one tuning verb of both facades.

    Only :data:`SERVING_AXES` may change after ``fit``; any other name
    is a ``ValueError``, and values are validated by
    ``SsRecConfig.__post_init__``.  ``owner.config`` stays the single
    record of how the owner serves — snapshots, replicas and
    :meth:`~repro.exec.plan.PlanRegistry.for_config` all read it.
    """
    unknown = sorted(set(axes) - set(SERVING_AXES))
    if unknown:
        raise ValueError(
            f"configure() takes serving fields only ({', '.join(SERVING_AXES)}); "
            f"got {', '.join(unknown)}"
        )
    owner.config = owner.config.with_options(**axes)
    owner._compiled = None
    return owner


def run_requests(
    run_batch: Callable[[Sequence[SocialItem], int | None], list[RankedList]],
    requests: Sequence[tuple[SocialItem, int | None]],
) -> list[RankedList]:
    """Serve one *coalesced* micro-batch of independent requests.

    This is the seam the network coalescer
    (:class:`repro.serve.server.RecommenderServer`) executes through:
    concurrently arriving ``(item, k)`` requests — possibly with
    different ``k`` — are grouped by ``k`` and each group runs through
    ``run_batch``, so the amortized window costs apply to traffic that
    never asked to be a batch.  Results come back in request order and
    are bit-identical to serving each request alone (the batch entry's
    exactness guarantee).
    """
    requests = list(requests)
    groups: dict[int | None, list[int]] = {}
    for position, (_, k) in enumerate(requests):
        groups.setdefault(k, []).append(position)
    out: list[RankedList | None] = [None] * len(requests)
    for k, positions in groups.items():
        ranked = run_batch([requests[p][0] for p in positions], k)
        for position, result in zip(positions, ranked):
            out[position] = result
    return out  # type: ignore[return-value]


class CompiledPlan:
    """An operator pipeline bound to live state, ready to serve.

    Exposes both entry points regardless of the plan's primary
    ``batching`` axis — per-item and micro-batched serving are
    bit-identical on the same state, only the cost profile differs.

    Attributes:
        plan: the declarative plan this pipeline implements.
        owner: the bound facade (state holder).
        ops: the stage list, applied in order.
        dedup_state: the memo stage's store (None when the plan's
            ``dedup`` axis is ``"off"``).
    """

    def __init__(
        self,
        plan: ExecPlan,
        owner,
        ops: Sequence[ServeOp],
        dedup_state: DedupState | None = None,
    ) -> None:
        self.plan = plan
        self.owner = owner
        self.ops = list(ops)
        self.dedup_state = dedup_state

    def run_item(self, item: SocialItem, k: int | None = None) -> RankedList:
        """Top-``k`` ``(user_id, score)`` for one item."""
        ctx = ExecContext([item], coerce_k(k, self.owner.config))
        hooks = active_hooks()
        if hooks is None:  # nobody watching: keep the original tight loop
            for op in self.ops:
                op.run_item(ctx)
        else:
            plan_name = self.plan.name
            for op in self.ops:
                with hooks.operator(plan_name, type(op).__name__):
                    op.run_item(ctx)
        assert ctx.ranked is not None
        return ctx.ranked[0]

    def run_batch(
        self, items: Sequence[SocialItem], k: int | None = None
    ) -> list[RankedList]:
        """Per-item top-``k`` lists for a micro-batch (empty in, empty out)."""
        items = list(items)
        if not items:
            return []
        ctx = ExecContext(items, coerce_k(k, self.owner.config))
        hooks = active_hooks()
        if hooks is None:  # nobody watching: keep the original tight loop
            for op in self.ops:
                op.run_batch(ctx)
        else:
            plan_name = self.plan.name
            for op in self.ops:
                with hooks.operator(plan_name, type(op).__name__):
                    op.run_batch(ctx)
        assert ctx.ranked is not None
        return ctx.ranked

    def run_requests(
        self, requests: Sequence[tuple[SocialItem, int | None]]
    ) -> list[RankedList]:
        """Mixed-``k`` coalesced serving (see :func:`run_requests`)."""
        return run_requests(self.run_batch, requests)

    def stats(self) -> dict:
        """What the facades' ``stats()`` returns: the serving plan's name
        and the memo stage's counters (None when ``dedup`` is off)."""
        state = self.dedup_state
        return {
            "plan": self.plan.name,
            "dedup": state.stats.as_dict() if state is not None else None,
        }

    def obs_registry(self):
        """This pipeline's stage telemetry as a
        :class:`~repro.obs.metrics.MetricsRegistry`.

        Exposes the memo stage's collapse and eviction counters (plus a
        ``dedup.collapse_rate`` gauge) under the plan's name, so the
        facades' merged registries — and through them the server's
        ``metrics`` route and ``python -m repro.obs summarize`` — report
        memo behavior without a side channel.  ``dedup.evictions`` is the
        footprint signal: representatives crowded out by
        ``result_cache_size``.  Counters snapshot the live stats object; the
        registry is rebuilt per call, so merging it repeatedly into an
        aggregate view cannot double-count.
        """
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        plan_name = self.plan.name
        if self.dedup_state is not None:
            stats = self.dedup_state.stats
            mode = self.plan.dedup
            registry.counter("dedup.collapsed", plan=plan_name, mode=mode).inc(
                stats.collapsed
            )
            registry.counter("dedup.groups", plan=plan_name, mode=mode).inc(
                stats.groups
            )
            registry.counter(
                "dedup.false_merge_checks", plan=plan_name, mode=mode
            ).inc(stats.false_merge_checks)
            registry.counter("dedup.evictions", plan=plan_name, mode=mode).inc(
                stats.evictions
            )
            registry.gauge("dedup.collapse_rate", plan=plan_name, mode=mode).set(
                stats.collapse_rate
            )
        return registry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stages = " -> ".join(type(op).__name__ for op in self.ops)
        return f"CompiledPlan({self.plan.name!r}: {stages})"


def _use_native(plan: ExecPlan) -> bool:
    """Whether a ``scoring="native"`` plan gets the compiled kernels.

    Decided once per plan compilation: when the kernels are unavailable
    (numba missing, ``REPRO_NATIVE=0``, or a failed JIT self-test) the
    fallback is recorded — one-time warning plus the ``native.fallbacks``
    obs counter — and the caller compiles the bit-identical vectorized
    pipeline instead, so a native plan always serves.
    """
    if plan.scoring != "native":
        return False
    from repro.core.kernels import native_ready, record_fallback

    if native_ready():
        return True
    record_fallback(plan.name)
    return False


def compile_plan(plan: ExecPlan, owner) -> CompiledPlan:
    """Build the operator pipeline for ``plan`` over ``owner``'s state.

    Args:
        plan: the declarative plan to compile.
        owner: a fitted local recommender (local plans) or a sharded
            service (sharded plans); validated by duck-typing the
            attributes the operators need.
    """
    if plan.is_sharded:
        if not hasattr(owner, "shards"):
            raise TypeError(
                f"plan {plan.name!r} is sharded but owner {type(owner).__name__} "
                f"has no shards"
            )
        serve: list[ServeOp] = [FanoutOp(owner), MergeOp()]
        prologue: list[ServeOp] = []
    elif plan.scoring == "oracle-reference":
        prologue = [FullScanCandidateOp(owner)]
        serve = [OracleScoreOp(owner), OracleSelectOp()]
    elif plan.uses_index:
        if getattr(owner, "index", None) is None:
            raise TypeError(
                f"plan {plan.name!r} probes the CPPse-index but owner has none "
                f"(fit with use_index=True or call attach_index())"
            )
        prologue = [CppseProbeCandidateOp(owner)]
        if _use_native(plan):
            serve = [NativeCppseKnnOp(owner), PreRankedSelectOp()]
        else:
            serve = [CppseKnnOp(owner), PreRankedSelectOp()]
    else:
        if getattr(owner, "matcher", None) is None:
            raise TypeError(f"owner of plan {plan.name!r} has no matcher (not fitted?)")
        prologue = [FullScanCandidateOp(owner)]
        if _use_native(plan):
            serve = [NativeTopKOp(owner), PreRankedSelectOp()]
        else:
            serve = [VectorizedScoreOp(owner), TopKSelectOp(owner)]

    # The memo stage wraps the serve stages — ahead of scoring, and ahead
    # of the fan-out on sharded plans, so one collapse saves every
    # shard's pass.  Its store is parameterized by the owner's config and
    # sized by ``result_cache_size``.
    dedup: DedupState | None = None
    if plan.dedup != "off":
        config = owner.config
        dedup = DedupState(
            plan.dedup,
            threshold=config.dedup_threshold,
            n_bands=config.dedup_bands,
            n_rows=config.dedup_rows,
            max_groups=config.result_cache_size,
        )
        serve = [DedupOp(dedup, owner, serve)]
    return CompiledPlan(plan, owner, [*prologue, *serve], dedup_state=dedup)


class _RecommenderExecutor:
    """Adapter giving arbitrary recommenders (baselines, shards, test
    doubles) the compiled-plan serving interface."""

    def __init__(self, recommender) -> None:
        self.recommender = recommender

    def run_item(self, item: SocialItem, k: int) -> RankedList:
        return self.recommender.recommend(item, k)

    def run_batch(self, items: Sequence[SocialItem], k: int) -> list[RankedList]:
        batch = getattr(self.recommender, "recommend_batch", None)
        if callable(batch):
            return batch(items, k)
        return [self.recommender.recommend(item, k) for item in items]

    def run_requests(
        self, requests: Sequence[tuple[SocialItem, int | None]]
    ) -> list[RankedList]:
        """Mixed-``k`` coalesced serving (see :func:`run_requests`)."""
        return run_requests(self.run_batch, requests)


def as_executor(recommender):
    """The plan executor for any recommender-shaped object.

    Plan-aware facades (``SsRecRecommender``, ``ShardedRecommender``)
    hand back their compiled plan; anything else merely exposing
    ``recommend``/``recommend_batch`` is adapted, so the stream bolts can
    execute plans without caring what serves them.
    """
    executor = getattr(recommender, "executor", None)
    if callable(executor):
        return executor()
    return _RecommenderExecutor(recommender)
