"""The sharded serving facade: fan-out, merge, observe, snapshot.

:class:`ShardedRecommender` partitions a trained ssRec model's users into
N :class:`~repro.serve.shard.RecommenderShard` slices and serves queries
by fanning out to every shard (sequentially or on a thread pool) and
merging the per-shard top-k heaps into the global top-k by the
``(-score, user_id)`` order.

**Exactness.** In scan mode every shard scores its users with the shared
trained parameters, so merged results are bit-identical to the single
:class:`SsRecRecommender` under *any* strategy.  In index mode a CPPse
query probes only the trees whose block universe holds a query entity, so
parity additionally requires that shards share the single index's
blocking: the ``"block"`` strategy assigns whole blocks to shards and
rebuilds each shard's slice of the one global clustering
(:func:`~repro.serve.sharding.build_shard_blocks`), making the union of
probed users — and therefore results — identical to the unsharded index
for the planned population, updates and Algorithm-2 maintenance
included.  The ``"hash"`` strategy splits blocks, so each shard clusters
its own slice: still exact within every shard's probed trees (the
paper's no-false-dismissal guarantee), but the probed candidate set may
differ slightly from the single index's.  One boundary applies to index
mode only: a *brand-new* user joining mid-stream is hash-routed to a
shard whose local index assigns it to a shard-local block, while a
single global index would pick the globally most-similar block — the two
placements (and hence the new user's probed-set membership) can differ.
Scan mode scores every stored user, so new users are exact there under
any strategy.  The parity tests and ``bench_shard_scaling`` assert the
exact combinations.

Mutable trained state (the BiHMM producer layer, the entity expander)
stays shared and single-copy: ``observe_item`` advances it once, exactly
as the unsharded facade does.  Interaction updates route to the owning
shard, which runs its own Algorithm-2 maintenance cadence.

**Backends.** ``SsRecConfig.serve_backend`` (or the ``backend`` argument)
selects how the fan-out runs: ``"sequential"`` in the calling thread,
``"thread"`` on a ``ThreadPoolExecutor`` (GIL-bound), or one worker
process per shard from a :class:`~repro.serve.workers.ShardWorkerPool`
— ``"shmem"`` maps each shard's published state zero-copy from a
shared-memory segment, ``"process"`` receives the same bytes over its
request queue.  Results are bit-identical across all backends (asserted
by the conformance suite and ``bench_shard_scaling``); only the cost
profile differs.  Under every backend the *parent's* shards are the
authoritative state: mutations apply to them at zero IPC cost, and
dirty shards are republished (epoch-bumped copy-on-publish) at the next
serve window.

Typical usage::

    service = ShardedRecommender.from_trained(recommender, n_shards=4)
    service.observe_item(item)
    top = service.recommend(item, k=30)
    service.save("snapshots/today")        # warm-startable snapshot
    service = ShardedRecommender.load("snapshots/today")

Worker-backed services hold OS resources (threads or processes), so
long-lived tooling should use the context-manager form::

    with ShardedRecommender.from_trained(rec, backend="process") as service:
        ranked_lists = service.recommend_batch(window, k=30)
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor

from repro.core.config import SERVE_BACKENDS, SsRecConfig
from repro.core.profiles import ProfileStore
from repro.core.ssrec import SsRecRecommender
from repro.datasets.schema import Dataset, Interaction, SocialItem
from repro.serve.shard import RecommenderShard
from repro.serve.sharding import ShardPlan, UserSharder, build_shard_blocks
from repro.serve.workers import POOL_BACKENDS, ShardWorkerPool


class ShardedRecommender:
    """Partitioned serving over a trained :class:`SsRecRecommender`.

    Build with :meth:`from_trained` (or :meth:`fit` for the one-call
    train-and-shard path); restore from disk with :meth:`load`.

    Args:
        trained: a fitted recommender supplying the shared model state.
        plan: the user partition; one shard is built per plan shard.
        use_index: build a shard-local CPPse-index per shard (defaults to
            the trained recommender's mode).
        workers: fan-out threads of the thread backend (0 or 1 = one
            per shard).  Defaults to the config's ``serve_workers``.  The
            multi-process backends always run one worker process per shard.
        backend: fan-out backend (``"sequential"``, ``"thread"``,
            ``"process"`` or ``"shmem"``); defaults to the config's
            ``serve_backend``.
    """

    def __init__(
        self,
        trained: SsRecRecommender,
        plan: ShardPlan,
        use_index: bool | None = None,
        workers: int | None = None,
        backend: str | None = None,
    ) -> None:
        if trained.bihmm is None or trained.scorer is None:
            raise ValueError("trained recommender must be fitted")
        self.trained = trained
        self.config = trained.config
        self.plan = plan
        self.use_index = trained.use_index if use_index is None else bool(use_index)
        self.workers = (
            self.config.serve_workers if workers is None else max(0, int(workers))
        )
        backend = self.config.serve_backend if backend is None else str(backend)
        if backend not in SERVE_BACKENDS:
            raise ValueError(
                f"backend must be one of {SERVE_BACKENDS}, got {backend!r}"
            )
        self.backend = backend
        self.scorer = trained.scorer
        self.profiles = trained.profiles  # the global (all-shard) view
        n_categories = trained.bihmm.n_categories
        # Block plans ship every shard its slice of the one global
        # blocking, so shard indexes probe exactly the trees the single
        # index would — the bit-identical-parity guarantee.  Hash plans
        # split blocks, so each shard clusters its own slice instead.
        shard_blocks = (
            build_shard_blocks(plan, trained.profiles, n_categories)
            if self.use_index
            else {}
        )
        # One pass over the plan buckets users per shard (users_of() would
        # rescan all assignments per shard — O(S·U) at warm-start scale).
        users_by_shard: dict[int, list[int]] = {s: [] for s in range(plan.n_shards)}
        for uid, shard_id in plan.assignments.items():
            users_by_shard[shard_id].append(uid)
        self.shards: list[RecommenderShard] = []
        for shard_id in range(plan.n_shards):
            store = ProfileStore(window_size=self.config.window_size)
            for uid in sorted(users_by_shard[shard_id]):
                profile = trained.profiles.get(uid)
                if profile is not None:
                    store.add(profile)
            self.shards.append(
                RecommenderShard(
                    shard_id=shard_id,
                    profiles=store,
                    scorer=self.scorer,
                    n_categories=n_categories,
                    config=self.config,
                    use_index=self.use_index,
                    blocks=shard_blocks.get(shard_id),
                    maintenance_interval=trained.maintenance_interval,
                )
            )
        self._executor: ThreadPoolExecutor | None = None
        self._pool = None  # ShardWorkerPool, started lazily (process/shmem)
        # Execution-plan state (repro.exec): the compiled fan-out/merge
        # pipeline (derived from ``config``) and the mutation epoch that
        # invalidates memoized results.
        self.exec_epoch = 0
        self._compiled = None  # CompiledPlan, built lazily per current state

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_trained(
        cls,
        trained: SsRecRecommender,
        n_shards: int | None = None,
        strategy: str | None = None,
        use_index: bool | None = None,
        workers: int | None = None,
        backend: str | None = None,
    ) -> "ShardedRecommender":
        """Shard an already-fitted recommender (no retraining).

        ``n_shards``/``strategy``/``backend`` default to the recommender's
        config (``n_shards``, ``shard_strategy``, ``serve_backend``).
        """
        if trained.bihmm is None:
            raise ValueError("trained recommender must be fitted")
        config = trained.config
        sharder = UserSharder(
            n_shards=config.n_shards if n_shards is None else int(n_shards),
            strategy=config.shard_strategy if strategy is None else strategy,
            config=config,
        )
        plan = sharder.plan(trained.profiles, n_categories=trained.bihmm.n_categories)
        return cls(trained, plan, use_index=use_index, workers=workers, backend=backend)

    @classmethod
    def fit(
        cls,
        dataset: Dataset,
        train_interactions: Sequence[Interaction] | None = None,
        config: SsRecConfig | None = None,
        n_shards: int | None = None,
        strategy: str | None = None,
        use_index: bool = True,
        workers: int | None = None,
        backend: str | None = None,
        seed: int = 0,
    ) -> "ShardedRecommender":
        """Train once, then shard: the one-call serving bootstrap.

        The underlying recommender is fitted in scan mode (no redundant
        global index); ``use_index`` controls the shard-local indexes.
        """
        rec = SsRecRecommender(config=config, use_index=False, seed=seed)
        rec.fit(dataset, train_interactions)
        return cls.from_trained(
            rec,
            n_shards=n_shards,
            strategy=strategy,
            use_index=use_index,
            workers=workers,
            backend=backend,
        )

    # ------------------------------------------------------------------
    # Fan-out plumbing
    # ------------------------------------------------------------------
    @property
    def pooled(self) -> bool:
        """Worker processes serve the fan-out (``process``/``shmem``)."""
        return self.backend in POOL_BACKENDS

    def _ensure_pool(self):
        """Start the worker processes on first use (process/shmem backends).

        Lazy start keeps construction cheap and lets a freshly unpickled
        service (snapshots drop live pools) respawn transparently on its
        next operation.  The backend name picks the pool's transport.
        """
        if self._pool is None:
            self._pool = ShardWorkerPool(self.shards, backend=self.backend)
        return self._pool

    def _invalidate(self, index: int | None = None) -> None:
        """Shard ``index`` (or every shard) moved: republish before the
        workers' next serve window."""
        if self._pool is not None:
            self._pool.invalidate(index)

    def _fan_out(self, call: Callable[[RecommenderShard], object]) -> list:
        """Run ``call`` on every shard; threaded under the thread backend.

        Results come back in shard order either way, so merging is
        deterministic regardless of completion order.
        """
        if self.backend == "thread" and len(self.shards) > 1:
            if self._executor is None:
                max_workers = self.workers if self.workers > 1 else len(self.shards)
                self._executor = ThreadPoolExecutor(
                    max_workers=min(max_workers, len(self.shards)),
                    thread_name_prefix="repro-serve",
                )
            return list(self._executor.map(call, self.shards))
        return [call(shard) for shard in self.shards]

    # Thread/process pools cannot be pickled/deepcopied; drop and rebuild
    # lazily.  The parent's shards are the whole state, so nothing is lost.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_executor"] = None
        state["_pool"] = None
        state["_compiled"] = None  # recompiles lazily from config (cold memo)
        return state

    def restart_workers(self) -> None:
        """Rolling mid-stream restart of every shard worker process.

        Workers hold nothing the parent lacks, so each is stopped and
        respawned; the next serve window hands the fresh processes the
        current epoch — the conformance harness replays this to prove
        restarts are invisible in results.  No-op on the in-process
        backends (they have no workers to restart).
        """
        if self.pooled:
            self._ensure_pool().restart_all()

    def close(self) -> None:
        """Release fan-out resources (thread pool or worker processes).

        The service stays usable afterwards: either pool is rebuilt
        lazily on the next call.  Use this (or the context-manager form)
        whenever a worker-enabled service is discarded, so threads and
        processes are always released.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ShardedRecommender":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serving (thin facade over the compiled execution plan)
    # ------------------------------------------------------------------
    def executor(self):
        """The compiled fan-out/merge execution plan serving runs through.

        Derived from the config by :meth:`repro.exec.PlanRegistry.for_config`
        (scoring and the memo stage from ``config``, placement pinned to
        the live shard strategy and fan-out backend) and compiled once;
        the fan-out backend dispatch lives in the plan's
        :class:`~repro.exec.ops.FanoutOp`.
        """
        if self._compiled is None:
            from repro.exec import PLAN_REGISTRY, Placement, compile_plan

            # The live service's shape wins over the config (a service is
            # often built with explicit n_shards/strategy/backend args).
            exec_plan = PLAN_REGISTRY.for_config(
                self.config,
                use_index=self.use_index,
                placement=Placement.sharded(self.plan.strategy, self.backend),
            )
            self._compiled = compile_plan(exec_plan, self)
        return self._compiled

    def configure(self, **axes) -> "ShardedRecommender":
        """Replace serving fields of the service's ``config``; fields and
        errors as in :meth:`SsRecRecommender.configure`.

        The memo stage sits *above* the fan-out (it wraps the
        fan-out/merge pipeline), so one collapsed upload saves the
        scoring pass on every shard at once.  ``scoring`` composes with
        sharding at the *shard* level — the fan-out/merge pipeline is
        scoring-agnostic, each shard serves its slice through the fused
        kernels (or falls back, per shard, when they are unavailable) —
        so it is pushed to every shard, and worker processes see it from
        the next serve window on.
        """
        from repro.exec import configure

        # The trained model underneath keeps the same record, so a
        # snapshot (which documents ``trained.config``) and a later
        # single-node load of it serve the way this service did.
        for owner in (self.trained, self):
            configure(owner, **axes)
        if "scoring" in axes:
            for shard in self.shards:
                shard.set_scoring(self.config.scoring)
            self._invalidate()
        return self

    def stats(self) -> dict:
        """``{"plan": name, "dedup": counters | None}`` of the compiled
        plan (see :meth:`SsRecRecommender.stats`)."""
        return self.executor().stats()

    def recommend(self, item: SocialItem, k: int | None = None) -> list[tuple[int, float]]:
        """Global top-``k`` ``(user_id, score)`` — identical to the single
        index's :meth:`SsRecRecommender.recommend` on the same state.
        ``k=None`` means ``default_k``; ``k=0`` yields an empty list."""
        return self.executor().run_item(item, k)

    def recommend_batch(
        self, items: Sequence[SocialItem], k: int | None = None
    ) -> list[list[tuple[int, float]]]:
        """Per-item global top-``k`` lists for a micro-batch."""
        return self.executor().run_batch(items, k)

    # ------------------------------------------------------------------
    # Stream updates
    # ------------------------------------------------------------------
    def observe_item(self, item: SocialItem) -> None:
        """Register a newly streamed item once, in the shared model state.

        The parent's mutation is the only one; every shard is marked
        dirty (the shared scorer state moved), so worker processes see
        the advanced state from the next serve window on.
        """
        self.trained.observe_item(item)
        self._invalidate()

    #: ``observe`` is the serving-layer name for the same operation.
    observe = observe_item

    def update(self, interaction: Interaction, item: SocialItem | None = None) -> None:
        """Route one interaction to the owning shard (new users included)."""
        user_id = int(interaction.user_id)
        shard_id = self.plan.shard_of(user_id)
        self.exec_epoch += 1  # scores may move: orphan memoized results
        shard = self.shards[shard_id]
        # Keep the global store and the shard store aliased to one object,
        # also for users joining mid-stream.
        profile = self.profiles.get_or_create(user_id)
        if shard.profiles.get(user_id) is None:
            shard.adopt(profile)
        shard.update(interaction, item)
        # The shard store recorded the event on the shared profile object;
        # mark the global view dirty too so any mirror of it stays fresh.
        self.profiles.touch()
        self._invalidate(shard_id)  # republish this shard only

    def run_maintenance(self) -> int:
        """Flush every shard's pending Algorithm-2 work; returns profiles
        refreshed across shards."""
        self.exec_epoch += 1  # Algorithm-2 flush: orphan memoized results
        refreshed = 0
        for index, shard in enumerate(self.shards):
            flushed = shard.run_maintenance()
            if flushed:
                self._invalidate(index)  # index state moved: republish
            refreshed += flushed
        return refreshed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_users(self) -> int:
        return sum(shard.n_users for shard in self.shards)

    def metrics(self) -> list[dict]:
        """One summary row per shard (latency percentiles, candidate and
        maintenance counts), plus the user count.  Serve counters come
        from wherever the shard serves — its worker process, when a pool
        is live; maintenance and user counts always from the parent's
        authoritative shard."""
        served = (
            self._pool.map("metrics")
            if self._pool is not None
            else [shard.metrics.as_dict() for shard in self.shards]
        )
        rows = []
        for shard, serve_row in zip(self.shards, served):
            row = {"shard_id": shard.shard_id, "users": shard.n_users}
            row.update(serve_row)
            row["maintenance_runs"] = shard.metrics.maintenance_runs
            row["profiles_refreshed"] = shard.metrics.profiles_refreshed
            rows.append(row)
        return rows

    def obs_registry(self):
        """Every shard's telemetry merged into one
        :class:`~repro.obs.metrics.MetricsRegistry`.

        With live worker processes each worker dumps its serve-side
        registry over the reply queue (the ``obs`` op) and the pool's
        publisher adds segment/epoch telemetry; the parent's shards add
        maintenance counters — counters sum, and the parent's fresher
        gauges win by merge order.  Per-shard ``shard=...`` labels keep
        the merged view lossless.
        """
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        if self._pool is not None:
            for dump in self._pool.map("obs"):
                registry.merge(MetricsRegistry.from_dict(dump))
            registry.merge(self._pool.publisher.obs_registry())
        for shard in self.shards:
            registry.merge(shard.obs_registry())
        if self._compiled is not None:
            # Plan-level stage telemetry (the memo stage's collapse and
            # eviction counters) lives above the fan-out, in the parent's
            # compiled pipeline.
            registry.merge(self._compiled.obs_registry())
        return registry

    def balance_stats(self) -> dict:
        return self.plan.balance_stats()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write a warm-startable snapshot directory (see
        :mod:`repro.serve.snapshot`)."""
        from repro.serve.snapshot import save_snapshot

        save_snapshot(self, path)

    @classmethod
    def load(
        cls, path, workers: int | None = None, backend: str | None = None
    ) -> "ShardedRecommender":
        """Rebuild a service from a snapshot without retraining."""
        from repro.serve.snapshot import load_sharded

        return load_sharded(path, workers=workers, backend=backend)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "index" if self.use_index else "scan"
        return (
            f"ShardedRecommender(shards={self.n_shards}, users={self.n_users}, "
            f"mode={mode}, strategy={self.plan.strategy!r}, "
            f"backend={self.backend!r}, workers={self.workers})"
        )
