"""Execution plans: the one vocabulary every recommend path is named in.

The ssRec system answers exactly one logical query — entity-based top-k
matching (Eq. 1-4), optionally accelerated by the CPPse-index
(Algorithm 1) — but the repo serves it through many physical shapes:
scanned or index-probed, per item or micro-batched, on one process or
fanned out across shards and backends.  An :class:`ExecPlan` names one
such shape as a point in a small axis space:

==================  =====================================================
candidate source    ``full-scan`` (every stored user) or ``cppse-probe``
                    (the index's probed trees, Algorithm 1 + the lazy
                    Algorithm-2 flush)
scoring             ``vectorized`` (NumPy matcher), ``native`` (the fused
                    numba kernels of :mod:`repro.core.kernels`, falling
                    back to vectorized when unavailable) or
                    ``oracle-reference`` (the naive per-pair scorer from
                    :mod:`repro.sim.oracle`)
batching            ``item`` (one query per call) or ``micro-batch``
                    (amortized windows)
placement           ``local`` (one process) or ``sharded(strategy,
                    backend)`` (fan-out + merge)
dedup               the one memo stage — duplicate upload collapse ahead
                    of scoring (:mod:`repro.exec.dedup`): ``off``,
                    ``exact`` (bit-identical, conformance-anchored) or
                    ``approx`` (MinHash/LSH at a Jaccard threshold; the
                    ``*-dedup`` variants)
==================  =====================================================

:class:`PlanRegistry` maps stable names ("scan-item",
"sharded-index-block", "index-batch-dedup", ...) to plans, derives the
plan a given :class:`~repro.core.config.SsRecConfig` asks for, and is the
single source the conformance catalog enumerates — registering a plan is
what puts it under differential test, there is no second list to update.

Compiling a plan against live state (a fitted facade) happens in
:mod:`repro.exec.compile`; the operators are in :mod:`repro.exec.ops`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import (
    DEDUP_MODES,
    SERVE_BACKENDS,
    SHARD_STRATEGIES,
    SsRecConfig,
)

CANDIDATE_SOURCES = ("full-scan", "cppse-probe")
SCORINGS = ("vectorized", "native", "oracle-reference")
BATCHINGS = ("item", "micro-batch")
PLACEMENT_KINDS = ("local", "sharded")
TRANSPORTS = ("inproc", "wire")


@dataclass(frozen=True)
class Placement:
    """Where a plan executes: one process, or a shard fan-out.

    Attributes:
        kind: ``"local"`` or ``"sharded"``.
        strategy: user-partition strategy of a sharded placement
            (``"hash"`` or ``"block"``); None for local plans.
        backend: fan-out backend of a sharded placement (``"sequential"``,
            ``"thread"``, ``"process"`` or ``"shmem"``); None for local
            plans.
    """

    kind: str = "local"
    strategy: str | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in PLACEMENT_KINDS:
            raise ValueError(f"kind must be one of {PLACEMENT_KINDS}, got {self.kind!r}")
        if self.kind == "local":
            if self.strategy is not None or self.backend is not None:
                raise ValueError("local placements take no strategy/backend")
        else:
            if self.strategy not in SHARD_STRATEGIES:
                raise ValueError(
                    f"strategy must be one of {SHARD_STRATEGIES}, got {self.strategy!r}"
                )
            if self.backend not in SERVE_BACKENDS:
                raise ValueError(
                    f"backend must be one of {SERVE_BACKENDS}, got {self.backend!r}"
                )

    @classmethod
    def local(cls) -> "Placement":
        return cls(kind="local")

    @classmethod
    def sharded(cls, strategy: str, backend: str = "sequential") -> "Placement":
        return cls(kind="sharded", strategy=strategy, backend=backend)


@dataclass(frozen=True)
class ExecPlan:
    """One named point in the execution-plan axis space.

    Attributes:
        name: registry name ("scan-item", "sharded-index-block", ...).
        candidate_source: ``"full-scan"`` or ``"cppse-probe"``.
        scoring: ``"vectorized"``, ``"native"`` or ``"oracle-reference"``.
        batching: ``"item"`` or ``"micro-batch"`` — the entry point the
            conformance replay drives (compiled plans serve both).
        placement: local or sharded placement.
        dedup: duplicate upload collapse ahead of scoring —
            ``"off"``, ``"exact"`` (provable-equality collapse; results
            stay bit-identical, so these plans anchor bit-for-bit) or
            ``"approx"`` (MinHash/LSH collapse at a Jaccard threshold;
            collapsed members receive the representative's list, so
            approximate plans are judged by the recall gate in
            ``bench_dedup``, not the conformance catalog).  Sits above
            the fan-out on sharded plans — one collapse saves the
            scoring pass on every shard.
        transport: ``"inproc"`` (a library call) or ``"wire"`` (served by
            :class:`repro.serve.server.RecommenderServer` over the framed
            JSON protocol; the conformance harness stands up a live
            server per replica and judges the results bit-for-bit
            *through the socket*).  ``"wire"`` plans with
            ``batching="micro-batch"`` serve through the server's dynamic
            coalescer; ``"item"`` wire plans dispatch per request.
        description: one-line summary (``--list-paths`` output).
        conformance: replay this plan in the differential conformance
            catalog (:mod:`repro.sim.conformance`).
        anchor: name of the plan this one must match **bit for bit**
            during conformance; None means the plan is judged against the
            naive oracle (within the 1e-9 tie discipline) instead.
        anchor_within_ties: relax the anchored comparison from bitwise to
            the 1e-9 tie discipline.  The ``*-native`` plans use this:
            the fused kernels take scalar ``log`` where NumPy applies its
            SIMD ``np.log``, a documented ULP-level divergence (the same
            one the oracle judge tolerates), so bitwise anchoring would
            test libm instead of the serving path.
    """

    name: str
    candidate_source: str
    scoring: str = "vectorized"
    batching: str = "item"
    placement: Placement = field(default_factory=Placement.local)
    dedup: str = "off"
    transport: str = "inproc"
    description: str = ""
    conformance: bool = True
    anchor: str | None = None
    anchor_within_ties: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("plan name must be non-empty")
        if self.candidate_source not in CANDIDATE_SOURCES:
            raise ValueError(
                f"candidate_source must be one of {CANDIDATE_SOURCES}, "
                f"got {self.candidate_source!r}"
            )
        if self.scoring not in SCORINGS:
            raise ValueError(f"scoring must be one of {SCORINGS}, got {self.scoring!r}")
        if self.batching not in BATCHINGS:
            raise ValueError(f"batching must be one of {BATCHINGS}, got {self.batching!r}")
        if self.dedup not in DEDUP_MODES:
            raise ValueError(f"dedup must be one of {DEDUP_MODES}, got {self.dedup!r}")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}, got {self.transport!r}")
        if self.anchor_within_ties and self.anchor is None:
            raise ValueError("anchor_within_ties requires an anchor")

    # ------------------------------------------------------------------
    # Derived facts
    # ------------------------------------------------------------------
    @property
    def uses_index(self) -> bool:
        """Whether this plan probes the CPPse-index (vs full scan)."""
        return self.candidate_source == "cppse-probe"

    @property
    def is_sharded(self) -> bool:
        return self.placement.kind == "sharded"

    @property
    def is_wire(self) -> bool:
        """Whether this plan is served over the network protocol."""
        return self.transport == "wire"

    @property
    def config_derivable(self) -> bool:
        """Whether :meth:`PlanRegistry.for_config` can ever derive this
        plan — oracle-reference scoring is a diagnostic axis with no
        config spelling, and wire transport is a deployment fact, so
        those plans are instantiated by name only."""
        return self.scoring in ("vectorized", "native") and self.transport == "inproc"

    def config_overrides(self) -> dict:
        """``SsRecConfig.with_options`` overrides that make a config ask
        for this plan's placement, scoring and memo stage.

        The candidate source (``use_index``) and batching are per-call
        facts, not config fields, so :meth:`PlanRegistry.for_config`
        takes them as arguments; everything else round-trips through
        ``SsRecConfig.to_dict``/``from_dict`` (property-tested).
        """
        # result_cache=False: the legacy spelling must not re-enable the memo.
        overrides: dict = {"result_cache": False, "dedup": self.dedup}
        if self.config_derivable:  # oracle-reference has no config spelling
            overrides["scoring"] = self.scoring
        if self.is_sharded:
            overrides.update(
                n_shards=2,
                shard_strategy=self.placement.strategy,
                serve_backend=self.placement.backend,
            )
        else:
            overrides.update(n_shards=1)
        return overrides

    def axes(self) -> tuple:
        """The identity tuple :meth:`PlanRegistry.for_config` matches on."""
        return (self.candidate_source, self.scoring, self.batching, self.placement,
                self.transport, self.dedup)

    def describe(self) -> str:
        """One-line rendering for ``--list-paths`` and the docs."""
        placement = (
            "local"
            if not self.is_sharded
            else f"sharded({self.placement.strategy}, {self.placement.backend})"
        )
        if self.anchor is None:
            judge = "vs oracle"
        elif self.anchor_within_ties:
            judge = f"within ties of {self.anchor}"
        else:
            judge = f"bit-identical to {self.anchor}"
        flags = f"dedup({self.dedup}) " if self.dedup != "off" else ""
        if self.is_wire:
            flags += "wire "
            judge += " through the wire"
        tail = f" [{judge}]" if self.conformance else " [not in conformance catalog]"
        return (
            f"{self.candidate_source} / {self.scoring} / {self.batching} / "
            f"{placement} {flags}— {self.description}{tail}"
        )


class PlanRegistry:
    """Name -> :class:`ExecPlan` mapping, in registration order.

    The registry is the single catalog of recommendation execution: the
    facades derive their plan from it per config, the conformance runner
    replays every plan it marks ``conformance=True``, and the eval CLI
    lists it.  Registering a plan therefore *is* the integration step —
    a new plan is conformance-tested without touching the runner.
    """

    def __init__(self) -> None:
        self._plans: dict[str, ExecPlan] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._plans

    def __iter__(self):
        return iter(self._plans.values())

    def __len__(self) -> int:
        return len(self._plans)

    def register(self, plan: ExecPlan) -> ExecPlan:
        """Add one plan; names are unique, anchors must already exist.

        The anchor-ordering rule keeps the conformance replay sound: a
        bit-identical comparison needs the anchor's results from the same
        window, so anchors are always replayed before their dependents.
        """
        if plan.name in self._plans:
            raise ValueError(f"plan {plan.name!r} is already registered")
        if plan.anchor is not None:
            anchor = self._plans.get(plan.anchor)
            if anchor is None:
                raise ValueError(
                    f"plan {plan.name!r} anchors to unregistered {plan.anchor!r}"
                )
            if anchor.anchor is not None:
                raise ValueError(
                    f"plan {plan.name!r} must anchor to an anchor path, "
                    f"but {plan.anchor!r} itself anchors to {anchor.anchor!r}"
                )
        self._plans[plan.name] = plan
        return plan

    def get(self, name: str) -> ExecPlan:
        plan = self._plans.get(name)
        if plan is None:
            raise KeyError(
                f"unknown plan {name!r}; registered: {', '.join(self._plans)}"
            )
        return plan

    def names(self) -> tuple[str, ...]:
        return tuple(self._plans)

    def conformance_paths(self) -> tuple[str, ...]:
        """Names of every plan the conformance harness replays, in
        registration (= anchors-first) order."""
        return tuple(plan.name for plan in self if plan.conformance)

    # ------------------------------------------------------------------
    # Config derivation
    # ------------------------------------------------------------------
    def for_config(
        self,
        config: SsRecConfig,
        use_index: bool,
        batching: str = "item",
        placement: Placement | None = None,
    ) -> ExecPlan:
        """The plan a config (plus the per-call axes) asks for.

        Placement comes from ``n_shards``/``shard_strategy``/``serve_backend``
        unless ``placement`` pins it (the facades pass their *live*
        placement, which may be more specific than their config says),
        scoring from ``scoring``, the candidate source from ``use_index``,
        and the memo stage from ``dedup`` — with the legacy spelling
        ``result_cache=True`` resolved here, once: it asks for the exact
        memo when ``dedup`` is ``"off"`` and is otherwise a no-op, so the
        two spellings compile the same plan.  A registered plan with
        matching axes is returned under its registered name; otherwise a
        plan is synthesized with a systematic name, so every config is
        servable even before anyone registers its shape.
        """
        if placement is None:
            placement = (
                Placement.sharded(config.shard_strategy, config.serve_backend)
                if config.n_shards > 1
                else Placement.local()
            )
        dedup = config.dedup
        if dedup == "off" and config.result_cache:
            dedup = "exact"
        axes = (
            "cppse-probe" if use_index else "full-scan",
            config.scoring,
            batching,
            placement,
            "inproc",
            dedup,
        )
        for plan in self._plans.values():
            if plan.axes() == axes:
                return plan
        return self._synthesize(*axes)

    @staticmethod
    def _synthesize(
        candidate_source: str,
        scoring: str,
        batching: str,
        placement: Placement,
        transport: str,
        dedup: str,
    ) -> ExecPlan:
        """An unregistered-but-valid plan, named systematically."""
        parts = ["index" if candidate_source == "cppse-probe" else "scan"]
        if placement.kind == "sharded":
            parts.insert(0, "sharded")
            parts.append(placement.strategy or "")
            if placement.backend != "sequential":
                parts.append(placement.backend or "")
        parts.append("batch" if batching == "micro-batch" else "item")
        if scoring == "native":
            parts.append("native")
        if dedup == "exact":
            parts.append("dedup")
        elif dedup == "approx":
            parts.append("dedup-approx")
        return ExecPlan(
            name="-".join(p for p in parts if p),
            candidate_source=candidate_source,
            scoring=scoring,
            batching=batching,
            placement=placement,
            dedup=dedup,
            transport=transport,
            description="synthesized from config (not a registered path)",
            conformance=False,
        )

    def describe(self) -> str:
        """The ``--list-paths`` table: one line per registered plan."""
        width = max(len(name) for name in self._plans) if self._plans else 0
        return "\n".join(
            f"{plan.name:<{width}}  {plan.describe()}" for plan in self
        )


def _build_default_registry() -> PlanRegistry:
    """Every serving path the repo ships, anchors before dependents.

    The first seven entries are the historical conformance catalog
    (PR 2-4); the families after them each vary one axis of those base
    shapes and anchor back to them.
    """
    registry = PlanRegistry()
    registry.register(ExecPlan(
        name="scan-item",
        candidate_source="full-scan",
        description="per-item exact scan over every stored user",
    ))
    registry.register(ExecPlan(
        name="scan-batch",
        candidate_source="full-scan",
        batching="micro-batch",
        anchor="scan-item",
        description="micro-batched exact scan (amortized sync/columns)",
    ))
    registry.register(ExecPlan(
        name="index-item",
        candidate_source="cppse-probe",
        description="per-item CPPse-index serving (Algorithms 1 + 2)",
    ))
    registry.register(ExecPlan(
        name="index-batch",
        candidate_source="cppse-probe",
        batching="micro-batch",
        anchor="index-item",
        description="micro-batched CPPse-index serving (knn_batch)",
    ))
    registry.register(ExecPlan(
        name="sharded-scan-hash",
        candidate_source="full-scan",
        placement=Placement.sharded("hash"),
        anchor="scan-item",
        description="hash-partitioned scan shards, sequential fan-out/merge",
    ))
    registry.register(ExecPlan(
        name="sharded-index-block",
        candidate_source="cppse-probe",
        placement=Placement.sharded("block"),
        description="block-aware CPPse shards (global blocking preserved)",
    ))
    registry.register(ExecPlan(
        name="sharded-scan-process",
        candidate_source="full-scan",
        placement=Placement.sharded("hash", backend="process"),
        anchor="scan-item",
        description="hash scan shards, one OS worker process per shard",
    ))
    registry.register(ExecPlan(
        name="sharded-scan-shmem",
        candidate_source="full-scan",
        placement=Placement.sharded("hash", backend="shmem"),
        anchor="scan-item",
        description="hash scan shards served from shared-memory segments "
        "(zero-copy worker views)",
    ))
    registry.register(ExecPlan(
        name="sharded-index-shmem",
        candidate_source="cppse-probe",
        placement=Placement.sharded("block", backend="shmem"),
        anchor="sharded-index-block",
        description="block CPPse shards over shared-memory fan-out "
        "(epoch copy-on-publish)",
    ))
    # The *-native family: the same four local serving shapes scored by
    # the fused numba kernels (repro.core.kernels).  Judged within the
    # 1e-9 tie discipline against the vectorized anchors: the kernels
    # take scalar log where NumPy applies SIMD np.log, a documented
    # ULP-level divergence (see the kernels module docstring), so
    # bitwise anchoring would test libm, not the serving path.  When the
    # compiled kernels are unavailable the plans compile to the
    # vectorized pipeline bit-identically (one-time warning + obs
    # counter), so the family stays green without numba.
    registry.register(ExecPlan(
        name="scan-item-native",
        candidate_source="full-scan",
        scoring="native",
        anchor="scan-item",
        anchor_within_ties=True,
        description="per-item scan through the fused gather+log+top-k "
        "kernel (vectorized fallback when numba is absent)",
    ))
    registry.register(ExecPlan(
        name="scan-batch-native",
        candidate_source="full-scan",
        scoring="native",
        batching="micro-batch",
        anchor="scan-item",
        anchor_within_ties=True,
        description="micro-batched scan through the fused kernel "
        "(amortized state snapshot, vectorized fallback)",
    ))
    registry.register(ExecPlan(
        name="index-item-native",
        candidate_source="cppse-probe",
        scoring="native",
        anchor="index-item",
        anchor_within_ties=True,
        description="per-item CPPse probe with fused bound+score+top-k "
        "over tree members (vectorized fallback)",
    ))
    registry.register(ExecPlan(
        name="index-batch-native",
        candidate_source="cppse-probe",
        scoring="native",
        batching="micro-batch",
        anchor="index-item",
        anchor_within_ties=True,
        description="micro-batched CPPse probe through the fused kernels "
        "(pseudo-query grouping, vectorized fallback)",
    ))
    registry.register(ExecPlan(
        name="oracle-item",
        candidate_source="full-scan",
        scoring="oracle-reference",
        conformance=False,
        description="naive per-pair reference scorer (the judge itself)",
    ))
    # The served-* family: the same logical query answered through the
    # network front door (repro.serve.server), judged bit-for-bit through
    # the socket against the in-process anchors.  micro-batch transport
    # plans serve through the server's dynamic coalescer (concurrent
    # requests forming micro-batches under a latency budget); item plans
    # dispatch per request.
    registry.register(ExecPlan(
        name="served-scan-batch",
        candidate_source="full-scan",
        batching="micro-batch",
        transport="wire",
        anchor="scan-item",
        description="network-served scan, dynamic micro-batch coalescing",
    ))
    registry.register(ExecPlan(
        name="served-index-item",
        candidate_source="cppse-probe",
        transport="wire",
        anchor="index-item",
        description="network-served CPPse-index, per-request dispatch",
    ))
    # The *-dedup family: the memo stage ahead of scoring
    # (repro.exec.dedup).  Exact mode keys on the resolved scorer inputs,
    # so a collapse is provably the same query — these plans anchor
    # bit-for-bit.  The sharded variant stays on scan shards on purpose:
    # scan mode has no shard-local Algorithm-2 state, so a pre-fan-out
    # collapse cannot perturb maintenance cadence relative to the anchor.
    for base in ("scan-item", "scan-batch", "index-item", "index-batch",
                 "sharded-scan-hash"):
        plan = registry.get(base)
        registry.register(replace(
            plan,
            name=f"{base}-dedup",
            dedup="exact",
            anchor=plan.anchor or plan.name,
            description=f"{plan.description} + exact near-duplicate collapse",
        ))
    # Approximate mode trades exactness for collapse coverage (mutated
    # retries, cross-producer reposts), so it is judged by bench_dedup's
    # recall gate rather than the bitwise conformance catalog.
    registry.register(ExecPlan(
        name="scan-item-dedup-approx",
        candidate_source="full-scan",
        dedup="approx",
        conformance=False,
        description="per-item scan behind MinHash/LSH near-duplicate "
        "collapse (collapsed members get the representative's list)",
    ))
    return registry


#: The process-wide default registry every facade and the conformance
#: harness read.  Mutating it (registering project-specific plans) is
#: supported; replacing it is not.
PLAN_REGISTRY = _build_default_registry()
