"""The execution-plan core: registry, compilation, operator parity."""

import pytest

from repro.core.config import SsRecConfig
from repro.exec import (
    PLAN_REGISTRY,
    CompiledPlan,
    ExecPlan,
    Placement,
    PlanRegistry,
    as_executor,
    coerce_k,
    compile_plan,
)
from repro.serve.service import ShardedRecommender
from repro.sim.conformance import CONFORMANCE_PATHS
from repro.sim.oracle import matches_within_ties


class TestPlacement:
    def test_local_takes_no_strategy(self):
        with pytest.raises(ValueError, match="local placements"):
            Placement(kind="local", strategy="hash")

    def test_sharded_validates_strategy_and_backend(self):
        with pytest.raises(ValueError, match="strategy"):
            Placement.sharded("mystery")
        with pytest.raises(ValueError, match="backend"):
            Placement.sharded("hash", backend="quantum")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Placement(kind="orbital")


class TestExecPlan:
    def test_axis_validation(self):
        with pytest.raises(ValueError, match="candidate_source"):
            ExecPlan(name="x", candidate_source="tarot")
        with pytest.raises(ValueError, match="scoring"):
            ExecPlan(name="x", candidate_source="full-scan", scoring="vibes")
        with pytest.raises(ValueError, match="batching"):
            ExecPlan(name="x", candidate_source="full-scan", batching="mega")
        with pytest.raises(ValueError, match="name"):
            ExecPlan(name="", candidate_source="full-scan")

    def test_anchor_within_ties_requires_anchor(self):
        with pytest.raises(ValueError, match="requires an anchor"):
            ExecPlan(name="x", candidate_source="full-scan", anchor_within_ties=True)

    def test_derived_facts(self):
        plan = PLAN_REGISTRY.get("index-batch")
        assert plan.uses_index and not plan.is_sharded
        sharded = PLAN_REGISTRY.get("sharded-scan-process")
        assert sharded.is_sharded and sharded.placement.backend == "process"

    def test_describe_mentions_judge(self):
        assert "bit-identical to scan-item" in PLAN_REGISTRY.get("scan-batch").describe()
        assert "vs oracle" in PLAN_REGISTRY.get("scan-item").describe()
        assert (
            "within ties of scan-item"
            in PLAN_REGISTRY.get("scan-item-native").describe()
        )


class TestRegistry:
    def test_default_catalog_names(self):
        names = PLAN_REGISTRY.names()
        for expected in (
            "scan-item", "scan-batch", "index-item", "index-batch",
            "sharded-scan-hash", "sharded-index-block", "sharded-scan-process",
            "oracle-item", "scan-item-dedup", "scan-batch-dedup",
            "index-item-dedup", "index-batch-dedup", "sharded-scan-hash-dedup",
            "scan-item-native", "scan-batch-native", "index-item-native",
            "index-batch-native",
        ):
            assert expected in names
        # One memo stage: the *-cached family is gone, not renamed.
        assert not any("cached" in name for name in names)
        assert len(PLAN_REGISTRY) == 22
        assert len(CONFORMANCE_PATHS) == 20

    def test_native_family_anchored_within_ties(self):
        for name in ("scan-item-native", "scan-batch-native",
                     "index-item-native", "index-batch-native"):
            plan = PLAN_REGISTRY.get(name)
            assert plan.scoring == "native"
            assert plan.anchor_within_ties
            anchor = PLAN_REGISTRY.get(plan.anchor)
            assert anchor.scoring == "vectorized" and anchor.anchor is None

    def test_conformance_catalog_is_registry_derived(self):
        """The drift guard: the runner's catalog IS the registry."""
        assert CONFORMANCE_PATHS == PLAN_REGISTRY.conformance_paths()
        assert "oracle-item" not in CONFORMANCE_PATHS  # the judge itself

    def test_anchors_precede_dependents(self):
        order = {name: i for i, name in enumerate(CONFORMANCE_PATHS)}
        for name in CONFORMANCE_PATHS:
            plan = PLAN_REGISTRY.get(name)
            if plan.anchor is not None:
                assert order[plan.anchor] < order[name]

    def test_dedup_variants_anchor_to_dedup_off_anchors(self):
        for name in CONFORMANCE_PATHS:
            plan = PLAN_REGISTRY.get(name)
            if plan.dedup != "off":
                assert plan.dedup == "exact"  # approx is gated by recall
                anchor = PLAN_REGISTRY.get(plan.anchor)
                assert anchor.dedup == "off"
                assert anchor.anchor is None

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="quantum-tunnel"):
            PLAN_REGISTRY.get("quantum-tunnel")

    def test_register_duplicate_raises(self):
        registry = PlanRegistry()
        registry.register(ExecPlan(name="a", candidate_source="full-scan"))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(ExecPlan(name="a", candidate_source="full-scan"))

    def test_register_unknown_anchor_raises(self):
        registry = PlanRegistry()
        with pytest.raises(ValueError, match="unregistered"):
            registry.register(
                ExecPlan(name="b", candidate_source="full-scan", anchor="ghost")
            )

    def test_anchor_chains_rejected(self):
        registry = PlanRegistry()
        registry.register(ExecPlan(name="a", candidate_source="full-scan"))
        registry.register(
            ExecPlan(name="b", candidate_source="full-scan", anchor="a")
        )
        with pytest.raises(ValueError, match="anchor path"):
            registry.register(
                ExecPlan(name="c", candidate_source="full-scan", anchor="b")
            )

    def test_describe_lists_every_plan(self):
        text = PLAN_REGISTRY.describe()
        for name in PLAN_REGISTRY.names():
            assert name in text

    def test_runner_enumerates_live_registry(self):
        """Plans registered after repro.sim was imported are replayed by
        default and addressable via paths= — the runner reads the live
        registry, not the import-time CONFORMANCE_PATHS snapshot."""
        from repro.sim.conformance import ConformanceRunner

        plan = ExecPlan(
            name="scan-item-late",
            candidate_source="full-scan",
            anchor="scan-item",
            description="registered after import",
        )
        PLAN_REGISTRY.register(plan)
        try:
            explicit = ConformanceRunner(paths=("scan-item", "scan-item-late"))
            assert explicit.paths == ("scan-item", "scan-item-late")
            assert "scan-item-late" in ConformanceRunner().paths
        finally:
            PLAN_REGISTRY._plans.pop("scan-item-late")


class TestForConfig:
    def test_local_scan_and_index(self):
        config = SsRecConfig()
        assert PLAN_REGISTRY.for_config(config, use_index=False).name == "scan-item"
        assert PLAN_REGISTRY.for_config(config, use_index=True).name == "index-item"
        assert (
            PLAN_REGISTRY.for_config(config, use_index=False, batching="micro-batch").name
            == "scan-batch"
        )

    def test_result_cache_is_a_spelling_of_exact_dedup(self):
        """Six memo configurations, three plans: ``result_cache`` asks for
        the exact memo when ``dedup`` is off and is otherwise a no-op."""
        for result_cache in (False, True):
            for dedup, want in (("exact", "scan-item-dedup"),
                                ("approx", "scan-item-dedup-approx")):
                config = SsRecConfig(result_cache=result_cache, dedup=dedup)
                assert PLAN_REGISTRY.for_config(config, use_index=False).name == want
        assert (
            PLAN_REGISTRY.for_config(SsRecConfig(result_cache=True), use_index=False).name
            == "scan-item-dedup"
        )
        assert PLAN_REGISTRY.for_config(SsRecConfig(), use_index=False).name == "scan-item"

    def test_placement_pin_overrides_config_shape(self):
        """The facades pin their live placement; the config's deployment
        shape only applies when nothing is pinned."""
        sharded = SsRecConfig(n_shards=3, shard_strategy="hash")
        assert (
            PLAN_REGISTRY.for_config(
                sharded, use_index=False, placement=Placement.local()
            ).name
            == "scan-item"
        )
        assert (
            PLAN_REGISTRY.for_config(
                SsRecConfig(), use_index=False,
                placement=Placement.sharded("hash", "shmem"),
            ).name
            == "sharded-scan-shmem"
        )

    def test_sharded_from_config(self):
        config = SsRecConfig(n_shards=3, shard_strategy="hash")
        assert PLAN_REGISTRY.for_config(config, use_index=False).name == "sharded-scan-hash"
        process = SsRecConfig(n_shards=3, shard_strategy="hash", serve_backend="process")
        assert (
            PLAN_REGISTRY.for_config(process, use_index=False).name
            == "sharded-scan-process"
        )

    def test_unregistered_axes_synthesize(self):
        config = SsRecConfig(n_shards=3, shard_strategy="block", serve_backend="thread")
        plan = PLAN_REGISTRY.for_config(config, use_index=True)
        assert plan.name == "sharded-index-block-thread-item"
        assert not plan.conformance  # synthesized plans are servable, not cataloged

    def test_native_from_config_field(self):
        config = SsRecConfig(scoring="native")
        assert PLAN_REGISTRY.for_config(config, use_index=False).name == "scan-item-native"
        assert (
            PLAN_REGISTRY.for_config(config, use_index=True, batching="micro-batch").name
            == "index-batch-native"
        )
        # Sharded native has no registered shape: the fan-out plan is
        # synthesized (scoring happens inside the shards either way).
        sharded = SsRecConfig(scoring="native", n_shards=2, shard_strategy="hash")
        plan = PLAN_REGISTRY.for_config(sharded, use_index=False)
        assert plan.name == "sharded-scan-hash-item-native"
        assert not plan.conformance

    def test_oracle_plans_not_derivable(self):
        assert not PLAN_REGISTRY.get("oracle-item").config_derivable
        for name in PLAN_REGISTRY.names():
            plan = PLAN_REGISTRY.get(name)
            if plan.config_derivable:
                continue
            overrides = plan.config_overrides()
            derived = PLAN_REGISTRY.for_config(
                SsRecConfig().with_options(**overrides),
                use_index=plan.uses_index,
                batching=plan.batching,
            )
            assert derived.name != plan.name


class TestCoerceK:
    def test_none_means_default(self):
        config = SsRecConfig()
        assert coerce_k(None, config) == config.default_k

    def test_explicit_zero_stays_zero(self):
        assert coerce_k(0, SsRecConfig()) == 0


class TestCompiledPlans:
    def test_facade_compiles_expected_plan(self, fitted_ssrec, fitted_ssrec_indexed):
        assert fitted_ssrec.executor().plan.name == "scan-item"
        assert fitted_ssrec_indexed.executor().plan.name == "index-item"

    def test_scan_plan_matches_matcher(self, fitted_ssrec, ytube_small):
        executor = fitted_ssrec.executor()
        for item in ytube_small.items[:6]:
            assert executor.run_item(item, 7) == fitted_ssrec.matcher.top_k(item, 7)
        window = ytube_small.items[:6]
        assert executor.run_batch(window, 7) == fitted_ssrec.matcher.top_k_batch(window, 7)

    def test_index_plan_matches_knn(self, fitted_ssrec_indexed, ytube_small):
        executor = fitted_ssrec_indexed.executor()
        for item in ytube_small.items[:6]:
            assert executor.run_item(item, 7) == fitted_ssrec_indexed.index.knn(item, 7)

    def test_empty_batch_and_k_zero(self, fitted_ssrec, ytube_small):
        executor = fitted_ssrec.executor()
        assert executor.run_batch([], 5) == []
        assert executor.run_item(ytube_small.items[0], 0) == []

    def test_oracle_plan_agrees_within_ties(self, fitted_ssrec, ytube_small):
        oracle_exec = compile_plan(PLAN_REGISTRY.get("oracle-item"), fitted_ssrec)
        scan_exec = fitted_ssrec.executor()
        for item in ytube_small.items[:4]:
            want = scan_exec.run_item(item, 8)
            got = oracle_exec.run_item(item, 8)
            assert matches_within_ties(got, want)
        window = ytube_small.items[:4]
        for got, want in zip(
            oracle_exec.run_batch(window, 8), scan_exec.run_batch(window, 8)
        ):
            assert matches_within_ties(got, want)

    def test_compile_rejects_mismatched_owner(self, fitted_ssrec):
        with pytest.raises(TypeError, match="no shards"):
            compile_plan(PLAN_REGISTRY.get("sharded-scan-hash"), fitted_ssrec)
        with pytest.raises(TypeError, match="CPPse-index"):
            compile_plan(PLAN_REGISTRY.get("index-item"), fitted_ssrec)

    def test_attach_index_recompiles(self, fresh_ssrec):
        assert fresh_ssrec.executor().plan.name == "scan-item"
        fresh_ssrec.attach_index()
        assert fresh_ssrec.executor().plan.name == "index-item"

    def test_sharded_facade_plan(self, fitted_ssrec, ytube_small):
        with ShardedRecommender.from_trained(
            fitted_ssrec, n_shards=2, strategy="hash"
        ) as service:
            executor = service.executor()
            assert isinstance(executor, CompiledPlan)
            assert executor.plan.name == "sharded-scan-hash"
            item = ytube_small.items[0]
            assert service.recommend(item, 6) == fitted_ssrec.recommend(item, 6)


class TestAsExecutor:
    def test_facades_expose_their_plan(self, fitted_ssrec):
        assert as_executor(fitted_ssrec) is fitted_ssrec.executor()

    def test_plain_recommender_adapted(self, ytube_small):
        class Stub:
            def recommend(self, item, k):
                return [(1, 0.5)][:k]

        executor = as_executor(Stub())
        item = ytube_small.items[0]
        assert executor.run_item(item, 3) == [(1, 0.5)]
        # No recommend_batch: the adapter falls back to per-item calls.
        assert executor.run_batch([item, item], 3) == [[(1, 0.5)], [(1, 0.5)]]
