"""Tests for the stream evaluation harness."""

from pathlib import Path

import pytest

from repro.core.config import SsRecConfig
from repro.core.ssrec import SsRecRecommender
from repro.eval.harness import StreamEvaluator


class TestRun:
    def test_outcome_structure(self, fresh_ssrec, ytube_stream):
        evaluator = StreamEvaluator(ytube_stream, ks=(5, 10), max_items_per_partition=10)
        outcome = evaluator.run(fresh_ssrec)
        assert set(outcome.p_at_k) == {5, 10}
        assert outcome.n_items > 0
        assert all(0.0 <= p <= 1.0 for p in outcome.p_at_k.values())
        assert len(outcome.per_partition_timing) == len(ytube_stream.test_indices)
        assert outcome.timing.n == outcome.n_items

    def test_deterministic_across_runs(self, ytube_small, ytube_stream):
        def run_once():
            rec = SsRecRecommender(seed=1).fit(
                ytube_small, ytube_stream.training_interactions()
            )
            return StreamEvaluator(
                ytube_stream, ks=(5,), max_items_per_partition=20
            ).run(rec).p_at_k[5]

        assert run_once() == pytest.approx(run_once())

    def test_min_truth_filters_items(self, fresh_ssrec, ytube_stream):
        low = StreamEvaluator(ytube_stream, ks=(5,), min_truth=1)
        high = StreamEvaluator(ytube_stream, ks=(5,), min_truth=5)
        rec = fresh_ssrec
        n_low = low.run(rec, update=False).n_items
        n_high = high.run(rec, update=False).n_items
        assert n_high < n_low

    def test_max_items_caps_judged(self, fresh_ssrec, ytube_stream):
        evaluator = StreamEvaluator(ytube_stream, ks=(5,), max_items_per_partition=3)
        outcome = evaluator.run(fresh_ssrec, update=False)
        assert outcome.n_items <= 3 * len(ytube_stream.test_indices)

    def test_updates_disabled_leaves_profiles_static(self, fresh_ssrec, ytube_stream):
        versions_before = {
            p.user_id: p.version for p in fresh_ssrec.profiles
        }
        StreamEvaluator(ytube_stream, ks=(5,), max_items_per_partition=5).run(
            fresh_ssrec, update=False
        )
        versions_after = {p.user_id: p.version for p in fresh_ssrec.profiles}
        assert versions_before == versions_after

    def test_works_with_baselines(self, ytube_small, ytube_stream):
        from repro.baselines.ctt import CTTRecommender

        ctt = CTTRecommender().fit(ytube_small, ytube_stream.training_interactions())
        outcome = StreamEvaluator(
            ytube_stream, ks=(5,), max_items_per_partition=10
        ).run(ctt)
        assert outcome.n_items > 0


class TestLambdaSweep:
    def test_sweep_matches_direct_run_at_same_lambda(self, ytube_small, ytube_stream):
        """The decomposed-score sweep must equal a plain run whose config
        has that lambda — exactness of the Fig. 6/7 shortcut."""
        lam = 0.3
        rec_sweep = SsRecRecommender(seed=1).fit(
            ytube_small, ytube_stream.training_interactions()
        )
        evaluator = StreamEvaluator(ytube_stream, ks=(5, 10))
        sweep = evaluator.run_lambda_sweep(rec_sweep, [lam])

        rec_direct = SsRecRecommender(
            config=SsRecConfig(lambda_s=lam), seed=1
        ).fit(ytube_small, ytube_stream.training_interactions())
        direct = evaluator.run(rec_direct).p_at_k
        assert sweep[lam][5] == pytest.approx(direct[5])
        assert sweep[lam][10] == pytest.approx(direct[10])

    def test_sweep_requires_fitted_scan_recommender(self, ytube_stream):
        evaluator = StreamEvaluator(ytube_stream)
        with pytest.raises(ValueError):
            evaluator.run_lambda_sweep(SsRecRecommender(), [0.5])


class TestMaintenanceCost:
    def test_cost_positive_and_increasing_with_size(self, ytube_small, ytube_stream):
        def cost(n):
            rec = SsRecRecommender(use_index=True, seed=1).fit(
                ytube_small, ytube_stream.training_interactions()
            )
            return StreamEvaluator(ytube_stream).maintenance_cost(rec, n)

        c1, c3 = cost(1), cost(3)
        assert c1 > 0
        assert c3 > c1 * 0.8  # more updates should not be dramatically cheaper

    def test_writes_go_through_update(self, ytube_small, ytube_stream):
        """Fig. 11 drives the public write path: every interaction is an
        ``update`` (so ``exec_epoch`` advances and memoized results are
        orphaned) and every flush an explicit ``run_maintenance``."""
        rec = SsRecRecommender(use_index=True, seed=1).fit(
            ytube_small, ytube_stream.training_interactions()
        )
        n_updates = len(ytube_stream.partitions[ytube_stream.test_indices[0]])
        before = rec.exec_epoch
        flushes_before = rec.index.counters["flushes"]
        StreamEvaluator(ytube_stream).maintenance_cost(rec, 1, batch_size=50)
        n_flushes = -(-n_updates // 50)
        assert rec.exec_epoch == before + n_updates + n_flushes
        assert rec.index.counters["flushes"] - flushes_before == n_flushes
        assert not rec._maintenance_pending  # the tail was flushed too

    def test_no_private_write_path_in_eval(self):
        """``repro.eval`` never reaches into the recommender's pending set."""
        import repro.eval

        for path in Path(repro.eval.__file__).parent.glob("*.py"):
            assert "_maintenance_pending" not in path.read_text(), path.name

    def test_interval_must_exceed_batch(self, ytube_small, ytube_stream):
        rec = SsRecRecommender(
            config=SsRecConfig(maintenance_interval=10), use_index=True, seed=1
        ).fit(ytube_small, ytube_stream.training_interactions())
        with pytest.raises(ValueError, match="maintenance_interval"):
            StreamEvaluator(ytube_stream).maintenance_cost(rec, 1, batch_size=10)

    def test_requires_index(self, fresh_ssrec, ytube_stream):
        with pytest.raises(ValueError):
            StreamEvaluator(ytube_stream).maintenance_cost(fresh_ssrec, 1)

    def test_invalid_partition_count_rejected(self, fresh_ssrec_indexed, ytube_stream):
        with pytest.raises(ValueError):
            StreamEvaluator(ytube_stream).maintenance_cost(fresh_ssrec_indexed, 9)
