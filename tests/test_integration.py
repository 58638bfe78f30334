"""Cross-module integration tests: the paper's headline claims end to end.

These are the repository's acceptance tests — each asserts one qualitative
result of the paper's evaluation on the tiny deterministic dataset.
"""

import numpy as np
import pytest

from repro.core.config import SsRecConfig
from repro.core.ssrec import SsRecRecommender
from repro.eval import figures
from repro.eval.harness import StreamEvaluator
from repro.stream.engine import LocalEngine
from repro.stream import build_recommendation_topology


class TestEffectivenessClaims:
    def test_ssrec_beats_random_by_a_wide_margin(self, fitted_ssrec, ytube_stream, ytube_small):
        evaluator = StreamEvaluator(ytube_stream, ks=(5,), min_truth=3)
        rec = SsRecRecommender(seed=1).fit(
            ytube_small, ytube_stream.training_interactions()
        )
        p5 = evaluator.run(rec).p_at_k[5]
        # Random baseline: expected P@5 ~= mean |truth| / n_consumers.
        truth_sizes = []
        for p in ytube_stream.test_indices:
            truth_sizes.extend(
                len(v) for v in ytube_stream.ground_truth(p).values() if len(v) >= 3
            )
        random_p = float(np.mean(truth_sizes)) / len(ytube_small.consumer_ids)
        assert p5 > 2 * random_p

    def test_updates_improve_precision(self, ytube_small, ytube_stream):
        """Fig. 9's claim: ssRec > ssRec-nu."""
        result = figures.run_fig9(ytube_small, ks=(10, 20, 30), min_truth=3)
        better = sum(
            1
            for k in (10, 20, 30)
            if result.series["ssRec"][k] >= result.series["ssRec-nu"][k]
        )
        assert better >= 2

    def test_ssrec_beats_ctt_and_ucd_at_small_k(self, ytube_small):
        """Fig. 8's claim at the sharpest cutoff."""
        result = figures.run_fig8(ytube_small, ks=(5,), min_truth=3)
        p = result.series
        assert p["ssRec"][5] > p["CTT"][5]
        assert p["ssRec"][5] > p["UCD"][5]

    def test_lambda_curve_is_worse_at_extremes(self, ytube_small):
        """Fig. 7's claim: pure long-term (0) and pure short-term (1) are
        both beaten by a mixture."""
        result = figures.run_fig7(
            ytube_small, lambdas=(0.0, 0.3, 0.5, 1.0), ks=(5,), min_truth=3
        )
        best_mid = max(result.series[0.3][5], result.series[0.5][5])
        assert best_mid >= result.series[0.0][5]
        assert best_mid > result.series[1.0][5]


class TestBiHMMClaim:
    def test_bihmm_not_worse_than_hmm_on_average(self, ytube_small):
        """Fig. 5's claim, aggregated over state-count groups."""
        result = figures.run_fig5(ytube_small, max_users=12, max_states=4, min_history=25)
        weights = result.users_by_group
        total = sum(weights.values())
        hmm = sum(result.hmm_by_group[g] * weights[g] for g in weights) / total
        bihmm = sum(result.bihmm_by_group[g] * weights[g] for g in weights) / total
        assert bihmm >= hmm - 0.01


class TestIndexClaims:
    def test_index_recall_of_exact_topk_is_high(
        self, fitted_ssrec, fitted_ssrec_indexed, ytube_stream
    ):
        """The index's top-10 overlaps the unrestricted exact top-10 heavily
        (hash probing may exclude users in unprobed blocks)."""
        overlaps = []
        for item in ytube_stream.items_in_partition(2)[:20]:
            exact = {u for u, _ in fitted_ssrec.matcher.top_k(item, 10)}
            via_index = {u for u, _ in fitted_ssrec_indexed.index.knn(item, 10)}
            if exact:
                overlaps.append(len(exact & via_index) / len(exact))
        assert float(np.mean(overlaps)) >= 0.9

    def test_index_visits_fewer_users_than_scan(self, fitted_ssrec_indexed, ytube_stream):
        """The candidate-pruning claim: probed trees hold fewer users than
        the full population for typical items."""
        index = fitted_ssrec_indexed.index
        sizes = [
            len(index.users_in_probed_trees(item))
            for item in ytube_stream.items_in_partition(2)[:20]
        ]
        population = len(fitted_ssrec_indexed.profiles)
        assert float(np.mean(sizes)) < population


class TestTopologyIntegration:
    def test_topology_results_match_direct_recommendation(
        self, fitted_ssrec, ytube_stream, ytube_small
    ):
        """Running over the mini-Storm topology must not change results."""
        items = ytube_stream.items_in_partition(2)[:10]
        direct = {it.item_id: fitted_ssrec.recommend(it, 5) for it in items}
        topology, sink = build_recommendation_topology(
            items,
            fitted_ssrec.extractor,
            fitted_ssrec,
            n_categories=ytube_small.n_categories,
            k=5,
        )
        LocalEngine(topology).run()
        for item in items:
            assert [u for u, _ in sink.results[item.item_id]] == [
                u for u, _ in direct[item.item_id]
            ]


class TestExperimentDrivers:
    def test_table2_rows_monotone_header(self, ytube_small):
        result = figures.run_table2(ytube_small, block_counts=(1, 4, 8))
        assert result.block_counts == [1, 4, 8]
        assert len(result.max_entities) == 3
        assert result.max_entities[0] >= result.max_entities[-1]
        assert "Table II" in result.to_text()

    def test_table3_includes_all_four_datasets(self):
        result = figures.run_table3(scale="small")
        names = [row["Dataset"] for row in result.rows_]
        assert names == ["YTube", "SynYTube", "MLens", "SynMLens"]

    def test_fig6_reports_all_windows(self, ytube_small):
        result = figures.run_fig6(
            ytube_small, window_sizes=(2, 5), lambdas=(0.2, 0.4), ks=(5,), min_truth=3
        )
        assert set(result.series) == {2, 5}
        assert "Fig. 6" in result.to_text()

    def test_fig10_reports_three_methods(self, ytube_small):
        result = figures.run_fig10(ytube_small, max_items_per_partition=5, min_truth=2)
        assert set(result.series) == {"CTT", "UCD", "CPPse-index"}
        for series in result.series.values():
            assert set(series) == {1, 2, 3, 4}

    def test_fig11_costs_positive(self, ytube_small):
        result = figures.run_fig11({"YTube": ytube_small}, sizes=(1, 2))
        assert all(v > 0 for v in result.series["YTube"].values())
