"""Tests for the experiment drivers' structure and helpers."""

import pytest

from repro.eval import figures, systems
from repro.eval.figures import cumulative_means, profiles_from_dataset
from repro.eval.metrics import TimingStats


class TestMakeDatasets:
    def test_small_scale_has_four_datasets(self):
        datasets = figures.make_datasets("small")
        assert list(datasets) == ["YTube", "SynYTube", "MLens", "SynMLens"]
        for ds in datasets.values():
            ds.validate()

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            figures.make_datasets("galactic")

    def test_seed_changes_data(self):
        a = figures.make_datasets("small", seed=1)["YTube"]
        b = figures.make_datasets("small", seed=2)["YTube"]
        assert a.interactions[:50] != b.interactions[:50]


class TestProfilesFromDataset:
    def test_every_active_user_profiled(self, ytube_small):
        profiles = profiles_from_dataset(ytube_small)
        active = {i.user_id for i in ytube_small.interactions}
        assert {p.user_id for p in profiles} == active

    def test_window_one_captures_full_history(self, ytube_small):
        profiles = profiles_from_dataset(ytube_small, window_size=1)
        by_user = {}
        for inter in ytube_small.interactions:
            by_user[inter.user_id] = by_user.get(inter.user_id, 0) + 1
        for profile in profiles:
            assert profile.n_long_events == by_user[profile.user_id]


class TestCumulativeMeans:
    def test_accumulates_across_partitions(self):
        series = cumulative_means(
            [TimingStats([0.001, 0.001]), TimingStats([0.003, 0.003])]
        )
        assert series[1] == pytest.approx(1.0)   # ms
        assert series[2] == pytest.approx(2.0)   # (2*1 + 2*3) / 4

    def test_empty_partitions_safe(self):
        series = cumulative_means([TimingStats(), TimingStats([0.002])])
        assert series[1] == 0.0
        assert series[2] == pytest.approx(2.0)


class TestResultFormatting:
    def test_fig7_result_helpers(self, ytube_small):
        result = figures.run_fig7(
            ytube_small, lambdas=(0.0, 0.5), ks=(5,), min_truth=3
        )
        assert result.optimal_lambda(5) in (0.0, 0.5)
        text = result.to_text()
        assert "lambda" in text and "Top 5" in text

    def test_fig5_groups_cover_all_users(self, ytube_small):
        result = figures.run_fig5(ytube_small, max_users=8, max_states=3, min_history=25)
        assert sum(result.users_by_group.values()) == 8
        assert set(result.hmm_by_group) == set(result.bihmm_by_group)

    def test_fig9_has_both_settings(self, ytube_small):
        result = figures.run_fig9(ytube_small, ks=(5,), min_truth=3)
        assert set(result.series) == {"ssRec", "ssRec-nu"}

    def test_fig11_text_lists_datasets(self, ytube_small):
        result = figures.run_fig11({"YTube": ytube_small}, sizes=(1,))
        assert "YTube" in result.to_text()


class TestShardedThroughput:
    def test_parity_and_reporting(self, ytube_small):
        result = systems.run_sharded_throughput(
            ytube_small, shard_counts=(1, 2), k=10, max_items=48
        )
        assert result.parity_ok
        assert result.n_items == 48
        for path, series in result.items_per_sec.items():
            assert set(series) == {1, 2}, path
            assert all(ips > 0 for ips in series.values())
        assert set(result.baselines) == {
            "scan-item", "scan-batch", "index-item", "index-batch",
        }
        for n in (1, 2):
            summary = result.latency_ms[n]
            assert summary["p95_ms"] >= summary["p50_ms"] >= 0.0
        text = result.to_text()
        assert "parity with single index: exact" in text
        assert "p99_ms" in text
        assert result.speedup_over_scan(1) > 0
