"""Tests for the command-line experiment runner."""

from dataclasses import dataclass, field

import pytest

from repro.eval import figures, systems
from repro.eval.__main__ import ALL_EXPERIMENTS, build_parser, main


@dataclass
class _StubResult:
    """Minimal stand-in for any driver result object."""

    text: str = "stub output"
    total_divergences: int = 0
    parity_ok: bool = True

    def to_text(self) -> str:
        return self.text


@dataclass
class _Recorder:
    """Replaces one ``run_*`` driver; records how it was called."""

    result: _StubResult = field(default_factory=_StubResult)
    calls: list = field(default_factory=list)

    def __call__(self, *args, **kwargs):
        self.calls.append((args, kwargs))
        return self.result

    @property
    def kwargs(self) -> dict:
        assert len(self.calls) == 1, "driver expected exactly one call"
        return self.calls[0][1]


class TestParser:
    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig7"])
        assert args.dataset == "YTube"
        assert args.scale == "small"
        assert args.min_truth == 3

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7", "--dataset", "Netflix"])


class TestMain:
    def test_table3_runs_and_prints(self, capsys):
        assert main(["table3", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "SynMLens" in out

    def test_fig7_runs_and_prints(self, capsys):
        assert main(["fig7", "--dataset", "YTube"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out
        assert "lambda" in out

    def test_fig9_on_mlens(self, capsys):
        assert main(["fig9", "--dataset", "MLens"]) == 0
        out = capsys.readouterr().out
        assert "ssRec-nu" in out

    def test_sharded_runs_and_prints(self, capsys):
        assert main(["sharded", "--dataset", "YTube"]) == 0
        out = capsys.readouterr().out
        assert "Sharded serving" in out
        assert "parity with single index: exact" in out


class TestDispatch:
    """Every subcommand reaches its driver with the CLI knobs threaded
    through (drivers stubbed out — dispatch is what is under test)."""

    @pytest.fixture
    def fake_datasets(self, monkeypatch):
        datasets = {name: object() for name in ("YTube", "SynYTube", "MLens", "SynMLens")}
        recorder = _Recorder()

        def make_datasets(scale, seed):
            recorder.calls.append(((scale,), {"seed": seed}))
            return datasets

        monkeypatch.setattr(figures, "make_datasets", make_datasets)
        return datasets, recorder

    @pytest.mark.parametrize(
        "experiment,module,driver",
        [
            ("fig5", figures, "run_fig5"),
            ("fig6", figures, "run_fig6"),
            ("fig7", figures, "run_fig7"),
            ("fig8", figures, "run_fig8"),
            ("fig9", figures, "run_fig9"),
            ("fig10", figures, "run_fig10"),
            ("batch", systems, "run_batch_throughput"),
            ("sharded", systems, "run_sharded_throughput"),
        ],
    )
    def test_single_dataset_dispatch(
        self, monkeypatch, capsys, fake_datasets, experiment, module, driver
    ):
        datasets, dataset_recorder = fake_datasets
        recorder = _Recorder()
        monkeypatch.setattr(module, driver, recorder)
        assert main([experiment, "--dataset", "MLens", "--seed", "11"]) == 0
        assert "stub output" in capsys.readouterr().out
        args, kwargs = recorder.calls[0]
        assert args[0] is datasets["MLens"]
        assert kwargs["seed"] == 11
        # The same --seed drove the dataset generators.
        assert dataset_recorder.calls[0][1]["seed"] == 11

    def test_fig11_dispatch_gets_all_datasets(
        self, monkeypatch, capsys, fake_datasets
    ):
        datasets, _ = fake_datasets
        recorder = _Recorder()
        monkeypatch.setattr(figures, "run_fig11", recorder)
        assert main(["fig11", "--seed", "3"]) == 0
        args, kwargs = recorder.calls[0]
        assert args[0] is datasets
        assert kwargs["seed"] == 3

    def test_table2_threads_seed_into_generator(self, monkeypatch, capsys):
        recorder = _Recorder()
        monkeypatch.setattr(figures, "run_table2", recorder)
        seen = {}

        def fake_generate(config):
            seen["seed"] = config.seed
            return object()

        import repro.eval.__main__ as cli

        monkeypatch.setattr(cli, "generate_ytube", fake_generate)
        assert main(["table2", "--seed", "23"]) == 0
        assert seen["seed"] == 23

    def test_min_truth_threaded(self, monkeypatch, capsys, fake_datasets):
        recorder = _Recorder()
        monkeypatch.setattr(figures, "run_fig8", recorder)
        assert main(["fig8", "--min-truth", "5"]) == 0
        assert recorder.kwargs["min_truth"] == 5

    def test_all_experiments_covered(self):
        assert set(ALL_EXPERIMENTS) == {
            "table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "batch", "sharded", "dedup",
            "conformance", "serve", "loadgen",
        }

    def test_cache_experiment_is_gone(self, capsys):
        """One memo stage, one experiment: ``dedup`` measures it; the
        separate result-cache experiment no longer parses."""
        with pytest.raises(SystemExit):
            main(["cache"])
        assert "invalid choice" in capsys.readouterr().err
        assert not hasattr(systems, "run_result_cache")

    def test_dedup_dispatch(self, monkeypatch, capsys, fake_datasets):
        datasets, _ = fake_datasets
        recorder = _Recorder(result=_StubResult(parity_ok=True))
        monkeypatch.setattr(systems, "run_dedup", recorder)
        assert main(["dedup", "--dataset", "MLens", "--seed", "11"]) == 0
        assert "stub output" in capsys.readouterr().out
        assert recorder.kwargs["base"] is datasets["MLens"]
        assert recorder.kwargs["seed"] == 11

    def test_dedup_nonzero_exit_on_exact_divergence(
        self, monkeypatch, capsys, fake_datasets
    ):
        recorder = _Recorder(result=_StubResult(parity_ok=False))
        monkeypatch.setattr(systems, "run_dedup", recorder)
        # CI gates on this: an exact-mode divergence must fail the process.
        assert main(["dedup"]) == 1


class TestConformanceCommand:
    def test_threads_seed_k_scenarios_events(self, monkeypatch, capsys):
        recorder = _Recorder()
        monkeypatch.setattr(systems, "run_conformance", recorder)
        assert (
            main(
                [
                    "conformance",
                    "--seed", "13",
                    "--k", "4",
                    "--scenarios", "bursty_uploads,abrupt_drift",
                    "--events", "123",
                ]
            )
            == 0
        )
        kwargs = recorder.kwargs
        assert kwargs["seed"] == 13
        assert kwargs["k"] == 4
        assert kwargs["scenarios"] == ["bursty_uploads", "abrupt_drift"]
        assert kwargs["max_events"] == 123
        assert "stub output" in capsys.readouterr().out

    def test_default_scenarios_is_full_catalog(self, monkeypatch, capsys):
        recorder = _Recorder()
        monkeypatch.setattr(systems, "run_conformance", recorder)
        assert main(["conformance"]) == 0
        assert recorder.kwargs["scenarios"] is None

    def test_nonzero_exit_on_divergence(self, monkeypatch, capsys):
        recorder = _Recorder(result=_StubResult(total_divergences=2))
        monkeypatch.setattr(systems, "run_conformance", recorder)
        # CI gates on this: any divergence must fail the process.
        assert main(["conformance"]) == 1
        assert "stub output" in capsys.readouterr().out

    def test_threads_registry_paths(self, monkeypatch, capsys):
        recorder = _Recorder()
        monkeypatch.setattr(systems, "run_conformance", recorder)
        assert (
            main(["conformance", "--paths", "scan-item,index-batch-dedup"]) == 0
        )
        assert recorder.kwargs["paths"] == ["scan-item", "index-batch-dedup"]

    def test_default_paths_is_full_registry(self, monkeypatch, capsys):
        recorder = _Recorder()
        monkeypatch.setattr(systems, "run_conformance", recorder)
        assert main(["conformance"]) == 0
        assert recorder.kwargs["paths"] is None

    def test_unknown_path_fails(self, capsys):
        # Threads through to the runner's validation: unknown plan names
        # must fail loudly, not silently serve a subset.
        with pytest.raises(ValueError, match="unknown conformance"):
            main(["conformance", "--paths", "quantum-tunnel", "--events", "10"])

    def test_list_paths_prints_registry(self, capsys):
        from repro.exec import PLAN_REGISTRY

        assert main(["conformance", "--list-paths"]) == 0
        out = capsys.readouterr().out
        for name in PLAN_REGISTRY.names():
            assert name in out
