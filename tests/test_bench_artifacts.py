"""repro.bench: artifact schema validation and the regression gate."""

from __future__ import annotations

import ast
import importlib.util
import json
import re
import sys
import types
from pathlib import Path

import pytest

from repro.bench import (
    BenchResult,
    BenchSchemaError,
    artifact_name,
    compare_results,
    load_result,
    validate_result,
)
from repro.bench.__main__ import main as bench_main


def make_result(**overrides) -> BenchResult:
    fields = dict(
        name="demo",
        seed=7,
        scale="small",
        metrics={
            "scan": {"items_per_sec": 100.0},
            "index": {"items_per_sec": 40.0, "latency_ms": {"p95_ms": 3.0}},
            "driver": {"seconds": 12.5},
        },
        checks={"parity_ok": True},
    )
    fields.update(overrides)
    return BenchResult(**fields)


class TestSchema:
    def test_write_and_load_round_trip(self, tmp_path):
        path = make_result().write(tmp_path)
        assert path.name == artifact_name("demo") == "BENCH_demo.json"
        data = load_result(path)
        assert data["metrics"]["scan"]["items_per_sec"] == 100.0
        assert data["seed"] == 7
        assert data["meta"]["cpu_count"] >= 1

    def test_meta_captures_bench_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        result = make_result()
        assert result.meta["env"]["REPRO_BENCH_SCALE"] == "small"

    def test_rejects_empty_metrics(self, tmp_path):
        with pytest.raises(BenchSchemaError, match="non-empty"):
            make_result(metrics={}).write(tmp_path)

    def test_rejects_path_without_comparable_metric(self, tmp_path):
        bad = make_result(metrics={"scan": {"latency_ms": {"p95_ms": 1.0}}})
        with pytest.raises(BenchSchemaError, match="items_per_sec"):
            bad.write(tmp_path)

    def test_rejects_negative_throughput(self):
        with pytest.raises(BenchSchemaError, match="non-negative"):
            validate_result(
                make_result(metrics={"scan": {"items_per_sec": -1.0}}).to_dict()
            )

    def test_rejects_wrong_schema_version(self):
        data = make_result().to_dict()
        data["schema_version"] = 99
        with pytest.raises(BenchSchemaError, match="schema_version"):
            validate_result(data)

    def test_error_lists_every_problem(self):
        data = make_result(metrics={"scan": {}}).to_dict()
        data["seed"] = "seven"
        with pytest.raises(BenchSchemaError) as excinfo:
            validate_result(data)
        message = str(excinfo.value)
        assert "seed must be an integer" in message
        assert "metrics['scan']" in message

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{not json")
        with pytest.raises(BenchSchemaError, match="malformed JSON"):
            load_result(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(BenchSchemaError, match="unreadable"):
            load_result(tmp_path / "BENCH_nope.json")



class TestExtrasValidation:
    """extras is free-form but must stay strict-JSON clean all the way
    down — nested metric-registry dumps ride along in it now."""

    def test_nested_obs_dump_accepted(self, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("server.requests").inc(3)
        registry.histogram("server.route_seconds", op="recommend").record(0.002)
        result = make_result(extras={
            "scale": "small",
            "obs": {
                "registry": registry.to_dict(),
                "prometheus": registry.to_prometheus(),
                "slow_requests": [
                    {"op": "recommend", "seconds": 0.5, "spans": [
                        {"name": "server.request", "parent_id": None},
                    ]},
                ],
            },
        })
        path = result.write(tmp_path)
        loaded = load_result(path)
        # The nested dump survives the round trip intact and re-parses.
        restored = MetricsRegistry.from_dict(loaded["extras"]["obs"]["registry"])
        assert restored.to_dict() == registry.to_dict()

    @pytest.mark.parametrize("poison, message", [
        ({"obs": {"p95": float("nan")}}, "finite"),
        ({"obs": {"p95": float("inf")}}, "finite"),
        ({"obs": [1, {"deep": [float("-inf")]}]}, "finite"),
        ({"obs": {"when": object()}}, "JSON-serializable"),
        ({"obs": {1: "non-string key"}}, "non-string key"),
    ])
    def test_poisoned_extras_rejected_before_write(self, tmp_path, poison, message):
        result = make_result(extras=poison)
        with pytest.raises(BenchSchemaError, match=message):
            result.write(tmp_path)
        # Validation ran before the write: nothing was poisoned on disk.
        assert list(tmp_path.iterdir()) == []

    def test_error_names_the_nested_path(self):
        data = make_result(extras={"obs": {"series": [1.0, float("nan")]}}).to_dict()
        with pytest.raises(BenchSchemaError, match=re.escape("extras['obs']['series'][1]")):
            validate_result(data)


class TestCompare:
    def test_within_tolerance_passes(self):
        base = make_result().to_dict()
        cur = make_result(metrics={
            "scan": {"items_per_sec": 90.0},
            "index": {"items_per_sec": 39.0, "latency_ms": {"p95_ms": 4.0}},
            "driver": {"seconds": 20.0},
        }).to_dict()
        report = compare_results(base, cur, tolerance=0.15)
        assert report.ok
        # seconds and latency are informational, never gated.
        gated = {(d.path, d.metric) for d in report.deltas if d.gated}
        assert gated == {("scan", "items_per_sec"), ("index", "items_per_sec")}

    def test_throughput_drop_fails(self):
        base = make_result().to_dict()
        cur = make_result(metrics={
            "scan": {"items_per_sec": 50.0},
            "index": {"items_per_sec": 40.0},
            "driver": {"seconds": 12.0},
        }).to_dict()
        report = compare_results(base, cur, tolerance=0.15)
        assert not report.ok
        assert [d.path for d in report.regressions] == ["scan"]
        assert "REGRESSED" in report.to_text()

    def test_missing_path_fails(self):
        base = make_result().to_dict()
        cur = make_result(metrics={"scan": {"items_per_sec": 100.0}}).to_dict()
        report = compare_results(base, cur)
        assert not report.ok
        assert "index" in report.missing_paths
        assert "driver" in report.missing_paths

    def test_new_paths_are_informational(self):
        base = make_result(metrics={"scan": {"items_per_sec": 10.0}}).to_dict()
        cur = make_result().to_dict()
        report = compare_results(base, cur)
        assert report.ok
        assert set(report.new_paths) == {"index", "driver"}

    def test_environment_mismatch_noted_but_not_gating(self):
        base = make_result().to_dict()
        cur = make_result().to_dict()
        cur["meta"] = dict(cur["meta"], cpu_count=int(base["meta"]["cpu_count"]) + 3)
        report = compare_results(base, cur)
        # A different machine never fails the gate by itself, but the
        # report must say the comparison is weakened.
        assert report.ok
        assert any("cpu_count" in note for note in report.environment_notes)
        assert "note:" in report.to_text()

    def test_name_mismatch_rejected(self):
        with pytest.raises(BenchSchemaError, match="compare like with like"):
            compare_results(
                make_result().to_dict(), make_result(name="other").to_dict()
            )

    def test_tolerance_validated(self):
        base = make_result().to_dict()
        with pytest.raises(ValueError, match="tolerance"):
            compare_results(base, base, tolerance=1.5)


class TestCli:
    def _write(self, directory, result):
        directory.mkdir(parents=True, exist_ok=True)
        return result.write(directory)

    def test_compare_files_pass(self, tmp_path, capsys):
        base = self._write(tmp_path / "base", make_result())
        cur = self._write(tmp_path / "cur", make_result())
        assert bench_main(["compare", str(base), str(cur)]) == 0
        assert "perf gate: PASS" in capsys.readouterr().out

    def test_compare_directories_fail_on_regression(self, tmp_path, capsys):
        self._write(tmp_path / "base", make_result())
        self._write(
            tmp_path / "cur",
            make_result(metrics={
                "scan": {"items_per_sec": 10.0},
                "index": {"items_per_sec": 40.0},
                "driver": {"seconds": 12.0},
            }),
        )
        code = bench_main(
            ["compare", str(tmp_path / "base"), str(tmp_path / "cur")]
        )
        assert code == 1
        assert "perf gate: FAIL" in capsys.readouterr().out

    def test_compare_directory_missing_current_artifact(self, tmp_path, capsys):
        self._write(tmp_path / "base", make_result())
        (tmp_path / "cur").mkdir()
        assert bench_main(["compare", str(tmp_path / "base"), str(tmp_path / "cur")]) == 1
        assert "NO current artifact" in capsys.readouterr().out

    def test_compare_empty_baseline_dir_errors(self, tmp_path, capsys):
        (tmp_path / "base").mkdir()
        (tmp_path / "cur").mkdir()
        assert bench_main(["compare", str(tmp_path / "base"), str(tmp_path / "cur")]) == 1
        assert "no BENCH_*.json artifacts" in capsys.readouterr().out

    def test_compare_mixed_file_and_dir_errors(self, tmp_path, capsys):
        base = self._write(tmp_path / "base", make_result())
        assert bench_main(["compare", str(base), str(tmp_path / "base")]) == 1
        assert "two files or two directories" in capsys.readouterr().out

    def test_validate_good_and_bad(self, tmp_path, capsys):
        good = self._write(tmp_path, make_result())
        assert bench_main(["validate", str(good)]) == 0
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text(json.dumps({"name": "bad"}))
        assert bench_main(["validate", str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out


BENCH_DIR = Path(__file__).parent.parent / "benchmarks"


def _load_by_path(name: str, path: Path) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchImports:
    """``bench_*.py`` do not match ``test_*.py``, so tier-1 never collects
    them: without this guard a renamed driver only surfaces in the
    perf-gate / nightly jobs."""

    def test_every_bench_is_covered(self):
        assert len(list(BENCH_DIR.glob("bench_*.py"))) >= 17

    @pytest.mark.parametrize(
        "path",
        [BENCH_DIR / "conftest.py", *sorted(BENCH_DIR.glob("bench_*.py"))],
        ids=lambda path: path.name,
    )
    def test_imports_and_resolves_every_repro_attribute(self, path, monkeypatch):
        # Benches import their shared constants ``from conftest``.
        conftest = _load_by_path("_bench_guard_conftest", BENCH_DIR / "conftest.py")
        monkeypatch.setitem(sys.modules, "conftest", conftest)
        module = _load_by_path(f"_bench_guard_{path.stem}", path)
        # Every ``<alias>.<name>`` whose alias is a repro module (``figures``,
        # ``systems``, ...) must name something that module really has.
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                owner = getattr(module, node.value.id, None)
                if isinstance(owner, types.ModuleType) and owner.__name__.startswith("repro"):
                    assert hasattr(owner, node.attr), (
                        f"{path.name}:{node.lineno}: {owner.__name__} has no {node.attr!r}"
                    )
