"""Differential conformance of every serving path (the repro.sim harness).

Replays the adversarial scenario catalog — bursts, cold starts, drift,
popularity skew, duplicate/out-of-order delivery, maintenance-boundary
storms — through the per-item scan, batched scan, CPPse-index and sharded
serving paths (one mid-stream snapshot reload on the sharded index path,
one rolling worker restart on the process-backend path) and judges every
window against the naive per-pair oracle.

Two assertions, both regression backstops for serving-path work:

- **zero divergences** across the whole scenario x path matrix — any
  future optimization that moves a single result breaks this bench;
- the report also carries per-path throughput, persisted to
  ``benchmarks/results/conformance.txt`` for eyeballing which path pays
  what under adversarial traffic.
"""

import os

from repro.eval import systems

#: CI smoke runs set these to shrink the replayed stream / catalog.
MAX_EVENTS = int(os.environ.get("REPRO_BENCH_CONFORMANCE_EVENTS", "500"))
_names = os.environ.get("REPRO_BENCH_CONFORMANCE_SCENARIOS", "")
SCENARIOS = tuple(name for name in _names.split(",") if name) or None


def test_conformance(bench_run, bench_seed, save_result):
    result, seconds = bench_run(
        lambda: systems.run_conformance(
            scenarios=SCENARIOS,
            seed=bench_seed,
            max_events=MAX_EVENTS,
        )
    )
    # Aggregate per-path throughput across scenarios for the artifact.
    queries: dict[str, int] = {}
    serve_seconds: dict[str, float] = {}
    for report in result.reports:
        for name, path_report in report.paths.items():
            queries[name] = queries.get(name, 0) + path_report.n_queries
            serve_seconds[name] = (
                serve_seconds.get(name, 0.0) + path_report.serve_seconds
            )
    metrics = {"driver": {"seconds": seconds}}
    for name in queries:
        if serve_seconds[name] > 0:
            metrics[name] = {"items_per_sec": queries[name] / serve_seconds[name]}
    checks = {
        "conformant": result.conformant,
        "total_divergences": result.total_divergences,
        "n_scenarios": len(result.reports),
    }
    save_result("conformance", result.to_text(), metrics=metrics, checks=checks)
    # The tentpole claim: every serving path agrees with the oracle on
    # every window of every adversarial scenario.
    assert result.conformant, result.to_text()
    # Each replayed scenario actually exercised the full path matrix —
    # the registry-derived catalog (dedup variants included), the
    # process backend with its mid-stream worker restart, and the
    # sharded index path with its mid-stream snapshot reload.
    from repro.sim import CONFORMANCE_PATHS

    for report in result.reports:
        assert set(report.paths) == set(CONFORMANCE_PATHS)
        assert any(name.endswith("-dedup") for name in report.paths)
        assert report.paths["sharded-index-block"].snapshot_reloads >= 1
        assert report.paths["sharded-scan-process"].worker_restarts >= 1
