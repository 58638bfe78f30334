"""Benchmark fixtures: shared datasets and result persistence.

Scale is controlled by ``REPRO_BENCH_SCALE`` (``small`` | ``default`` |
``paper_shape``) and every seeded stage — dataset generation, synthpop
resampling, model init — derives from ``REPRO_BENCH_SEED``, so a bench
run is reproducible from those two knobs alone.  Each benchmark runs its
experiment driver once (``benchmark.pedantic``, via :func:`bench_run`,
which also captures the driver's wall clock) and persists **two**
artifacts per result through :func:`save_result`:

- ``benchmarks/results/<name>.txt`` — the regenerated table/figure text
  EXPERIMENTS.md quotes;
- ``benchmarks/results/BENCH_<name>.json`` — the schema-validated
  machine-readable record (:mod:`repro.bench`) that the CI perf gate
  compares against ``benchmarks/baselines/`` via
  ``python -m repro.bench compare``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.bench import BenchResult
from repro.datasets.ytube import YTubeConfig, generate_ytube
from repro.eval import figures

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")
SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))
RESULTS_DIR = Path(__file__).parent / "results"

#: Ground-truth density threshold for effectiveness benches; shapes are
#: insensitive to it, but levels need a few interactors per judged item.
MIN_TRUTH = 3


@pytest.fixture(scope="session")
def bench_seed():
    """The one seed every bench stage derives from (``REPRO_BENCH_SEED``)."""
    return SEED


@pytest.fixture(scope="session")
def datasets():
    """The paper's four datasets (Table III) at the configured scale."""
    return figures.make_datasets(SCALE, seed=SEED)


@pytest.fixture(scope="session")
def sparse_ytube():
    """Paper-sparsity YTube variant (Table II's regime)."""
    return generate_ytube(YTubeConfig.sparse(seed=SEED))


@pytest.fixture(scope="session")
def efficiency_datasets():
    """Datasets for the efficiency figures (10/11).

    The index-vs-scan crossover needs a real user population: a sequential
    scan over ~80 users beats any index.  These benches therefore run at
    least at ``default`` scale (600 consumers) even when the effectiveness
    benches run ``small``.
    """
    scale = "default" if SCALE == "small" else SCALE
    return figures.make_datasets(scale, seed=SEED)


@pytest.fixture
def bench_run(benchmark):
    """Run a driver once under pytest-benchmark, returning
    ``(result, wall_seconds)`` so every artifact carries its runtime."""

    def _run(fn):
        timing: dict[str, float] = {}

        def wrapped():
            started = time.perf_counter()
            out = fn()
            timing["seconds"] = time.perf_counter() - started
            return out

        result = benchmark.pedantic(wrapped, rounds=1, iterations=1)
        return result, timing["seconds"]

    return _run


@pytest.fixture(scope="session")
def save_result():
    """Persist one regenerated result (text + BENCH_<name>.json artifact).

    ``metrics`` is the comparable payload of the JSON artifact (per-path
    ``items_per_sec``/``seconds``/``latency_ms``; see
    :mod:`repro.bench.schema`); ``checks`` records the assertions the
    bench made; ``extras`` carries the free-form series for trajectory
    plots.  The artifact is schema-validated on write, so a malformed
    producer fails its own bench run.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(
        name: str,
        text: str,
        *,
        metrics: dict,
        checks: dict | None = None,
        extras: dict | None = None,
    ) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        artifact = BenchResult(
            name=name,
            seed=SEED,
            scale=SCALE,
            metrics=metrics,
            checks=checks or {},
            extras=extras or {},
        )
        json_path = artifact.write(RESULTS_DIR)
        print(f"\n{text}\n[saved to {path} and {json_path.name}]")

    return _save
