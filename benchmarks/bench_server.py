"""Network serving: dynamic micro-batch coalescing vs per-request dispatch.

Fires an open-loop query load (:func:`repro.serve.loadgen.drive_queries`)
through a live socket server twice — once with the coalescer off (every
recommend dispatched to the model thread individually) and once with it
on (concurrently queued recommends regrouped into greedy micro-batches
that track the arrival rate).  Both arms serve the same fitted scan-mode
recommender and every served ranked list is compared bitwise against the
in-process ``recommend_batch`` reference, so the measured win is proven
exact as it is timed (the wire conformance suite additionally holds the
``served-*`` plans to zero divergences across the whole scenario
catalog).

Assertions:

- **parity** — both arms are bit-identical to the in-process reference;
- **coalescing actually happened** — the coalesced arm formed real
  multi-request batches;
- **speedup** — coalescing clears >=1.5x items/sec over per-request
  dispatch at default scale.
"""

import os

from conftest import SCALE
from repro.eval import systems

#: CI smoke runs set this to shrink the query load.
MAX_ITEMS = int(os.environ.get("REPRO_BENCH_SERVER_ITEMS", "256"))

#: In-flight request bound of the open-loop generator.  The coalescer
#: tracks the arrival rate (windows close when the model frees up), so
#: under this load its batches settle near the concurrency.
CONCURRENCY = int(os.environ.get("REPRO_BENCH_SERVER_CONCURRENCY", "16"))

#: The >=1.5x headline claim of the coalescer (open-loop load at default
#: scale; scales below keep the same bar).
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_SERVER_MIN_SPEEDUP", "1.5"))


def test_server_coalescing(bench_run, bench_seed, save_result, efficiency_datasets):
    result, seconds = bench_run(
        lambda: systems.run_server_throughput(
            efficiency_datasets["YTube"],
            max_items=MAX_ITEMS,
            concurrency=CONCURRENCY,
            seed=bench_seed,
        )
    )
    metrics = {
        "driver": {"seconds": seconds},
        "per_request": {
            "items_per_sec": result.items_per_sec("per-request"),
            "seconds": result.seconds["per-request"],
            "latency_ms": result.latency_ms["per-request"],
        },
        "coalesced": {
            "items_per_sec": result.items_per_sec("coalesced"),
            "seconds": result.seconds["coalesced"],
            "latency_ms": result.latency_ms["coalesced"],
        },
    }
    checks = {
        "parity_ok": result.parity_ok,
        "coalescing_speedup": result.speedup("coalesced", "per-request"),
        "mean_batch_size": result.mean_batch_size,
        "max_batch_size": result.max_batch_size,
        "n_items": result.n_served,
    }
    # The coalesced server's metrics scrape rides along in extras (nested
    # registry dump); prove it round-trips the obs schema before writing
    # so the artifact never carries an unparseable dump.
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry.from_dict(result.obs.get("registry", {}))
    assert registry.to_dict() == result.obs.get("registry"), "obs dump round-trip"
    extras = {
        "scale": SCALE,
        "concurrency": result.concurrency,
        "k": result.k,
        "obs": result.obs,
    }
    save_result("server", result.to_text(), metrics=metrics, checks=checks,
                extras=extras)
    # The wire is exact or it is nothing: both arms matched the in-process
    # reference bit for bit while being timed.
    assert result.parity_ok, result.to_text()
    # The coalescer must have formed real batches to measure.
    assert result.mean_batch_size >= 2.0, result.to_text()
    # The headline: >=1.5x items/sec over per-request dispatch.
    assert checks["coalescing_speedup"] >= MIN_SPEEDUP, result.to_text()
