"""Batched serving throughput: ``recommend_batch`` vs the per-item loop.

Beyond the paper's figures: measures items/sec of the micro-batched serving
path against per-item ``recommend`` in three scenarios — scan mode, index
mode (pure serving) and index mode with interleaved profile updates (where
batching also amortizes the Algorithm 2 maintenance flushes).  Expected
shape: scan-mode batching wins big (one profile sync and one smoothed
column per symbol per window instead of per item); pure index serving
gains moderately from shared tree location and query encodings; index
with updates stays near flat — maintenance cost is per-user work
(signature refresh + ancestor re-aggregation) that batching reorders but
cannot remove.
"""

import os

from repro.eval import systems

#: CI smoke runs set this to shrink the measured slice.
MAX_ITEMS = int(os.environ.get("REPRO_BENCH_BATCH_ITEMS", "512"))

BATCH_SIZES = (1, 16, 64)


def test_batch_throughput(bench_run, efficiency_datasets, save_result):
    result, seconds = bench_run(
        lambda: systems.run_batch_throughput(
            efficiency_datasets["YTube"],
            batch_sizes=BATCH_SIZES,
            k=30,
            max_items=MAX_ITEMS,
        )
    )
    metrics = {"driver": {"seconds": seconds}}
    for scenario, series in result.items_per_sec.items():
        for batch_size, ips in series.items():
            metrics[f"{scenario}[batch={batch_size}]"] = {"items_per_sec": ips}
    checks = {
        "scan_speedup_at_64": result.speedup("scan", 64),
        "index_speedup_at_64": result.speedup("index", 64),
    }
    save_result("batch_throughput", result.to_text(), metrics=metrics, checks=checks)
    # The tentpole claim: micro-batching at 64 at least doubles scan-mode
    # serving throughput over the per-item loop.
    assert checks["scan_speedup_at_64"] >= 2.0
    # Index serving gains from shared tree location/query encodings.  The
    # index+updates row is reported but not asserted: Algorithm 2's
    # per-user work dominates either cadence, and with few windows a
    # single block-rebuild spike inside one timed flush swamps the ratio.
    assert checks["index_speedup_at_64"] > 0.9
