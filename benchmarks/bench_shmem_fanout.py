"""Shared-memory fan-out scaling: one batched request per shard per window.

Sweeps ``ShardedRecommender`` with the ``shmem`` backend against the
sequential fan-out over shard counts, in scan and index mode, and checks
what the segment-based runtime promises:

- **Parity**: every swept (shard count, backend) path returns results
  bit-identical to the single recommender — the publish/attach segment
  codec, the epoch protocol and the one-request-per-shard serve window
  change nothing about the answer.
- **Fan-out scaling** (multi-core hosts): because workers read the
  published segments zero-copy and a serve window costs exactly one
  request/reply per shard, the shmem index-batch path at 4 shards must
  reach >= 1.5x its own shards=1 items/sec on hosts with >= 2 CPUs.

The committed baseline gates only the *sequential* reference paths (the
stable, machine-comparable series); the shmem throughputs and the 4-vs-1
scaling ratios ride along in ``extras``/``checks``, where the in-run
assertion — not a cross-machine diff — enforces the speedup.
"""

import os

from repro.eval import systems
from repro.eval.systems import shard_path_key

#: CI smoke runs set these to shrink the measured slice.
MAX_ITEMS = int(os.environ.get("REPRO_BENCH_SHMEM_ITEMS", "192"))
SHARD_COUNTS = tuple(
    int(n) for n in os.environ.get("REPRO_BENCH_SHMEM_SHARDS", "1,4").split(",")
)
#: Shared runners schedule noisily; CI may lower the floor a notch
#: without giving up the lost-win signal.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_SHMEM_MIN_SPEEDUP", "1.5"))


def test_shmem_fanout(bench_run, efficiency_datasets, save_result):
    result, seconds = bench_run(
        lambda: systems.run_sharded_throughput(
            efficiency_datasets["YTube"],
            shard_counts=SHARD_COUNTS,
            k=30,
            max_items=MAX_ITEMS,
            backends=("sequential", "shmem"),
        )
    )
    low, high = min(SHARD_COUNTS), max(SHARD_COUNTS)

    # Gated metrics: the sequential reference series only.  The shmem
    # series depends on the host's core count, so it is recorded as
    # extras (visible in artifacts/diffs, never a cross-machine gate).
    metrics = {"driver": {"seconds": seconds}}
    extras = {}
    ratios = {}
    for mode in ("scan", "index"):
        for serve in ("item", "batch"):
            sequential = result.items_per_sec[shard_path_key(mode, serve, "sequential")]
            shmem = result.items_per_sec[shard_path_key(mode, serve, "shmem")]
            for n, ips in sequential.items():
                metrics[f"sharded-{mode}-{serve}[shards={n}]"] = {"items_per_sec": ips}
            extras[f"sharded-{mode}-{serve}@shmem"] = {
                str(n): ips for n, ips in shmem.items()
            }
            ratios[f"{mode}-{serve}"] = shmem[high] / shmem[low]
    checks = {
        "parity_ok": result.parity_ok,
        "shmem_index_batch_scaling": ratios["index-batch"],
    }
    save_result(
        "shmem_fanout",
        result.to_text(),
        metrics=metrics,
        checks=checks,
        extras={"shmem_items_per_sec": extras, "shmem_scaling_ratios": ratios},
    )

    # The tentpole claim: the segment codec and the batched-window fan-out
    # are bit-transparent at every swept (shard count, backend).
    assert result.parity_ok
    # And the scaling claim: with real cores underneath, 4 zero-copy
    # workers beat 1 on the Python-heavy index-batch path.  Single-core
    # hosts serialize the workers, so the ratio is only asserted where
    # the hardware can express it.
    if high >= 4 and low <= 1 and (os.cpu_count() or 1) >= 2:
        assert ratios["index-batch"] >= MIN_SPEEDUP, (
            f"shmem index-batch at {high} shards reached only "
            f"{ratios['index-batch']:.2f}x its shards={low} throughput"
        )
