"""The memo stage (``*-dedup`` plans) vs its dedup-off anchor.

The one memo gate: ``DedupOp`` is the only stage that serves a ranked
list without scoring it, so this bench is where memoized serving has to
earn its keep — the exact arm on the duplicate-heavy redelivery surface,
bitwise parity asserted while timed.

One bench, two traffic shapes, two strictness modes:

- **exact** on ``duplicate_out_of_order`` — 25% duplicated interactions
  plus geometric at-least-once upload redelivery.  Every memoized
  ranked list is compared to the anchor's bitwise *while being timed*,
  so the measured win is proven exact (the conformance suite
  additionally holds the ``*-dedup`` plans to zero divergences across
  the whole scenario catalog).
- **approx** on ``mutated_retry`` — retry chains whose entity sets are
  jittered between attempts, so exact keys miss but Jaccard-verified
  LSH groups collapse them.  Output is judged by recall@k against the
  anchor: the fraction of the anchor's top-k audience each approx list
  retains, averaged over every served upload, swept across thresholds.

Assertions:

- **exact parity** — exact-mode serving is bit-identical to the anchor
  on every served item, in both runs;
- **collapse** — both scenarios actually produce collapses to measure,
  and at least a quarter of the redelivery scenario's serves are memo
  hits (the scenario is built to produce them);
- **exact speedup** — exact-mode serving clears >=1.3x items/sec over
  the anchor on redelivery traffic;
- **approx recall** — recall@k >= 0.95 at the config-default threshold
  on mutated-retry traffic.
"""

import os

from conftest import SCALE
from repro.eval import systems

#: CI smoke runs set this to shrink the replayed stream.
MAX_EVENTS = int(os.environ.get("REPRO_BENCH_DEDUP_EVENTS", "4800"))

#: The >=1.3x headline claim of exact-mode collapse (redelivery-heavy
#: delivery at default scale; scales below keep the same bar).
MIN_SPEEDUP = 1.3

#: The recall floor of approx-mode collapse at the default threshold.
MIN_RECALL = 0.95


def test_dedup(bench_run, bench_seed, save_result, efficiency_datasets):
    (exact_run, approx_run), seconds = bench_run(
        lambda: (
            systems.run_dedup(
                base=efficiency_datasets["YTube"],
                scenario="duplicate_out_of_order",
                seed=bench_seed,
                max_events=MAX_EVENTS,
                taus=(0.6,),
            ),
            systems.run_dedup(
                base=efficiency_datasets["YTube"],
                scenario="mutated_retry",
                seed=bench_seed,
                max_events=MAX_EVENTS,
            ),
        )
    )
    metrics = {
        "driver": {"seconds": seconds},
        "anchor": {
            "items_per_sec": exact_run.items_per_sec("anchor"),
            "seconds": exact_run.seconds["anchor"],
        },
        "exact": {
            "items_per_sec": exact_run.items_per_sec("exact"),
            "seconds": exact_run.seconds["exact"],
        },
    }
    checks = {
        "exact_parity_ok": exact_run.parity_ok and approx_run.parity_ok,
        "exact_speedup": exact_run.exact_speedup,
        "exact_collapse_rate": exact_run.exact_collapse_rate,
        "approx_default_recall": approx_run.default_recall,
        "approx_default_tau": approx_run.default_tau,
        "n_served": exact_run.n_served,
    }
    extras = {
        "exact_stats": exact_run.exact_stats,
        "approx_sweep": [
            {"tau": tau, "recall": row["recall"], "stats": row["stats"]}
            for tau, row in approx_run.approx.items()
        ],
        "scale": SCALE,
    }
    text = exact_run.to_text() + "\n" + approx_run.to_text()
    save_result("dedup", text, metrics=metrics, checks=checks, extras=extras)
    # Exact mode is bit-identical or it is nothing — in both runs.
    assert exact_run.parity_ok, exact_run.to_text()
    assert approx_run.parity_ok, approx_run.to_text()
    # Both scenarios must actually produce collapses to measure.
    assert exact_run.exact_stats.get("collapsed", 0) > 0, exact_run.to_text()
    assert exact_run.exact_collapse_rate >= 0.25, exact_run.to_text()
    default_row = approx_run.approx.get(approx_run.default_tau)
    assert default_row is not None, approx_run.to_text()
    assert default_row["stats"].get("collapsed", 0) > 0, approx_run.to_text()
    # The headline: >=1.3x items/sec over the dedup-off anchor.
    assert exact_run.exact_speedup >= MIN_SPEEDUP, exact_run.to_text()
    # The quality floor: recall@k >= 0.95 at the default threshold.
    assert approx_run.default_recall >= MIN_RECALL, approx_run.to_text()
