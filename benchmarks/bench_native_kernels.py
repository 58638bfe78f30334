"""Fused native scoring kernels vs the vectorized scan-batch path.

Serves one trained scan-mode recommender's test slice through
``recommend_batch`` twice — the vectorized ``scan-batch`` plan and a
replica switched to ``scoring="native"`` (the ``scan-batch-native``
plan) — and compares items/sec.  Both arms run a full untimed warm-up
pass first, so numba JIT compilation is excluded from the timed region
by construction (the rule docs/BENCHMARKS.md states); every native
ranked list is judged against the vectorized arm's within the 1e-9 tie
discipline *while being timed*, so the measured win is proven correct
(the conformance suite additionally holds the ``*-native`` plans to
zero divergences across the whole scenario catalog).

Assertions:

- **parity** — native serving matches the vectorized arm within ties on
  every served item (bitwise when the kernels are unavailable and the
  native arm runs its fallback);
- **speedup** — with numba present (``native_engaged``), the fused
  kernels clear >= 5x items/sec over the vectorized scan-batch path
  (the order-of-magnitude headline's gate).  Without numba the two arms
  tie through the fallback and the headline is not claimed — the run
  still gates parity and records ``native_engaged: false``.
"""

import os

from conftest import SCALE
from repro.eval import systems

#: CI smoke runs set this to shrink the served slice.
MAX_ITEMS = int(os.environ.get("REPRO_BENCH_NATIVE_ITEMS", "512"))

#: The >=5x headline of the fused kernels on the scan-batch path
#: (acceptance target is order-of-magnitude; the gate keeps slack for
#: shared CI runners).
MIN_SPEEDUP = 5.0


def test_native_kernels(bench_run, bench_seed, save_result, efficiency_datasets):
    result, seconds = bench_run(
        lambda: systems.run_native_kernels(
            dataset=efficiency_datasets["YTube"],
            seed=bench_seed,
            max_items=MAX_ITEMS,
        )
    )
    metrics = {
        "driver": {"seconds": seconds},
        "vectorized-scan-batch": {
            "items_per_sec": result.items_per_sec("vectorized"),
            "seconds": result.seconds["vectorized"],
        },
        "native-scan-batch": {
            "items_per_sec": result.items_per_sec("native"),
            "seconds": result.seconds["native"],
        },
    }
    checks = {
        "parity_ok": result.parity_ok,
        "native_engaged": result.native_engaged,
        "native_speedup": result.speedup("native", "vectorized"),
        "fallbacks": result.fallbacks,
        "n_items": result.n_items,
    }
    save_result("native_kernels", result.to_text(), metrics=metrics, checks=checks,
                extras={"scale": SCALE})
    # Exactness first: native serving is within the 1e-9 tie discipline
    # of the vectorized arm (bit-identical when falling back).
    assert result.parity_ok, result.to_text()
    if result.native_engaged:
        # The headline only exists where the compiled kernels do.
        assert checks["native_speedup"] >= MIN_SPEEDUP, result.to_text()
