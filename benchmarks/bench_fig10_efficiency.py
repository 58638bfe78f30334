"""Fig. 10: recommendation efficiency — CTT, UCD, CPPse-index.

Mean per-item response time (ms) accumulated over 1..4 test partitions at
k = 30.  Expected shape: the CPPse-index is fastest and flattest; CTT and
UCD scan every user per item and pay growing model costs as data
accumulates; UCD is slower than CTT ("due to the extra time cost from the
diversity-based matching").
"""

import pytest

from repro.eval import figures


@pytest.mark.parametrize("name", ["YTube", "SynYTube", "MLens", "SynMLens"])
def test_fig10_response_time(bench_run, efficiency_datasets, save_result, name):
    result, seconds = bench_run(
        lambda: figures.run_fig10(
            efficiency_datasets[name], k=30, max_items_per_partition=25, min_truth=2
        )
    )
    final = {method: series[4] for method, series in result.series.items()}
    # Per-method throughput (items/sec from the accumulated mean per-item
    # ms) is the comparable metric; the full cumulative series rides in
    # extras for trajectory plots.
    metrics = {"driver": {"seconds": seconds}}
    for method, final_ms in final.items():
        if final_ms > 0:
            metrics[method] = {"items_per_sec": 1000.0 / final_ms}
    save_result(
        f"fig10_{name.lower()}",
        result.to_text(),
        metrics=metrics,
        extras={
            "time_ms": {
                method: {str(n): v for n, v in series.items()}
                for method, series in result.series.items()
            }
        },
    )
    # Index beats both sequential scanners on accumulated mean time.
    assert final["CPPse-index"] < final["UCD"]
    assert final["CPPse-index"] < final["CTT"]
    assert final["UCD"] > final["CTT"]
