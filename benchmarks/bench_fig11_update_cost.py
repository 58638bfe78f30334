"""Fig. 11: efficiency of media updates over the CPPse-index.

Seconds spent in Algorithm 2 while absorbing 1..4 test partitions of
profile updates, per dataset.  Expected shape: "the cost increases steadily
with the update size increase" — roughly linear growth, no blow-up.
"""

from repro.eval import figures


def test_fig11_maintenance_cost(bench_run, datasets, save_result):
    result, seconds = bench_run(lambda: figures.run_fig11(datasets, sizes=(1, 2, 3, 4)))
    metrics = {"driver": {"seconds": seconds}}
    for name, series in result.series.items():
        metrics[f"maintenance[{name}]"] = {"seconds": series[4]}
    save_result(
        "fig11",
        result.to_text(),
        metrics=metrics,
        extras={
            "maintenance_seconds": {
                name: {str(n): v for n, v in series.items()}
                for name, series in result.series.items()
            }
        },
    )
    for name, series in result.series.items():
        costs = [series[n] for n in (1, 2, 3, 4)]
        assert all(c > 0 for c in costs), name
        # Steady growth: absorbing more partitions costs more.
        assert costs[3] > costs[0], name
