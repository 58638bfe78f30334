"""Fig. 6: effect of the short-term window size |W|, all 4 datasets.

For each |W| in 1..10 the best P@k over the lambda grid is reported (the
paper's tuning protocol).  Expected shape: an interior optimum — "when a
small |W| is adopted, the user short-term interests are not accurately
predicted due to the interest drift ... if a large |W| is employed, the
short-term interest may fall back to the long-term interest".
"""

import pytest

from conftest import MIN_TRUTH
from repro.eval import figures


@pytest.mark.parametrize("name", ["YTube", "SynYTube", "MLens", "SynMLens"])
def test_fig6_window_size(bench_run, datasets, save_result, name):
    windows = tuple(range(1, 11))
    result, seconds = bench_run(
        lambda: figures.run_fig6(
            datasets[name],
            window_sizes=windows,
            ks=(5, 10, 20, 30),
            min_truth=MIN_TRUTH,
        )
    )
    p5 = {w: result.series[w][5] for w in windows}
    save_result(
        f"fig6_{name.lower()}",
        result.to_text(),
        metrics={"driver": {"seconds": seconds}},
        extras={"p_at_5_by_window": {str(w): v for w, v in p5.items()}},
    )
    # Every window's tuned precision is meaningfully better than nothing and
    # the curve is not degenerate (some variation with |W|).
    assert max(p5.values()) > 0
    assert max(p5.values()) > min(p5.values())
