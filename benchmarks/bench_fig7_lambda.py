"""Fig. 7: effect of the short-term weight lambda_s, all 4 datasets.

P@k over lambda_s in 0..1 (step 0.1) with |W| = 5.  Expected shape:
unimodal — "the recommendation effectiveness is increased with the increase
of lambda_s, reaches an optimal point, and then decreases"; pure short-term
(lambda_s = 1) collapses; the optimum is interior (paper: 0.4 on YTube-like,
0.3 on MLens-like; synthetic sets inherit their source's optimum).
"""

import pytest

from conftest import MIN_TRUTH
from repro.eval import figures

LAMBDAS = tuple(round(0.1 * i, 1) for i in range(11))


@pytest.mark.parametrize("name", ["YTube", "SynYTube", "MLens", "SynMLens"])
def test_fig7_lambda_weight(bench_run, datasets, save_result, name):
    result, seconds = bench_run(
        lambda: figures.run_fig7(
            datasets[name], lambdas=LAMBDAS, ks=(5, 10, 20, 30), min_truth=MIN_TRUTH
        )
    )
    p5 = {lam: result.series[lam][5] for lam in LAMBDAS}
    optimum = result.optimal_lambda(5)
    save_result(
        f"fig7_{name.lower()}",
        result.to_text(),
        metrics={"driver": {"seconds": seconds}},
        checks={"optimal_lambda_at_5": optimum},
        extras={"p_at_5_by_lambda": {str(lam): v for lam, v in p5.items()}},
    )
    # Interior optimum: some mixture beats both extremes; lambda=1 is worst
    # or near-worst (the paper's "interest drift" failure mode).
    assert p5[optimum] >= p5[0.0]
    assert p5[optimum] > p5[1.0]
