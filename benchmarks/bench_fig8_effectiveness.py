"""Fig. 8: effectiveness comparison — CTT, UCD, ssRec-ne, ssRec.

P@k at k in {5, 10, 20, 30} with the tuned parameters.  Expected shape:
ssRec best overall, ssRec-ne (no entity expansion) close behind, CTT and UCD
trailing — "our ssRec approach performs best at all k settings among all
considered methods".
"""

import pytest

from conftest import MIN_TRUTH
from repro.eval import figures

KS = (5, 10, 20, 30)


@pytest.mark.parametrize("name", ["YTube", "SynYTube", "MLens", "SynMLens"])
def test_fig8_effectiveness_comparison(bench_run, datasets, save_result, name):
    result, seconds = bench_run(
        lambda: figures.run_fig8(datasets[name], ks=KS, min_truth=MIN_TRUTH)
    )
    p = result.series
    save_result(
        f"fig8_{name.lower()}",
        result.to_text(),
        metrics={"driver": {"seconds": seconds}},
        extras={
            "p_at_k": {
                method: {str(k): v for k, v in series.items()}
                for method, series in p.items()
            }
        },
    )
    if name in ("YTube", "MLens"):
        # Headline shape on the source datasets: ssRec beats both baselines
        # at the sharpest cutoff and wins the majority of cutoffs.
        assert p["ssRec"][5] > p["CTT"][5]
        assert p["ssRec"][5] > p["UCD"][5]
        wins = sum(1 for k in KS if p["ssRec"][k] >= max(p["CTT"][k], p["UCD"][k]))
        assert wins >= 3
    else:
        # Synthpop clones blur the fine-grained entity/temporal signal
        # (EXPERIMENTS.md); require ssRec to stay competitive with the best
        # baseline on the mean over cutoffs.
        def mean_p(method):
            return sum(p[method][k] for k in KS) / len(KS)

        best_baseline = max(mean_p("CTT"), mean_p("UCD"))
        assert mean_p("ssRec") >= 0.9 * best_baseline
