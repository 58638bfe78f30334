"""Fig. 9: effect of user profile updates — ssRec vs ssRec-nu.

P@k of the stream setting (profiles updated from each previous partition)
against the static setting (training-time profiles frozen).  Expected shape:
"with user profile updates, we obtain a big effectiveness gain on P@k".
"""

import pytest

from conftest import MIN_TRUTH
from repro.eval import figures

KS = (5, 10, 20, 30)


@pytest.mark.parametrize("name", ["YTube", "SynYTube", "MLens", "SynMLens"])
def test_fig9_profile_updates(bench_run, datasets, save_result, name):
    result, seconds = bench_run(
        lambda: figures.run_fig9(datasets[name], ks=KS, min_truth=MIN_TRUTH)
    )
    p = result.series
    save_result(
        f"fig9_{name.lower()}",
        result.to_text(),
        metrics={"driver": {"seconds": seconds}},
        extras={
            "p_at_k": {
                method: {str(k): v for k, v in series.items()}
                for method, series in p.items()
            }
        },
    )
    wins = sum(1 for k in KS if p["ssRec"][k] >= p["ssRec-nu"][k])
    assert wins >= 3
