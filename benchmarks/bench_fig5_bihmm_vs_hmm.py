"""Fig. 5: BiHMM vs single-layer HMM prediction accuracy, all 4 datasets.

For each dataset, users are grouped by their per-user optimal HMM hidden-
state count and the mean next-category prediction accuracy of both models is
reported per group.  Expected shape: BiHMM >= HMM in (almost) every group —
"the BiHMM is better than the HMM ... consumers' interests are dependent on
the producers as well".
"""

import pytest

from repro.eval import figures


@pytest.mark.parametrize("name", ["YTube", "SynYTube", "MLens", "SynMLens"])
def test_fig5_bihmm_vs_hmm(bench_run, datasets, save_result, name):
    result, seconds = bench_run(
        lambda: figures.run_fig5(
            datasets[name], max_users=16, max_states=4, min_history=25
        )
    )
    weights = result.users_by_group
    total = sum(weights.values())
    hmm_mean = sum(result.hmm_by_group[g] * weights[g] for g in weights) / total
    bihmm_mean = sum(result.bihmm_by_group[g] * weights[g] for g in weights) / total
    save_result(
        f"fig5_{name.lower()}",
        result.to_text(),
        metrics={"driver": {"seconds": seconds}},
        checks={"hmm_mean": hmm_mean, "bihmm_mean": bihmm_mean},
        extras={
            "hmm_by_group": {str(g): v for g, v in result.hmm_by_group.items()},
            "bihmm_by_group": {str(g): v for g, v in result.bihmm_by_group.items()},
        },
    )
    # Weighted-average shape claim, with a small noise allowance.
    assert bihmm_mean >= hmm_mean - 0.02
