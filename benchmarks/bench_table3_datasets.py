"""Table III: overview of the four datasets.

Regenerates the dataset-statistics table (|Up|, |Uc|, |E|, C, |IRact|, |V|)
for YTube, SynYTube, MLens and SynMLens.  Expected shape: each synthetic set
matches its source's universes with a slightly different interaction count
(the paper's SynYTube has ~6% more interactions than YTube).
"""

from repro.eval import figures


def test_table3_dataset_overview(bench_run, datasets, save_result):
    result, seconds = bench_run(lambda: figures.run_table3(datasets))
    save_result(
        "table3",
        result.to_text(),
        metrics={"driver": {"seconds": seconds}},
        extras={"rows": result.rows_},
    )
    rows = {row["Dataset"]: row for row in result.rows_}
    for source, synth in (("YTube", "SynYTube"), ("MLens", "SynMLens")):
        assert rows[synth]["|Up|"] == rows[source]["|Up|"]
        assert rows[synth]["|Uc|"] == rows[source]["|Uc|"]
        assert rows[synth]["C"] == rows[source]["C"]
        assert rows[synth]["|V|"] == rows[source]["|V|"]
        ratio = rows[synth]["|IRact|"] / rows[source]["|IRact|"]
        assert 0.9 <= ratio <= 1.2
