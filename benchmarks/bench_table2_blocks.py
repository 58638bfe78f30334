"""Table II: signature-size factors vs user-block count.

Regenerates the paper's Table II rows (max entity / producer universe per
signature entry at 1..50 user blocks) on the paper-sparsity YTube variant.
Expected shape: both rows fall sharply as the block count grows, then
flatten — "applying user blocking reduces the entry size in a tree by
large".
"""

from repro.eval import figures


def test_table2_signature_size_factors(bench_run, sparse_ytube, save_result):
    result, seconds = bench_run(
        lambda: figures.run_table2(sparse_ytube, block_counts=(1, 10, 20, 30, 40, 50))
    )
    save_result(
        "table2",
        result.to_text(),
        metrics={"driver": {"seconds": seconds}},
        extras={
            "block_counts": list(result.block_counts),
            "max_entities": list(result.max_entities),
            "max_producers": list(result.max_producers),
        },
    )
    # Shape assertions: monotone-ish decrease from no-blocking to 50 blocks.
    assert result.max_entities[0] > result.max_entities[-1]
    assert result.max_entities[0] > 2 * result.max_entities[-1]
    assert result.max_producers[0] >= result.max_producers[-1]
