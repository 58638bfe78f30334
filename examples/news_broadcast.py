"""Time-critical news fan-out over the Storm-like topology.

The paper's motivating deployment: "users can be notified in time what is
happening moment by moment".  This example wires the full recommendation
topology — item spout, entity-extraction bolt, per-category match bolts
backed by the CPPse-index, top-k sink — runs a burst of uploads through it
and reports per-stage costs, comparing the index against the naive
sequential scan.

    python examples/news_broadcast.py
"""

import time

from repro import SsRecRecommender, YTubeConfig, generate_ytube, partition_interactions
from repro.baselines.knn_scan import NaiveScanRecommender
from repro.stream import LocalEngine, build_recommendation_topology


def main() -> None:
    dataset = generate_ytube(YTubeConfig.small(seed=11))
    stream = partition_interactions(dataset)
    train = stream.training_interactions()

    recommender = SsRecRecommender(use_index=True, seed=1)
    recommender.fit(dataset, train)
    breaking_news = stream.items_in_partition(2)[:40]

    # The paper configures one match bolt per category.
    topology, sink = build_recommendation_topology(
        breaking_news,
        recommender.extractor,
        recommender,
        n_categories=dataset.n_categories,
        k=10,
    )
    report = LocalEngine(topology).run()

    print(f"items fanned out: {len(sink.results)}")
    print(f"mean end-to-end latency: {report.mean_latency * 1000:.2f} ms/item")
    for bolt in ("extract", "match", "sink"):
        print(
            f"  bolt {bolt:8s}: {report.tuples_processed[bolt]:4d} tuples, "
            f"{report.bolt_seconds[bolt] * 1000:7.2f} ms total"
        )

    # Compare the index against the paper's naive per-user scan.
    naive = NaiveScanRecommender(recommender.scorer, recommender.profiles)
    started = time.perf_counter()
    for item in breaking_news:
        naive.recommend(item, 10)
    naive_ms = (time.perf_counter() - started) / len(breaking_news) * 1000

    started = time.perf_counter()
    for item in breaking_news:
        recommender.recommend(item, 10)
    index_ms = (time.perf_counter() - started) / len(breaking_news) * 1000
    print(f"naive sequential scan: {naive_ms:.2f} ms/item")
    print(f"CPPse-index KNN:       {index_ms:.2f} ms/item")

    # Sample notification.
    item = breaking_news[0]
    users = ", ".join(str(u) for u, _ in sink.results[item.item_id][:5])
    print(f"breaking item {item.item_id} pushed to users: {users}")


if __name__ == "__main__":
    main()
