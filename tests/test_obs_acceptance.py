"""The observability acceptance path, end to end.

One served recommend against a sharded **process-backend** server must
assemble a single trace whose spans cross every boundary in the stack:
the socket front door (``server.request`` → ``server.coalesce`` →
``server.batch``), the exec operator pipeline (``exec.FanoutOp`` …
``exec.MergeOp``), the worker processes (``worker.serve`` per
shard) and the shard internals (``shard.scan``) — one tree, one trace
id, across process boundaries.  And tracing must be purely
observational: the traced ranked list is bit-identical to the untraced
one and to the in-process reference.
"""

from __future__ import annotations

import copy

import pytest

from repro.obs import MetricsRegistry, build_tree
from repro.serve import (
    RecommenderClient,
    RecommenderServer,
    ServerThread,
    ShardedRecommender,
)


@pytest.fixture(scope="module")
def served_sharded(fitted_ssrec):
    """A process-backed sharded recommender behind a live socket server,
    plus its in-process reference twin."""
    reference = copy.deepcopy(fitted_ssrec)
    sharded = ShardedRecommender.from_trained(
        copy.deepcopy(fitted_ssrec), n_shards=2, strategy="hash",
        use_index=False, backend="process",
    )
    sharded._ensure_pool()  # workers predate the per-test leak guard
    server = RecommenderServer(
        sharded, coalesce=True, max_delay=0.01, slow_request_seconds=0.0
    )
    with ServerThread(server) as (host, port):
        with RecommenderClient(host, port) as client:
            yield client, server, reference
    sharded.close()


def _span_names(trace: dict) -> set[str]:
    return {entry["name"] for entry in trace["spans"]}


class TestCrossProcessTrace:
    def test_single_tree_spans_every_layer(self, served_sharded, ytube_stream):
        client, _server, reference = served_sharded
        item = ytube_stream.items_in_partition(2)[0]

        ranked, trace = client.recommend_traced(item, 6)
        # Purely observational: traced == untraced == in-process.
        assert ranked == client.recommend(item, 6)
        assert ranked == reference.recommend(item, 6)

        assert trace is not None
        names = _span_names(trace)
        # Every layer contributed spans to the one trace.
        assert {"server.request", "server.coalesce", "server.batch"} <= names
        assert "exec.FanoutOp" in names
        assert "exec.MergeOp" in names
        assert "worker.serve" in names  # crossed the process boundary
        assert "shard.scan" in names              # inside the worker

        # One tree: the request root is the only parentless span, and
        # both worker processes hang off it.
        (root,) = build_tree(trace["spans"])
        assert root["name"] == "server.request"
        worker_shards = {
            entry["tags"]["shard"]
            for entry in trace["spans"]
            if entry["name"] == "worker.serve"
        }
        assert worker_shards == {"0", "1"}

    def test_metrics_route_merges_worker_registries(self, served_sharded):
        client, server, _reference = served_sharded
        payload = client.metrics()
        registry = MetricsRegistry.from_dict(payload["registry"])
        # Server-side series and worker-side series in one merged view.
        assert registry.counter("server.requests").value > 0
        shard_labels = {
            counter.labels["shard"]
            for counter in registry.counters()
            if counter.name == "shard.queries"
        }
        assert shard_labels == {"0", "1"}
        # The slow log (threshold 0.0) captured full span trees.
        assert payload["slow_requests"]
        assert all(entry["spans"] for entry in payload["slow_requests"])
        assert server.stats.slow_requests > 0
