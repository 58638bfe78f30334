"""Sharded fan-out/merge topology and the all-grouping broadcast."""

import pytest

from repro.core.config import SsRecConfig
from repro.core.ssrec import SsRecRecommender
from repro.serve import ShardedRecommender
from repro.stream import (
    ShardMatchBolt,
    ShardMergeBolt,
    build_recommendation_topology,
)
from repro.stream.engine import LocalEngine
from repro.stream.topology import Bolt, Emitter, Grouping, TopologyBuilder
from repro.stream.tuples import StreamTuple


class _CountingBolt(Bolt):
    def __init__(self, log):
        self._log = log
        self._task = None

    def prepare(self, task_index, n_tasks):
        self._task = task_index

    def process(self, tup, emitter):
        self._log.append((self._task, tup["x"]))


class TestAllGrouping:
    def test_route_returns_every_task(self):
        g = Grouping(source="s", kind="all")
        assert g.route(StreamTuple(values={}), 4, 0) == [0, 1, 2, 3]

    def test_other_kinds_return_single_task(self):
        tup = StreamTuple(values={"f": 1})
        assert Grouping(source="s", kind="shuffle").route(tup, 4, 5) == [1]
        assert Grouping(source="s", kind="global").route(tup, 4, 5) == [0]
        assert len(Grouping(source="s", kind="fields", fields=("f",)).route(tup, 4, 0)) == 1

    def test_engine_broadcasts_to_all_tasks(self):
        from repro.stream.topology import Spout

        class ListSpout(Spout):
            def __init__(self, values):
                self._values = list(values)

            def open(self):
                self._cursor = 0

            def next_tuple(self):
                if self._cursor >= len(self._values):
                    return None
                v = self._values[self._cursor]
                self._cursor += 1
                return StreamTuple(values={"x": v})

        log = []
        builder = TopologyBuilder()
        builder.set_spout("src", ListSpout([10, 20]))
        builder.set_bolt("fan", lambda: _CountingBolt(log), parallelism=3).all_grouping("src")
        report = LocalEngine(builder.build()).run()
        # Every tuple reached every one of the 3 tasks.
        assert sorted(log) == sorted((t, v) for t in range(3) for v in (10, 20))
        assert report.tuples_processed["fan"] == 6


def _fitted(ytube_small, ytube_stream, use_index):
    rec = SsRecRecommender(config=SsRecConfig(), use_index=use_index, seed=1)
    return rec.fit(ytube_small, ytube_stream.training_interactions())


@pytest.mark.parametrize("use_index", [False, True], ids=["scan", "index"])
def test_every_deployment_matches_recommend(ytube_small, ytube_stream, use_index):
    """Per-item, micro-batched and sharded (block strategy; with and
    without a batcher in front) deployments of one builder all deliver
    ``recommend()``'s answers."""
    single = _fitted(ytube_small, ytube_stream, use_index)
    service = ShardedRecommender.from_trained(
        _fitted(ytube_small, ytube_stream, use_index), n_shards=3, strategy="block"
    )
    items = ytube_stream.items_in_partition(2)[:15]
    results = {}
    for name, recommender, batch_size in (
        ("item", single, None),
        ("micro-batch", single, 4),
        ("sharded", service, None),
        ("sharded-micro-batch", service, 4),
    ):
        topology, sink = build_recommendation_topology(
            items,
            single.extractor,
            recommender,
            ytube_small.n_categories,
            k=5,
            batch_size=batch_size,
        )
        LocalEngine(topology).run()
        results[name] = sink.results
    # The extract bolt re-derives each item's entities from its text; on
    # this dataset that reproduces the declared set, so recommend() on the
    # raw item is the answer every deployment must deliver.
    for it in items:
        assert set(single.extractor.extract(it.text)) == set(it.entities)
    want = {it.item_id: single.recommend(it, 5) for it in items}
    for name, got in results.items():
        assert got == want, name


class TestShardedTopology:
    def _service_and_single(self, ytube_small, ytube_stream, n_shards=3):
        single = _fitted(ytube_small, ytube_stream, True)
        service = ShardedRecommender.from_trained(
            _fitted(ytube_small, ytube_stream, True), n_shards=n_shards, strategy="block"
        )
        return single, service

    def test_one_result_per_item(self, ytube_small, ytube_stream):
        _, service = self._service_and_single(ytube_small, ytube_stream, n_shards=2)
        items = ytube_stream.items_in_partition(2)[:8]
        topology, sink = build_recommendation_topology(
            items, service.trained.extractor, service, ytube_small.n_categories, k=4
        )
        assert topology.bolts["match"].parallelism == 2
        LocalEngine(topology).run()
        assert len(sink.results) == len(items)
        assert all(len(ranked) == 4 for ranked in sink.results.values())

    def test_match_bolt_rejects_wrong_parallelism(self, ytube_small, ytube_stream):
        _, service = self._service_and_single(ytube_small, ytube_stream, n_shards=2)
        bolt = ShardMatchBolt(service, k=5)
        with pytest.raises(ValueError, match="parallelism"):
            bolt.prepare(0, 5)

    def test_merge_bolt_waits_for_all_shards(self):
        bolt = ShardMergeBolt(n_shards=2, k=3)
        emitter = Emitter()
        tup = StreamTuple(values={"item_id": 1, "recommendations": [(1, 2.0)]})
        bolt.process(tup, emitter)
        assert emitter.drain() == []
        tup2 = StreamTuple(values={"item_id": 1, "recommendations": [(2, 3.0)]})
        bolt.process(tup2, emitter)
        out = emitter.drain()
        assert len(out) == 1
        assert out[0]["recommendations"] == [(2, 3.0), (1, 2.0)]
        bolt.cleanup()  # no leftovers

    def test_merge_bolt_validation(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardMergeBolt(0, 5)


class TestEngineReportPercentiles:
    def test_percentiles_from_latencies(self):
        from repro.stream.engine import EngineReport

        report = EngineReport()
        report.item_latencies.extend([0.001 * i for i in range(1, 101)])
        assert report.p50_latency == pytest.approx(0.0505, rel=1e-6)
        assert report.p95_latency >= report.p50_latency
        assert report.p99_latency >= report.p95_latency

    def test_empty_report(self):
        from repro.stream.engine import EngineReport

        report = EngineReport()
        assert report.p50_latency == 0.0
        assert report.p95_latency == 0.0
        assert report.p99_latency == 0.0
