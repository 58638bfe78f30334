"""Tests for the Storm-like stream substrate."""

import pytest

from repro.entities.extractor import EntityExtractor
from repro.stream import MicroBatchBolt, build_recommendation_topology
from repro.stream.engine import LocalEngine
from repro.stream.topology import Bolt, Emitter, Grouping, Spout, TopologyBuilder
from repro.stream.tuples import StreamTuple


class ListSpout(Spout):
    def __init__(self, rows):
        self.rows = list(rows)
        self.i = 0

    def open(self):
        self.i = 0

    def next_tuple(self):
        if self.i >= len(self.rows):
            return None
        row = self.rows[self.i]
        self.i += 1
        return StreamTuple(values=row)


class SplitBolt(Bolt):
    def process(self, tup, emitter):
        for word in tup["line"].split():
            emitter.emit(tup.with_values("", word=word))


class CountBolt(Bolt):
    def __init__(self):
        self.counts = {}
        self.task_index = None

    def prepare(self, task_index, n_tasks):
        self.task_index = task_index

    def process(self, tup, emitter):
        word = tup["word"]
        self.counts[word] = self.counts.get(word, 0) + 1


class TestStreamTuple:
    def test_field_access(self):
        tup = StreamTuple(values={"a": 1})
        assert tup["a"] == 1
        assert tup.get("b", 9) == 9
        assert "a" in tup and "b" not in tup

    def test_with_values_copies(self):
        tup = StreamTuple(values={"a": 1}, timestamp=3.0)
        out = tup.with_values("src", b=2)
        assert out["a"] == 1 and out["b"] == 2
        assert out.timestamp == 3.0
        assert "b" not in tup


class TestTopologyBuilder:
    def test_duplicate_names_rejected(self):
        builder = TopologyBuilder()
        builder.set_spout("s", ListSpout([]))
        with pytest.raises(ValueError, match="already used"):
            builder.set_spout("s", ListSpout([]))

    def test_unknown_source_rejected(self):
        builder = TopologyBuilder()
        builder.set_spout("s", ListSpout([]))
        builder.set_bolt("b", CountBolt).shuffle_grouping("ghost")
        with pytest.raises(ValueError, match="unknown component"):
            builder.build()

    def test_bolt_without_grouping_rejected(self):
        builder = TopologyBuilder()
        builder.set_spout("s", ListSpout([]))
        builder.set_bolt("b", CountBolt)
        with pytest.raises(ValueError, match="no input grouping"):
            builder.build()

    def test_cycle_rejected(self):
        builder = TopologyBuilder()
        builder.set_spout("s", ListSpout([]))
        builder.set_bolt("a", CountBolt).shuffle_grouping("b")
        builder.set_bolt("b", CountBolt).shuffle_grouping("a")
        with pytest.raises(ValueError, match="cycle"):
            builder.build()

    def test_invalid_parallelism_rejected(self):
        builder = TopologyBuilder()
        with pytest.raises(ValueError, match="parallelism"):
            builder.set_bolt("b", CountBolt, parallelism=0)

    def test_fields_grouping_requires_fields(self):
        builder = TopologyBuilder()
        builder.set_spout("s", ListSpout([]))
        spec = builder.set_bolt("b", CountBolt)
        with pytest.raises(ValueError, match="at least one field"):
            spec.fields_grouping("s")


class TestGroupingRouting:
    def test_shuffle_round_robins(self):
        g = Grouping(source="s", kind="shuffle")
        tup = StreamTuple(values={})
        assert [g.route(tup, 3, i) for i in range(6)] == [[0], [1], [2], [0], [1], [2]]

    def test_fields_grouping_is_consistent(self):
        g = Grouping(source="s", kind="fields", fields=("k",))
        a = StreamTuple(values={"k": "x"})
        b = StreamTuple(values={"k": "x"})
        assert g.route(a, 5, 0) == g.route(b, 5, 99)

    def test_global_grouping_always_task_zero(self):
        g = Grouping(source="s", kind="global")
        assert g.route(StreamTuple(values={"k": 1}), 7, 3) == [0]

    def test_all_grouping_broadcasts(self):
        g = Grouping(source="s", kind="all")
        assert g.route(StreamTuple(values={}), 4, 2) == [0, 1, 2, 3]

    def test_unknown_kind_rejected(self):
        g = Grouping(source="s", kind="bogus")
        with pytest.raises(ValueError):
            g.route(StreamTuple(values={}), 2, 0)


class TestLocalEngine:
    def _wordcount(self, parallelism=1):
        builder = TopologyBuilder()
        builder.set_spout("lines", ListSpout([{"line": "a b a"}, {"line": "b a"}]))
        builder.set_bolt("split", SplitBolt).shuffle_grouping("lines")
        builder.set_bolt("count", CountBolt, parallelism=parallelism).fields_grouping(
            "split", "word"
        )
        return builder.build()

    def test_wordcount_end_to_end(self):
        topology = self._wordcount()
        engine = LocalEngine(topology)
        report = engine.run()
        counter = engine.task_instances("count")[0]
        assert counter.counts == {"a": 3, "b": 2}
        assert report.tuples_emitted["lines"] == 2
        assert report.tuples_processed["split"] == 2
        assert report.tuples_processed["count"] == 5
        assert len(report.item_latencies) == 2

    def test_fields_grouping_partitions_state(self):
        topology = self._wordcount(parallelism=3)
        engine = LocalEngine(topology)
        engine.run()
        merged = {}
        per_word_tasks = {}
        for idx, bolt in enumerate(engine.task_instances("count")):
            for word, count in bolt.counts.items():
                merged[word] = merged.get(word, 0) + count
                per_word_tasks.setdefault(word, set()).add(idx)
        assert merged == {"a": 3, "b": 2}
        # Every word was handled by exactly one task.
        assert all(len(tasks) == 1 for tasks in per_word_tasks.values())

    def test_max_tuples_limits_spout(self):
        engine = LocalEngine(self._wordcount())
        report = engine.run(max_tuples=1)
        assert report.tuples_emitted["lines"] == 1

    def test_engine_report_mean_latency(self):
        engine = LocalEngine(self._wordcount())
        report = engine.run()
        assert report.mean_latency > 0
        assert report.total_seconds == pytest.approx(sum(report.item_latencies))


class TestRecommendationTopology:
    class DummyRecommender:
        def __init__(self):
            self.calls = []

        def recommend(self, item, k):
            self.calls.append(item.item_id)
            return [(1, 0.5)][:k]

    def test_end_to_end_collects_results(self, ytube_small):
        extractor = EntityExtractor()
        extractor.add_phrases(ytube_small.entity_names)
        recommender = self.DummyRecommender()
        items = ytube_small.items[:10]
        topology, sink = build_recommendation_topology(
            items, extractor, recommender, n_categories=ytube_small.n_categories, k=5
        )
        LocalEngine(topology).run()
        assert set(sink.results) == {it.item_id for it in items}
        assert recommender.calls and all(r == [(1, 0.5)] for r in sink.results.values())

    def test_extract_bolt_recovers_entities(self, ytube_small):
        extractor = EntityExtractor()
        extractor.add_phrases(ytube_small.entity_names)

        seen = {}

        class CapturingRecommender:
            def recommend(self, item, k):
                seen[item.item_id] = item.entities
                return []

        items = ytube_small.items[:5]
        topology, _ = build_recommendation_topology(
            items, extractor, CapturingRecommender(), ytube_small.n_categories
        )
        LocalEngine(topology).run()
        for item in items:
            # The extractor recovers the embedded phrases (set equality; the
            # generator may repeat a mention).
            assert set(seen[item.item_id]) == set(item.entities)

    def test_invalid_category_count_rejected(self, ytube_small):
        with pytest.raises(ValueError):
            build_recommendation_topology([], EntityExtractor(), self.DummyRecommender(), 0)


class BufferingBolt(Bolt):
    """Test bolt: buffers everything, emits only on finish."""

    def __init__(self):
        self.buffer = []

    def process(self, tup, emitter):
        self.buffer.append(tup["word"])

    def finish(self, emitter):
        emitter.emit_values("", words=list(self.buffer))


class TestEngineFinish:
    def test_finish_emissions_flow_downstream(self):
        builder = TopologyBuilder()
        builder.set_spout("lines", ListSpout([{"line": "a b"}, {"line": "c"}]))
        builder.set_bolt("split", SplitBolt).shuffle_grouping("lines")
        buffering = BufferingBolt()
        builder.set_bolt("buffer", lambda: buffering).shuffle_grouping("split")
        sink = BufferingBolt()

        class CollectBolt(Bolt):
            def process(self, tup, emitter):
                sink.buffer.extend(tup["words"])

        builder.set_bolt("collect", CollectBolt).shuffle_grouping("buffer")
        report = LocalEngine(builder.build()).run()
        assert sorted(sink.buffer) == ["a", "b", "c"]
        assert report.tuples_emitted["buffer"] == 1
        assert report.tuples_processed["collect"] == 1


class TestMicroBatchBolt:
    def _tuple(self, item):
        return StreamTuple(values={"item": item, "category": item.category})

    def test_emits_full_windows_per_category(self, ytube_small):
        items = [it for it in ytube_small.items if it.category == 0][:4]
        bolt = MicroBatchBolt(batch_size=2)
        emitter = Emitter()
        for item in items:
            bolt.process(self._tuple(item), emitter)
        batches = emitter.drain()
        assert len(batches) == 2
        assert all(len(b["items"]) == 2 for b in batches)
        assert all(b["category"] == 0 for b in batches)

    def test_partial_window_flushes_on_finish(self, ytube_small):
        bolt = MicroBatchBolt(batch_size=10)
        emitter = Emitter()
        bolt.process(self._tuple(ytube_small.items[0]), emitter)
        assert emitter.drain() == []
        bolt.finish(emitter)
        (batch,) = emitter.drain()
        assert [it.item_id for it in batch["items"]] == [ytube_small.items[0].item_id]

    def test_windows_are_single_category(self, ytube_small):
        bolt = MicroBatchBolt(batch_size=3)
        emitter = Emitter()
        for item in ytube_small.items[:12]:
            bolt.process(self._tuple(item), emitter)
        bolt.finish(emitter)
        for batch in emitter.drain():
            categories = {it.category for it in batch["items"]}
            assert categories == {batch["category"]}

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            MicroBatchBolt(batch_size=0)


class TestMicroBatchedTopology:
    class RecordingBatchRecommender:
        def __init__(self):
            self.window_sizes = []

        def recommend_batch(self, items, k):
            self.window_sizes.append(len(items))
            return [[(item.item_id % 7, 1.0)][:k] for item in items]

    def test_end_to_end_collects_all_items(self, ytube_small):
        extractor = EntityExtractor()
        extractor.add_phrases(ytube_small.entity_names)
        recommender = self.RecordingBatchRecommender()
        items = ytube_small.items[:20]
        topology, sink = build_recommendation_topology(
            items,
            extractor,
            recommender,
            n_categories=ytube_small.n_categories,
            k=5,
            batch_size=4,
        )
        LocalEngine(topology).run()
        assert set(sink.results) == {it.item_id for it in items}
        assert sum(recommender.window_sizes) == len(items)
        assert all(size <= 4 for size in recommender.window_sizes)
        # At least one real micro-batch formed (not all singleton flushes).
        assert max(recommender.window_sizes) > 1

    def test_batcher_only_with_batch_size(self, fitted_ssrec):
        topology, _ = build_recommendation_topology(
            [], EntityExtractor(), fitted_ssrec, n_categories=2
        )
        assert "batcher" not in topology.bolts
        topology, _ = build_recommendation_topology(
            [], EntityExtractor(), fitted_ssrec, n_categories=2, batch_size=8
        )
        assert topology.bolts["batcher"].factory()._batch_size == 8
        assert topology.bolts["batcher"].parallelism == 2
