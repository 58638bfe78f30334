"""The paper's deployment: recommendation as a Storm topology.

Section VI-D: "Our CPPse-index is implemented over Apache Storm ... The bolt
in Apache Storm is responsible for receiving inputs and works as the CPU.
We configure the number of bolts over Apache Storm same as the category
number of each dataset."

One builder, :func:`build_recommendation_topology`, wires every shape::

    ItemSpout --> EntityExtractBolt [--(fields: category)--> MicroBatchBolt x C]
        --(fields: category)--> MatchBolt x C ------------------> TopKSinkBolt
        --(all)--> ShardMatchBolt x N --(global)--> ShardMergeBolt --> TopKSinkBolt

- :class:`ItemSpout` replays the social-item stream and
  :class:`EntityExtractBolt` re-extracts each item's entities (the TagMe
  step);
- with a ``batch_size``, :class:`MicroBatchBolt` buffers items into
  single-category windows (partial windows flush through the engine's
  end-of-stream ``finish`` pass), amortizing the serving overhead —
  profile sync, tree location, query encoding — over each window;
- the match stage is read off the recommender.  Anything exposing
  ``recommend(item, k)`` gets the paper's one :class:`MatchBolt` task per
  category; a :class:`~repro.serve.service.ShardedRecommender` is
  parallelized by *user partition* instead — every shard must see every
  item, so the *all* grouping broadcasts to one :class:`ShardMatchBolt`
  per shard and :class:`ShardMergeBolt` merges the shard-local top-k
  lists into exactly what ``ShardedRecommender.recommend`` computes
  in-process;
- :class:`TopKSinkBolt` collects ``results[item_id] = [(user, score)]``,
  so parity between any two deployments is a dict equality.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence
from typing import Protocol

from repro.datasets.schema import SocialItem
from repro.entities.extractor import EntityExtractor
from repro.stream.topology import Bolt, Emitter, Spout, Topology, TopologyBuilder
from repro.stream.tuples import StreamTuple


class Recommender(Protocol):
    """Minimal protocol the match bolts require (``recommend_batch`` is
    used for windows when present)."""

    def recommend(self, item: SocialItem, k: int) -> list[tuple[int, float]]:
        """Top-``k`` ``(user_id, score)`` pairs for ``item``."""
        ...


class ItemSpout(Spout):
    """Replays a sequence of :class:`SocialItem` as the source stream."""

    def __init__(self, items: Iterable[SocialItem]) -> None:
        self._items = list(items)
        self._cursor = 0

    def open(self) -> None:
        self._cursor = 0

    def next_tuple(self) -> StreamTuple | None:
        if self._cursor >= len(self._items):
            return None
        item = self._items[self._cursor]
        self._cursor += 1
        return StreamTuple(
            values={"item": item, "category": item.category},
            timestamp=item.timestamp,
        )


class EntityExtractBolt(Bolt):
    """Re-extracts the entity set from the item text (the TagMe step).

    The extracted entities replace the item's declared ones downstream, so
    the pipeline genuinely exercises text -> entities -> matching.
    """

    def __init__(self, extractor: EntityExtractor) -> None:
        self._extractor = extractor

    def process(self, tup: StreamTuple, emitter: Emitter) -> None:
        item: SocialItem = tup["item"]
        extracted = tuple(self._extractor.extract(item.text))
        enriched = SocialItem(
            item_id=item.item_id,
            category=item.category,
            producer=item.producer,
            entities=extracted if extracted else item.entities,
            text=item.text,
            timestamp=item.timestamp,
        )
        emitter.emit(tup.with_values("", item=enriched, category=enriched.category))


class MicroBatchBolt(Bolt):
    """Buffers item tuples into fixed-size per-category windows.

    Args:
        batch_size: window size; a category's window is emitted as one
            ``items`` tuple the moment it fills.  Partial windows are
            emitted by ``finish`` when the stream ends, so every item is
            served exactly once.
    """

    def __init__(self, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._batch_size = int(batch_size)
        self._windows: dict[int, list[SocialItem]] = defaultdict(list)

    def _emit_window(self, category: int, emitter: Emitter) -> None:
        window = self._windows.pop(category, [])
        if not window:
            return
        emitter.emit_values(
            "",
            timestamp=window[-1].timestamp,
            items=list(window),
            category=category,
        )

    def process(self, tup: StreamTuple, emitter: Emitter) -> None:
        item: SocialItem = tup["item"]
        window = self._windows[item.category]
        window.append(item)
        if len(window) >= self._batch_size:
            self._emit_window(item.category, emitter)

    def finish(self, emitter: Emitter) -> None:
        for category in sorted(self._windows):
            self._emit_window(category, emitter)


class MatchBolt(Bolt):
    """Executes the recommender's compiled plan per incoming tuple.

    A bare ``item`` tuple is served through the plan's per-item entry, an
    ``items`` window (from a :class:`MicroBatchBolt`) through its batch
    entry; either way one result tuple is emitted per item.  Plan-aware
    facades hand the bolt their compiled execution plan
    (:func:`repro.exec.as_executor`); plain recommenders — baselines,
    test doubles — are adapted to the same interface, so the topology
    shape never depends on what serves it.
    """

    def __init__(self, recommender: Recommender, k: int) -> None:
        self._recommender = recommender
        self._k = int(k)

    def process(self, tup: StreamTuple, emitter: Emitter) -> None:
        from repro.exec import as_executor  # local: keeps stream import-light

        # Resolved per tuple (plan-aware facades cache their compiled
        # plan, so this is an attribute lookup): a facade reconfigured
        # mid-topology — attach_index(), configure(...) — serves the next
        # tuple through its new plan.
        executor = as_executor(self._recommender)
        if "items" in tup:
            items: list[SocialItem] = tup["items"]
            ranked_lists = executor.run_batch(items, self._k)
        else:
            items = [tup["item"]]
            ranked_lists = [executor.run_item(items[0], self._k)]
        for item, ranked in zip(items, ranked_lists):
            emitter.emit(
                tup.with_values("", item_id=item.item_id, recommendations=ranked)
            )


class ShardMatchBolt(MatchBolt):
    """A :class:`MatchBolt` serving one shard's slice; the task index
    selects the shard — the dataflow rendering of one branch of the
    execution plan's :class:`~repro.exec.ops.FanoutOp`."""

    def prepare(self, task_index: int, n_tasks: int) -> None:
        service = self._recommender
        if n_tasks != service.n_shards:
            raise ValueError(
                f"shard bolt parallelism {n_tasks} != service shard count "
                f"{service.n_shards}"
            )
        self._recommender = service.shards[task_index]


class ShardMergeBolt(Bolt):
    """Merges per-shard partial top-k lists into the global top-k.

    Emits an item's final list only when every shard has reported it, so
    downstream sees exactly one result tuple per item.
    """

    def __init__(self, n_shards: int, k: int) -> None:
        from repro.exec import MergeOp  # local: keeps stream import-light

        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self._n_shards = int(n_shards)
        self._k = int(k)
        self._merge = MergeOp()  # the execution plan's merge operator
        self._partials: dict[int, list[list[tuple[int, float]]]] = {}

    def process(self, tup: StreamTuple, emitter: Emitter) -> None:
        item_id = tup["item_id"]
        partials = self._partials.setdefault(item_id, [])
        partials.append(tup["recommendations"])
        if len(partials) == self._n_shards:
            del self._partials[item_id]
            emitter.emit(
                tup.with_values(
                    "", recommendations=self._merge.merge(partials, self._k)
                )
            )

    def cleanup(self) -> None:
        if self._partials:  # pragma: no cover - indicates a routing bug
            raise RuntimeError(
                f"{len(self._partials)} items ended the stream with missing "
                f"shard partials"
            )


class TopKSinkBolt(Bolt):
    """Collects final ranked lists: ``results[item_id] = [(user, score)]``."""

    def __init__(self) -> None:
        self.results: dict[int, list[tuple[int, float]]] = {}

    def process(self, tup: StreamTuple, emitter: Emitter) -> None:
        self.results[tup["item_id"]] = tup["recommendations"]


def build_recommendation_topology(
    items: Sequence[SocialItem],
    extractor: EntityExtractor,
    recommender: Recommender,
    n_categories: int,
    k: int = 30,
    batch_size: int | None = None,
) -> tuple[Topology, TopKSinkBolt]:
    """Wire the deployment ``recommender`` calls for; returns
    ``(topology, sink)`` — read ``sink.results`` after the engine run.

    Args:
        recommender: a ``ShardedRecommender`` gets one all-grouped match
            task per shard plus a merge task; anything else one match
            task per category (the paper's bolt count).
        n_categories: tasks of every category-grouped stage.
        batch_size: serve micro-batched windows of this size through a
            per-category :class:`MicroBatchBolt`; None serves per item.
    """
    from repro.serve.service import ShardedRecommender  # local: import-light

    if n_categories < 1:
        raise ValueError(f"n_categories must be >= 1, got {n_categories}")
    sink = TopKSinkBolt()
    builder = TopologyBuilder()
    builder.set_spout("items", ItemSpout(items))
    builder.set_bolt("extract", lambda: EntityExtractBolt(extractor)).shuffle_grouping("items")
    feed = "extract"
    if batch_size is not None:
        builder.set_bolt(
            "batcher", lambda: MicroBatchBolt(batch_size), parallelism=n_categories
        ).fields_grouping(feed, "category")
        feed = "batcher"
    if isinstance(recommender, ShardedRecommender):
        n_shards = recommender.n_shards
        builder.set_bolt(
            "match", lambda: ShardMatchBolt(recommender, k), parallelism=n_shards
        ).all_grouping(feed)
        builder.set_bolt(
            "merge", lambda: ShardMergeBolt(n_shards, k)
        ).global_grouping("match")
        builder.set_bolt("sink", lambda: sink).global_grouping("merge")
    else:
        builder.set_bolt(
            "match", lambda: MatchBolt(recommender, k), parallelism=n_categories
        ).fields_grouping(feed, "category")
        builder.set_bolt("sink", lambda: sink).global_grouping("match")
    return builder.build(), sink
