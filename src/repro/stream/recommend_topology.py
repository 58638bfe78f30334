"""The paper's deployment: recommendation as a Storm topology.

Section VI-D: "Our CPPse-index is implemented over Apache Storm ... The bolt
in Apache Storm is responsible for receiving inputs and works as the CPU.
We configure the number of bolts over Apache Storm same as the category
number of each dataset."

The topology is::

    ItemSpout --> EntityExtractBolt --(fields: category)--> MatchBolt x C --> TopKSinkBolt

- :class:`ItemSpout` replays the social-item stream;
- :class:`EntityExtractBolt` runs the entity extractor over the item text
  (the TagMe step);
- :class:`MatchBolt` is parallelized with one task per category (fields
  grouping on ``category``) and asks the recommender for the top-k users;
- :class:`TopKSinkBolt` collects the final ranked lists.

Any object with a ``recommend(item, k) -> list[(user_id, score)]`` method
works as the recommender — the ssRec facade, the naive scan, or a baseline.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Protocol

from repro.datasets.schema import SocialItem
from repro.entities.extractor import EntityExtractor
from repro.stream.topology import Bolt, Emitter, Spout, Topology, TopologyBuilder
from repro.stream.tuples import StreamTuple


class Recommender(Protocol):
    """Minimal protocol the match bolts require."""

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


class MatchBolt(Bolt):
    """Executes the recommender's compiled plan per incoming item.

    One task per category (fields grouping), per the paper's bolt count.
    Plan-aware facades hand the bolt their compiled execution plan
    (:func:`repro.exec.as_executor`); plain recommenders — baselines,
    test doubles — are adapted to the same interface, so the topology
    shape never depends on what serves it.
    """

    def __init__(self, recommender: Recommender, k: int) -> None:
        self._recommender = recommender
        self._k = int(k)

    def process(self, tup: StreamTuple, emitter: Emitter) -> None:
        from repro.exec import as_executor  # local: keeps stream import-light

        item: SocialItem = tup["item"]
        # Resolved per tuple (plan-aware facades cache their compiled
        # plan, so this is an attribute lookup): a facade reconfigured
        # mid-topology — attach_index(), configure(...) — serves
        # the next tuple through its new plan, matching the old per-call
        # recommend() delegation.
        ranked = as_executor(self._recommender).run_item(item, self._k)
        emitter.emit(tup.with_values("", item_id=item.item_id, recommendations=ranked))


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
) -> tuple[Topology, TopKSinkBolt]:
    """Wire the paper's topology; returns ``(topology, sink)``.

    The sink instance is returned so callers can read ``sink.results`` after
    the engine run.
    """
    if n_categories < 1:
        raise ValueError(f"n_categories must be >= 1, got {n_categories}")
    sink = TopKSinkBolt()
    builder = TopologyBuilder()
    builder.set_spout("items", ItemSpout(items))
    builder.set_bolt("extract", lambda: EntityExtractBolt(extractor)).shuffle_grouping("items")
    builder.set_bolt(
        "match", lambda: MatchBolt(recommender, k), parallelism=n_categories
    ).fields_grouping("extract", "category")
    builder.set_bolt("sink", lambda: sink).global_grouping("match")
    return builder.build(), sink
