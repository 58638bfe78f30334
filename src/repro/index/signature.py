"""Signature encodings for the extended signature trees (Sec. V-A/B).

Two encodings, as the paper specifies: "an impact encoding for maintaining
user profiles and a frequency-based encoding for queries".

- :class:`BlockUniverse` — the block's producer/entity id spaces with the
  20% reserved growth zones ("following the classic technique for memory
  management in database systems, we reserve 20% space of each entry, and
  fill it with zones").
- :class:`UserVector` — the impact lists ``P_Up`` / ``P_E`` of one user
  (Dirichlet-smoothed ``p^(u^p|u)`` / ``p^(e|u)``) over the block universe,
  plus the smoothing floors for out-of-universe symbols.  Shared by all of
  the block's per-category trees (the per-category parts, ``p_l(c)`` and
  ``p_s(c)``, live in the leaf entries).
- :class:`QuerySignature` — the pseudo-query of an item against one block:
  per-universe-slot accumulated weight (frequency x expansion weight, as in
  Example 1) plus the total weight of out-of-universe query entities, which
  scores against the floor.  :class:`QueryBatch` packs several of them into
  the arrays the flat forest's vectorised passes gather by.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.matching import MatchingScorer
from repro.core.profiles import UserProfile
from repro.datasets.schema import SocialItem


class UniverseOverflow(Exception):
    """Raised when a block universe's reserved zone is exhausted; the owner
    rebuilds the affected trees with an enlarged universe."""


def with_slack(n: int, slack: float) -> int:
    """``n`` slots plus the reserved growth zone (at least one spare)."""
    return max(1, n + int(np.ceil(n * slack)) + 1)


class BlockUniverse:
    """Producer/entity id spaces of one block, with growth slack.

    Args:
        producer_ids: initial producer universe (sorted for determinism).
        entity_ids: initial entity universe.
        slack: reserved share of extra capacity (paper: 0.2).
    """

    def __init__(
        self,
        producer_ids: Iterable[int],
        entity_ids: Iterable[int],
        slack: float = 0.2,
    ) -> None:
        if not (0.0 <= slack < 1.0):
            raise ValueError(f"slack must be in [0, 1), got {slack}")
        self.slack = float(slack)
        self._producers: list[int] = sorted(set(int(p) for p in producer_ids))
        self._entities: list[int] = sorted(set(int(e) for e in entity_ids))
        self._producer_slot: dict[int, int] = {p: i for i, p in enumerate(self._producers)}
        self._entity_slot: dict[int, int] = {e: i for i, e in enumerate(self._entities)}
        self.producer_capacity = with_slack(len(self._producers), self.slack)
        self.entity_capacity = with_slack(len(self._entities), self.slack)

    @property
    def n_producers(self) -> int:
        return len(self._producers)

    @property
    def n_entities(self) -> int:
        return len(self._entities)

    def producer_slot(self, producer_id: int) -> int | None:
        return self._producer_slot.get(int(producer_id))

    def entity_slot(self, entity_id: int) -> int | None:
        return self._entity_slot.get(int(entity_id))

    def entity_ids(self) -> list[int]:
        return list(self._entities)

    def producer_ids(self) -> list[int]:
        return list(self._producers)

    def add_entity(self, entity_id: int) -> int:
        """Claim a reserved-zone slot for a new entity.

        Raises :class:`UniverseOverflow` when the zone is exhausted.
        """
        entity_id = int(entity_id)
        existing = self._entity_slot.get(entity_id)
        if existing is not None:
            return existing
        if len(self._entities) >= self.entity_capacity:
            raise UniverseOverflow(
                f"entity universe full ({self.entity_capacity} slots)"
            )
        slot = len(self._entities)
        self._entities.append(entity_id)
        self._entity_slot[entity_id] = slot
        return slot

    def add_producer(self, producer_id: int) -> int:
        """Claim a reserved-zone slot for a new producer."""
        producer_id = int(producer_id)
        existing = self._producer_slot.get(producer_id)
        if existing is not None:
            return existing
        if len(self._producers) >= self.producer_capacity:
            raise UniverseOverflow(
                f"producer universe full ({self.producer_capacity} slots)"
            )
        slot = len(self._producers)
        self._producers.append(producer_id)
        self._producer_slot[producer_id] = slot
        return slot


def _impact_list(
    capacity: int, slot_of: dict[int, int], counts: dict[int, int], prior: float, total: float
) -> np.ndarray:
    """One Dirichlet-smoothed impact list.  A symbol the user never browsed
    smooths to exactly the floor ``prior / total``, so only the profile's
    own (sparse) counts are written over the floor fill."""
    row = np.full(capacity, prior / total)
    seen = [(slot_of[symbol], count) for symbol, count in counts.items() if symbol in slot_of]
    if seen:
        slots, values = zip(*seen)
        row[list(slots)] = (np.array(values) + prior) / total
    return row


@dataclass
class UserVector:
    """Impact-encoded user statistics over a block universe.

    Attributes:
        user_id: the profiled consumer.
        p_producer: smoothed ``p^(u^p|u)`` per producer slot (capacity-sized;
            reserved-zone slots hold the unseen floor).
        p_entity: smoothed ``p^(e|u)`` per entity slot.
        floor_producer: smoothed probability of an unseen producer.
        floor_entity: smoothed probability of an unseen entity.
    """

    user_id: int
    p_producer: np.ndarray
    p_entity: np.ndarray
    floor_producer: float
    floor_entity: float

    @classmethod
    def build(
        cls, profile: UserProfile, universe: BlockUniverse, scorer: MatchingScorer
    ) -> "UserVector":
        """Encode ``profile`` over ``universe`` with the scorer's smoothing.

        Values are exactly :meth:`MatchingScorer.producer_probability` /
        ``entity_probability`` — the index must score identically to the
        sequential scan.
        """
        mu = scorer.config.dirichlet_mu
        prior_p, total_p = mu / scorer.n_producers, profile.n_long_events + mu
        prior_e, total_e = mu / scorer.n_entities, profile.n_entity_tokens + mu
        return cls(
            user_id=profile.user_id,
            p_producer=_impact_list(
                universe.producer_capacity, universe._producer_slot,
                profile.producer_counts, prior_p, total_p,
            ),
            p_entity=_impact_list(
                universe.entity_capacity, universe._entity_slot,
                profile.entity_counts, prior_e, total_e,
            ),
            floor_producer=prior_p / total_p,
            floor_entity=prior_e / total_e,
        )


@dataclass
class QuerySignature:
    """Pseudo-query of one item against one block (Example 1).

    Attributes:
        block_id: the target block.
        category: the item category ``c``.
        producer_slot: universe slot of the item's producer, or None when
            out of universe (scores against ``floor_producer``).
        entity_weights: ``(slot, accumulated weight)`` pairs — frequency
            times expansion weight folded together, so the dot product with
            an impact list equals ``F . (W x P)`` of Definition 2.
        oov_weight: total weight of query entities outside the universe
            (scores against ``floor_entity``).
    """

    block_id: int
    category: int
    producer_slot: int | None
    entity_weights: list[tuple[int, float]]
    oov_weight: float

    @classmethod
    def encode(
        cls,
        item: SocialItem,
        weighted_entities: Sequence[tuple[int, float]],
        universe: BlockUniverse,
        block_id: int,
    ) -> "QuerySignature":
        """Encode ``item`` (with its expanded weighted entity list) over a
        block universe."""
        slot_of = universe._entity_slot.get  # bound once: this loop is per query x block
        slot_weight: dict[int, float] = {}
        oov = 0.0
        for entity_id, weight in weighted_entities:
            slot = slot_of(entity_id)
            if slot is None:
                oov += weight
            else:
                slot_weight[slot] = slot_weight.get(slot, 0.0) + weight
        return cls(
            block_id=int(block_id),
            category=int(item.category),
            producer_slot=universe.producer_slot(item.producer),
            entity_weights=sorted(slot_weight.items()),
            oov_weight=oov,
        )

    def entity_sum(self, p_entity: np.ndarray, floor_entity: float) -> float:
        """``sum_e w_e * p^(e|u)`` against one impact list."""
        total = self.oov_weight * floor_entity
        for slot, weight in self.entity_weights:
            total += weight * float(p_entity[slot])
        return total

    def producer_prob(self, p_producer: np.ndarray, floor_producer: float) -> float:
        """``p^(u^p|u)`` against one impact list."""
        if self.producer_slot is None:
            return floor_producer
        return float(p_producer[self.producer_slot])


@dataclass
class QueryBatch:
    """Several :class:`QuerySignature` of one block, as arrays to gather by.

    Attributes:
        slots / weights: per query, its entity slots (ascending) and their
            accumulated weights.
        oov_weight: per-query out-of-universe weight.
        producer_slot: per-query producer slot, ``-1`` when out of universe.
        category: per-query item category.
    """

    slots: list[np.ndarray]
    weights: list[np.ndarray]
    oov_weight: np.ndarray
    producer_slot: np.ndarray
    category: np.ndarray

    @classmethod
    def pack(cls, queries: Sequence[QuerySignature]) -> "QueryBatch":
        return cls(
            slots=[np.array([s for s, _ in q.entity_weights], dtype=np.intp) for q in queries],
            weights=[np.array([w for _, w in q.entity_weights], dtype=float) for q in queries],
            oov_weight=np.array([q.oov_weight for q in queries], dtype=float),
            producer_slot=np.array(
                [-1 if q.producer_slot is None else q.producer_slot for q in queries],
                dtype=np.intp,
            ),
            category=np.array([q.category for q in queries], dtype=np.intp),
        )
