"""Flat extended signature forest: one struct-of-arrays forest per block.

Section V-A: each tree stores the user profiles of one block under one
category.  Leaf entries (LEntry) carry a user's impact-encoded statistics;
internal entries (IEntry) are "virtual users whose interests cover all of
their children", built by "applying max() to all children over their
corresponding signature components".

The entity/producer aggregates of an IEntry do not depend on the category,
so a block keeps them **once**: :class:`BlockForest` stacks every tree
level in one row space — leaf rows ``[0, offsets[1])``, user-id order as
built (rows past ``n_members`` are the reserved zone later members claim),
then one run of rows per level up to the root — and row ``r`` of a level
is the component-wise ``max`` over its *strip* of ``fanout`` consecutive
rows in the level below.  Rows are the minor axis of every array
(``entity[slot, row]``), so a strip of siblings is one contiguous run per
symbol and a search reads whole strips.  The per-category parts
(``p_l(c)``, ``p_s(c)``) are two vectors per category in the same row
space, so a ``(block, category)`` tree (:class:`SignatureTree`) is just a
choice of vectors over the forest.

Because every component of the relevance function (Def. 2) is monotone
non-decreasing in the aggregated statistics, a row's relevance upper
bounds every descendant's (Lemmas 1-2) — the property the Algorithm 1
branch-and-bound relies on for no-false-dismissal pruning.
:meth:`BlockForest.relevance` evaluates Def. 2 / Eq. 3 for any mix of rows
and queries in NumPy passes; property-based tests hold it to the scalar
definition, the aggregation invariant and the bound.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.hmm.utils import PROB_FLOOR
from repro.index.signature import BlockUniverse, QueryBatch, UniverseOverflow, UserVector

#: A search starts from the lowest level holding at most this many rows.
_START_ROWS = 512


class BlockForest:
    """Every signature tree of one user block, as contiguous arrays.

    Args:
        block_id: owning block.
        universe: the block's shared symbol universe (column spaces).
        n_categories: how many per-category ``p_l`` / ``p_s`` vectors to hold.
        fanout: rows aggregated into one row of the next level.
        capacity: leaf rows to provide (members plus reserved zone).
    """

    def __init__(
        self,
        block_id: int,
        universe: BlockUniverse,
        n_categories: int,
        fanout: int = 8,
        capacity: int = 0,
    ) -> None:
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {fanout}")
        self.block_id = int(block_id)
        self.universe = universe
        self.fanout = fanout = int(fanout)
        sizes = [fanout * max(1, -(-int(capacity) // fanout))]
        while sizes[-1] > fanout:
            sizes.append(fanout * -(-sizes[-1] // fanout**2))
        sizes.append(fanout)  # the root's strip: only its first row is used
        #: Level ``l`` occupies rows ``[offsets[l], offsets[l + 1])``; every
        #: level is whole strips of ``fanout`` rows.
        self.offsets = tuple(int(o) for o in np.cumsum([0] + sizes))
        rows = self.offsets[-1]
        #: Strip holding each internal row's children (-1: none).
        self.child_strip = np.full(rows, -1, dtype=np.intp)
        for level in range(1, len(sizes)):
            parents = sizes[level - 1] // fanout
            start = self.offsets[level]
            self.child_strip[start : start + parents] = (
                self.offsets[level - 1] // fanout + np.arange(parents)
            )
        self.entity = np.zeros((universe.entity_capacity, rows))
        self.producer = np.zeros((universe.producer_capacity, rows))
        self.floor_entity = np.zeros(rows)
        self.floor_producer = np.zeros(rows)
        self.p_long = np.zeros((int(n_categories), rows))
        self.p_short = np.zeros((int(n_categories), rows))
        #: 1 where a row is a member or covers one; searches skip the rest.
        self.live = np.zeros(rows, dtype=np.uint8)
        self.user_ids = np.full(sizes[0], -1, dtype=np.int64)
        self.row_of: dict[int, int] = {}
        #: Live strips of the lowest level holding at most ``_START_ROWS``
        #: rows — where a search starts; kept current by :meth:`refresh`.
        level = next((l for l, size in enumerate(sizes) if size <= _START_ROWS), len(sizes) - 1)
        self._start_span = (self.offsets[level] // fanout, self.offsets[level + 1] // fanout)
        self.start_strips = np.empty(0, dtype=np.intp)

    @property
    def n_members(self) -> int:
        return len(self.row_of)

    @property
    def height(self) -> int:
        """Levels from root to leaves (2 for a root over one leaf strip)."""
        return len(self.offsets) - 1

    def member_ids(self) -> np.ndarray:
        """Member user ids in row order."""
        return self.user_ids[: self.n_members]

    def _strips(self, array: np.ndarray) -> np.ndarray:
        """``array`` with its row axis split into ``[strip, row in strip]``."""
        return array.reshape(*array.shape[:-1], -1, self.fanout)

    def _aggregated(self) -> tuple[np.ndarray, ...]:
        return (
            self.entity, self.producer, self.floor_entity, self.floor_producer,
            self.p_long, self.p_short, self.live,
        )

    # ------------------------------------------------------------------
    # Maintenance (Algorithm 2)
    # ------------------------------------------------------------------
    def put(self, members: Sequence[tuple[UserVector, np.ndarray, np.ndarray]]) -> np.ndarray:
        """Write the leaf rows of ``(vector, p_long, p_short)`` members —
        overwrite, or claim the next reserved row for a new member — and
        return them.  Ancestors stay stale until :meth:`refresh`.  Raises
        :class:`UniverseOverflow` when the reserved rows are exhausted (the
        owner rebuilds the block)."""
        rows = np.empty(len(members), dtype=np.intp)
        for position, (vector, _, _) in enumerate(members):
            row = self.row_of.get(vector.user_id)
            if row is None:
                row = self.n_members
                if row >= self.offsets[1]:
                    raise UniverseOverflow(f"forest full ({row} leaf rows)")
                self.row_of[vector.user_id] = row
                self.user_ids[row] = vector.user_id
                self.live[row] = 1
            rows[position] = row
        vectors, p_long, p_short = zip(*members)
        self.entity[:, rows] = np.array([v.p_entity for v in vectors]).T
        self.producer[:, rows] = np.array([v.p_producer for v in vectors]).T
        self.floor_entity[rows] = [v.floor_entity for v in vectors]
        self.floor_producer[rows] = [v.floor_producer for v in vectors]
        self.p_long[:, rows] = np.array(p_long).T
        self.p_short[:, rows] = np.array(p_short).T
        return rows

    def refresh(self, leaf_rows=None) -> None:
        """Re-aggregate the ancestors of ``leaf_rows`` (default: all), one
        ``max`` pass per level ("update LE and its ancestors")."""
        fanout = self.fanout
        nodes = None if leaf_rows is None else np.unique(np.asarray(leaf_rows) // fanout)
        for level in range(1, self.height):
            lo, hi = self.offsets[level - 1], self.offsets[level]
            if nodes is None:
                nodes = np.arange((hi - lo) // fanout)
            first = lo + nodes * fanout
            for array in self._aggregated():
                top = array[..., first]
                for child in range(1, fanout):
                    np.maximum(top, array[..., first + child], out=top)
                array[..., hi + nodes] = top
            nodes = np.unique(nodes // fanout)
        lo, hi = self._start_span
        self.start_strips = lo + np.flatnonzero(self._strips(self.live)[lo:hi].any(axis=1))

    # ------------------------------------------------------------------
    # Relevance (Def. 2 / Eq. 3)
    # ------------------------------------------------------------------
    def relevance(
        self, strips: np.ndarray, owner: np.ndarray, batch: QueryBatch, lambda_s: float
    ) -> np.ndarray:
        """Relevance of every row of ``strips[i]`` for query ``owner[i]`` of
        ``batch`` (``owner`` ascending), as ``[len(strips) x fanout]``: the
        exact Eq. 3 score on a leaf row, the Def. 2 upper bound on an
        internal one.

        The entity sum accumulates ``oov * floor`` then the query's slots in
        ascending order, one add per term — the scalar
        :meth:`QuerySignature.entity_sum` — and every step is per-row, so a
        score does not depend on which rows it was evaluated beside.
        """
        parts = np.empty((4, strips.size, self.fanout))
        entity, floor_entity = self._strips(self.entity), self._strips(self.floor_entity)
        spans = np.searchsorted(owner, np.arange(len(batch.slots) + 1)).tolist()
        for query, (lo, hi) in enumerate(zip(spans, spans[1:])):
            if lo < hi:
                slots, span = batch.slots[query], strips[lo:hi]
                terms = np.empty((slots.size + 1, hi - lo, self.fanout))
                np.multiply(floor_entity[span], batch.oov_weight[query], out=terms[0])
                np.multiply(
                    entity[slots[:, None], span], batch.weights[query][:, None, None],
                    out=terms[1:],
                )
                # Over the leading axis ``reduce`` adds term by term, in order.
                np.add.reduce(terms, axis=0, out=parts[2, lo:hi])
        category, producer_slot = batch.category[owner], batch.producer_slot[owner]
        parts[0] = self._strips(self.p_long)[category, strips]
        parts[1] = np.where(
            producer_slot[:, None] >= 0,
            self._strips(self.producer)[producer_slot, strips],
            self._strips(self.floor_producer)[strips],
        )
        parts[3] = self._strips(self.p_short)[category, strips]
        np.log(np.maximum(parts, PROB_FLOOR, out=parts), out=parts)
        long_score = parts[0] + parts[1]
        long_score += parts[2]
        return (1.0 - lambda_s) * long_score + lambda_s * parts[3]

    def root_bound(self, batch: QueryBatch, lambda_s: float) -> float:
        """Upper bound of the whole block for the one query in ``batch``."""
        top = np.array([self.offsets[-1] // self.fanout - 1])
        return float(self.relevance(top, np.zeros(1, dtype=np.intp), batch, lambda_s)[0, 0])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert structural + aggregation invariants (tests call this)."""
        n = self.n_members
        ids = self.user_ids[:n].tolist()
        if self.row_of != {uid: row for row, uid in enumerate(ids)}:
            raise AssertionError("row_of disagrees with user_ids")
        if (self.user_ids[n:] != -1).any() or self.live[: self.offsets[1]].sum() != n:
            raise AssertionError("reserved leaf rows are not empty")
        before = [array[..., self.offsets[1] :].copy() for array in self._aggregated()]
        self.refresh()
        for stale, array in zip(before, self._aggregated()):
            if not np.array_equal(stale, array[..., self.offsets[1] :]):
                raise AssertionError("stale aggregate")


@dataclass(frozen=True)
class SignatureTree:
    """One extended signature tree: ``(block, category)`` -> user signatures.

    A view, not a structure: the tree's rows are the block forest's, read
    through this category's ``p_l`` / ``p_s`` vectors.  The hash table's
    ``sptr`` pointers and :meth:`CPPseIndex.locate_trees` hand these out;
    the forest is looked up on use, so a handle outlives a block rebuild.
    """

    forests: list[BlockForest]
    block_id: int
    category: int

    @property
    def forest(self) -> BlockForest:
        return self.forests[self.block_id]
