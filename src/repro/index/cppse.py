"""The CPPse-index: build, Algorithm 1 KNN, Algorithm 2 maintenance.

Structure (Fig. 4): a chained hash table maps each category-entity pair to
the extended signature trees (one per user block holding that pair); each
tree stores the block's user profiles under one category, all trees of a
block sharing one flat :class:`~repro.index.sigtree.BlockForest`.  KNN
queries run best-first over the located trees, pruning subtrees whose
upper-bound relevance (Def. 2) cannot beat the current k-th best —
Lemmas 1-2 guarantee no false dismissals among the probed trees.

Always-on counters (:meth:`CPPseIndex.obs_registry`), each next to the
paper quantity it watches:

- ``index.queries`` / ``index.blocks_probed`` — distinct pseudo-queries
  searched and the trees step 1 of Algorithm 1 located for them (Fig. 4's
  hash routing: how much of the blocking a query touches);
- ``index.bounds_evaluated`` — IEntry upper bounds computed (Def. 2), the
  branch-and-bound's overhead;
- ``index.leaves_scored`` and ``index.reachable_users`` — LEntries scored
  exactly vs users in the probed trees; their ratio, the gauge
  ``index.scored_share``, is Fig. 10's pruning power (1.0 = a scan);
- ``index.flushes`` / ``index.users_refreshed`` / ``index.flush_us`` —
  Algorithm-2 runs, profiles they absorbed and the time they took
  (Fig. 11's update cost).
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.core.config import SsRecConfig
from repro.core.matching import MatchingScorer
from repro.core.profiles import ProfileStore, UserProfile
from repro.datasets.schema import SocialItem
from repro.index.blocks import UserBlock, assign_to_block, block_statistics, one_pass_clustering
from repro.index.hashing import ChainedHashTable
from repro.index.signature import (
    BlockUniverse,
    QueryBatch,
    QuerySignature,
    UniverseOverflow,
    UserVector,
    with_slack,
)
from repro.index.sigtree import BlockForest, SignatureTree

#: Tie tolerance when comparing against the pruning bound; entries whose
#: upper bound equals the current k-th best (within float noise) are still
#: explored so tied users resolve deterministically by id.
_TIE_EPS = 1e-12
#: Open nodes a block search expands per query and round, beyond the
#: ``k / fanout`` leaf runs any answer needs.
_ROUND_WIDTH = 16
#: Ceiling on the memoised ``(category, entity) -> blocks`` routes.
_ROUTE_MEMO_CAP = 1 << 16
#: Members encoded per write while a block is built (bounds the staging copy).
_BUILD_CHUNK = 256
_COUNTERS = (
    "queries", "blocks_probed", "bounds_evaluated", "leaves_scored",
    "reachable_users", "flushes", "users_refreshed", "flush_us",
)


def _rank_in_group(sorted_groups: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal group ids."""
    return np.arange(sorted_groups.size) - np.searchsorted(sorted_groups, sorted_groups)


class CPPseIndex:
    """Hash-routed extended signature trees over blocked user profiles.

    Build with :meth:`build`; query with :meth:`knn`; keep fresh with
    :meth:`maintain`.
    """

    def __init__(
        self,
        profiles: ProfileStore,
        scorer: MatchingScorer,
        n_categories: int,
        config: SsRecConfig | None = None,
    ) -> None:
        self.profiles = profiles
        self.scorer = scorer
        self.interest = scorer.interest
        self.n_categories = int(n_categories)
        self.config = config or SsRecConfig()
        self.blocks: list[UserBlock] = []
        self.forests: list[BlockForest] = []  # forests[b] belongs to blocks[b]
        self.trees: dict[tuple[int, int], SignatureTree] = {}
        self.hash_table = ChainedHashTable(n_buckets=self.config.hash_buckets)
        self.block_of_user: dict[int, int] = {}
        #: Bumped by every :meth:`maintain`; cached member views key on it.
        self.version = 0
        self.counters = dict.fromkeys(_COUNTERS, 0)
        self._routes: dict[tuple[int, int], tuple[int, ...]] = {}
        self._routes_version = self.hash_table.version

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        profiles: ProfileStore,
        scorer: MatchingScorer,
        n_categories: int,
        config: SsRecConfig | None = None,
    ) -> "CPPseIndex":
        """Cluster users into blocks and build every block's forest."""
        index = cls(profiles, scorer, n_categories, config)
        ordered = [profiles.get(uid) for uid in profiles.user_ids()]
        index.blocks = one_pass_clustering(
            ordered,
            n_categories,
            similarity_threshold=index.config.block_similarity_threshold,
            max_blocks=index.config.max_blocks,
        )
        for block in index.blocks:
            index._build_block(block)
        return index

    @classmethod
    def build_from_blocks(
        cls,
        profiles: ProfileStore,
        scorer: MatchingScorer,
        n_categories: int,
        blocks: Sequence[UserBlock],
        config: SsRecConfig | None = None,
    ) -> "CPPseIndex":
        """Build over a caller-supplied block partition.

        The sharded serving runtime (:mod:`repro.serve`) reuses one global
        blocking across all shards: each shard passes the blocks it owns
        (re-numbered densely from 0) instead of re-clustering its slice.
        Because a query probes exactly the trees whose block universe holds
        a query entity, sharing the blocking makes the union of per-shard
        probed users equal the single index's probed set — which is what
        makes sharded results bit-identical to the unsharded index.

        ``blocks`` must have dense ids ``0..len-1`` and every member user
        must exist in ``profiles``.
        """
        index = cls(profiles, scorer, n_categories, config)
        index.blocks = list(blocks)
        for position, block in enumerate(index.blocks):
            if block.block_id != position:
                raise ValueError(
                    f"blocks must be densely numbered: position {position} "
                    f"has block_id {block.block_id}"
                )
            index._build_block(block)
        return index

    def _build_block(self, block: UserBlock) -> None:
        """(Re)build one block: universe, forest rows, trees, hash entries."""
        universe = BlockUniverse(
            producer_ids=block.producer_ids,
            entity_ids=block.entity_ids,
            slack=self.config.signature_slack,
        )
        forest = BlockForest(
            block.block_id,
            universe,
            self.n_categories,
            fanout=self.config.tree_fanout,
            capacity=with_slack(len(block.user_ids), self.config.signature_slack),
        )
        members = sorted(block.user_ids)
        self.block_of_user.update(dict.fromkeys(members, block.block_id))
        for lo in range(0, len(members), _BUILD_CHUNK):
            forest.put([
                self._encode(self.profiles.get(user_id), universe)
                for user_id in members[lo : lo + _BUILD_CHUNK]
            ])
        forest.refresh()
        if block.block_id < len(self.forests):
            self.forests[block.block_id] = forest  # open trees now view this one
        else:
            self.forests.append(forest)
        for category in sorted(block.categories):
            if (block.block_id, category) not in self.trees:
                self._open_tree(block, category)

    def _encode(self, profile: UserProfile, universe: BlockUniverse) -> tuple:
        """``profile`` as a forest member: impact lists plus ``p_l``/``p_s``."""
        return (
            UserVector.build(profile, universe, self.scorer),
            self.interest.long_term_distribution(profile),
            self.interest.short_term_distribution(profile),
        )

    def _open_tree(self, block: UserBlock, category: int) -> None:
        """Open the block's tree for ``category``: every member's ``p_l(c)``
        / ``p_s(c)`` already sits in the forest, so a tree is its handle
        plus the hash entries that route the category to the block."""
        self.trees[(block.block_id, int(category))] = SignatureTree(
            self.forests, block.block_id, int(category)
        )
        block.categories.add(int(category))
        self._route(block, [category], self.forests[block.block_id].universe.entity_ids())

    def _route(self, block: UserBlock, categories, entity_ids) -> None:
        """Point the hash table's ``(category, entity)`` pairs at the
        block's open trees."""
        for category in categories:
            tree = self.trees[(block.block_id, category)]
            for entity_id in entity_ids:
                self.hash_table.insert(category, entity_id, block.block_id, tree)

    # ------------------------------------------------------------------
    # KNN query (Algorithm 1)
    # ------------------------------------------------------------------
    def _locate_blocks(self, category: int, weighted: Sequence[tuple[int, float]]) -> list[int]:
        """Blocks whose ``category`` tree holds any query entity: one
        hash-table probe per ``(category, entity)``, memoised until the
        table next changes."""
        routes = self._routes
        if self._routes_version != self.hash_table.version or len(routes) > _ROUTE_MEMO_CAP:
            routes.clear()
            self._routes_version = self.hash_table.version
        blocks: set[int] = set()
        for entity_id, _ in weighted:
            found = routes.get((category, entity_id))
            if found is None:
                found = routes[(category, entity_id)] = tuple(
                    self.hash_table.lookup(category, entity_id)
                )
            blocks.update(found)
        return sorted(blocks)

    def locate_trees(self, item: SocialItem) -> dict[int, SignatureTree]:
        """Step 1 of Algorithm 1: hash the item's category-entity pairs to
        the extended signature trees containing them.

        Probes with the expanded entity set ``E u E'`` so expansion recall
        carries through to tree location.
        """
        blocks = self._locate_blocks(item.category, self.scorer.expanded_query(item))
        return {block_id: self.trees[(block_id, item.category)] for block_id in blocks}

    def knn(self, item: SocialItem, k: int) -> list[tuple[int, float]]:
        """Algorithm 1: top-``k`` users for ``item`` via best-first search.

        Returns ``(user_id, score)`` sorted by descending score then user
        id — the same order the sequential scan produces.  ``k == 0`` is
        an empty recommendation window and yields an empty list.
        """
        return self.knn_batch([item], k)[0]

    def knn_batch(
        self, items: Sequence[SocialItem], k: int
    ) -> list[list[tuple[int, float]]]:
        """Batched Algorithm 1 over a micro-batch of items.

        Entry ``i`` equals ``knn(items[i], k)`` on the same index state,
        bit for bit.  Items are grouped by pseudo-query ``(category,
        producer, E u E')`` so duplicates share one search, and the distinct
        queries descend each located block *together*: every round of the
        best-first search evaluates the bounds of all their open nodes in
        one :meth:`BlockForest.relevance` pass.

        Callers flush pending maintenance once before the batch (the ssRec
        facade does) rather than once per item.  An empty window, and
        ``k == 0``, both yield empty results rather than an error.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        results: list[list[tuple[int, float]]] = [[] for _ in items]
        if k == 0 or not items:
            return results
        groups: dict[tuple, list[int]] = {}
        for position, item in enumerate(items):
            weighted = self.scorer.expanded_query(item)
            groups.setdefault((item.category, item.producer, tuple(weighted)), []).append(position)
        by_block: dict[int, list[int]] = {}
        for number, (category, _, weighted) in enumerate(groups):
            for block_id in self._locate_blocks(category, weighted):
                by_block.setdefault(block_id, []).append(number)
        best = _TopK(len(groups), k)
        queries = [(items[positions[0]], key[2]) for key, positions in groups.items()]
        for block_id in sorted(by_block):
            self._search_block(self.forests[block_id], by_block[block_id], queries, best)
        self.counters["queries"] += len(groups)
        for positions, ranked in zip(groups.values(), best.ranked()):
            for position in positions:
                results[position] = list(ranked)
        return results

    def _search_block(
        self, forest: BlockForest, numbers: list[int], queries: list, best: "_TopK"
    ) -> None:
        """Best-first descent of one block for the queries ``numbers``.

        Each round pops, per query, its ``width`` best open nodes whose
        bound still reaches the query's running k-th best (minus
        ``_TIE_EPS``) and evaluates all their children in one pass: leaf
        rows are exact scores and feed the running top-k, internal rows are
        bounds and join the frontier.
        """
        lambda_s = self.scorer.config.lambda_s
        batch = QueryBatch.pack([
            QuerySignature.encode(queries[n][0], queries[n][1], forest.universe, forest.block_id)
            for n in numbers
        ])
        number_of = np.asarray(numbers, dtype=np.intp)
        fanout, leaf_strips = forest.fanout, forest.offsets[1] // forest.fanout
        steps = np.arange(fanout)
        strips = np.tile(forest.start_strips, len(numbers))
        owner = np.repeat(np.arange(len(numbers)), forest.start_strips.size)
        open_owner = open_rows = np.empty(0, dtype=np.intp)
        open_bound = np.empty(0)
        width = _ROUND_WIDTH + best.k // fanout
        counters = self.counters
        counters["blocks_probed"] += len(numbers)
        counters["reachable_users"] += len(numbers) * forest.n_members
        while strips.size:
            values = forest.relevance(strips, owner, batch, lambda_s)
            rows = strips[:, None] * fanout + steps
            live = forest.live[rows] > 0
            leaf = (strips < leaf_strips)[:, None] & live
            inner = live ^ leaf
            owners = np.broadcast_to(owner[:, None], rows.shape)
            n_leaf = int(np.count_nonzero(leaf))
            counters["leaves_scored"] += n_leaf
            if n_leaf:
                best.offer(number_of[owners[leaf]], forest.user_ids[rows[leaf]], values[leaf])
            if n_leaf < np.count_nonzero(live):
                counters["bounds_evaluated"] += int(np.count_nonzero(inner))
                open_owner = np.concatenate((open_owner, owners[inner]))
                open_rows = np.concatenate((open_rows, rows[inner]))
                open_bound = np.concatenate((open_bound, values[inner]))
            if not open_rows.size:
                break
            reach = open_bound >= best.lower[number_of[open_owner]] - _TIE_EPS
            open_owner, open_rows, open_bound = open_owner[reach], open_rows[reach], open_bound[reach]
            order = np.lexsort((-open_bound, open_owner))
            popped = _rank_in_group(open_owner[order]) < width
            chosen, kept = order[popped], order[~popped]
            strips, owner = forest.child_strip[open_rows[chosen]], open_owner[chosen]
            open_owner, open_rows, open_bound = open_owner[kept], open_rows[kept], open_bound[kept]

    # ------------------------------------------------------------------
    # Dynamic maintenance (Algorithm 2)
    # ------------------------------------------------------------------
    def maintain(self, user_ids: Sequence[int]) -> int:
        """Algorithm 2: absorb profile updates for ``user_ids``.

        Handles, per the paper: changed entity frequencies (leaf-row
        overwrite), new entities (reserved-zone claim + hash-table
        insertion, or block rebuild on overflow), new categories (tree
        opening), and new users (block assignment + reserved-row claim).
        Ancestors are re-aggregated once per touched block, after every row
        of the flush is written.

        Returns the number of profiles processed.
        """
        started = time.perf_counter()
        written: dict[int, list[tuple]] = {}  # block id -> members to (over)write
        processed = 0
        for user_id in user_ids:
            profile = self.profiles.get(user_id)
            if profile is None:
                continue
            processed += 1
            block_id = self.block_of_user.get(int(user_id))
            if block_id is None:
                block = assign_to_block(
                    self.blocks,
                    profile,
                    self.n_categories,
                    similarity_threshold=self.config.block_similarity_threshold,
                    max_blocks=self.config.max_blocks,
                )
                block_id = block.block_id
                if block_id == len(self.forests):
                    # assign_to_block opened a brand-new block; build it whole.
                    self._build_block(block)
                    continue
                self.block_of_user[profile.user_id] = block_id
            member = self._refresh_user(profile, self.blocks[block_id])
            if member is None:
                written.pop(block_id, None)  # rebuilt whole from the profiles
            else:
                written.setdefault(block_id, []).append(member)
        for block_id, members in written.items():
            forest = self.forests[block_id]
            try:
                forest.refresh(forest.put(members))
            except UniverseOverflow:  # new members outgrew the reserved rows
                self._build_block(self.blocks[block_id])
        self.version += 1
        self.counters["flushes"] += 1
        self.counters["users_refreshed"] += processed
        self.counters["flush_us"] += int((time.perf_counter() - started) * 1e6)
        return processed

    def _refresh_user(self, profile: UserProfile, block: UserBlock) -> tuple | None:
        """Grow ``block`` for what ``profile`` newly browsed and encode it;
        None when the block had to be rebuilt (with the profile in it)."""
        block_id = block.block_id
        universe = self.forests[block_id].universe
        # New categories browsed -> open the block's tree for them.
        for category in sorted(block.categories.union(profile.category_counts)):
            if (block_id, category) not in self.trees:
                self._open_tree(block, category)
        # New symbols browsed by this user claim reserved-zone slots; an
        # exhausted zone triggers a full block rebuild with fresh capacity.
        try:
            for entity_id in profile.entity_counts:
                if universe.entity_slot(entity_id) is None:
                    universe.add_entity(entity_id)
                    block.entity_ids.add(int(entity_id))
                    self._route(block, sorted(block.categories), [entity_id])
            for producer_id in profile.producer_counts:
                if universe.producer_slot(producer_id) is None:
                    universe.add_producer(producer_id)
                    block.producer_ids.add(int(producer_id))
            return self._encode(profile, universe)
        except UniverseOverflow:
            unrouted = [e for e in profile.entity_counts if universe.entity_slot(e) is None]
            block.entity_ids.update(profile.entity_counts)
            block.producer_ids.update(profile.producer_counts)
            self._build_block(block)
            self._route(block, sorted(block.categories), unrouted)
            return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def signature_statistics(self) -> dict[str, int]:
        """Table II's per-blocking signature-size factors."""
        stats = block_statistics(self.blocks)
        stats["n_blocks"] = len(self.blocks)
        stats["n_trees"] = len(self.trees)
        return stats

    def users_in_probed_trees(self, item: SocialItem) -> set[int]:
        """Users retrievable for ``item`` (tests compare scan over these)."""
        users: set[int] = set()
        for tree in self.locate_trees(item).values():
            users.update(tree.forest.member_ids().tolist())
        return users

    def check_invariants(self) -> None:
        """Validate every forest's structure and aggregation (tests)."""
        for block, forest in zip(self.blocks, self.forests):
            forest.check_invariants()
            if set(forest.row_of) != set(block.user_ids):
                raise AssertionError(f"block {block.block_id} members disagree with its forest")

    def obs_registry(self, **labels):
        """The always-on counters (module docstring) as a mergeable
        :class:`~repro.obs.metrics.MetricsRegistry`; ``labels`` (a shard
        id, say) keep several indexes apart in one merged view."""
        from repro.obs.metrics import MetricsRegistry  # local: keeps index import-light

        registry = MetricsRegistry()
        for name, value in self.counters.items():
            registry.counter(f"index.{name}", **labels).inc(value)
        registry.gauge("index.scored_share", **labels).set(
            self.counters["leaves_scored"] / max(self.counters["reachable_users"], 1)
        )
        return registry


class _TopK:
    """Running top-``k`` ``(score, user)`` per query of one batch, kept as
    three parallel arrays grouped by query and ranked ``(-score, user_id)``.

    ``lower[q]`` is query ``q``'s k-th best score so far (``-inf`` until it
    holds ``k``): the pruning bound LB of Algorithm 1.
    """

    def __init__(self, n_queries: int, k: int) -> None:
        self.k = int(k)
        self.query = np.empty(0, dtype=np.intp)
        self.user = np.empty(0, dtype=np.int64)
        self.score = np.empty(0)
        self.lower = np.full(n_queries, -np.inf)

    def offer(self, query: np.ndarray, user: np.ndarray, score: np.ndarray) -> None:
        contender = score >= self.lower[query]
        query, user, score = query[contender], user[contender], score[contender]
        query = np.concatenate((self.query, query))
        user = np.concatenate((self.user, user))
        score = np.concatenate((self.score, score))
        order = np.lexsort((user, -score, query))
        query, user, score = query[order], user[order], score[order]
        rank = _rank_in_group(query)
        keep = rank < self.k
        self.query, self.user, self.score = query[keep], user[keep], score[keep]
        kth = rank == self.k - 1
        self.lower[query[kth]] = score[kth]

    def ranked(self) -> list[list[tuple[int, float]]]:
        """Per query, its ``(user_id, score)`` list, best first."""
        pairs = list(zip(self.user.tolist(), self.score.tolist()))
        bounds = np.searchsorted(self.query, np.arange(self.lower.size + 1)).tolist()
        return [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
