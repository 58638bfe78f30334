"""Duplicate upload collapse: the one memo stage, behind :class:`DedupOp`.

At-least-once delivery makes the serving surface redundant: retry chains
redeliver the same upload, sometimes with one mutated entity mention,
and reposts carry the same content under another producer id.
:class:`DedupState` is the memo that keeps those from paying the full
Eq. 2-4 scoring pass again, in one of two strictness modes:

**exact** — two uploads collapse iff they are *provably* the same query
to the scorer.  Scoring (Eq. 2-4) reads exactly three things off an
item: its category (the smoothed long/short interest columns), its
producer (the producer-affinity column) and its **resolved expanded
query** — the ``(entity, weight)`` pairs the
:class:`~repro.core.matching.MatchingScorer` expands the declared
entities into.  The raw entity list is *not* a sound key across item
ids: expanded queries are frozen per item id at first computation while
the expander's statistics keep drifting with every observed upload, so
two ids declaring identical entities can legitimately score differently.
Keying on ``(category, producer, resolved expansion, k, epoch)`` makes
an exact-mode hit bit-identical to recomputation by construction — the
``*-dedup`` plans are conformance-anchored bit-for-bit against their
dedup-off anchors on every scenario.  A redelivered item *id* is the
cheapest case of the same rule: the scorer freezes an id's expansion as
one tuple, so its key is rebuilt without touching the pairs.

**approx** — two uploads collapse when their declared entity *sets* are
near-duplicates: same category, exact Jaccard similarity >= ``threshold``
(the producer may differ — that is what lets a cross-producer repost
collapse onto the original).  Candidate pairs come from MinHash/banded
LSH (:mod:`repro.index.minhash`), and every candidate is verified with
the exact Jaccard before merging — banding only prunes, it never decides
(rejected verifications are counted as ``false_merge_checks``).
Collapsed members receive the representative's served list verbatim,
which is the accuracy-for-throughput trade the recall gate in
``benchmarks/bench_dedup.py`` measures.

Both modes share one **mutation-epoch** discipline: the facades bump a
counter on every profile update and on every Algorithm-2 maintenance
flush; the epoch is part of the exact key, and the approximate group
store is dropped whenever it moves, so no collapse can ever serve a
ranked list computed under different profile state.  Orphaned exact
entries are not swept eagerly — the LRU retires them as fresh results
land (``max_groups`` bounds the footprint either way, and every entry
retired is counted in ``DedupStats.evictions``).

What deliberately does **not** bump the epoch: ``observe_item``.  A new
upload advances the producer layer and the entity expander, but neither
changes the score of an *already-queried* item against the *current*
profile state — expanded queries are frozen per item id in the scorer's
query memo, and the interest predictor's per-user distributions are
keyed on the profile version counters, which only move on interaction
updates.  Re-serving a redelivered item therefore legally hits even when
fresh uploads arrived in between, which is exactly what makes redelivery
collapse possible in a live stream.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

from repro.datasets.schema import SocialItem
from repro.index.minhash import LSHIndex, MinHasher, jaccard

RankedList = list[tuple[int, float]]

#: Exact dedup key: (category, producer, resolved expanded query, k, epoch).
DedupKey = tuple[int, int, tuple[tuple[int, float], ...], int, int]


@dataclass
class DedupStats:
    """Collapse counters of one :class:`DedupState`.

    Attributes:
        collapsed: queries served from a representative's result instead
            of a scoring pass (the work the stage saved).
        groups: representatives actually scored (distinct contents in
            exact mode, LSH groups founded in approximate mode).
        false_merge_checks: LSH candidate pairs rejected by the exact
            Jaccard/category verification — each one is a would-be false
            merge the banding suggested and the verifier caught.
        evictions: representatives retired by the footprint bound —
            exact-mode LRU pops plus the groups an approx-mode
            generation reset drops (epoch invalidation is not counted:
            those entries were unservable, not crowded out).
    """

    collapsed: int = 0
    groups: int = 0
    false_merge_checks: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.collapsed + self.groups

    @property
    def collapse_rate(self) -> float:
        return self.collapsed / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "collapsed": self.collapsed,
            "groups": self.groups,
            "false_merge_checks": self.false_merge_checks,
            "evictions": self.evictions,
            "collapse_rate": self.collapse_rate,
        }


class DedupGroup:
    """One representative upload's group in approximate mode.

    ``ranked`` is None between admission and the representative's scoring
    pass — within a micro-batch window, later members can collapse onto a
    founder whose result is still pending; :class:`DedupOp` resolves them
    after the sub-batch compute.
    """

    __slots__ = ("category", "entities", "k", "ranked")

    def __init__(self, category: int, entities: frozenset[int], k: int) -> None:
        self.category = int(category)
        self.entities = entities
        self.k = int(k)
        self.ranked: RankedList | None = None


class DedupState:
    """The collapse memo of one compiled ``*-dedup`` pipeline.

    Args:
        mode: ``"exact"`` or ``"approx"`` (``"off"`` never builds one).
        threshold: minimum exact Jaccard for an approximate merge (τ).
        n_bands: LSH bands (approximate mode).
        n_rows: signature rows per band; the MinHash signature has
            ``n_bands * n_rows`` slots.
        seed: MinHash coefficient seed (fixed default: signatures agree
            across replicas and processes).
        max_groups: footprint bound — LRU capacity of the exact memo and
            generation size of the approximate group store.
    """

    def __init__(
        self,
        mode: str,
        threshold: float = 0.6,
        n_bands: int = 8,
        n_rows: int = 4,
        seed: int = 0,
        max_groups: int = 256,
    ) -> None:
        if mode not in ("exact", "approx"):
            raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        if max_groups < 1:
            raise ValueError(f"max_groups must be >= 1, got {max_groups}")
        self.mode = mode
        self.threshold = float(threshold)
        self.max_groups = int(max_groups)
        self.stats = DedupStats()
        # Exact mode: LRU memo, epoch in the key.
        self._exact: "OrderedDict[DedupKey, RankedList]" = OrderedDict()
        # Approx mode: group store, dropped wholesale on an epoch move.
        self._hasher = MinHasher(n_bands * n_rows, seed=seed) if mode == "approx" else None
        self._lsh = LSHIndex(n_bands, n_rows) if mode == "approx" else None
        self._groups: list[DedupGroup] = []
        self._epoch: int | None = None

    def __len__(self) -> int:
        """Stored representatives (exact entries + live approx groups)."""
        return len(self._exact) + len(self._groups)

    # ------------------------------------------------------------------
    # Exact mode: provable-equality memo
    # ------------------------------------------------------------------
    @staticmethod
    def exact_key(
        item: SocialItem,
        expanded_query: Sequence[tuple[int, float]],
        k: int,
        epoch: int,
    ) -> DedupKey:
        """The full scorer-input identity of one query at one epoch.

        ``expanded_query`` must be the *resolved* expansion from the
        owner's scorer (``scorer.expanded_query(item)``) — see the module
        docstring for why the raw entity list is not sound across ids.
        The scorer hands it out as a frozen tuple, so building the key
        of a redelivered id copies nothing.
        """
        return (item.category, item.producer, tuple(expanded_query), k, epoch)

    def lookup_exact(self, key: DedupKey) -> RankedList | None:
        """The representative's ranked list, or None when this content is
        new.  Hits return a copy (callers may mutate their result)."""
        entry = self._exact.get(key)
        if entry is None:
            return None
        self._exact.move_to_end(key)
        self.stats.collapsed += 1
        return list(entry)

    def store_exact(self, key: DedupKey, ranked: RankedList) -> None:
        """Record one freshly scored representative (LRU on overflow)."""
        if key in self._exact:
            self._exact.move_to_end(key)
        else:
            self.stats.groups += 1
        self._exact[key] = list(ranked)
        while len(self._exact) > self.max_groups:
            self._exact.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Approx mode: MinHash/LSH group store
    # ------------------------------------------------------------------
    def sync_epoch(self, epoch: int) -> None:
        """Drop the approximate group store when the mutation epoch moved.

        Same invalidation discipline as the exact memo, enforced by
        clearing instead of keying: a group's ranked list was computed
        under one profile state and must never be served under another.
        Counters survive — they describe the run, not the store.
        """
        if self._epoch != epoch:
            self._epoch = epoch
            if self._lsh is not None:
                self._lsh.clear()
            self._groups.clear()

    def group_for(self, item: SocialItem, k: int) -> tuple[DedupGroup, bool]:
        """The group this upload collapses into, or founds.

        Returns ``(group, collapsed)``: ``collapsed`` is True when an
        existing representative absorbed the upload (same category, same
        ``k``, exact Jaccard >= τ — the producer is deliberately free to
        differ, so reposts collapse).  Otherwise the upload founds a new
        group, registered in the LSH immediately so in-window duplicates
        collapse onto it before its result exists.
        """
        assert self._hasher is not None and self._lsh is not None
        entities = frozenset(int(e) for e in item.entities)
        signature = self._hasher.signature(entities)
        for candidate in self._lsh.candidates(signature):
            if candidate.k != k:
                continue  # different cut depth: not a usable result
            if candidate.category == item.category and jaccard(
                candidate.entities, entities
            ) >= self.threshold:
                self.stats.collapsed += 1
                return candidate, True
            self.stats.false_merge_checks += 1
        if len(self._groups) >= self.max_groups:
            # Generation reset: a coarse LRU. Admitted group objects stay
            # valid for holders (in-window members resolve fine); only
            # future collapses onto pre-reset groups are forfeited.
            self.stats.evictions += len(self._groups)
            self._lsh.clear()
            self._groups.clear()
        group = DedupGroup(item.category, entities, k)
        self._lsh.add(signature, group)
        self._groups.append(group)
        self.stats.groups += 1
        return group, False
