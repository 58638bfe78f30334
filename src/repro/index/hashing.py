"""Shift-add-xor string hashing and the chained hash table (Sec. V-A).

Equation 5 defines the hash class:

    init(s)        = s                                  (seed)
    step(i, h, c)  = h XOR (L(h) + R(h) + c)            (per character)
    final(h, s)    = h mod T                            (table size)

where ``L``/``R`` are left/right shifts by a fixed bit count.  The paper
selects this class after Ramakrishna & Zobel [24] for uniformity,
universality, applicability and efficiency.

The chained hash table stores one ``<key, sptr, nextptr>`` triad per
category-entity pair: ``key`` the full (pre-modulo) hash, ``sptr`` the set
of per-block pointers to extended signature trees containing the pair, and
``nextptr`` chaining pairs that share a bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

_MASK32 = 0xFFFFFFFF


def shift_add_xor_hash(text: str, seed: int = 1315423911, left: int = 5, right: int = 2) -> int:
    """The Eq. 5 shift-add-xor hash of ``text`` (32-bit, pre-modulo).

    Args:
        text: the string to hash (a category-entity pair name).
        seed: ``init(s)`` — the initial hash value.
        left: bit count of the left shift ``L``.
        right: bit count of the right shift ``R``.
    """
    h = seed & _MASK32
    for ch in text:
        h = (h ^ (((h << left) & _MASK32) + (h >> right) + ord(ch))) & _MASK32
    return h


def pair_key(category: int, entity_id: int) -> str:
    """Canonical string name of a category-entity pair.

    The paper hashes the phrase formed by the pair of item category and
    entity; we use the stable ``"<category>#<entity-id>"`` rendering.
    """
    return f"{int(category)}#{int(entity_id)}"


@dataclass
class HashTriad:
    """One chained-hash-table element: ``<key, sptr, nextptr>``.

    Attributes:
        key: full 32-bit hash of the pair name (collision discriminator
            together with ``name``).
        name: the pair name (exact-match discriminator within a chain).
        sptr: block id -> signature-tree pointer for trees containing the
            pair ("Each category-entity pair can be at most covered by |B|
            user blocks, so at most |B| sptr are needed").
        nextptr: next triad in the same bucket, or None.
    """

    key: int
    name: str
    sptr: dict[int, Any] = field(default_factory=dict)
    nextptr: "HashTriad | None" = None


class ChainedHashTable:
    """Chained hash table over category-entity pair names.

    Args:
        n_buckets: bucket count ``T`` (Eq. 5's modulo).
        seed/left/right: hash parameters passed to
            :func:`shift_add_xor_hash`.
    """

    def __init__(
        self,
        n_buckets: int = 1024,
        seed: int = 1315423911,
        left: int = 5,
        right: int = 2,
    ) -> None:
        if n_buckets < 1:
            raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
        self.n_buckets = int(n_buckets)
        self.seed = seed
        self.left = left
        self.right = right
        self._buckets: list[HashTriad | None] = [None] * self.n_buckets
        self._size = 0
        #: Bumped by every mutation, so callers can memoise lookups.
        self.version = 0

    def __len__(self) -> int:
        """Number of distinct pair names stored."""
        return self._size

    def _hash(self, name: str) -> int:
        return shift_add_xor_hash(name, seed=self.seed, left=self.left, right=self.right)

    def _find(self, name: str, key: int | None = None) -> HashTriad | None:
        if key is None:
            key = self._hash(name)
        node = self._buckets[key % self.n_buckets]
        while node is not None:
            if node.key == key and node.name == name:
                return node
            node = node.nextptr
        return None

    def insert(self, category: int, entity_id: int, block_id: int, tree: Any) -> None:
        """Point the pair's triad at ``tree`` for ``block_id`` (upsert)."""
        name = pair_key(category, entity_id)
        key = self._hash(name)
        triad = self._find(name, key)
        if triad is None:
            bucket = key % self.n_buckets
            triad = HashTriad(key=key, name=name, nextptr=self._buckets[bucket])
            self._buckets[bucket] = triad
            self._size += 1
        triad.sptr[int(block_id)] = tree
        self.version += 1

    def lookup(self, category: int, entity_id: int) -> dict[int, Any]:
        """Block id -> tree pointers for the pair; empty dict when absent."""
        triad = self._find(pair_key(category, entity_id))
        return dict(triad.sptr) if triad is not None else {}

    def remove_block(self, category: int, entity_id: int, block_id: int) -> bool:
        """Drop one block's pointer from a pair's triad; True if removed."""
        triad = self._find(pair_key(category, entity_id))
        if triad is None:
            return False
        self.version += 1
        return triad.sptr.pop(int(block_id), None) is not None

    def chain_lengths(self) -> list[int]:
        """Chain length per bucket (uniformity diagnostics / tests)."""
        lengths = []
        for head in self._buckets:
            n = 0
            node = head
            while node is not None:
                n += 1
                node = node.nextptr
            lengths.append(n)
        return lengths
