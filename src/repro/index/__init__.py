"""The CPPse-index (Section V): hash-routed extended signature trees.

Components:

- :mod:`repro.index.hashing` — the shift-add-xor string hash of Eq. 5 and
  the chained hash table of ``<key, sptr, nextptr>`` triads that maps each
  category-entity pair to the signature trees containing it.
- :mod:`repro.index.blocks` — one-pass clustering of users into blocks by
  cosine similarity of long-term categorical interests.
- :mod:`repro.index.signature` — impact encoding of user profiles,
  frequency encoding of queries (Example 1), block universes with the
  paper's 20% reserved growth zones.
- :mod:`repro.index.sigtree` — the extended signature trees of a block as
  one flat struct-of-arrays forest; internal (IEntry) rows aggregate their
  children by component-wise max, which makes their relevance an upper
  bound (Def. 2, Lemmas 1-2).
- :mod:`repro.index.cppse` — :class:`CPPseIndex`: build, the Algorithm 1
  branch-and-bound KNN, and the Algorithm 2 dynamic maintenance.
- :mod:`repro.index.minhash` — MinHash signatures and banded LSH over
  entity sets: the similarity machinery of the near-duplicate collapse
  stage (:mod:`repro.exec.dedup`).
"""

from repro.index.hashing import ChainedHashTable, pair_key, shift_add_xor_hash
from repro.index.blocks import UserBlock, one_pass_clustering, block_statistics
from repro.index.signature import BlockUniverse, QueryBatch, QuerySignature, UserVector
from repro.index.sigtree import BlockForest, SignatureTree
from repro.index.cppse import CPPseIndex
from repro.index.minhash import LSHIndex, MinHasher, jaccard

__all__ = [
    "ChainedHashTable",
    "pair_key",
    "shift_add_xor_hash",
    "UserBlock",
    "one_pass_clustering",
    "block_statistics",
    "BlockUniverse",
    "QueryBatch",
    "QuerySignature",
    "UserVector",
    "BlockForest",
    "SignatureTree",
    "CPPseIndex",
    "LSHIndex",
    "MinHasher",
    "jaccard",
]
