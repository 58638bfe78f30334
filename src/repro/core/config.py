"""Configuration for the ssRec framework."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

#: User-partitioning strategies understood by the serving layer
#: (:mod:`repro.serve.sharding`).
SHARD_STRATEGIES = ("hash", "block")

#: Fan-out backends of the sharded serving runtime
#: (:mod:`repro.serve.service`): ``"sequential"`` serves shards one after
#: another in the calling thread, ``"thread"`` fans out on a
#: ``ThreadPoolExecutor`` (GIL-bound — parallelism limited to NumPy
#: sections), ``"process"`` hosts every shard in its own OS process
#: (:mod:`repro.serve.workers`) for real CPU parallelism, ``"shmem"``
#: keeps the per-shard processes but maps the read-mostly shard state
#: into shared-memory segments instead of copying it — workers attach
#: zero-copy views and a serve window costs one message per shard
#: (:mod:`repro.serve.shmem`).
SERVE_BACKENDS = ("sequential", "thread", "process", "shmem")

#: Scoring backends of the serving paths: ``"vectorized"`` is the NumPy
#: batch scorer (:class:`~repro.core.matching.VectorizedMatcher`),
#: ``"native"`` the fused compiled kernels (:mod:`repro.core.kernels`,
#: numba-backed — an optional extra; serving falls back to the
#: vectorized path, bit-identically, when the kernels are unavailable).
SCORING_BACKENDS = ("vectorized", "native")

#: Near-duplicate collapse modes of the serving paths
#: (:mod:`repro.exec.dedup`): ``"off"`` scores every delivery,
#: ``"exact"`` collapses uploads whose resolved scorer inputs are
#: provably identical (bit-identical results, conformance-enforced),
#: ``"approx"`` additionally collapses near-duplicate entity sets via
#: MinHash/banded LSH at a Jaccard threshold — collapsed members get the
#: representative's served list (a measured accuracy trade).
DEDUP_MODES = ("off", "exact", "approx")


@dataclass(frozen=True)
class SsRecConfig:
    """All ssRec tunables, with the paper's optimal defaults.

    Attributes:
        window_size: short-term interest window size |W| (paper optimum: 5).
        lambda_s: short-term weight in Eq. 3 (paper: 0.4 YTube / 0.3 MLens).
        dirichlet_mu: Dirichlet smoothing mass for the MLE estimates of
            ``p(u^p | u^c)`` and ``p(e | u^c)`` (Sec. IV-C).
        n_consumer_states: b-HMM hidden state count ``N^(b)``.
        n_producer_states: a-HMM hidden state count ``N^(a)``.
        hmm_iterations: Baum-Welch iteration cap for both layers.
        max_history_events: long-term events fed to the BiHMM when a user's
            filtered state must be (re)computed from scratch.
        use_expansion: entity expansion on/off (ssRec vs ssRec-ne, Fig. 8).
        max_expansions: expansion entities per anchor entity.
        expansion_alpha: proximity decay of the expansion credit.
        expansion_min_weight: expansion entities below this weight are cut.
        block_similarity_threshold: cosine threshold of the one-pass user
            blocking (Sec. V-A).
        max_blocks: cap on the number of user blocks (Table II sweeps this).
        tree_fanout: extended-signature-tree node fanout.
        hash_buckets: chained-hash-table bucket count (Eq. 5's ``T``).
        signature_slack: reserved zero-filled share of each signature entry
            for unseen entities (paper: "we reserve 20% space of each
            entry").
        default_k: top-k cutoff when none is given.
        maintenance_interval: profile updates absorbed between periodic
            CPPse-index maintenance runs (Algorithm 2's cadence; the paper
            maintains the index "periodically by checking the activities
            of social users").
        batch_size: default micro-batch window of the batched serving path
            (used by the batch topology and ``StreamEvaluator.run_batch``
            when no explicit window size is given).
        n_shards: user partitions of the sharded serving runtime
            (:mod:`repro.serve`); 1 = a single shard holding everyone.
        shard_strategy: how users map to shards — ``"block"`` (CPPse user
            blocks are assigned whole, so no block is split across shards
            and sharded index results stay bit-identical to the single
            index) or ``"hash"`` (stateless hash of the user id; exact in
            scan mode, approximate probed-set in index mode).
        serve_workers: threads the sharded facade fans a query out with
            under the thread backend; 0 or 1 = sequential fan-out.
        serve_backend: how the sharded facade fans queries out —
            ``"sequential"`` (in the calling thread), ``"thread"``
            (GIL-bound thread pool), ``"process"`` (one OS process per
            shard; see :mod:`repro.serve.workers`) or ``"shmem"``
            (processes attaching zero-copy shared-memory views of the
            shard state; see :mod:`repro.serve.shmem`).  Results are
            bit-identical across backends; only the cost profile differs.
        result_cache: legacy spelling of ``dedup="exact"``, not an axis
            of its own: with ``dedup="off"`` it asks for the exact memo
            stage (resolved in ``PlanRegistry.for_config``); with any
            other ``dedup`` it is a no-op.
        result_cache_size: footprint bound of the memo stage — LRU
            capacity of the exact memo, generation size of the
            approximate group store (:mod:`repro.exec.dedup`).
        scoring: scoring backend of the serving paths — ``"vectorized"``
            (the NumPy batch scorer) or ``"native"`` (the fused
            numba kernels of :mod:`repro.core.kernels`; selects the
            ``*-native`` execution plans).  Native scores agree with
            vectorized within the 1e-9 tie discipline (scalar vs SIMD
            ``log``, ULP-level only); when the compiled kernels are
            unavailable the native plans serve through the vectorized
            pipeline bit-identically, with a one-time warning.
        dedup: the one memo stage, duplicate upload collapse ahead of
            scoring — ``"off"``,
            ``"exact"`` (provable-equality collapse; results stay
            bit-identical to undeduped serving, conformance-enforced) or
            ``"approx"`` (MinHash/LSH collapse at the Jaccard threshold
            below; collapsed members receive the representative's list —
            see :mod:`repro.exec.dedup`).  Selects the ``*-dedup``
            execution plans.
        dedup_threshold: minimum exact Jaccard similarity (τ) for an
            approximate merge; candidates below it are rejected (counted
            as ``false_merge_checks``).
        dedup_bands: LSH bands of the approximate mode's MinHash index.
        dedup_rows: signature rows per band (the MinHash signature has
            ``dedup_bands * dedup_rows`` slots; the candidate S-curve is
            ``1 - (1 - J^rows)^bands``).
    """

    window_size: int = 5
    lambda_s: float = 0.4
    dirichlet_mu: float = 10.0
    n_consumer_states: int = 3
    n_producer_states: int = 3
    hmm_iterations: int = 20
    max_history_events: int = 60
    use_expansion: bool = True
    max_expansions: int = 5
    expansion_alpha: float = 1.0
    expansion_min_weight: float = 0.05
    block_similarity_threshold: float = 0.6
    max_blocks: int = 20
    tree_fanout: int = 8
    hash_buckets: int = 1024
    signature_slack: float = 0.2
    default_k: int = 30
    maintenance_interval: int = 200
    batch_size: int = 64
    n_shards: int = 1
    shard_strategy: str = "block"
    serve_workers: int = 0
    serve_backend: str = "sequential"
    result_cache: bool = False
    result_cache_size: int = 256
    scoring: str = "vectorized"
    dedup: str = "off"
    dedup_threshold: float = 0.6
    dedup_bands: int = 8
    dedup_rows: int = 4

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size}")
        if not (0.0 <= self.lambda_s <= 1.0):
            raise ValueError(f"lambda_s must be in [0, 1], got {self.lambda_s}")
        if self.dirichlet_mu <= 0:
            raise ValueError(f"dirichlet_mu must be > 0, got {self.dirichlet_mu}")
        if self.tree_fanout < 2:
            raise ValueError(f"tree_fanout must be >= 2, got {self.tree_fanout}")
        if self.hash_buckets < 1:
            raise ValueError(f"hash_buckets must be >= 1, got {self.hash_buckets}")
        if not (0.0 <= self.signature_slack < 1.0):
            raise ValueError(f"signature_slack must be in [0, 1), got {self.signature_slack}")
        if self.maintenance_interval < 1:
            raise ValueError(
                f"maintenance_interval must be >= 1, got {self.maintenance_interval}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.shard_strategy not in SHARD_STRATEGIES:
            raise ValueError(
                f"shard_strategy must be one of {SHARD_STRATEGIES}, "
                f"got {self.shard_strategy!r}"
            )
        if self.serve_workers < 0:
            raise ValueError(f"serve_workers must be >= 0, got {self.serve_workers}")
        if self.serve_backend not in SERVE_BACKENDS:
            raise ValueError(
                f"serve_backend must be one of {SERVE_BACKENDS}, "
                f"got {self.serve_backend!r}"
            )
        if self.result_cache_size < 1:
            raise ValueError(
                f"result_cache_size must be >= 1, got {self.result_cache_size}"
            )
        if self.scoring not in SCORING_BACKENDS:
            raise ValueError(
                f"scoring must be one of {SCORING_BACKENDS}, got {self.scoring!r}"
            )
        if self.dedup not in DEDUP_MODES:
            raise ValueError(
                f"dedup must be one of {DEDUP_MODES}, got {self.dedup!r}"
            )
        if not (0.0 < self.dedup_threshold <= 1.0):
            raise ValueError(
                f"dedup_threshold must be in (0, 1], got {self.dedup_threshold}"
            )
        if self.dedup_bands < 1:
            raise ValueError(f"dedup_bands must be >= 1, got {self.dedup_bands}")
        if self.dedup_rows < 1:
            raise ValueError(f"dedup_rows must be >= 1, got {self.dedup_rows}")

    def with_options(self, **overrides) -> "SsRecConfig":
        """Copy with the given fields replaced (configs are frozen)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Serialization (snapshots, experiment manifests)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """All fields as a plain JSON-serializable dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "SsRecConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected rather than silently dropped — a snapshot
        written by a newer code version must not load with silently missing
        semantics.  Field validation runs as usual via ``__post_init__``.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)

    @classmethod
    def for_mlens(cls) -> "SsRecConfig":
        """The paper's MLens optimum (lambda_s = 0.3)."""
        return cls(lambda_s=0.3)
