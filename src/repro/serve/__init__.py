"""repro.serve — the sharded serving runtime.

Layers partitioned, warm-startable serving on top of the core/index
stack:

- :mod:`repro.serve.sharding` — :class:`UserSharder`/:class:`ShardPlan`
  (hash and block-aware user partitioning, balance/rebalance stats) and
  the exact :func:`merge_top_k`;
- :mod:`repro.serve.shard` — :class:`RecommenderShard`, one exact
  matcher/CPPse-index over a user slice with shard-local Algorithm-2
  maintenance;
- :mod:`repro.serve.service` — :class:`ShardedRecommender`, the
  fan-out/merge facade (sequential, thread-pool, process or shmem
  backend) over shards the parent always owns, with per-shard
  latency/candidate metrics;
- :mod:`repro.serve.workers` — :class:`ShardWorkerPool`, one spawn-safe
  stateless worker process per shard for the ``process`` and ``shmem``
  backends: one worker loop, one message per shard per serve window,
  workers that exit when their owner dies;
- :mod:`repro.serve.shmem` — the published state those workers read:
  epoch-versioned pickle-5 copies of the parent's shards, in named
  shared-memory segments (``shmem``) or shipped as bytes (``process``),
  decoded zero-copy into read-only views by one reader;
- :mod:`repro.serve.snapshot` — versioned save/load of the full trained
  state so a server warm-starts without retraining;
- :mod:`repro.serve.protocol` — the length-prefixed, versioned JSON
  frame format (typed encode/decode, incremental :class:`FrameDecoder`);
- :mod:`repro.serve.server` — :class:`RecommenderServer`, the asyncio
  socket front end with dynamic micro-batch coalescing and admission
  control (plus :class:`ServerThread` for embedding in sync callers);
- :mod:`repro.serve.client` — blocking and asyncio clients over the
  frame protocol;
- :mod:`repro.serve.loadgen` — open-loop scenario replay as network
  traffic, with optional bitwise verification against a replica.
"""

from repro.serve.client import AsyncRecommenderClient, RecommenderClient
from repro.serve.loadgen import LoadgenReport, QueryLoadReport, drive_queries, drive_scenario
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    Reply,
    Request,
    ServerError,
    ServerOverloadError,
)
from repro.serve.server import RecommenderServer, ServerStats, ServerThread
from repro.serve.service import ShardedRecommender
from repro.serve.shard import RecommenderShard, ShardMetrics
from repro.serve.sharding import ShardPlan, UserSharder, hash_shard, merge_top_k
from repro.serve.workers import ShardWorkerError, ShardWorkerPool
from repro.serve.shmem import (
    SEGMENT_PREFIX,
    SegmentManifest,
    ShardPublisher,
    ShmemError,
    attach_state,
    live_segment_names,
    publish_state,
)
from repro.serve.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    load_recommender,
    load_sharded,
    read_manifest,
    save_snapshot,
)

__all__ = [
    "PROTOCOL_VERSION",
    "AsyncRecommenderClient",
    "FrameDecoder",
    "LoadgenReport",
    "ProtocolError",
    "QueryLoadReport",
    "RecommenderClient",
    "RecommenderServer",
    "Reply",
    "Request",
    "ServerError",
    "ServerOverloadError",
    "ServerStats",
    "ServerThread",
    "drive_queries",
    "drive_scenario",
    "ShardedRecommender",
    "RecommenderShard",
    "ShardMetrics",
    "ShardPlan",
    "UserSharder",
    "hash_shard",
    "merge_top_k",
    "ShardWorkerError",
    "ShardWorkerPool",
    "SEGMENT_PREFIX",
    "SegmentManifest",
    "ShardPublisher",
    "ShmemError",
    "attach_state",
    "live_segment_names",
    "publish_state",
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "save_snapshot",
    "load_recommender",
    "load_sharded",
    "read_manifest",
]
