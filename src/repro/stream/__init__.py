"""Storm-like stream-processing substrate.

The paper implements its recommendation process over Apache Storm [4] and
"configure[s] the number of bolts over Apache Storm same as the category
number of each dataset".  Offline we substitute a miniature Storm: the same
spout/bolt/topology programming model with shuffle and fields groupings,
executed by a deterministic single-process engine that records per-bolt
timing (what the efficiency experiments measure).

The substrate is generic — nothing in it knows about recommendation; the
paper's deployment — per-item, micro-batched or sharded, one builder —
lives in :mod:`repro.stream.deployment`.
"""

from repro.stream.tuples import StreamTuple
from repro.stream.topology import Bolt, Spout, TopologyBuilder, Topology, Grouping
from repro.stream.engine import LocalEngine, EngineReport
from repro.stream.deployment import (
    EntityExtractBolt,
    ItemSpout,
    MatchBolt,
    MicroBatchBolt,
    ShardMatchBolt,
    ShardMergeBolt,
    TopKSinkBolt,
    build_recommendation_topology,
)

__all__ = [
    "StreamTuple",
    "Bolt",
    "Spout",
    "Topology",
    "TopologyBuilder",
    "Grouping",
    "LocalEngine",
    "EngineReport",
    "ItemSpout",
    "EntityExtractBolt",
    "MatchBolt",
    "MicroBatchBolt",
    "ShardMatchBolt",
    "ShardMergeBolt",
    "TopKSinkBolt",
    "build_recommendation_topology",
]
