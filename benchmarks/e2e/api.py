"""Every name the benchmark takes from the system under test.

This is the import allow-list: the other benchmark files import ``repro``
names from here and nowhere else, so a refactor that moves one of them
is a one-line fix in this file and the benchmark keeps measuring the
same front door.  No ``set_*``/``enable_*`` verbs are used anywhere —
axes are chosen through ``SsRecConfig(...)`` at construction — and
nothing comes from ``repro.eval.experiments``, ``repro.stream`` or
``repro.obs``.
"""

from __future__ import annotations

import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

try:
    from repro.core.config import SERVE_BACKENDS, SsRecConfig
    from repro.core.ssrec import SsRecRecommender
    from repro.datasets.partitions import partition_interactions
    from repro.datasets.ytube import YTubeConfig, generate_ytube
    from repro.serve.client import AsyncRecommenderClient
    from repro.serve.protocol import (
        FrameDecoder,
        Reply,
        Request,
        ServerError,
        ServerOverloadError,
        decode_reply,
        decode_request,
        encode_reply,
        encode_request,
        item_to_wire,
        ranked_from_wire,
        ranked_to_wire,
    )
    from repro.serve.server import RecommenderServer
    from repro.serve.service import ShardedRecommender
    from repro.serve.sharding import merge_top_k
    from repro.sim.scenarios import ScenarioGenerator
except ImportError as exc:  # the program under test is not in this checkout
    sys.exit(f"benchmarks/e2e: cannot import the system under test from {SRC_DIR}: {exc}")

__all__ = [
    "E2E_DIR",
    "REPO_ROOT",
    "SERVE_BACKENDS",
    "AsyncRecommenderClient",
    "FrameDecoder",
    "RecommenderServer",
    "Reply",
    "Request",
    "ScenarioGenerator",
    "ServerError",
    "ServerOverloadError",
    "ShardedRecommender",
    "SsRecConfig",
    "SsRecRecommender",
    "YTubeConfig",
    "decode_reply",
    "decode_request",
    "encode_reply",
    "encode_request",
    "generate_ytube",
    "item_to_wire",
    "merge_top_k",
    "partition_interactions",
    "ranked_from_wire",
    "ranked_to_wire",
]
