"""The server under test, in its own process.

``python server_child.py KIND SNAPSHOT BACKEND CPUS`` loads a public
``save``/``load`` snapshot (``KIND`` is ``local`` or ``sharded``), serves
it with a default-configured ``RecommenderServer`` on an ephemeral port,
prints one JSON line ``{"port", "load_s"}`` and serves until its stdin
closes; it then drains the server, releases shard workers and exits 0.
``CPUS`` is a comma-separated core list the process pins itself to
(shard workers inherit it), or ``-`` to leave affinity alone.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time

from api import RecommenderServer, ShardedRecommender, SsRecRecommender


async def serve(recommender, load_s: float) -> None:
    server = RecommenderServer(recommender)
    _, port = await server.start()
    print(json.dumps({"port": port, "load_s": load_s}), flush=True)
    # The parent holds our stdin open for as long as it wants us serving.
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    await server.stop()


def main(argv: list[str]) -> int:
    kind, snapshot, backend, cpus = argv
    if cpus != "-":
        os.sched_setaffinity(0, {int(c) for c in cpus.split(",")})
    started = time.perf_counter()
    if kind == "sharded":
        recommender = ShardedRecommender.load(snapshot, backend=backend)
    else:
        recommender = SsRecRecommender.load(snapshot)
    load_s = time.perf_counter() - started
    try:
        asyncio.run(serve(recommender, load_s))
    finally:
        if kind == "sharded":
            recommender.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
