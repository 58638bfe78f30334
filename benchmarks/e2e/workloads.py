"""The four workloads: what state each serves and what traffic it gets.

Every constant here — populations, rates, in-flight counts, phase shares —
is fixed in this file and never derived at run time, so two commits are
always measured under the same load.

``--seed`` chooses the **traffic**, not the population.  The read
workloads serve one fixed population (``POPULATION_SEED``) and the seed
draws which test-partition items are asked about, in which order, and
which stretch of the interaction stream the writes apply;
``stream_mixed`` resamples its scenario stream from the fixed base
dataset with the seed.  The population is held still because the CPPse
blocking is a one-pass clustering: re-seeding the dataset moves the
block count, the tree shapes and with them ``index_sparse3k``'s
throughput and memory by a factor of two, which no bound under 25% could
tell from a regression.

Why these four (the one-line versions live in ``BENCHMARK.json``):

``wire_small``
    600 dense consumers, local scan.  Scoring 600 users costs far less
    than getting a request through ``serve.protocol`` + ``serve.server``
    + the client, so wire/coalescer changes show here and scoring changes
    must not.
``scan_sparse3k``
    3,000 sparse consumers x 4,800 entities, local scan.  Most of a
    request is ``core.matching``; the wire is a small share.  Kernel and
    matcher work shows here; index work must not move it.
``index_sparse3k``
    Same population, same paced rate, candidates from the CPPse index:
    ``index`` does the work and the full scan is bypassed.
    ``index_sparse3k.sat_ops_per_s / scan_sparse3k.sat_ops_per_s`` is the
    paper's Fig. 10 in one number.
``stream_mixed``
    The ``baseline`` scenario stream (about 11 interactions per upload)
    replayed through a 2-shard block-sharded CPPse index on the
    shared-memory backend: the same layers used for writes beside reads —
    facade mutations, Algorithm-2 maintenance, epoch publish, fan-out and
    merge.  A read-path gain that makes maintenance or publish dearer
    shows here.

The sparse pair runs at 3,000 consumers, not the 8,000 the issue first
sketched: at 8,000 one set-up (generate, fit, index build, a 0.8 GB
snapshot written once and read three times) takes about 40 s, and the
driver's budget allows about 37 s per run, measuring and verifying
included.  The paced rate follows: 150 requests/s is a little under half
of what the index serves at this size.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from api import (
    SERVE_BACKENDS,
    ScenarioGenerator,
    ShardedRecommender,
    SsRecConfig,
    SsRecRecommender,
    YTubeConfig,
    generate_ytube,
    partition_interactions,
)

#: Seed of every generated population and of the model initialisation.
POPULATION_SEED = 6
#: Top-k asked for by every recommend.
K = 30
#: Closed-loop recommends in flight on the one connection (``sat``), and
#: the most a paced phase may leave outstanding when its schedule ends.
INFLIGHT = 16
#: Distinct test-partition items cycled by the read workloads: eight times
#: the default result-cache capacity, so no memo holds the working set.
POOL_ITEMS = 2048
#: Untimed warm-up: one pass over this many pool items.
WARMUP_ITEMS = 64
#: Share of ``--seconds`` spent in ``sat``; the rest is ``paced``.
SAT_SHARE = 0.4
#: Read workloads apply this many awaited ``update`` calls in three bursts
#: — before ``sat``, before ``paced`` and after it — so that
#: ``mutation_p50_ms`` exists on every workload.  Each burst is followed by
#: this many recommends: they prove the writes landed, and they absorb the
#: Algorithm-2 flush the writes leave pending, so it does not land in a
#: read phase.  The count stays under the default ``maintenance_interval``
#: (200): at 3,000 users one in-band flush of 200 profiles can rebuild a
#: block and take seconds, on the server and again on the replica.
WRITE_UPDATES = 180
BURST_READS = 16
#: ``stream_mixed``: uploads recommended concurrently per window, shards,
#: events generated, and how many of them the replay may consume (the
#: rest feed the mutation probes with interactions nobody has applied).
STREAM_WINDOW = 8
STREAM_SHARDS = 2
STREAM_EVENTS = 6000
STREAM_REPLAY_EVENTS = 5000
#: Times the server child is started, loaded and asked its first
#: question per run; ``setup_s`` uses the median.
CHILD_STARTS = 3


def _dense600() -> YTubeConfig:
    return YTubeConfig(seed=POPULATION_SEED)


def _sparse3k() -> YTubeConfig:
    return replace(
        YTubeConfig.sparse(POPULATION_SEED), n_consumers=3000, n_interactions=18000)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "read" | "stream"
    plan: str                 # "scan" | "index" | "sharded-index"
    rate: float               # paced requests per second (read workloads)
    population: object = None  # () -> YTubeConfig


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wire_small", "read", "scan", 2000.0, _dense600),
        Workload("scan_sparse3k", "read", "scan", 150.0, _sparse3k),
        Workload("index_sparse3k", "read", "index", 150.0, _sparse3k),
        Workload("stream_mixed", "stream", "sharded-index", 0.0, _dense600),
    )
}


def stream_backend() -> str:
    """The first of shmem/process the system still offers."""
    return next(b for b in ("shmem", "process") if b in SERVE_BACKENDS)


@dataclass
class State:
    """Everything a run needs after parent-side set-up."""

    rec: SsRecRecommender            # the trained local facade
    replica: object                  # answers the verification replay
    child_kind: str                  # "local" | "sharded"
    backend: str                     # fan-out backend of the served copy
    snapshot: Path
    snapshot_mb: float
    maintenance_interval: int
    warm_item: object                # first question asked of a fresh child
    pool: list = field(default_factory=list)
    writes: list = field(default_factory=list)         # (interaction, item) pairs
    scenario: object = None
    fresh_items: list = field(default_factory=list)
    fresh_updates: list = field(default_factory=list)
    dataset: object = None
    train: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)         # set-up layer seconds
    parent_setup_s: float = 0.0


@contextmanager
def _timed(layers: dict, name: str):
    started = time.perf_counter()
    yield
    layers[name] = time.perf_counter() - started


def _directory_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file()) / 1e6


def build(workload: Workload, seed: int, scratch: Path, smoke: bool) -> State:
    """Parent-side set-up: generate, fit, build index/shards, snapshot."""
    started = time.perf_counter()
    layers = dict.fromkeys(
        ("datasets.generate_s", "core.ssrec.fit_s", "index.build_s",
         "serve.service.shard_s", "serve.snapshot.save_s"), 0.0)
    config = YTubeConfig.small(POPULATION_SEED) if smoke else workload.population()
    rng = random.Random(seed)
    snapshot = scratch / "snapshot"
    if workload.kind == "read":
        with _timed(layers, "datasets.generate_s"):
            dataset = generate_ytube(config)
        stream = partition_interactions(dataset)
        train = stream.training_interactions()
        ssrec_config = SsRecConfig()
        rec = SsRecRecommender(ssrec_config, use_index=False, seed=POPULATION_SEED)
        with _timed(layers, "core.ssrec.fit_s"):
            rec.fit(dataset, train)
        if workload.plan == "index":
            with _timed(layers, "index.build_s"):
                rec.attach_index()
        with _timed(layers, "serve.snapshot.save_s"):
            rec.save(snapshot)
        test_items = [it for p in stream.test_indices for it in stream.items_in_partition(p)]
        item_by_id = {it.item_id: it for it in dataset.items}
        test_updates = [
            (inter, item_by_id[inter.item_id])
            for p in stream.test_indices for inter in stream.partitions[p]
        ]
        # The seed draws the pool and where the writes start.  Items
        # outside the pool stay unasked (the probes need some whose query
        # expansion nothing has memoised), interactions after the writes stay
        # unapplied (the mutation probes need those).
        n_pool = len(test_items) * 3 // 4 if smoke else POOL_ITEMS
        n_writes = 60 if smoke else WRITE_UPDATES
        spare = len(test_updates) - n_writes - 4 * ssrec_config.maintenance_interval
        if len(test_items) < n_pool + 48 or spare < 1:
            raise SystemExit(f"{workload.name}: population too small for its traffic")
        in_pool = set(rng.sample(range(len(test_items)), n_pool))
        pool = [test_items[i] for i in sorted(in_pool)]
        rng.shuffle(pool)
        first_write = rng.randrange(spare)
        state = State(
            rec=rec, replica=rec, child_kind="local", backend="local",
            snapshot=snapshot, snapshot_mb=_directory_mb(snapshot),
            maintenance_interval=ssrec_config.maintenance_interval,
            warm_item=pool[0], pool=pool,
            fresh_items=[it for i, it in enumerate(test_items) if i not in in_pool],
            writes=test_updates[first_write:first_write + n_writes],
            fresh_updates=test_updates[first_write + n_writes:],
            dataset=dataset, train=train,
        )
    else:
        n_events = 300 if smoke else STREAM_EVENTS
        n_replay = 200 if smoke else STREAM_REPLAY_EVENTS
        with _timed(layers, "datasets.generate_s"):
            scenario = ScenarioGenerator(
                base=generate_ytube(config), seed=seed, max_events=n_events
            ).generate("baseline")
        rec = SsRecRecommender(
            SsRecConfig(maintenance_interval=scenario.maintenance_interval),
            use_index=False, seed=POPULATION_SEED,
        )
        with _timed(layers, "core.ssrec.fit_s"):
            rec.fit(scenario.dataset, scenario.train_interactions)
        with _timed(layers, "serve.service.shard_s"):
            # The parent keeps this sequential service as the replica; the
            # child loads the same snapshot onto the backend under test.
            service = ShardedRecommender.from_trained(
                rec, n_shards=STREAM_SHARDS, strategy="block", use_index=True,
                backend="sequential",
            )
        with _timed(layers, "serve.snapshot.save_s"):
            service.save(snapshot)
        later = scenario.events[n_replay:]
        scenario.events = scenario.events[:n_replay]
        # Asked before anything is observed, so it must not be an upload of
        # the stream: its memoised query would go stale at its own observe.
        streamed = {ev.payload.item_id for ev in scenario.events if ev.kind == "upload"}
        warm_item = next(it for it in scenario.dataset.items if it.item_id not in streamed)
        state = State(
            rec=rec, replica=service, child_kind="sharded", backend=stream_backend(),
            snapshot=snapshot, snapshot_mb=_directory_mb(snapshot),
            maintenance_interval=scenario.maintenance_interval,
            warm_item=warm_item, scenario=scenario,
            pool=[ev.payload for ev in scenario.events if ev.kind == "upload"],
            fresh_items=[ev.payload for ev in later if ev.kind == "upload"],
            fresh_updates=[(ev.payload, scenario.item_payload(ev.payload))
                           for ev in later if ev.kind == "interact"],
            dataset=scenario.dataset, train=scenario.train_interactions,
        )
    state.layers = layers
    state.parent_setup_s = time.perf_counter() - started
    return state
