#!/usr/bin/env python3
"""End-to-end benchmark: a served recommender, driven through its front door.

    python3 benchmarks/e2e/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One run builds the workload's state, snapshots it with the public
``save``, starts ``RecommenderServer`` in a **child process** that
``load``s the snapshot, drives it from this process — one thread, one
pipelined ``AsyncRecommenderClient`` connection — then replays every
request on an in-process replica and compares each served list bit for
bit.  ``--trace 0`` prints the end-to-end metrics, measured with no
spans; ``--trace 1`` repeats the run with the benchmark's own span
recorder on and prints the per-layer metrics; leaving ``--trace`` out
does both, one after the other.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--all --repeat N --check-agreement`` runs every workload N times twice
over and checks the two sets against the bounds in ``BENCHMARK.json``;
``--smoke`` is the seconds-long variant the tier-1 test runs.  See
``README.md`` beside this file for what every metric means.
"""

from __future__ import annotations

import os
import sys

#: Repeatability: single-threaded BLAS in every process and a fixed string
#: hash seed (set iteration order reaches the generated inputs).  The
#: interpreter reads these at start-up, so re-execute once with them set;
#: the server child and the shard workers inherit them.
FIXED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
    os.environ.update(FIXED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse
import asyncio
import functools
import gc
import importlib.util
import json
import math
import platform
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import numpy

import layers
import loadgen
import workloads
from api import E2E_DIR, REPO_ROOT, AsyncRecommenderClient
from spans import SpanRecorder
from workloads import BURST_READS, CHILD_STARTS, INFLIGHT, K, SAT_SHARE, STREAM_WINDOW, WARMUP_ITEMS

RESULTS_DIR = E2E_DIR / "results"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

Metric = tuple[float, int]  # (value, samples behind it)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------
@functools.cache
def plan_cores() -> tuple[str, frozenset[int] | None]:
    """With two or more cores the generator keeps the last one to itself
    and the server child (and its shard workers) gets the rest.  Cached:
    the plan is made once, before this process pins itself."""
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return "-", None
    return ",".join(str(c) for c in cores[:-1]), frozenset({cores[-1]})


class ServerChild:
    """``server_child.py`` as a subprocess; stops when its stdin closes."""

    def __init__(self, state: workloads.State, cores: str) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(E2E_DIR / "server_child.py"),
             state.child_kind, str(state.snapshot), state.backend, cores],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def wait_ready(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server child exited with {self.process.wait()} before serving")
        return json.loads(line)

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the child plus every process below it."""
        parent_of: dict[int, int] = {}
        peak_kb: dict[int, int] = {}
        for status in Path("/proc").glob("[0-9]*/status"):
            try:
                fields = dict(
                    line.split(":", 1) for line in status.read_text().splitlines() if ":" in line
                )
            except OSError:  # exited while we were looking
                continue
            pid = int(status.parent.name)
            parent_of[pid] = int(fields["PPid"])
            peak_kb[pid] = int(fields.get("VmHWM", "0 kB").split()[0])
        total = 0
        for pid in peak_kb:
            ancestor = pid
            while ancestor not in (self.process.pid, 0) and ancestor in parent_of:
                ancestor = parent_of[ancestor]
            if ancestor == self.process.pid:
                total += peak_kb[pid]
        return total / 1024.0

    def stop(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
async def hang_up(client, child: ServerChild) -> None:
    if client is not None:
        await client.close()
        # Let the close reach the server before it drains: a handler still
        # reading at shutdown makes the child's event loop log a traceback.
        await asyncio.sleep(0.05)
    child.stop()


async def serve_and_measure(state, workload, seconds, recorder, smoke, cores) -> dict:
    """Start the child (``CHILD_STARTS`` times, keeping the last), run the
    timed phases against it, and return everything measured over the wire."""
    loop = asyncio.get_running_loop()
    starts: list[dict] = []
    child = client = None
    try:
        for _ in range(1 if smoke else CHILD_STARTS):
            if child is not None:
                await hang_up(client, child)
            spawned = time.perf_counter()
            child = ServerChild(state, cores)
            ready = await loop.run_in_executor(None, child.wait_ready)
            listening = time.perf_counter()
            client = await AsyncRecommenderClient.connect("127.0.0.1", ready["port"])
            generator = loadgen.LoadGenerator(client, K, recorder)
            if await generator.recommend(state.warm_item) is None:
                raise RuntimeError("the server refused its first request")
            starts.append({
                "serve.snapshot.load_s": ready["load_s"],
                "serve.server.listen_s": listening - spawned - ready["load_s"],
                "serve.server.first_reply_s": time.perf_counter() - listening,
            })
        out: dict = {"generator": generator, "starts": starts}
        if workload.kind == "read":
            # The writes come in three bursts around the read phases, so a
            # scheduling hiccup can spoil one burst's median, not the run's.
            third = len(state.writes) // 3
            out["bursts"] = []

            async def write_burst(number: int) -> None:
                reads = [generator.next_item(state.pool) for _ in range(BURST_READS)]
                out["bursts"].append(await generator.write_burst(
                    state.writes[number * third:(number + 1) * third], reads))

            await generator.warm_up(state.pool, WARMUP_ITEMS, INFLIGHT)
            await write_burst(0)
            out["sat"] = await generator.saturate(state.pool, seconds * SAT_SHARE, INFLIGHT)
            out["server_stats"] = await client.stats()
            await write_burst(1)
            out["paced"] = await generator.paced(
                state.pool, workload.rate, seconds * (1.0 - SAT_SHARE), INFLIGHT)
            await write_burst(2)
        else:
            out["replay"] = await generator.replay(state.scenario, seconds, STREAM_WINDOW)
            out["server_stats"] = await client.stats()
        if recorder is not None:
            out["idle_trips"] = await generator.idle_round_trips(200)
            out["pipelined_floor_s"] = await generator.pipelined_floor(0.5, INFLIGHT)
        out["rss_peak_mb"] = child.peak_rss_mb()
        return out
    finally:
        if child is not None:
            await hang_up(client, child)


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """One full run; returns ``{"metrics", "correct", "attempted", "failed", "info"}``."""
    workload = workloads.WORKLOADS[name]
    cores, own_core = plan_cores()
    if own_core is not None:
        os.sched_setaffinity(0, own_core)
    recorder = SpanRecorder() if traced else None
    RESULTS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS_DIR, prefix="tmp-") as scratch:
        state = workloads.build(workload, seed, Path(scratch), smoke)
        # The generator keeps every served list for verification; a cyclic
        # collection walking them (and the dataset) would stall the paced
        # schedule.  Nothing from here on makes cycles, and the process is
        # short-lived, so collection stays off.
        gc.collect()
        gc.disable()
        wire = asyncio.run(serve_and_measure(state, workload, seconds, recorder, smoke, cores))
    generator = wire["generator"]
    counts = generator.counts
    counts["divergent"] = loadgen.verify(state.replica, generator.log, K)
    failed = sum(counts[c] for c in ("overloaded", "errors", "unanswered", "divergent"))

    child_layers = {
        key: statistics.median(start[key] for start in wire["starts"])
        for key in wire["starts"][0]
    }
    setup_s = state.parent_setup_s + statistics.median(
        sum(start.values()) for start in wire["starts"])
    if workload.kind == "read":
        sat, timed = wire["sat"], wire["paced"]
        mutations = [burst.mutation_s for burst in wire["bursts"]]
        sat_ops = len(sat.recommend_s) / sat.wall_s
    else:
        sat = timed = wire["replay"]
        mutations = [timed.mutation_s]
        sat_ops = sat.events / sat.wall_s
    if not timed.recommend_s or not all(mutations):
        raise SystemExit(f"{name}: a timed phase completed no request")
    latencies_ms = [s * 1e3 for s in timed.recommend_s]
    n_lat = len(latencies_ms)
    late_p99_ms = percentile([s * 1e3 for s in timed.late_s] or [0.0], 99)

    metrics: dict[str, Metric] = {}
    if not traced:
        metrics.update({
            "setup_s": (setup_s, len(wire["starts"])),
            "sat_ops_per_s": (sat_ops, sat.events or len(sat.recommend_s)),
            "recommend_p50_ms": (percentile(latencies_ms, 50), n_lat),
            "recommend_p95_ms": (percentile(latencies_ms, 95), n_lat),
            "mutation_p50_ms": (
                statistics.median(statistics.median(burst) for burst in mutations) * 1e3,
                sum(len(burst) for burst in mutations)),
            "rss_peak_mb": (wire["rss_peak_mb"], 1),
        })
    else:
        for key, value in {**state.layers, **child_layers}.items():
            metrics[key] = (value, 1)
        metrics["serve.snapshot.mb"] = (state.snapshot_mb, 1)
        coalescing = wire["server_stats"]["coalescing"]
        metrics["serve.server.mean_batch"] = (coalescing["mean_batch_size"], coalescing["batches"])
        metrics["serve.server.queue_p95_ms"] = (
            coalescing["queue"]["p95_ms"], coalescing["queue"]["count"])
        metrics["serve.server.batch_exec_p95_ms"] = (
            coalescing["batch_exec"]["p95_ms"], coalescing["batch_exec"]["count"])
        metrics["serve.server.wire_floor_us"] = (
            statistics.median(wire["idle_trips"]) * 1e6, len(wire["idle_trips"]))
        metrics["serve.server.pipelined_floor_us"] = (wire["pipelined_floor_s"] * 1e6, 1)
        metrics["loadgen.recommend_p99_ms"] = (percentile(latencies_ms, 99), n_lat)
        for key in ("sent", "ok", "overloaded", "errors", "divergent"):
            metrics[f"loadgen.{key}"] = (float(counts[key]), counts["sent"])
        metrics["loadgen.late_p99_ms"] = (late_p99_ms, len(timed.late_s))
        metrics["loadgen.cpu_share"] = (timed.cpu_share, 1)
        metrics.update(run_probes(state, workload, recorder, seed))
        metrics.update(ledger(metrics, workload, sat_ops, sat, len(state.pool)))
        setup_layers_s = sum(state.layers.values()) + sum(child_layers.values())
        metrics["ledger.setup_share"] = (setup_layers_s / setup_s, len(wire["starts"]))
        recorder.write(RESULTS_DIR / f"{name}.spans.json")

    generator_bound = workload.kind == "read" and (late_p99_ms > 5.0 or timed.cpu_share > 0.8)
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced, "smoke": smoke,
        "backend": state.backend, "nproc": os.cpu_count(),
        "server_cores": cores, "python": platform.python_version(),
        "numpy": numpy.__version__, "numba": importlib.util.find_spec("numba") is not None,
        "commit": git_commit(), "counts": dict(counts),
        "generator_bound": generator_bound,
        "unresolved_span_parents": recorder.unresolved_parents() if traced else 0,
    }
    return {
        "metrics": metrics, "correct": counts["divergent"] == 0,
        "attempted": counts["sent"], "failed": failed, "info": info,
    }


def run_probes(state, workload, recorder, seed: int) -> dict[str, Metric]:
    """Per-layer probes, read-only ones first (see ``layers.py``)."""
    ctx = layers.ProbeContext(
        recorder=recorder, rec=state.rec, replica=state.replica, k=K,
        pool=state.pool, fresh_items=state.fresh_items, fresh_updates=state.fresh_updates,
        maintenance_interval=state.maintenance_interval, plan=workload.plan,
        seed=seed,
    )
    metrics: dict[str, Metric] = dict.fromkeys(layers.SKIPPABLE, (0.0, 0))
    exec_metrics, ranked = layers.probe_exec(ctx)
    metrics.update(exec_metrics)
    metrics.update(layers.probe_protocol(ctx, ranked))
    metrics.update(layers.probe_entities(ctx))
    metrics.update(layers.probe_kernels(ctx, state.dataset, state.train))
    if workload.plan == "scan":
        metrics.update(layers.probe_matching(ctx))
    if workload.name == "wire_small":
        metrics.update(layers.probe_memo(ctx))
    if workload.kind == "stream":
        metrics.update(layers.probe_merge(ctx, ranked))
        metrics.update(layers.probe_service(ctx, STREAM_WINDOW))
        state.rec.attach_index()  # the shards' index is not public; time a local one
    if state.rec.index is not None:
        metrics.update(layers.probe_index(ctx))
    metrics.update(layers.probe_mutations(ctx))
    return metrics


def ledger(metrics, workload, sat_ops: float, sat, pool_size: int) -> dict[str, Metric]:
    """Blocking-path layer time as a share of one saturated operation.

    Read workloads: one model thread serves everything and the generator
    has its own core, so the steps that block a request are the server's
    — its wire handling (pipelined floor + request decode + reply encode)
    and the compiled plan — plus query expansion on an item's first
    delivery.  ``stream_mixed``: every mutation is an awaited round trip
    and every window the first read after a write, so an event costs an
    idle round trip plus the facade call on the served backend.
    """
    def value(name: str) -> float:
        return metrics[name][0]

    if workload.kind == "read":
        budget_us = 1e6 / sat_ops
        requests = len(sat.recommend_s)
        first_deliveries = min(pool_size, requests) / requests
        serve = (value("serve.server.pipelined_floor_us")
                 + value("serve.protocol.decode_request_us")
                 + value("serve.protocol.encode_reply_us"))
        matching = value("core.matching.score_us") + value("core.matching.select_us")
        index = value("index.knn_us")
        mutation = 0.0
        total = serve + value("exec.run_batch_us") + first_deliveries * value("entities.expand_us")
    else:
        budget_us = sat.wall_s * 1e6
        prefix = f"serve.service.{workloads.stream_backend()}"
        trips = sat.observes + sat.updates + sat.windows
        serve = (trips * value("serve.server.wire_floor_us")
                 + sat.windows * value(f"{prefix}.read_after_write_ms") * 1e3)
        mutation = (sat.observes * value(f"{prefix}.observe_us")
                    + sat.updates * value(f"{prefix}.update_us"))
        matching = index = 0.0
        total = serve + mutation
    n = len(sat.recommend_s)
    return {
        "ledger.attributed_share": (total / budget_us, n),
        "ledger.serve_share": (serve / budget_us, n),
        "ledger.matching_share": (matching / budget_us, n),
        "ledger.index_share": (index / budget_us, n),
        "ledger.mutation_share": (mutation / budget_us, n),
    }


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a git repository


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def declared() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def report(result: dict) -> int:
    """Print every declared metric of the run's group (end-to-end, or per
    layer for a traced run) by name with unit and sample count, then the
    driver's JSON line.  Returns the exit code."""
    info = result["info"]
    print("# " + " ".join(f"{key}={value}" for key, value in info.items() if key != "counts"))
    print("# counts " + " ".join(f"{k}={v}" for k, v in sorted(info["counts"].items())))
    if info["generator_bound"]:
        print("# WARNING generator-bound paced phase: late_p99_ms > 5 or cpu_share > 0.8")
    group = "per_layer" if info["traced"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared()[group]}
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        print(f"missing metrics: {', '.join(missing)}", file=sys.stderr)
        return 1
    wire_metrics = {}
    for name, unit in units.items():
        value, samples = result["metrics"][name]
        print(f"{name:<46} {value:>16.6f} {unit:<6} n={samples}")
        wire_metrics[name] = {"value": value, "unit": unit}
    if not all(math.isfinite(m["value"]) for m in wire_metrics.values()):
        print("non-finite metric value", file=sys.stderr)
        return 1
    (RESULTS_DIR / f"{info['workload']}.{group}.json").write_text(
        json.dumps({"info": info, "metrics": wire_metrics}, indent=1))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": wire_metrics,
    }))
    if not result["correct"] or info["counts"].get("unanswered") or info["unresolved_span_parents"]:
        return 1
    return 0


def run_and_report(name: str, seed: int, seconds: float, trace: str, smoke: bool) -> int:
    """``trace`` "0" or "1" is one run; "both" is the end-to-end run, with no
    spans anywhere, then the traced one — two reports, two JSON lines."""
    modes = {"0": (False,), "1": (True,), "both": (False, True)}[trace]
    return max(report(run_workload(name, seed, seconds, traced, smoke)) for traced in modes)


# ----------------------------------------------------------------------
# --all --repeat N --check-agreement
# ----------------------------------------------------------------------
def one_json_run(name: str, seed: int, seconds: float) -> dict:
    """An end-to-end run in a fresh interpreter; returns its JSON line."""
    done = subprocess.run(
        [sys.executable, str(E2E_DIR / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{name} seed {seed} failed:\n{done.stdout}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_agreement(seed: int, repeat: int, seconds: float, write_bounds: bool) -> int:
    """Two sets of ``repeat`` runs per workload, seeds ``seed .. seed+repeat-1``
    each: prints both medians, the spread and the bound per metric, and
    fails when a spread exceeds its bound or the second median is worse
    than the first by more than the bound."""
    spec = declared()
    disagreements = 0
    measured: dict[str, float] = {}
    for name in workloads.WORKLOADS:
        sets = [
            [one_json_run(name, seed + i, seconds)["metrics"] for i in range(repeat)]
            for _ in range(2)
        ]
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            first, second = ([run[key]["value"] for run in runs] for runs in sets)
            m1, m2 = statistics.median(first), statistics.median(second)
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            widest = max(spread(first), spread(second))
            measured[key] = max(measured.get(key, 0.0), widest)
            bad = worse > bound or (key != "setup_s" and widest > bound)
            disagreements += bad
            print(f"{name:<16} {key:<18} median {m1:>12.4f} / {m2:>12.4f} {metric['unit']:<5} "
                  f"spread {widest:6.3f} bound {bound:5.3f} {'DISAGREE' if bad else 'ok'}",
                  flush=True)
    if write_bounds:
        for metric in spec["end_to_end"]:
            floor = 0.05 if metric["name"] == "rss_peak_mb" else 0.10
            metric["bound"] = round(min(0.25, max(floor, 2.0 * measured[metric["name"]])), 3)
        BENCHMARK_JSON.write_text(json.dumps(spec, indent=2) + "\n")
    return 1 if disagreements else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--smoke", action="store_true",
                        help="wire_small and stream_mixed on the tiny dataset, seconds-long")
    parser.add_argument("--all", action="store_true", help="every workload (with --repeat)")
    parser.add_argument("--repeat", type=int, default=10)
    parser.add_argument("--check-agreement", action="store_true")
    parser.add_argument("--write-bounds", action="store_true",
                        help="with --check-agreement: store max(floor, 2 x spread) as bounds")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else float(declared()["run_seconds"])
    if args.smoke:
        codes = [run_and_report(name, args.seed, 2.0, "both", True)
                 for name in ("wire_small", "stream_mixed")]
        return max(codes)
    if args.all:
        if not args.check_agreement:
            parser.error("--all is only meaningful with --check-agreement")
        return check_agreement(args.seed, args.repeat, seconds, args.write_bounds)
    if args.workload is None:
        parser.error("--workload is required")
    return run_and_report(args.workload, args.seed, seconds, args.trace, False)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
