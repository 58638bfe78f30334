"""Command-line experiment runner.

Regenerate any of the paper's tables/figures from the shell::

    python -m repro.eval table2
    python -m repro.eval table3 --scale default
    python -m repro.eval fig5 --dataset YTube
    python -m repro.eval fig7 --dataset MLens --scale small
    python -m repro.eval fig10 --dataset YTube --scale default
    python -m repro.eval fig11

Beyond the paper, ``batch`` measures the batched serving path, ``sharded``
sweeps the sharded serving runtime, ``dedup`` measures the memo stage
(duplicate collapse ahead of scoring) on mutated-retry traffic (exit
status 1 on any exact-mode divergence — CI gates on it), and
``conformance`` replays
the adversarial scenario catalog through every registered execution plan
against the naive oracle (exit status 1 on any divergence — CI gates on
it)::

    python -m repro.eval batch --dataset YTube --scale default
    python -m repro.eval sharded --dataset YTube --scale default
    python -m repro.eval dedup --scale default
    python -m repro.eval conformance
    python -m repro.eval conformance --scenarios bursty_uploads,abrupt_drift --events 300
    python -m repro.eval conformance --paths scan-item,scan-item-dedup,index-batch
    python -m repro.eval conformance --list-paths

The network layer has two entry points: ``serve`` fits on a dataset and
hosts it over the framed JSON socket protocol until Ctrl-C; ``loadgen``
replays the adversarial scenario catalog as open-loop socket traffic —
self-hosting a verified server per scenario by default (exit status 1 on
any bitwise divergence — the CI server-smoke job gates on it), or
against an external ``--address host:port`` (unverified)::

    python -m repro.eval serve --dataset YTube --scale default --port 7431
    python -m repro.eval loadgen --scenarios duplicate_out_of_order,bursty_uploads
    python -m repro.eval loadgen --address 127.0.0.1:7431 --no-verify
    python -m repro.eval loadgen --obs-dump metrics.json

``--paths`` accepts plan names from the registry (``--list-paths`` prints
it, one line per plan — the conformance catalog is registry-derived, so
newly registered plans appear automatically).  ``--scale`` controls the
dataset size (small | default | paper_shape); ``--dataset`` picks one of
the four Table III datasets where applicable.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.datasets.ytube import YTubeConfig, generate_ytube
from repro.eval import figures, systems

SINGLE_DATASET_EXPERIMENTS = {
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "batch", "sharded", "dedup",
    "serve",
}
ALL_EXPERIMENTS = sorted(
    SINGLE_DATASET_EXPERIMENTS | {"table2", "table3", "fig11", "conformance", "loadgen"}
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate a table/figure of 'Online Social Media "
        "Recommendation over Streams' (ICDE 2019).",
    )
    parser.add_argument("experiment", choices=ALL_EXPERIMENTS)
    parser.add_argument(
        "--dataset",
        default="YTube",
        choices=["YTube", "SynYTube", "MLens", "SynMLens"],
        help="dataset for single-dataset experiments (default: YTube)",
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=["small", "default", "paper_shape"],
        help="dataset scale (default: small)",
    )
    parser.add_argument(
        "--min-truth",
        type=int,
        default=3,
        help="minimum interacting users for an item to be judged (default: 3)",
    )
    parser.add_argument("--seed", type=int, default=7, help="generator seed")
    parser.add_argument(
        "--scenarios",
        default=None,
        help="conformance only: comma-separated scenario names "
        "(default: the full catalog)",
    )
    parser.add_argument(
        "--events",
        type=int,
        default=600,
        help="conformance only: serving-stream length per scenario (default: 600)",
    )
    parser.add_argument(
        "--k",
        type=int,
        default=10,
        help="conformance only: recommendation depth per query (default: 10)",
    )
    parser.add_argument(
        "--paths",
        default=None,
        help="conformance only: comma-separated execution-plan names from "
        "the registry (default: every conformance-marked plan)",
    )
    parser.add_argument(
        "--list-paths",
        action="store_true",
        help="conformance only: print the plan registry (one line per "
        "plan) and exit",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve only: interface to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="serve only: port to bind (default: 0 = ephemeral)",
    )
    parser.add_argument(
        "--address",
        default=None,
        metavar="HOST:PORT",
        help="loadgen only: replay against an already-running external "
        "server instead of self-hosting (implies --no-verify)",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="loadgen only: in-flight recommend bound (default: 8)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=8,
        help="loadgen only: recommend window size (default: 8)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="loadgen only: skip the bitwise replica verification",
    )
    parser.add_argument(
        "--obs-dump",
        default=None,
        metavar="PATH",
        help="loadgen only: write the merged server metrics scrape "
        "(registry dump + Prometheus text + slow-request log) to PATH as "
        "JSON — readable by `python -m repro.obs summarize`",
    )
    parser.add_argument(
        "--no-coalesce",
        action="store_true",
        help="serve/loadgen: per-request dispatch instead of micro-batch "
        "coalescing",
    )
    return parser


def _write_obs_dump(path: str, reports) -> None:
    """Merge every scenario's server metrics scrape into one dump file.

    Each loadgen report carries the ``metrics``-route payload of its own
    (per-scenario) server; merging their registries gives the suite-wide
    view.  The written JSON round-trips through
    ``python -m repro.obs summarize`` — CI schema-checks it that way.
    """
    import json

    from repro.obs import MetricsRegistry

    merged = MetricsRegistry()
    slow_requests: list = []
    for report in reports:
        obs = getattr(report, "server_obs", None) or {}
        registry = obs.get("registry")
        if registry is not None:
            merged.merge(MetricsRegistry.from_dict(registry))
        slow_requests.extend(obs.get("slow_requests", []))
    payload = {
        "registry": merged.to_dict(),
        "prometheus": merged.to_prometheus(),
        "slow_requests": slow_requests,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, allow_nan=False)
    print(f"server metrics dump written to {path}")


def _figure_drivers(args) -> dict:
    """Single-dataset subcommand -> ``driver(dataset)``.  One --seed drives
    both the dataset generators and the model initialization inside every
    driver — a run is reproducible from the command line alone."""
    judged = {"min_truth": args.min_truth, "seed": args.seed}
    return {
        "fig5": lambda ds: figures.run_fig5(
            ds, max_users=16, max_states=4, min_history=25, seed=args.seed
        ),
        "fig6": lambda ds: figures.run_fig6(ds, **judged),
        "fig7": lambda ds: figures.run_fig7(ds, **judged),
        "fig8": lambda ds: figures.run_fig8(ds, **judged),
        "fig9": lambda ds: figures.run_fig9(ds, **judged),
        "fig10": lambda ds: figures.run_fig10(ds, min_truth=2, seed=args.seed),
        "batch": lambda ds: systems.run_batch_throughput(ds, seed=args.seed),
        "sharded": lambda ds: systems.run_sharded_throughput(ds, seed=args.seed),
        "dedup": lambda ds: systems.run_dedup(base=ds, seed=args.seed),
    }


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    names = args.scenarios.split(",") if args.scenarios else None
    if args.experiment == "table2":
        dataset = generate_ytube(YTubeConfig.sparse(seed=args.seed))
        print(figures.run_table2(dataset).to_text())
        return 0
    if args.experiment == "table3":
        print(figures.run_table3(scale=args.scale, seed=args.seed).to_text())
        return 0
    if args.experiment == "loadgen":
        address = None
        if args.address:
            host, _, port = args.address.rpartition(":")
            address = (host, int(port))
        result = systems.run_loadgen(
            scenarios=names,
            seed=args.seed,
            k=args.k,
            window_size=args.window,
            concurrency=args.concurrency,
            max_events=args.events,
            verify=not args.no_verify,
            coalesce=not args.no_coalesce,
            address=address,
        )
        print(result.to_text())
        if args.obs_dump:
            _write_obs_dump(args.obs_dump, result.reports)
        # Non-zero exit on any served/replica divergence: CI gates on this.
        return 0 if result.total_divergences == 0 else 1
    if args.experiment == "conformance":
        if args.list_paths:
            from repro.exec import PLAN_REGISTRY

            print(PLAN_REGISTRY.describe())
            return 0
        result = systems.run_conformance(
            scenarios=names,
            seed=args.seed,
            k=args.k,
            max_events=args.events,
            paths=args.paths.split(",") if args.paths else None,
        )
        print(result.to_text())
        # Non-zero exit on any divergence: CI gates on this.
        return 0 if result.total_divergences == 0 else 1
    datasets = figures.make_datasets(args.scale, seed=args.seed)
    if args.experiment == "fig11":
        print(figures.run_fig11(datasets, seed=args.seed).to_text())
        return 0
    dataset = datasets[args.dataset]
    if args.experiment == "serve":
        thread = systems.run_serve(
            dataset,
            host=args.host,
            port=args.port,
            coalesce=not args.no_coalesce,
            seed=args.seed,
        )
        host, port = thread.server.host, thread.server.port
        print(f"serving {args.dataset} ({args.scale}) on {host}:{port} "
              f"— Ctrl-C to drain and stop", flush=True)
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            pass
        finally:
            thread.stop()
        return 0
    result = _figure_drivers(args)[args.experiment](dataset)
    print(result.to_text())
    if args.experiment == "dedup":
        # Non-zero exit on exact-mode divergence: CI gates on this.
        return 0 if result.parity_ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
