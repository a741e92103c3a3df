"""Serving benchmark: closed-loop load against the query server.

Not a paper figure — the paper serves queries through Spark SQL and
never measures the serving axis — but the ROADMAP's north star ("serve
heavy traffic") needs a measured baseline. The harness follows the
closed-loop shape of SciTS (arXiv:2204.09795): N clients, each issuing
the next statement the moment the previous response lands, over the
evaluation's S-AGG / L-AGG / P-R mix rendered as SQL.

Backends:

* the embedded engine (default) — one in-process ``QueryEngine``;
* the sharded tier (``--shards N --replicas R``) — N worker processes
  behind a :class:`~repro.shard.ShardedDispatcher` scatter-gather;
* ``--compare`` runs both (result caches off, so the cache cannot mask
  the dispatch path) and reports the sharded/embedded speedup at the
  highest client level; ``--min-speedup X`` turns that into an exit
  code for CI;
* ``--crash`` (sharded only, needs ``--replicas >= 2``) kills worker 1
  mid-run via an injected fault plan and fails unless the load report
  shows **zero** errors — the failover acceptance check.

Runs 1, 8 and 32 clients and reports throughput and p50/p95/p99
latency per level; ``--output`` writes them as a JSON artifact (nothing
is written without it)::

    python benchmarks/bench_serving.py --output BENCH_serving.json  # ~5 s per level
    python benchmarks/bench_serving.py --smoke    # ~0.5 s per level (CI)
    python benchmarks/bench_serving.py --smoke --shards 4 --replicas 2 \\
        --compare --crash
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Configuration, ModelarDB  # noqa: E402
from repro.shard import FaultPlan  # noqa: E402
from repro.datasets import generate_ep  # noqa: E402
from repro.datasets.ep import EP_CORRELATION  # noqa: E402
from repro.server import (  # noqa: E402
    EmbeddedDispatcher,
    QueryServer,
    ServerThread,
    build_workload,
    run_load,
)
from repro.shard import ShardedCluster, ShardedDispatcher  # noqa: E402

#: Serving-scale EP: enough segments that statements do real work, small
#: enough that ingest stays in seconds.
DATASET_SCALE = dict(
    n_entities=5, measures_per_entity=4, n_points=2_000,
    gap_probability=0.0008, seed=42,
)

CLIENT_LEVELS = (1, 8, 32)

#: Executes worker 1 answers before the ``--crash`` fault kills it —
#: deep enough into the run that the crash lands mid-measurement.
_CRASH_AFTER_EXECUTES = 5


def prepare_database() -> tuple[ModelarDB, Configuration, dict]:
    dataset = generate_ep(**DATASET_SCALE)
    config = Configuration(error_bound=1.0, correlation=list(EP_CORRELATION))
    db = ModelarDB(config, dimensions=dataset.dimensions)
    db.ingest(dataset.series)
    tids = sorted(ts.tid for ts in dataset.series)
    start = min(ts.start_time for ts in dataset.series)
    end = max(ts.end_time for ts in dataset.series)
    si = dataset.series[0].sampling_interval
    meta = {
        "n_series": len(tids),
        "segments": db.segment_count(),
        "tids": tids,
        "start": start,
        "end": end,
        "si": si,
        "dimensions": dataset.dimensions,
    }
    return db, config, meta


def measure_backend(
    dispatcher,
    statements: list[str],
    arguments: argparse.Namespace,
    duration: float,
    label: str,
) -> tuple[list[dict], dict, dict]:
    """Serve ``dispatcher`` and drive every client level against it.

    Returns (per-level run dicts, server stats, metrics snapshot).
    """
    server = QueryServer(
        dispatcher,
        max_inflight=arguments.max_inflight,
        max_waiting=max(64, 4 * arguments.max_inflight),
    )
    harness = ServerThread(server)
    host, port = harness.start()
    print(f"serving {label} on {host}:{port}, "
          f"max_inflight={arguments.max_inflight}")
    runs = []
    try:
        for clients in CLIENT_LEVELS:
            report = run_load(
                host, port, statements,
                clients=clients, duration=duration,
                columnar=arguments.columnar,
            )
            print(report.summary())
            runs.append(report.to_dict())
        stats = server.stats()
        obs_snapshot = dispatcher.metrics()
    finally:
        harness.stop()
    print()
    return runs, stats, obs_snapshot


def build_sharded_dispatcher(
    db: ModelarDB,
    config: Configuration,
    meta: dict,
    arguments: argparse.Namespace,
    cache_capacity: int,
    fault_plan: FaultPlan | None = None,
) -> ShardedDispatcher:
    tier = ShardedCluster(
        arguments.shards,
        n_replicas=arguments.replicas,
        config=config,
        dimensions=meta["dimensions"],
        fault_plan=fault_plan,
        timeout=5.0,
    )
    placement = tier.load_storage(db.storage)
    print(f"  sharded: {placement['groups']} groups over "
          f"{len(placement['shards'])} shards, "
          f"{arguments.shards} workers x {arguments.replicas} replicas")
    return ShardedDispatcher(
        tier, owns_tier=True, result_cache_capacity=cache_capacity
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--duration", type=float, default=5.0,
        help="seconds of measured load per client level",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="short CI run: 0.5 s per level",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=8,
        help="server executor width (admission bound)",
    )
    parser.add_argument(
        "--columnar", action=argparse.BooleanOptionalAction, default=True,
        help="clients negotiate the columnar response format "
             "(--no-columnar forces JSON rows)",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="serve from this many sharded worker processes "
             "(0 = embedded engine)",
    )
    parser.add_argument(
        "--replicas", type=int, default=1,
        help="replicas per shard in sharded mode",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="also run the single-process embedded baseline (caches "
             "off in both) and report the sharded speedup",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="with --compare: exit non-zero unless sharded throughput "
             "at the top client level is at least this multiple of the "
             "embedded baseline (only enforced when given — a 1-core "
             "machine cannot show a parallel speedup)",
    )
    parser.add_argument(
        "--crash", action="store_true",
        help="sharded mode: kill worker 1 mid-run via a fault plan and "
             "fail unless the load report shows zero errors",
    )
    parser.add_argument(
        "--output", default=None,
        help="path of the JSON artifact (written only when given)",
    )
    arguments = parser.parse_args(argv)
    duration = 0.5 if arguments.smoke else arguments.duration
    if arguments.shards < 0:
        parser.error("--shards must be >= 0")
    if arguments.replicas < 1:
        parser.error("--replicas must be >= 1")
    sharded = arguments.shards > 0
    if (arguments.compare or arguments.crash) and not sharded:
        parser.error("--compare/--crash need --shards > 0")
    if arguments.crash and arguments.replicas < 2:
        parser.error("--crash needs --replicas >= 2 to have a survivor")
    if arguments.min_speedup is not None and not arguments.compare:
        parser.error("--min-speedup needs --compare")

    print(f"ingesting synthetic EP {DATASET_SCALE} ...")
    db, config, meta = prepare_database()
    print(f"  {meta['n_series']} series, {meta['segments']} segments")
    statements = build_workload(
        meta["tids"], meta["start"], meta["end"], meta["si"], seed=7
    )
    print(f"  workload: {len(statements)} statements (S-AGG + L-AGG + P/R)")

    # --compare measures the dispatch path, so the result cache must not
    # answer for it; a plain run keeps the production default.
    cache_capacity = 0 if arguments.compare else 256
    mode = "sharded" if sharded else "embedded"
    fault_plan = (
        FaultPlan.crash_after(1, after=_CRASH_AFTER_EXECUTES)
        if arguments.crash
        else None
    )

    baseline_runs = None
    if arguments.compare:
        dispatcher = EmbeddedDispatcher.for_db(
            db, result_cache_capacity=cache_capacity
        )
        baseline_runs, _, _ = measure_backend(
            dispatcher, statements, arguments, duration,
            "embedded (baseline)",
        )

    if sharded:
        dispatcher = build_sharded_dispatcher(
            db, config, meta, arguments, cache_capacity, fault_plan
        )
    else:
        dispatcher = EmbeddedDispatcher.for_db(
            db, result_cache_capacity=cache_capacity
        )
    runs, stats, obs_snapshot = measure_backend(
        dispatcher, statements, arguments, duration, mode
    )
    tier_stats = stats["dispatcher"].get("shard_tier")
    dispatcher.close()

    failures: list[str] = []
    compare = None
    if baseline_runs is not None:
        baseline_qps = baseline_runs[-1]["throughput_qps"]
        sharded_qps = runs[-1]["throughput_qps"]
        speedup = (
            sharded_qps / baseline_qps if baseline_qps > 0 else 0.0
        )
        compare = {
            "clients": CLIENT_LEVELS[-1],
            "baseline_qps": baseline_qps,
            "sharded_qps": sharded_qps,
            "speedup": round(speedup, 3),
            "min_speedup": arguments.min_speedup,
        }
        print(f"speedup at {CLIENT_LEVELS[-1]} clients: "
              f"{sharded_qps:.1f} / {baseline_qps:.1f} = {speedup:.2f}x")
        if (
            arguments.min_speedup is not None
            and speedup < arguments.min_speedup
        ):
            failures.append(
                f"speedup {speedup:.2f}x below required "
                f"{arguments.min_speedup:.2f}x"
            )
    if arguments.crash:
        errors = sum(run["errors"] for run in runs)
        lost = tier_stats["lost_workers"] if tier_stats else 0
        print(f"crash scenario: {errors} client-visible errors, "
              f"{lost} worker(s) lost")
        if errors:
            failures.append(
                f"crash scenario surfaced {errors} client errors "
                f"(first: {next(r['first_error'] for r in runs if r['errors'])})"
            )
        if not lost:
            failures.append(
                "crash scenario never fired: no worker was lost "
                "(fault plan misrouted?)"
            )

    artifact = {
        "benchmark": f"serving (closed-loop, {mode} engine)",
        "generated_unix": int(time.time()),
        "mode": mode,
        "wire": "columnar" if arguments.columnar else "json",
        "shards": arguments.shards if sharded else None,
        "replicas": arguments.replicas if sharded else None,
        "crash": arguments.crash,
        "smoke": arguments.smoke,
        "dataset": {
            key: meta[key] for key in ("n_series", "segments", "start",
                                       "end", "si")
        },
        "server": {
            "max_inflight": arguments.max_inflight,
            "result_cache": stats["dispatcher"]["result_cache"],
            "segment_cache": stats["dispatcher"].get("segment_cache"),
            "shard_tier": tier_stats,
            "counters": stats["counters"],
        },
        "workload_statements": len(statements),
        "runs": runs,
        "baseline_runs": baseline_runs,
        "compare": compare,
        # Full registry snapshot (docs/METRICS.md): lets a benchmark
        # diff explain a throughput change via push-down/cache/storage
        # counters instead of guessing.
        "obs": obs_snapshot,
    }
    if arguments.output:
        output = Path(arguments.output)
        output.write_text(json.dumps(artifact, indent=2) + "\n")
        print(f"\nwrote {output}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
