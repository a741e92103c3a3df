"""Command-line entry point: SQL shell, cluster driver and server.

Usage::

    python -m repro <storage-dir>                 # interactive shell
    python -m repro <storage-dir> -c "SELECT ..." # one statement
    python -m repro --workers 4                   # measured cluster run
    python -m repro --workers 4 --fault crash:1:execute
    python -m repro --workers 4 --simulated       # modelled cluster run
    python -m repro serve <storage-dir> --port 9972
    python -m repro loadgen --port 9972 --clients 32 --duration 10

Without ``--workers`` the directory must contain a
:class:`~repro.storage.FileStorage` written by a previous ingestion (see
``examples/persistent_storage.py``). Inside the shell, ``\\dt`` lists
the stored time series, ``\\q`` quits.

With ``--workers N`` the synthetic EP workload is partitioned over a
cluster of N workers — real processes by default (measured wall-clock
scale-out, the mode behind the measured Fig. 20 numbers), or the
sequential in-process simulation with ``--simulated``. ``--fault``
injects worker faults (``crash|slow|drop:worker:method[:delay]``) to
demonstrate master-side failover. An optional directory gives each
worker a persistent store under ``<dir>/worker_<id>``.

``serve`` exposes a storage directory over the concurrent query server
(:mod:`repro.server`); ``loadgen`` drives a running server with the
closed-loop load generator and prints throughput and tail latency;
``metrics`` dumps a running server's metrics registry (see
``docs/METRICS.md``). Setting ``REPRO_PROFILE=1`` runs any invocation
under cProfile (see :mod:`repro.obs.profiling`).

The ``build_*_parser`` functions exist so the documentation consistency
check (``scripts/check_docs.py``) can verify that every flag shown in
``docs/OPERATIONS.md`` actually parses.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from .core.config import Configuration
from .core.errors import ModelarError
from .datasets import generate_ep
from .datasets.ep import EP_CORRELATION
from .modelardb import ModelarDB
from .obs import maybe_profile
from .query.engine import QueryEngine
from .shard import FaultPlan, InProcessFleet, ShardedCluster, WorkerFleet


def format_rows(rows: list[dict]) -> str:
    """Render query results as a fixed-width table."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0])
    for row in rows[1:]:
        for column in row:
            if column not in columns:
                columns.append(column)
    cells = [
        [("" if row.get(column) is None else str(row.get(column)))
         for column in columns]
        for row in rows
    ]
    widths = [
        max(len(column), *(len(row[i]) for row in cells))
        for i, column in enumerate(columns)
    ]
    lines = [
        "  ".join(column.ljust(width) for column, width in zip(columns, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in cells:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    lines.append(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")
    return "\n".join(lines)


def describe_tables(engine: QueryEngine) -> str:
    """The ``\\dt`` listing: one line per stored time series."""
    lines = ["Tid  Gid  SI        Scaling  Dimensions"]
    metadata = engine.metadata
    for tid in sorted(metadata.all_tids()):
        gid = metadata.gid_of(tid)
        si = metadata.sampling_interval(gid)
        scaling = metadata.scaling(tid)
        dims = ", ".join(
            f"{k}={v}" for k, v in metadata.dimension_row(tid).items()
        )
        lines.append(f"{tid:<4} {gid:<4} {si:<9} {scaling:<8} {dims}")
    return "\n".join(lines)


def run_statement(db: ModelarDB, statement: str, out) -> None:
    try:
        rows = db.query(statement)
    except ModelarError as error:
        print(f"error: {error}", file=out)
        return
    print(format_rows(rows), file=out)


#: Statements the cluster demo scatters over the workers.
CLUSTER_STATEMENTS = (
    "SELECT COUNT(*) FROM DataPoint",
    "SELECT MIN(Value), MAX(Value), AVG(Value) FROM DataPoint",
    "SELECT Entity, SUM(Value) FROM DataPoint GROUP BY Entity",
)


def run_cluster(arguments, out) -> int:
    """The ``--workers N`` mode: measured (or simulated) scale-out."""
    dataset = generate_ep(seed=7)
    config = Configuration(correlation=list(EP_CORRELATION))
    fault_plan = (
        FaultPlan.parse(arguments.fault) if arguments.fault else None
    )
    if arguments.simulated and fault_plan is not None:
        print("error: --fault requires the process cluster "
              "(drop --simulated)", file=out)
        return 1
    cluster = ShardedCluster(
        arguments.workers,
        config,
        dataset.dimensions,
        storage_root=arguments.directory,
        fault_plan=fault_plan,
        fleet_type=InProcessFleet if arguments.simulated else WorkerFleet,
    )
    mode = (
        "simulated (sequential in-process)"
        if arguments.simulated
        else "measured (one OS process per worker)"
    )
    # The simulator's reports model parallel time (slowest worker); the
    # process cluster's wall clock is the measurement.
    with cluster:
        print(f"cluster: {arguments.workers} workers, {mode}", file=out)
        ingest = cluster.ingest(dataset.series)
        seconds = (
            ingest.makespan if arguments.simulated else ingest.wall_seconds
        )
        print(
            f"ingest: {ingest.data_points} points, "
            f"makespan {seconds:.3f}s",
            file=out,
        )
        for statement in CLUSTER_STATEMENTS:
            print(f"\nmodelardb> {statement}", file=out)
            rows, report = cluster.sql(statement)
            print(format_rows(rows), file=out)
            if arguments.simulated:
                print(f"({report.makespan:.3f}s)", file=out)
                continue
            line = f"({report.wall_seconds:.3f}s"
            if report.recovered_shards:
                moves = ", ".join(
                    f"shard {shard}->worker {cluster.map.owners_of(shard)[0]}"
                    for shard in report.recovered_shards
                )
                line += f"; recovered: {moves}"
            print(line + ")", file=out)
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="serve a FileStorage directory over the query server",
    )
    parser.add_argument("directory", help="FileStorage directory to serve")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9972)
    parser.add_argument(
        "--max-inflight", type=int, default=8,
        help="queries executing concurrently (executor pool width)",
    )
    parser.add_argument(
        "--max-waiting", type=int, default=32,
        help="queries allowed to queue before fast-fail busy rejection",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="default per-query deadline in seconds",
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=256,
        help="query-result cache entries (0 disables caching)",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help=(
            "serve through the sharded tier with this many worker "
            "processes (0 = embedded single-process serving)"
        ),
    )
    parser.add_argument(
        "--replicas", type=int, default=1,
        help=(
            "replicas per shard (with --shards); >= 2 lets queries "
            "survive a worker crash via retry-on-replica"
        ),
    )
    parser.add_argument(
        "--rebalance-every", type=int, default=0,
        help=(
            "with --shards: auto-rebalance hot shards every N queries "
            "(0 disables automatic rebalancing)"
        ),
    )
    return parser


def run_serve(argv: list[str], out) -> int:
    """The ``serve`` subcommand: expose a storage directory over TCP."""
    from .server import EmbeddedDispatcher, QueryServer

    arguments = build_serve_parser().parse_args(argv)
    if arguments.shards < 0 or arguments.replicas < 1:
        print("error: --shards must be >= 0 and --replicas >= 1", file=out)
        return 1

    with ModelarDB.open(arguments.directory) as db:
        storage = db.storage
        if not storage.time_series():
            print(
                f"error: no time series stored in {arguments.directory}",
                file=out,
            )
            return 1
        if arguments.shards:
            from .shard import ShardedDispatcher

            tier = ShardedCluster(
                arguments.shards,
                n_replicas=arguments.replicas,
                auto_rebalance_interval=arguments.rebalance_every,
            )
            placement = tier.load_storage(storage)
            print(
                f"sharded tier: {arguments.shards} workers x "
                f"{arguments.replicas} replicas, "
                f"{placement['groups']} groups over "
                f"{len(placement['shards'])} shards",
                file=out,
            )
            dispatcher = ShardedDispatcher(
                tier,
                owns_tier=True,
                result_cache_capacity=arguments.cache_capacity,
            )
        else:
            dispatcher = EmbeddedDispatcher(
                db.engine,
                owned_storage=storage,
                result_cache_capacity=arguments.cache_capacity,
            )
        server = QueryServer(
            dispatcher,
            host=arguments.host,
            port=arguments.port,
            max_inflight=arguments.max_inflight,
            max_waiting=arguments.max_waiting,
            default_timeout=arguments.timeout,
        )

        async def _run() -> None:
            host, port = await server.start()
            print(
                f"serving {arguments.directory} on {host}:{port} "
                f"({len(storage.time_series())} series, "
                f"{storage.segment_count()} segments); Ctrl-C stops",
                file=out,
            )
            try:
                await server.serve_forever()
            finally:
                await server.stop()

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            print("interrupted; storage closed", file=out)
    return 0


def build_loadgen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro loadgen",
        description=(
            "drive a running query server with N closed-loop clients "
            "over the paper's evaluation workloads"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9972)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--duration", type=float, default=5.0,
        help="measurement window in seconds",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request deadline in seconds",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--start", type=int, help="data start time (ms) to add P/R queries"
    )
    parser.add_argument(
        "--end", type=int, help="data end time (ms) to add P/R queries"
    )
    parser.add_argument(
        "--si", type=int, help="sampling interval (ms) for P/R queries"
    )
    parser.add_argument(
        "--json", dest="json_path",
        help="also write the report as JSON to this path",
    )
    return parser


def run_loadgen(argv: list[str], out) -> int:
    """The ``loadgen`` subcommand: closed-loop load on a live server."""
    from .server import ServerClient
    from .server.loadgen import build_workload, run_load

    arguments = build_loadgen_parser().parse_args(argv)

    try:
        with ServerClient(arguments.host, arguments.port) as client:
            catalog = client.stats().get("catalog", {})
    except (OSError, ModelarError) as error:
        print(
            f"error: cannot reach server at "
            f"{arguments.host}:{arguments.port}: {error}",
            file=out,
        )
        return 1
    tids = catalog.get("tids") or []
    if not tids:
        print("error: the server reports no time series", file=out)
        return 1
    statements = build_workload(
        tids,
        start_time=arguments.start,
        end_time=arguments.end,
        sampling_interval=arguments.si,
        seed=arguments.seed,
    )
    print(
        f"load: {arguments.clients} clients x {arguments.duration:.0f}s "
        f"over {len(statements)} statements",
        file=out,
    )
    report = run_load(
        arguments.host,
        arguments.port,
        statements,
        clients=arguments.clients,
        duration=arguments.duration,
        request_timeout=arguments.timeout,
    )
    print(report.summary(), file=out)
    if arguments.json_path:
        with open(arguments.json_path, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"wrote {arguments.json_path}", file=out)
    return 0


def build_metrics_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro metrics",
        description=(
            "dump a running query server's metrics registry "
            "(reference: docs/METRICS.md)"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9972)
    parser.add_argument(
        "--json", dest="json_path",
        help="also write the snapshot as JSON to this path",
    )
    return parser


def format_metrics(snapshot: dict) -> str:
    """Render a registry snapshot as sorted name/value lines."""
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        lines.append(f"{name} {value}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        lines.append(f"{name} {value}")
    for name, payload in sorted(snapshot.get("histograms", {}).items()):
        lines.append(
            f"{name} count={payload['count']} "
            f"mean_ms={payload['mean_ms']:.3f} "
            f"p99_ms={payload['p99_ms']:.3f} "
            f"max_ms={payload['max_ms']:.3f}"
        )
    return "\n".join(lines) if lines else "(no metrics recorded)"


def run_metrics(argv: list[str], out) -> int:
    """The ``metrics`` subcommand: dump a live server's registry."""
    from .server import ServerClient

    arguments = build_metrics_parser().parse_args(argv)
    try:
        with ServerClient(arguments.host, arguments.port) as client:
            snapshot = client.metrics()
    except (OSError, ModelarError) as error:
        print(
            f"error: cannot reach server at "
            f"{arguments.host}:{arguments.port}: {error}",
            file=out,
        )
        return 1
    print(format_metrics(snapshot), file=out)
    if arguments.json_path:
        with open(arguments.json_path, "w") as handle:
            json.dump(snapshot, handle, indent=2)
        print(f"wrote {arguments.json_path}", file=out)
    return 0


#: Subcommands dispatched before the legacy flag-style interface.
_SUBCOMMANDS = {
    "serve": run_serve,
    "loadgen": run_loadgen,
    "metrics": run_metrics,
}

#: Parser builders per subcommand — the docs-consistency check parses
#: every command line shown in docs/OPERATIONS.md against these.
SUBCOMMAND_PARSERS = {
    "serve": build_serve_parser,
    "loadgen": build_loadgen_parser,
    "metrics": build_metrics_parser,
}


def main(argv: list[str] | None = None, out=None) -> int:
    with maybe_profile():
        return _main(argv, out)


def build_main_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "SQL shell over a ModelarDB storage directory, or a "
            "cluster driver with --workers"
        ),
    )
    parser.add_argument(
        "directory",
        nargs="?",
        help=(
            "FileStorage directory to open (shell mode) or the cluster's "
            "storage root (per-worker subdirectories; in-memory if omitted)"
        ),
    )
    parser.add_argument(
        "-c", "--command", help="execute one SQL statement and exit"
    )
    parser.add_argument(
        "-w", "--workers", type=int,
        help="run the synthetic EP workload on an N-worker cluster",
    )
    parser.add_argument(
        "--fault",
        help=(
            "inject worker faults, comma-separated "
            "kind:worker:method[:delay] entries, e.g. crash:1:execute"
        ),
    )
    parser.add_argument(
        "--simulated", action="store_true",
        help="use the sequential in-process cluster simulation",
    )
    return parser


def _main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        try:
            return _SUBCOMMANDS[argv[0]](argv[1:], out)
        except ModelarError as error:
            print(f"error: {error}", file=out)
            return 1
    arguments = build_main_parser().parse_args(argv)

    if arguments.workers is not None:
        if arguments.workers < 1:
            print("error: --workers must be >= 1", file=out)
            return 1
        try:
            return run_cluster(arguments, out)
        except ModelarError as error:
            print(f"error: {error}", file=out)
            return 1
    if arguments.directory is None:
        print("error: a storage directory is required without --workers",
              file=out)
        return 1
    if arguments.fault or arguments.simulated:
        print("error: --fault/--simulated only apply with --workers",
              file=out)
        return 1

    with ModelarDB.open(arguments.directory) as db:
        storage = db.storage
        if not storage.time_series():
            print(f"error: no time series stored in {arguments.directory}",
                  file=out)
            return 1
        engine = db.engine

        if arguments.command:
            run_statement(db, arguments.command, out)
            return 0

        print(
            f"repro shell — {len(storage.time_series())} series, "
            f"{storage.segment_count()} segments. "
            "\\dt lists series, \\q quits.",
            file=out,
        )
        while True:
            try:
                line = input("modelardb> ").strip()
            except (EOFError, KeyboardInterrupt):
                break
            if not line:
                continue
            if line in ("\\q", "exit", "quit"):
                break
            if line == "\\dt":
                print(describe_tables(engine), file=out)
                continue
            run_statement(db, line, out)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
