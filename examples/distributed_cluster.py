"""Distributed ModelarDB: master/worker ingestion and scatter/gather.

Run with::

    python examples/distributed_cluster.py

Partitions an EP-like data set, assigns whole groups to the least-loaded
of four workers (so correlated series are always co-located and queries
never shuffle), ingests in parallel (modelled), and runs distributed
aggregates whose partial results the master merges — including a query
routed to exactly one worker by its Tid predicate.

The master is :class:`~repro.shard.ShardedCluster`; with
``fleet_type=InProcessFleet`` its workers are objects in this process,
run in turn, so the reports *model* parallel time (the simulator).
Drop the argument for one OS process per worker and measured times.
"""

from repro import Configuration
from repro.datasets import generate_ep
from repro.datasets.ep import EP_CORRELATION
from repro.shard import InProcessFleet, ShardedCluster


def main():
    dataset = generate_ep(
        n_entities=8, measures_per_entity=3, n_points=1_500, seed=9
    )
    config = Configuration(error_bound=5.0, correlation=EP_CORRELATION)
    with ShardedCluster(
        4, config, dataset.dimensions, fleet_type=InProcessFleet
    ) as cluster:
        report = cluster.ingest(dataset.series)
        print("cluster of 4 workers:")
        for worker, gids in cluster.assignment().items():
            series = sum(
                cluster.worker_of(ts.tid) == worker for ts in dataset.series
            )
            print(f"  worker {worker}: {len(gids)} groups, {series} series")
        print(
            f"\ningest: {report.data_points} points in "
            f"{cluster.size_bytes()} bytes, modelled parallel time "
            f"{report.makespan * 1e3:.1f} ms "
            f"(total work {report.total_work * 1e3:.1f} ms, "
            f"{report.throughput / 1e6:.2f} Mpts/s)"
        )

        rows, query_report = cluster.sql(
            "SELECT Type, SUM_S(*) FROM Segment "
            "WHERE Category = 'ProductionMWh' GROUP BY Type"
        )
        print("\nproduction by plant type (merged from worker partials):")
        for row in rows:
            print(f"  {row['Type']}: {row['SUM_S(*)']:.0f} MWh")
        print(
            f"  ({query_report.subqueries} workers, makespan "
            f"{query_report.makespan * 1e3:.2f} ms)"
        )

        rows, query_report = cluster.sql(
            "SELECT Tid, AVG_S(*) FROM Segment WHERE Tid = 5 GROUP BY Tid"
        )
        print(
            f"\nsingle-series query routed to "
            f"{query_report.subqueries} worker(s): {rows}"
        )


if __name__ == "__main__":
    main()
