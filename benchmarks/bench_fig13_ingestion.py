"""Figure 13: ingestion rate on EP.

The paper ingests an EP subset into each system on one node and reports
millions of data points per second: InfluxDB 0.08, Cassandra 0.04,
Parquet 0.17, ORC 0.15, ModelarDBv1 0.21, ModelarDBv2 0.44 — and scale-out
scenarios B-6 (bulk loading, 1.81) and O-6 (online analytics, 1.97).
"""

from functools import partial

import pytest

from repro.shard import InProcessFleet, ShardedCluster
from repro.workloads import s_agg

from .conftest import ep_config, format_table

SYSTEMS = (
    "InfluxDB",
    "Cassandra",
    "Parquet",
    "ORC",
    "ModelarDBv1@5",
    "ModelarDBv2@5",
)

_results: dict[str, float] = {}

#: The simulator: the one master over workers called in this process.
Simulator = partial(ShardedCluster, fleet_type=InProcessFleet)


@pytest.mark.parametrize("system", SYSTEMS)
def test_fig13_single_node_ingest(benchmark, ep_dataset, ep_systems, system):
    def ingest():
        cache = type(ep_systems)(ep_dataset, ep_config)
        cache.get(system)
        return cache.ingest_seconds[system]

    elapsed = benchmark.pedantic(ingest, rounds=1, iterations=1)
    _results[system.partition("@")[0]] = (
        ep_dataset.data_points() / elapsed / 1e6
    )


def test_fig13_cluster_scenarios(benchmark, ep_dataset, report):
    """B-6 (bulk) and O-6 (online analytics) on six simulated workers."""

    def bulk():
        cluster = Simulator(6, ep_config(5.0), ep_dataset.dimensions)
        return cluster.ingest(ep_dataset.series)

    bulk_report = benchmark.pedantic(bulk, rounds=1, iterations=1)
    _results["B-6"] = bulk_report.data_points / bulk_report.makespan / 1e6

    # O-6: the same ingestion with aggregate queries executed on random
    # series through the Segment View while data streams in. Modelled
    # time is the ingest's slowest worker plus each query's makespan (a
    # query waits for its slowest shard, then the merge).
    with Simulator(6, ep_config(5.0), ep_dataset.dimensions) as cluster:
        ingest = cluster.ingest(ep_dataset.series)
        workload = s_agg(ep_dataset.production_tids, seed=13, count=4)
        seconds = ingest.makespan + sum(
            cluster.sql(query.to_sql())[1].makespan
            for query in workload.queries
        )
    _results["O-6"] = ingest.data_points / seconds / 1e6

    paper = {
        "InfluxDB": 0.08, "Cassandra": 0.04, "Parquet": 0.17, "ORC": 0.15,
        "ModelarDBv1": 0.21, "ModelarDBv2": 0.44, "B-6": 1.81, "O-6": 1.97,
    }
    rows = [
        [name, f"{rate:.3f}", paper.get(name, "-")]
        for name, rate in _results.items()
    ]
    report(
        "Figure 13 ingestion rate, EP (Mpts per s)",
        format_table(["System", "Measured", "Paper"], rows),
    )
    assert _results["B-6"] > _results["ModelarDBv2"], (
        "six workers must out-ingest one"
    )
