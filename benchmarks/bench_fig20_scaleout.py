"""Figure 20: scale-out of L-AGG on 1-32 nodes.

The paper runs L-AGG on Microsoft Azure with 1-32 Standard D8 v3 nodes
and shows linear relative speedup for both the Segment View and the Data
Point View — possible because every group is pinned to one worker, so
queries never shuffle.

The reproduction has two substrates:

* the deterministic simulation (default figure): workers execute
  sequentially and the report models parallel wall time as the slowest
  worker plus the master's merge, from which the relative increase over
  one node is computed — the shape is hardware-independent;
* the process-parallel cluster (``test_fig20_scaleout_measured``, slow
  tier): one OS process per worker, measured wall clock. Real speedup
  is bounded by the host's core count, so the measured test asserts
  result correctness across node counts and only checks speedup when
  the machine actually has spare cores.

The data set is duplicated with random scaling until there are enough
groups for 32 workers, like the paper duplicates EP per node.
"""

import os

import numpy as np
import pytest

from repro.core import Configuration, TimeSeries
from repro.datasets import generate_ep
from repro.datasets.ep import EP_CORRELATION
from repro.query.sql import parse
from repro.shard import InProcessFleet, ShardedCluster

from .conftest import format_table

NODE_COUNTS = (1, 2, 4, 8, 16, 32)

#: Node counts for the measured (process-parallel) variant — capped so
#: the slow tier does not fork 32 interpreters per view.
MEASURED_NODE_COUNTS = (1, 2, 4, 8)


def build_big_ep():
    """EP duplicated to 64 entities so 32 workers all get groups."""
    ep = generate_ep(
        n_entities=64, measures_per_entity=2, n_points=1_000,
        include_temperature=False, gap_probability=0.0, seed=20,
    )
    # Multiply each entity's values by a random constant so duplicated
    # data does not skew compression (the paper does the same).
    rng = np.random.default_rng(21)
    series = []
    for ts in ep.series:
        factor = float(rng.uniform(0.001, 1.001))
        values = [
            None if p.value is None else p.value * factor for p in ts
        ]
        series.append(
            TimeSeries(
                ts.tid, ts.sampling_interval, list(ts.timestamps), values,
                name=ts.name,
            )
        )
    return series, ep.dimensions


def run_scaleout(view: str) -> dict[int, float]:
    series, dimensions = build_big_ep()
    config = Configuration(error_bound=5.0, correlation=EP_CORRELATION)
    sql = (
        "SELECT SUM_S(*) FROM Segment"
        if view == "segment"
        else "SELECT SUM(*) FROM DataPoint"
    )
    query = parse(sql)
    makespans = {}
    for nodes in NODE_COUNTS:
        with ShardedCluster(
            nodes, config, dimensions, fleet_type=InProcessFleet
        ) as cluster:
            cluster.ingest(series)
            # Warm up decode caches, then take the best of three runs to
            # keep scheduler noise out of the modelled makespan.
            cluster.execute(query)
            samples = []
            for _ in range(3):
                _, cluster_report = cluster.execute(query)
                samples.append(cluster_report.makespan)
        makespans[nodes] = min(samples)
    return makespans


@pytest.mark.parametrize("view", ["segment", "datapoint"])
def test_fig20_scaleout(benchmark, report, view):
    makespans = benchmark.pedantic(
        lambda: run_scaleout(view), rounds=1, iterations=1
    )
    base = makespans[1]
    rows = [
        [nodes, f"{base / makespans[nodes]:.2f}x", f"{nodes}x"]
        for nodes in NODE_COUNTS
    ]
    label = "Segment View" if view == "segment" else "Data Point View"
    report(
        f"Figure 20 scale-out, L-AGG ({label})",
        format_table(["Nodes", "Relative increase", "Ideal"], rows)
        + ["Paper shape: close to linear until 32 nodes for both views."],
    )
    # Speedup must grow substantially with the node count (the modelled
    # makespan excludes real network effects, so near-linear is expected;
    # per-worker constant overhead keeps it below ideal).
    assert base / makespans[8] > 2.5
    assert base / makespans[32] > base / makespans[2]


def run_scaleout_measured(view: str):
    """Measured wall clock per node count, plus the rows per count."""
    series, dimensions = build_big_ep()
    config = Configuration(error_bound=5.0, correlation=EP_CORRELATION)
    sql = (
        "SELECT SUM_S(*) FROM Segment"
        if view == "segment"
        else "SELECT SUM(*) FROM DataPoint"
    )
    makespans = {}
    results = {}
    for nodes in MEASURED_NODE_COUNTS:
        with ShardedCluster(nodes, config, dimensions) as cluster:
            cluster.ingest(series)
            cluster.sql(sql)  # warm up worker decode caches
            samples = []
            for _ in range(3):
                rows, cluster_report = cluster.sql(sql)
                samples.append(cluster_report.wall_seconds)
            makespans[nodes] = min(samples)
            results[nodes] = rows
    return makespans, results


@pytest.mark.slow
@pytest.mark.parametrize("view", ["segment", "datapoint"])
def test_fig20_scaleout_measured(benchmark, report, view):
    makespans, results = benchmark.pedantic(
        lambda: run_scaleout_measured(view), rounds=1, iterations=1
    )
    base = makespans[1]
    rows = [
        [nodes, f"{makespans[nodes] * 1e3:.1f}",
         f"{base / makespans[nodes]:.2f}x"]
        for nodes in MEASURED_NODE_COUNTS
    ]
    label = "Segment View" if view == "segment" else "Data Point View"
    report(
        f"Figure 20 scale-out measured, L-AGG ({label})",
        format_table(["Workers", "Wall ms", "Relative increase"], rows)
        + [f"Host cores: {os.cpu_count()} (speedup is core-bound)."],
    )
    # Correctness first: every cluster size must agree on the answer.
    for nodes in MEASURED_NODE_COUNTS[1:]:
        assert len(results[nodes]) == len(results[1])
        for got, expected in zip(results[nodes], results[1]):
            assert set(got) == set(expected)
            for column, value in expected.items():
                assert got[column] == pytest.approx(value, rel=1e-9)
    assert all(span > 0.0 for span in makespans.values())
    # Speedup claims only make sense with real parallel hardware.
    if (os.cpu_count() or 1) >= 4:
        assert base / makespans[4] > 1.3
