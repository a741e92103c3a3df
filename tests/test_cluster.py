"""The master/worker cluster, over in-process workers (the simulator)."""

import runpy
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro import Configuration, Dimension, DimensionSet, ModelarDB, TimeSeries
from repro.core.errors import ClusterError, QueryError
from repro.query.sql import parse
from repro.shard import InProcessFleet, ShardedCluster
from repro.shard.routing import restrict_query_to_tids

#: The simulator: the one master over workers called in this process.
Simulator = partial(ShardedCluster, fleet_type=InProcessFleet)


def build_series(n_parks=3, per_park=2, n_points=400, seed=4):
    rng = np.random.default_rng(seed)
    location = Dimension("Location", ["Entity", "Park"])
    dimensions = DimensionSet([location])
    series = []
    tid = 1
    for park in range(n_parks):
        base = 50.0 + 20 * park + np.cumsum(rng.normal(0, 0.1, n_points))
        for entity in range(per_park):
            values = np.float32(base + rng.normal(0, 0.05, n_points))
            series.append(
                TimeSeries(tid, 100, np.arange(n_points) * 100, values)
            )
            location.assign(tid, (f"e{tid}", f"park{park}"))
            tid += 1
    return series, dimensions


@pytest.fixture(scope="module")
def cluster_and_reference():
    series, dimensions = build_series()
    config = Configuration(error_bound=1.0, correlation=["Location 1"])
    cluster = Simulator(3, config, dimensions)
    cluster.ingest(series)
    reference = ModelarDB(config, dimensions=dimensions)
    reference.ingest(series)
    return cluster, reference


class TestAssignment:
    def test_groups_are_never_split_across_workers(self, cluster_and_reference):
        cluster, reference = cluster_and_reference
        holder = {
            gid: worker
            for worker, gids in cluster.assignment().items()
            for gid in gids
        }
        records = reference.storage.time_series()
        assert len({record.gid for record in records}) < len(records)
        for record in records:
            assert cluster.worker_of(record.tid) == holder[record.gid]

    def test_least_loaded_assignment_balances(self):
        series, dimensions = build_series(n_parks=6, per_park=1, n_points=100)
        config = Configuration(correlation=["Location 1"])
        cluster = Simulator(3, config, dimensions)
        cluster.ingest(series)
        loads = {worker: 0 for worker in cluster.assignment()}
        for ts in series:
            loads[cluster.worker_of(ts.tid)] += len(ts)
        assert len(loads) == 3
        assert max(loads.values()) == min(loads.values())  # six over three

    def test_single_worker_cluster(self):
        series, dimensions = build_series(n_parks=1)
        cluster = Simulator(1, Configuration(), dimensions)
        report = cluster.ingest(series)
        assert report.data_points > 0
        assert len(report.worker_seconds) == 1

    def test_zero_workers_rejected(self):
        with pytest.raises(ClusterError):
            Simulator(0)


class TestDistributedQueries:
    def test_full_aggregate_matches_single_node(self, cluster_and_reference):
        cluster, reference = cluster_and_reference
        rows, _ = cluster.sql("SELECT SUM_S(*) FROM Segment")
        expected = reference.sql("SELECT SUM_S(*) FROM Segment")
        assert rows[0]["SUM_S(*)"] == pytest.approx(
            expected[0]["SUM_S(*)"], rel=1e-9
        )

    def test_group_by_tid_matches(self, cluster_and_reference):
        cluster, reference = cluster_and_reference
        sql = "SELECT Tid, AVG_S(*) FROM Segment GROUP BY Tid"
        rows, _ = cluster.sql(sql)
        expected = reference.sql(sql)
        assert sorted(rows, key=lambda r: r["Tid"]) == pytest.approx(
            sorted(expected, key=lambda r: r["Tid"])
        )

    def test_tid_routing_prunes_workers(self, cluster_and_reference):
        cluster, _ = cluster_and_reference
        rows, report = cluster.sql(
            "SELECT COUNT_S(*) FROM Segment WHERE Tid = 1"
        )
        assert rows[0]["COUNT_S(*)"] == 400
        # Only the worker owning Tid 1 participated.
        assert report.subqueries == 1
        assert list(report.shard_seconds) == [cluster.worker_of(1)]

    @pytest.mark.parametrize(
        "where", ["Tid = 'abc'", "Tid IN (1, 'x')", "Tid > 1"]
    )
    def test_malformed_tid_predicate_is_a_query_error(
        self, cluster_and_reference, where
    ):
        """The router reads Tid predicates with the engine's parser, so
        bad input is a QueryError (served: ``query``), not ValueError."""
        cluster, reference = cluster_and_reference
        sql = f"SELECT COUNT(*) FROM DataPoint WHERE {where}"
        with pytest.raises(QueryError) as routed:
            cluster.sql(sql)
        with pytest.raises(QueryError) as embedded:
            reference.sql(sql)
        assert str(routed.value) == str(embedded.value)
        with pytest.raises(QueryError):
            restrict_query_to_tids(parse(sql), {1, 2})

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT_S(*) FROM Segment WHERE Tid = 9999",
            "SELECT COUNT_S(*) FROM Segment WHERE Tid IN (1, 9999)",
            "SELECT COUNT_S(*), SUM_S(*) FROM Segment "
            "WHERE Tid IN (1, 2) AND Tid = 3",
            "SELECT COUNT(*) FROM DataPoint WHERE Tid = 1 AND Tid = 2",
            "SELECT * FROM Segment WHERE Tid = 9999 LIMIT 3",
            "SELECT FORECAST(TS, 3) FROM Segment WHERE Tid = 9999",
            "SELECT COUNT_S(*) FROM Segment WHERE Nope = 'x'",
            "SELECT COUNT_S(*), CUBE_SUM_HOUR(*) FROM Segment "
            "WHERE Park = 'nowhere'",
            "SELECT Park, COUNT_S(*) FROM Segment "
            "WHERE Tid = 1 AND Tid = 2 GROUP BY Park",
            "SELECT COUNT_S(*) FROM Segment "
            "WHERE Tid = 1 AND Tid = 2 GROUP BY Nope",
        ],
    )
    def test_cluster_answers_like_the_engine(self, cluster_and_reference, sql):
        """The master plans with the engine: a statement the embedded
        engine rejects fails with its error, and one that selects no
        shard's series answers as the engine does over no rows."""
        cluster, reference = cluster_and_reference
        try:
            expected = reference.sql(sql)
        except QueryError as error:
            with pytest.raises(QueryError) as routed:
                cluster.sql(sql)
            assert type(routed.value) is type(error)
            assert str(routed.value) == str(error)
        else:
            assert cluster.sql(sql)[0] == expected

    def test_member_predicate_across_workers(self, cluster_and_reference):
        cluster, reference = cluster_and_reference
        sql = "SELECT SUM_S(*) FROM Segment WHERE Park = 'park1'"
        rows, _ = cluster.sql(sql)
        expected = reference.sql(sql)
        assert rows[0]["SUM_S(*)"] == pytest.approx(
            expected[0]["SUM_S(*)"], rel=1e-9
        )

    def test_cube_rollup_merges(self, cluster_and_reference):
        cluster, reference = cluster_and_reference
        sql = "SELECT CUBE_SUM_MINUTE(*) FROM Segment WHERE Tid IN (1, 3, 5)"
        rows, _ = cluster.sql(sql)
        expected = reference.sql(sql)
        assert len(rows) == len(expected)
        for mine, ref in zip(rows, expected):
            assert mine["CUBE_SUM_MINUTE(*)"] == pytest.approx(
                ref["CUBE_SUM_MINUTE(*)"], rel=1e-9
            )

    def test_point_selection_concatenates(self, cluster_and_reference):
        cluster, reference = cluster_and_reference
        sql = "SELECT TS, Value FROM DataPoint WHERE Tid = 2 AND TS <= 1000"
        rows, _ = cluster.sql(sql)
        expected = reference.sql(sql)
        assert rows == pytest.approx(expected)

    def test_data_point_view_aggregate_matches(self, cluster_and_reference):
        cluster, reference = cluster_and_reference
        sql = "SELECT SUM(*) FROM DataPoint WHERE Tid IN (1, 2, 3)"
        rows, _ = cluster.sql(sql)
        expected = reference.sql(sql)
        assert rows[0]["SUM(*)"] == pytest.approx(
            expected[0]["SUM(*)"], rel=1e-9
        )


class TestReports:
    def test_ingest_report_metrics(self, cluster_and_reference):
        cluster, _ = cluster_and_reference
        # Build a fresh cluster to get a fresh report.
        series, dimensions = build_series(n_parks=2, n_points=200)
        fresh = Simulator(
            2, Configuration(correlation=["Location 1"]), dimensions
        )
        report = fresh.ingest(series)
        assert report.makespan > 0
        assert report.total_work >= report.makespan
        assert report.throughput > 0

    def test_query_report_makespan(self, cluster_and_reference):
        cluster, _ = cluster_and_reference
        _, report = cluster.sql("SELECT SUM_S(*) FROM Segment")
        assert report.subqueries == len(report.shard_seconds) == 3
        assert report.makespan >= max(report.shard_seconds.values())
        assert report.total_work >= report.makespan

    def test_cluster_size_accounting(self, cluster_and_reference):
        cluster, reference = cluster_and_reference
        assert cluster.size_bytes() == reference.size_bytes()
        assert cluster.segment_count() == reference.segment_count()


def test_distributed_cluster_example_runs(capsys):
    """The example drives only the public API; running it keeps it so."""
    example = Path(__file__).parents[1] / "examples" / "distributed_cluster.py"
    runpy.run_path(str(example))["main"]()
    out = capsys.readouterr().out
    assert "cluster of 4 workers" in out
    assert "routed to 1 worker(s)" in out
