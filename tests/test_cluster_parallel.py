"""The process-parallel cluster: real workers, faults, and failover.

Tier 1 keeps one small multi-process smoke test so the RPC substrate is
always exercised; the end-to-end and fault-injection scenarios live in
the ``slow`` tier (``pytest -m slow``).

Equality expectations: the process cluster and the simulated one are
one master, :class:`ShardedCluster`, over two transports (same
assignment, same merge order), so their rows must be bit-identical
(``==``). Against the
*sequential* single-engine reference, order-independent aggregates
(COUNT/MIN/MAX) must be exact while SUM/AVG may differ by float
addition order, hence ``pytest.approx``.
"""

from functools import partial

import numpy as np
import pytest

from repro import Configuration, ModelarDB, TimeSeries
from repro.core.errors import ClusterError
from repro.datasets import generate_ep
from repro.datasets.ep import EP_CORRELATION
from repro.shard import FaultPlan, InProcessFleet, ShardedCluster, WorkerFleet

#: The simulator: the one master over workers called in this process.
Simulator = partial(ShardedCluster, fleet_type=InProcessFleet)

STATEMENTS = (
    "SELECT COUNT(*) FROM DataPoint",
    "SELECT MIN(Value), MAX(Value) FROM DataPoint",
    "SELECT SUM(Value), AVG(Value) FROM DataPoint",
    "SELECT Entity, SUM(Value) FROM DataPoint GROUP BY Entity",
)

#: Aggregates whose value is independent of the partial-merge order.
ORDER_FREE = ("COUNT", "MIN", "MAX")


@pytest.fixture(scope="module")
def ep():
    return generate_ep(
        n_entities=6, measures_per_entity=3, n_points=800,
        gap_probability=0.001, seed=11,
    )


@pytest.fixture(scope="module")
def ep_config():
    return Configuration(error_bound=1.0, correlation=list(EP_CORRELATION))


def make_cluster(n_workers, ep, ep_config, **kwargs):
    return ShardedCluster(n_workers, ep_config, ep.dimensions, **kwargs)


def assert_rows_close(rows, expected_rows):
    """Exact for order-independent aggregates, approx for SUM/AVG."""
    assert len(rows) == len(expected_rows)
    for got, expected in zip(rows, expected_rows):
        assert set(got) == set(expected)
        for column, value in expected.items():
            if isinstance(value, float) and not any(
                column.upper().startswith(name) for name in ORDER_FREE
            ):
                assert got[column] == pytest.approx(value, rel=1e-9)
            else:
                assert got[column] == value


def test_smoke_two_processes_match_simulated(ep_config):
    """Tier-1: a 2-process cluster is bit-identical to the simulation."""
    ep = generate_ep(
        n_entities=2, measures_per_entity=2, n_points=200,
        gap_probability=0.0, seed=3,
    )
    simulated = Simulator(2, ep_config, ep.dimensions)
    simulated_report = simulated.ingest(ep.series)
    with ShardedCluster(2, ep_config, ep.dimensions) as cluster:
        report = cluster.ingest(ep.series)
        assert report.data_points == simulated_report.data_points
        assert report.wall_seconds > 0.0
        for sql in STATEMENTS[:2]:
            rows, _ = cluster.sql(sql)
            expected, _ = simulated.sql(sql)
            assert rows == expected


@pytest.fixture(scope="module")
def three_ways():
    """One data set behind the embedded engine and the cluster over
    both transports (3 workers each, so every scatter really merges)."""
    rng = np.random.default_rng(7)
    series = [
        TimeSeries(
            tid, 100, np.arange(200) * 100,
            np.float32(20 + tid + np.cumsum(rng.normal(0, 0.25, 200))),
        )
        for tid in range(1, 6)
    ]
    config = Configuration(error_bound=0.0)
    embedded = ModelarDB(config)
    embedded.ingest(series)
    simulated = Simulator(3, config)
    simulated.ingest(series)
    pattern = ", ".join(
        repr(round(float(value), 3)) for value in series[2].values[60:65]
    )
    with ShardedCluster(3, config) as processes:
        processes.ingest(series)
        yield embedded, (simulated, processes), pattern


@pytest.mark.parametrize(
    "statement",
    [
        "SELECT FORECAST(TS, 4) FROM DataPoint",
        # k=2 < 3 workers x 2: per-worker top-k must be re-cut globally.
        "SELECT * FROM DataPoint SIMILAR TO ({pattern}) LIMIT 2",
        "SELECT COUNT(*), MIN(Value), MAX(Value) FROM DataPoint",
        "SELECT TS, Value FROM DataPoint WHERE Tid = 4 AND TS <= 900",
    ],
)
def test_every_cluster_answers_like_the_embedded_engine(three_ways, statement):
    """One gather/merge: the simulated and the process cluster both
    return exactly the embedded engine's rows, analytics included."""
    embedded, clusters, pattern = three_ways
    sql = statement.format(pattern=pattern)
    expected = embedded.sql(sql)
    assert expected
    for cluster in clusters:
        rows, _ = cluster.sql(sql)
        assert rows == expected, type(cluster.fleet).__name__


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(Simulator, id="InProcessFleet"),
        pytest.param(
            partial(ShardedCluster, fleet_type=WorkerFleet), id="WorkerFleet"
        ),
        # The default construction, as a user writes it.
        pytest.param(ShardedCluster, id="ShardedCluster"),
    ],
)
def test_disjoint_ingests_keep_every_series(make):
    """Gids stay unique across ``ingest()`` calls: the second batch's
    groups are numbered after the first's, so no worker mistakes one
    for a group it already holds (the parent dropped Tids 3 and 4 or
    raised ``WorkerRPCError``)."""
    embedded = ModelarDB(Configuration())
    sql = "SELECT Tid, COUNT(*) FROM DataPoint GROUP BY Tid"
    with make(2) as cluster:
        for tids in ((1, 2), (3, 4)):
            batch = [
                TimeSeries(
                    tid, 100, np.arange(100) * 100,
                    np.float32(np.arange(100) + tid),
                )
                for tid in tids
            ]
            embedded.ingest(batch)
            cluster.ingest(batch)
        rows, _ = cluster.sql(sql)
    assert rows == embedded.sql(sql)
    assert [row["Tid"] for row in rows] == [1, 2, 3, 4]


@pytest.mark.slow
class TestEndToEnd:
    def test_three_processes_bit_identical_to_simulated(self, ep, ep_config):
        """Satellite 1: 3-process EP run == single-process cluster."""
        simulated = Simulator(3, ep_config, ep.dimensions)
        simulated.ingest(ep.series)
        with make_cluster(3, ep, ep_config) as cluster:
            assert cluster.ingest(ep.series).data_points > 0
            # Same deterministic assignment on both substrates.
            assert cluster.assignment() == simulated.assignment()
            for sql in STATEMENTS:
                rows, report = cluster.sql(sql)
                expected, _ = simulated.sql(sql)
                assert rows == expected  # bit-identical
                assert report.wall_seconds > 0.0
                assert report.recovered_shards == []
            assert cluster.segment_count() == simulated.segment_count()
            assert cluster.size_bytes() == simulated.size_bytes()

    def test_four_processes_match_sequential_engine(self, ep, ep_config):
        """Acceptance: 4-worker pool vs the sequential engine."""
        reference = ModelarDB(ep_config, dimensions=ep.dimensions)
        reference.ingest(ep.series)
        with make_cluster(4, ep, ep_config) as cluster:
            cluster.ingest(ep.series)
            assert len(cluster.live_worker_ids) == 4
            for sql in STATEMENTS:
                rows, _ = cluster.sql(sql)
                assert_rows_close(rows, reference.sql(sql))

    def test_stats_merged_across_processes(self, ep, ep_config):
        reference = ModelarDB(ep_config, dimensions=ep.dimensions)
        reference.ingest(ep.series)
        with make_cluster(3, ep, ep_config) as cluster:
            cluster.ingest(ep.series)
            stats = cluster.ingest_stats
            assert stats.data_points == reference.stats.data_points
            assert stats.segments == reference.stats.segments

    def test_per_worker_storage_directories(self, ep, ep_config, tmp_path):
        with make_cluster(
            3, ep, ep_config, storage_root=tmp_path
        ) as cluster:
            cluster.ingest(ep.series)
            segments = cluster.segment_count()
            assert segments > 0
        # Every worker persisted its own FileStorage directory.
        reopened = 0
        for worker_id in range(3):
            directory = tmp_path / f"worker_{worker_id}"
            assert directory.is_dir()
            from repro.storage import FileStorage

            with_store = FileStorage(directory)
            reopened += with_store.segment_count()
        assert reopened == segments


@pytest.mark.slow
class TestFaultInjection:
    def test_crash_mid_query_fails_over(self, ep, ep_config):
        """Satellite 1b: kill a worker mid-query; the master moves its
        shard whole to a survivor and answers bit-identically."""
        simulated = Simulator(3, ep_config, ep.dimensions)
        simulated.ingest(ep.series)
        plan = FaultPlan.crash(1, method="execute")
        with make_cluster(
            3, ep, ep_config, fault_plan=plan, timeout=2.0
        ) as cluster:
            cluster.ingest(ep.series)
            rows, report = cluster.sql(STATEMENTS[3])
            expected, _ = simulated.sql(STATEMENTS[3])
            # The master detected the crash and moved worker 1's shard.
            assert report.recovered_shards == [1]
            assert cluster.lost_workers == 1
            assert 1 not in cluster.live_worker_ids
            assert sorted(cluster.live_worker_ids) == [0, 2]
            # Shard order, hence merge order, is unchanged: exact.
            assert rows == expected
            # COUNT is order-free: must be exact despite the failover.
            count_rows, _ = cluster.sql(STATEMENTS[0])
            count_expected, _ = simulated.sql(STATEMENTS[0])
            assert count_rows == count_expected
            # The survivors answer later queries without further drama.
            rows2, report2 = cluster.sql(STATEMENTS[1])
            expected2, _ = simulated.sql(STATEMENTS[1])
            assert rows2 == expected2
            assert report2.recovered_shards == []

    def test_crash_mid_ingest_fails_over(self, ep, ep_config):
        simulated = Simulator(3, ep_config, ep.dimensions)
        simulated.ingest(ep.series)
        plan = FaultPlan.crash(1, method="ingest")
        with make_cluster(
            3, ep, ep_config, fault_plan=plan, timeout=2.0
        ) as cluster:
            report = cluster.ingest(ep.series)
            assert cluster.lost_workers == 1
            assert 1 not in cluster.live_worker_ids
            assert report.data_points == cluster.ingest_stats.data_points
            for sql in STATEMENTS[:2]:
                rows, _ = cluster.sql(sql)
                expected, _ = simulated.sql(sql)
                assert rows == expected

    def test_slow_worker_is_retried_not_failed_over(self, ep, ep_config):
        """A late reply is ridden out by resends; no failover happens
        and the (idempotent) re-executed call yields exact results."""
        simulated = Simulator(2, ep_config, ep.dimensions)
        simulated.ingest(ep.series)
        plan = FaultPlan.slow(0, delay=0.6, method="execute")
        with make_cluster(
            2, ep, ep_config, fault_plan=plan,
            timeout=0.2, max_retries=3,
        ) as cluster:
            cluster.ingest(ep.series)
            rows, report = cluster.sql(STATEMENTS[0])
            expected, _ = simulated.sql(STATEMENTS[0])
            assert rows == expected
            assert report.recovered_shards == []
            assert sorted(cluster.live_worker_ids) == [0, 1]

    def test_dropped_reply_is_resent(self, ep, ep_config):
        simulated = Simulator(2, ep_config, ep.dimensions)
        simulated.ingest(ep.series)
        plan = FaultPlan.drop(0, method="execute")
        with make_cluster(
            2, ep, ep_config, fault_plan=plan,
            timeout=0.3, max_retries=3,
        ) as cluster:
            cluster.ingest(ep.series)
            rows, report = cluster.sql(STATEMENTS[2])
            expected, _ = simulated.sql(STATEMENTS[2])
            assert rows == expected
            assert report.recovered_shards == []
            assert sorted(cluster.live_worker_ids) == [0, 1]

    def test_no_survivors_raises_cluster_error(self, ep_config):
        ep = generate_ep(
            n_entities=2, measures_per_entity=2, n_points=100,
            gap_probability=0.0, seed=5,
        )
        plan = FaultPlan.crash(0, method="execute")
        with ShardedCluster(
            1, ep_config, ep.dimensions, fault_plan=plan, timeout=1.0
        ) as cluster:
            cluster.ingest(ep.series)
            with pytest.raises(ClusterError):
                cluster.sql(STATEMENTS[0])

    def test_tid_predicate_routed_query_survives_crash(self, ep, ep_config):
        """A Tid-restricted query whose owner dies is re-asked from the
        group's new home (the ``force`` path of the routing rewrite)."""
        simulated = Simulator(3, ep_config, ep.dimensions)
        simulated.ingest(ep.series)
        plan = FaultPlan.crash(1, method="execute")
        with make_cluster(
            3, ep, ep_config, fault_plan=plan, timeout=2.0
        ) as cluster:
            cluster.ingest(ep.series)
            victim_tid = next(
                tid for tid in sorted(cluster.tids)
                if cluster.worker_of(tid) == 1
            )
            sql = (
                "SELECT COUNT(*), SUM(Value) FROM DataPoint "
                f"WHERE Tid = {victim_tid}"
            )
            rows, report = cluster.sql(sql)
            expected, _ = simulated.sql(sql)
            assert report.recovered_shards
            assert rows == expected
            assert cluster.worker_of(victim_tid) in cluster.live_worker_ids
