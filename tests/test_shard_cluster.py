"""Sharded serving tier end to end: fleets, crashes, rebalancing (slow).

The acceptance scenarios for the sharded tier, all on real worker
processes (``pytest -m slow``):

* a 4-worker / 2-replica fleet answers exactly like a no-fault sharded
  run *and* like the sequential engine (exact for order-free
  aggregates, ``approx`` for SUM/AVG whose float fold order differs);
* a worker crash mid-scatter is survived without losing a single
  query: the replica answers, the dead worker is retired (generation
  bump), and the merged rows are bit-identical to the no-crash run;
* a worker crash while data ships (``ingest`` or ``load_storage``) is
  failed over before the call returns;
* under skewed load the rebalancer moves the hot shard to the coldest
  worker, bumps the generation, and answers stay correct;
* the same guarantees hold through the full serving stack — a
  :class:`QueryServer` over a :class:`ShardedDispatcher` with
  concurrent clients reports zero errors while a worker dies mid-run.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Configuration, ModelarDB, TimeSeries
from repro.core.errors import IngestionError
from repro.datasets import generate_ep
from repro.datasets.ep import EP_CORRELATION
from repro.obs import get_registry
from repro.server import QueryServer, ServerClient, ServerThread
from repro.shard import (
    FaultPlan,
    InProcessFleet,
    ShardedCluster,
    ShardedDispatcher,
)

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
        n_entities=6, measures_per_entity=3, n_points=600,
        gap_probability=0.001, seed=11,
    )


@pytest.fixture(scope="module")
def ep_config():
    return Configuration(error_bound=1.0, correlation=list(EP_CORRELATION))


@pytest.fixture(scope="module")
def reference(ep, ep_config):
    db = ModelarDB(ep_config, dimensions=ep.dimensions)
    db.ingest(ep.series)
    return db


@pytest.fixture(scope="module")
def baseline(ep, ep_config):
    """Rows from a no-fault sharded run: the bit-identity reference for
    every same-substrate comparison (identical fold structure)."""
    with ShardedCluster(
        4, n_replicas=2, config=ep_config, dimensions=ep.dimensions
    ) as tier:
        tier.ingest(ep.series)
        return {sql: tier.sql(sql)[0] for sql in STATEMENTS}


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


@pytest.mark.slow
class TestShardedEndToEnd:
    def test_four_workers_two_replicas_match_references(
        self, ep, ep_config, reference, baseline
    ):
        with ShardedCluster(
            4, n_replicas=2, config=ep_config, dimensions=ep.dimensions
        ) as tier:
            tier.ingest(ep.series)
            assert len(tier.live_worker_ids) == 4
            for sql in STATEMENTS:
                rows, report = tier.sql(sql)
                assert rows == baseline[sql]  # same substrate: exact
                assert_rows_close(rows, reference.sql(sql))
                assert report.retries == 0
                assert report.recovered_shards == []
                assert report.subqueries >= 1

    def test_load_storage_fleet_matches_source(
        self, ep, ep_config, reference
    ):
        """Sharding an existing store answers like the store itself."""
        with ShardedCluster(
            4, n_replicas=2, config=ep_config, dimensions=ep.dimensions
        ) as tier:
            placement = tier.load_storage(reference.storage)
            assert placement["segments"] == (
                reference.storage.segment_count()
            )
            for sql in STATEMENTS:
                rows, _ = tier.sql(sql)
                assert rows == reference.sql(sql)  # same store: exact

    def test_tid_routed_query_prunes_shards(self, ep, ep_config):
        with ShardedCluster(
            4, n_replicas=2, config=ep_config, dimensions=ep.dimensions
        ) as tier:
            tier.ingest(ep.series)
            full_plan = tier.sql(STATEMENTS[0])[1].subqueries
            victim = min(tier.tids)
            shard = next(
                s for s, tids in tier._shard_tids.items()
                if victim in tids
            )
            sql = f"SELECT COUNT(*) FROM DataPoint WHERE Tid = {victim}"
            rows, report = tier.sql(sql)
            assert report.subqueries == 1 < full_plan
            assert report.shard_seconds.keys() == {shard}
            assert rows[0]["COUNT(*)"] > 0


def test_second_time_slice_of_placed_tids_is_refused():
    """Workers accept a Gid once, so a later slice of placed Tids would
    be dropped; the tier refuses it before shipping anything."""

    def time_slice(first):
        return [
            TimeSeries(
                tid, 100, np.arange(first, first + 200) * 100,
                np.float32(np.arange(200) + tid),
            )
            for tid in (1, 2, 3, 4)
        ]

    sql = "SELECT Tid, COUNT_S(*) FROM Segment GROUP BY Tid"
    with ShardedCluster(2, fleet_type=InProcessFleet) as tier:
        tier.ingest(time_slice(0))
        with pytest.raises(IngestionError, match="already placed"):
            tier.ingest(time_slice(200))
        rows, _ = tier.sql(sql)
        assert [row["COUNT_S(*)"] for row in rows] == [200] * 4
        assert sorted(tier.assignment()[0] + tier.assignment()[1]) == [
            1, 2, 3, 4,
        ]


@pytest.mark.slow
class TestCrashFailover:
    def test_crash_mid_scatter_loses_no_queries(
        self, ep, ep_config, reference, baseline
    ):
        """Worker 1 dies on its second execute; every query still
        answers, bit-identical to the no-crash sharded run."""
        plan = FaultPlan.crash_after(1, after=1, method="execute")
        replayed = get_registry().counter("shard.failover_retries_total")
        replayed_before = replayed.value
        with ShardedCluster(
            4, n_replicas=2, config=ep_config, dimensions=ep.dimensions,
            fault_plan=plan, timeout=3.0,
        ) as tier:
            tier.ingest(ep.series)
            generation = tier.generation
            reports = []
            for sql in STATEMENTS:
                rows, report = tier.sql(sql)
                reports.append(report)
                assert rows == baseline[sql]  # bit-identical
            # COUNT is order-free: exact against the unsharded engine.
            count_rows, _ = tier.sql(STATEMENTS[0])
            assert count_rows == reference.sql(STATEMENTS[0])
            assert tier.lost_workers == 1
            assert 1 not in tier.live_worker_ids
            assert tier.generation > generation
            retries = sum(r.retries for r in reports)
            assert retries >= 1
            # Later queries ride on the survivors without further drama.
            rows, report = tier.sql(STATEMENTS[2])
            assert rows == baseline[STATEMENTS[2]]
            assert report.retries == 0
            # stats() and the metric report the same replays.
            assert tier.stats()["failover_retries"] == retries
            assert replayed.value - replayed_before == retries

    @pytest.mark.parametrize(
        "path, method",
        [("ingest", "ingest"), ("load_storage", "load_segments")],
    )
    def test_crash_while_shipping_is_failed_over(
        self, ep, ep_config, reference, baseline, path, method
    ):
        """Worker 1 dies receiving data; the call still finishes, the
        worker is retired, and the tier answers like a fault-free one."""
        plan = FaultPlan.crash(1, method=method)
        with ShardedCluster(
            3, n_replicas=2, config=ep_config, dimensions=ep.dimensions,
            fault_plan=plan, timeout=3.0,
        ) as tier:
            if path == "ingest":
                tier.ingest(ep.series)
            else:
                tier.load_storage(reference.storage)
            assert tier.lost_workers == 1
            assert 1 not in tier.live_worker_ids
            assert all(map(tier.map.owners_of, range(tier.map.n_shards)))
            for sql in STATEMENTS[:2]:  # COUNT, MIN/MAX: order-free
                rows, report = tier.sql(sql)
                assert rows == baseline[sql] == reference.sql(sql)
                assert report.retries == 0

    def test_single_replica_shard_is_recovered_by_reshipping(
        self, ep, ep_config, baseline
    ):
        """With n_replicas=1 a crash orphans whole shards; the tier
        re-ships their retained payloads to survivors and answers."""
        plan = FaultPlan.crash_after(1, after=0, method="execute")
        with ShardedCluster(
            4, n_replicas=1, config=ep_config, dimensions=ep.dimensions,
            fault_plan=plan, timeout=3.0,
        ) as tier:
            tier.ingest(ep.series)
            # Least-loaded placement populates every shard, so worker 1
            # always holds one for the crash to orphan.
            assert sorted(tier._shard_tids) == [0, 1, 2, 3]
            rows, report = tier.sql(STATEMENTS[0])
            assert rows == baseline[STATEMENTS[0]]
            assert tier.lost_workers == 1
            assert report.recovered_shards == [1]
            assert all(map(tier.map.owners_of, range(tier.map.n_shards)))
            for sql in STATEMENTS[1:]:
                assert tier.sql(sql)[0] == baseline[sql]


@pytest.mark.slow
class TestRebalance:
    def test_hot_shard_moves_to_coldest_worker(
        self, ep, ep_config, baseline
    ):
        with ShardedCluster(
            4, n_replicas=2, config=ep_config, dimensions=ep.dimensions
        ) as tier:
            tier.ingest(ep.series)
            shards = sorted(tier._shard_tids)
            hot, cold = shards[0], shards[1]
            hot_tids = sorted(tier._shard_tids[hot])
            cold_tids = sorted(tier._shard_tids[cold])
            hot_sql = (
                "SELECT SUM(Value) FROM DataPoint WHERE Tid IN "
                f"({', '.join(map(str, hot_tids))})"
            )
            cold_sql = (
                "SELECT SUM(Value) FROM DataPoint WHERE Tid IN "
                f"({', '.join(map(str, cold_tids))})"
            )
            tier.sql(cold_sql)
            for _ in range(8):
                tier.sql(hot_sql)
            # Wall-clock noise (first-touch cache warmup dwarfs these
            # sub-millisecond scans) must not decide the assertion: top
            # the measured window up with a decisive synthetic spike on
            # the hot shard's primary.
            tier._note_busy(hot, tier.map.owners_of(hot)[0], 5.0)
            generation = tier.generation
            old_owners = tier.map.owners_of(hot)
            moves = tier.rebalance(threshold=1.2)
            assert moves and moves[0][0] == hot
            new_owners = tier.map.owners_of(hot)
            assert new_owners != old_owners
            assert new_owners[0] == moves[0][2]
            assert new_owners[0] not in old_owners
            assert tier.generation > generation
            assert tier.rebalances == len(moves)
            # The moved shard answers identically from its new primary.
            for sql in STATEMENTS:
                assert tier.sql(sql)[0] == baseline[sql]

    def test_balanced_load_does_not_move(self, ep, ep_config):
        with ShardedCluster(
            4, n_replicas=2, config=ep_config, dimensions=ep.dimensions
        ) as tier:
            tier.ingest(ep.series)
            for _ in range(3):
                tier.sql(STATEMENTS[0])  # every shard works equally
            assert tier.rebalance(threshold=3.0) == []
            assert tier.generation == 0

    def test_auto_rebalance_hook_runs_on_interval(
        self, ep, ep_config, baseline
    ):
        with ShardedCluster(
            4, n_replicas=2, config=ep_config, dimensions=ep.dimensions,
            auto_rebalance_interval=2,
        ) as tier:
            tier.ingest(ep.series)
            tier.sql(STATEMENTS[0])
            assert tier.queries == 1
            # Off the interval: always a no-op, regardless of skew.
            assert tier.maybe_rebalance() == []
            assert tier.generation == 0
            tier.sql(STATEMENTS[1])
            # On the interval the window is *evaluated*; whether two
            # warmup-noisy samples cross the hot threshold is not
            # deterministic, so assert the bookkeeping, not the verdict.
            moves = tier.maybe_rebalance()
            assert tier.rebalances == len(moves)
            assert tier.generation == len(moves)
            # Either way every statement still answers bit-identically.
            for sql in STATEMENTS:
                assert tier.sql(sql)[0] == baseline[sql]

    def test_target_dying_mid_move_is_retired_not_raised(self):
        """The move's target crashes on its first ``assign``: the
        rebalance makes no move and raises nothing (under ``serve`` it
        runs after a statement was answered), and the dead worker is
        retired like one lost mid-query."""
        series = [
            TimeSeries(
                tid, 100, np.arange(200) * 100,
                np.float32(np.arange(200) + tid),
            )
            for tid in (1, 2)
        ]
        plan = FaultPlan.crash(2, method="assign")
        sql = "SELECT Tid, COUNT(*) FROM DataPoint GROUP BY Tid"
        with ShardedCluster(3, fault_plan=plan, timeout=3.0) as tier:
            tier.ingest(series)  # two groups: shard 2 stays empty
            expected, _ = tier.sql(sql)
            tier.sql("SELECT COUNT(*) FROM DataPoint WHERE Tid = 1")
            for _ in range(20):
                tier.sql("SELECT COUNT(*) FROM DataPoint WHERE Tid = 2")
            hot = next(s for s, t in tier._shard_tids.items() if 2 in t)
            tier._note_busy(hot, tier.map.owners_of(hot)[0], 5.0)
            assert tier.rebalance(threshold=1.01) == []
            assert tier.live_worker_ids == [0, 1]
            assert tier.lost_workers == 1
            assert tier.rebalances == 0
            assert all(map(tier.map.owners_of, sorted(tier._shard_tids)))
            assert tier.sql(sql)[0] == expected


@pytest.mark.slow
class TestServedSharded:
    def test_concurrent_clients_survive_worker_crash(
        self, ep, ep_config, reference, baseline
    ):
        """The full stack: 8 concurrent clients over a served sharded
        tier, worker 2 dying mid-run — zero client-visible errors."""
        plan = FaultPlan.crash_after(2, after=2, method="execute")
        n_clients, turns = 8, 6
        with ShardedCluster(
            4, n_replicas=2, config=ep_config, dimensions=ep.dimensions,
            fault_plan=plan, timeout=3.0,
        ) as tier:
            tier.ingest(ep.series)
            dispatcher = ShardedDispatcher(
                tier, result_cache_capacity=0
            )
            thread = ServerThread(QueryServer(dispatcher))
            host, port = thread.start()
            failures: list[str] = []

            def client_run(client_id: int) -> None:
                try:
                    with ServerClient(host, port) as client:
                        for turn in range(turns):
                            sql = STATEMENTS[
                                (client_id + turn) % len(STATEMENTS)
                            ]
                            rows = client.query(sql, timeout=30.0)
                            if rows != baseline[sql]:
                                failures.append(
                                    f"client {client_id}: {sql!r} diverged"
                                )
                except Exception as error:  # noqa: BLE001 - collected
                    failures.append(f"client {client_id}: {error!r}")

            try:
                threads = [
                    threading.Thread(
                        target=client_run, args=(i,), daemon=True
                    )
                    for i in range(n_clients)
                ]
                for worker in threads:
                    worker.start()
                for worker in threads:
                    worker.join(timeout=120)
            finally:
                thread.stop()
            assert failures == []
            assert tier.lost_workers == 1
            assert 2 not in tier.live_worker_ids
