"""The sharded serving tier (tier 1).

Fast coverage of the pieces that do not need a full fleet: the shard
map's ownership/generation contract, least-loaded placement over
in-process workers on both data paths, the idempotent
``SegmentBatch`` payload, mid-run (``after``) fault arming, the
client's transport retry surface, and one small 2-process smoke of the
scatter-gather path (ingest and load paths, dispatcher caching, cache
invalidation on a real worker loss). The end-to-end crash/rebalance
scenarios live in ``tests/test_shard_cluster.py`` (``pytest -m slow``).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import Configuration, ModelarDB, TimeSeries
from repro.cluster import InProcessFleet, ModelarCluster
from repro.cluster.faults import Fault, FaultPlan, FaultPlanError
from repro.core.errors import ClusterError
from repro.server import ConnectionLostError, ServerClient
from repro.server.protocol import ERROR_STATUS, ErrorCode
from repro.shard import SegmentBatch, ShardedCluster, ShardedDispatcher, ShardMap
from repro.storage import SegmentScan


def make_series(n_series: int = 4, n_points: int = 200) -> list[TimeSeries]:
    rng = np.random.default_rng(7)
    series = []
    for tid in range(1, n_series + 1):
        values = np.float32(
            20 + tid + np.cumsum(rng.normal(0, 0.25, n_points))
        )
        series.append(
            TimeSeries(tid, 100, np.arange(n_points) * 100, values)
        )
    return series


# ----------------------------------------------------------------------
# The shard map
# ----------------------------------------------------------------------
class TestShardMap:
    def test_initial_owners_stagger_replicas(self):
        shard_map = ShardMap(n_shards=4, n_workers=4, n_replicas=2)
        assert shard_map.owners_of(0) == (0, 1)
        assert shard_map.owners_of(3) == (3, 0)
        primaries = [shard_map.owners_of(s)[0] for s in range(4)]
        assert sorted(primaries) == [0, 1, 2, 3]

    def test_replicas_capped_at_worker_count(self):
        shard_map = ShardMap(n_shards=2, n_workers=2, n_replicas=5)
        assert shard_map.n_replicas == 2

    def test_set_owners_bumps_generation_and_validates(self):
        shard_map = ShardMap(n_shards=2, n_workers=3, n_replicas=1)
        assert shard_map.generation == 0
        shard_map.set_owners(0, (2,))
        assert shard_map.generation == 1
        assert shard_map.owners_of(0) == (2,)
        with pytest.raises(ClusterError):
            shard_map.set_owners(0, ())
        with pytest.raises(ClusterError):
            shard_map.set_owners(0, (1, 1))
        with pytest.raises(ClusterError):
            shard_map.set_owners(9, (1,))
        with pytest.raises(ClusterError):
            shard_map.owners_of(9)
        assert shard_map.generation == 1  # rejected mutations don't bump

    def test_retire_worker_single_bump_and_orphans(self):
        shard_map = ShardMap(n_shards=4, n_workers=2, n_replicas=1)
        affected = shard_map.retire_worker(0)
        assert affected == [s for s in range(4) if s % 2 == 0]
        assert shard_map.generation == 1  # one bump for the whole sweep
        assert shard_map.orphaned_shards() == affected
        assert shard_map.retire_worker(0) == []  # already gone: no bump
        assert shard_map.generation == 1

    def test_invalid_construction(self):
        with pytest.raises(ClusterError):
            ShardMap(n_shards=0, n_workers=1)
        with pytest.raises(ClusterError):
            ShardMap(n_shards=1, n_workers=0)
        with pytest.raises(ClusterError):
            ShardMap(n_shards=1, n_workers=1, n_replicas=0)

    def test_pickle_round_trip(self):
        shard_map = ShardMap(n_shards=4, n_workers=3, n_replicas=2)
        shard_map.set_owners(1, (2, 0))
        clone = pickle.loads(pickle.dumps(shard_map))
        assert clone.generation == shard_map.generation
        assert clone.owners_of(1) == (2, 0)


# ----------------------------------------------------------------------
# Placement: one least-loaded rule on both data paths
# ----------------------------------------------------------------------
class InProcessTier(ShardedCluster):
    """The tier with its defaults, over workers called in this process."""

    fleet_type = InProcessFleet


def uneven_series(n_series: int = 7) -> list[TimeSeries]:
    """Series of distinct lengths, so groups weigh differently."""
    return [
        TimeSeries(
            tid, 100, np.arange(50 * tid) * 100,
            np.float32(np.sin(np.arange(50 * tid) / 7.0) + tid),
        )
        for tid in range(1, n_series + 1)
    ]


class TestPlacement:
    CONFIG = Configuration(error_bound=0.0)

    def test_simulator_and_tier_place_alike(self):
        series = uneven_series()
        with ModelarCluster(2, self.CONFIG) as simulated:
            simulated.ingest(series)
            expected = simulated.assignment()
        with InProcessTier(2, config=self.CONFIG) as tier:
            tier.ingest(series)
            assert tier.assignment() == expected

    def test_load_storage_balances_every_shard(self):
        """Stored groups land on every shard, and the heaviest and the
        lightest shard differ by at most one group's data points."""
        source = ModelarDB(self.CONFIG)
        source.ingest(uneven_series())
        gid_of = {
            record.tid: record.gid
            for record in source.storage.time_series()
        }
        weight: dict[int, int] = {}
        for row in source.sql(
            "SELECT Tid, COUNT(*) FROM DataPoint GROUP BY Tid"
        ):
            gid = gid_of[row["Tid"]]
            weight[gid] = weight.get(gid, 0) + row["COUNT(*)"]
        n_shards = 3
        assert len(weight) >= n_shards
        with InProcessTier(n_shards, config=self.CONFIG) as tier:
            tier.load_storage(source.storage)
            loads = [
                sum(weight[gid] for gid in gids)
                for gids in tier.assignment().values()
            ]
        assert len(loads) == n_shards and min(loads) > 0
        assert max(loads) - min(loads) <= max(weight.values())


class TestSegmentBatch:
    def test_pickle_and_tids(self):
        db = ModelarDB(Configuration(error_bound=0.0))
        db.ingest(make_series(n_series=2, n_points=100))
        storage = db.storage
        gid = next(iter(storage.group_metadata()))
        batch = SegmentBatch(
            batch_id=f"gid-{gid}",
            gid=gid,
            time_series=[
                record for record in storage.time_series()
                if record.gid == gid
            ],
            model_table=storage.model_table(),
            segments=list(storage.scan(SegmentScan(gids=(gid,)))),
        )
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.batch_id == batch.batch_id
        assert clone.tids == batch.tids
        assert len(clone.segments) == len(batch.segments)


# ----------------------------------------------------------------------
# Mid-run fault arming
# ----------------------------------------------------------------------
class TestFaultAfter:
    def test_after_lets_requests_through_then_fires(self):
        plan = FaultPlan.crash_after(1, after=2, method="execute")
        assert plan.take(0, "execute") is None  # other worker: untouched
        assert plan.take(1, "ingest") is None   # other method: untouched
        assert plan.take(1, "execute") is None  # pass 1 of 2
        assert plan.take(1, "execute") is None  # pass 2 of 2
        fault = plan.take(1, "execute")
        assert fault is not None and fault.kind == "crash"
        assert plan.take(1, "execute") is None  # spent

    def test_after_zero_is_immediate(self):
        plan = FaultPlan.crash_after(0, after=0)
        assert plan.take(0, "execute") is not None

    def test_negative_after_rejected(self):
        with pytest.raises(FaultPlanError):
            Fault(0, "execute", "crash", after=-1)


# ----------------------------------------------------------------------
# Client transport retry
# ----------------------------------------------------------------------
class TestClientRetry:
    def _serve(self, db):
        from repro.server import EmbeddedDispatcher, QueryServer, ServerThread

        dispatcher = EmbeddedDispatcher.for_db(db)
        thread = ServerThread(QueryServer(dispatcher))
        return thread, thread.start()

    def test_client_redials_after_connection_drop(self):
        db = ModelarDB(Configuration(error_bound=0.0))
        db.ingest(make_series(n_series=2, n_points=100))
        thread, (host, port) = self._serve(db)
        try:
            with ServerClient(host, port) as client:
                first = client.query("SELECT COUNT_S(*) FROM Segment")
                # Sever the transport under the client; the next request
                # must re-dial transparently and answer identically.
                client._drop_connection()
                assert client.query(
                    "SELECT COUNT_S(*) FROM Segment"
                ) == first
        finally:
            thread.stop()

    def test_exhausted_retries_raise_typed_connection_error(self):
        db = ModelarDB(Configuration(error_bound=0.0))
        db.ingest(make_series(n_series=2, n_points=100))
        thread, (host, port) = self._serve(db)
        client = ServerClient(host, port, retries=1, backoff=0.01)
        assert client.ping()
        thread.stop()
        with pytest.raises(ConnectionLostError) as excinfo:
            client.query("SELECT COUNT_S(*) FROM Segment")
        assert excinfo.value.code == ErrorCode.CONNECTION
        assert excinfo.value.status == ERROR_STATUS[ErrorCode.CONNECTION]
        client.close()


# ----------------------------------------------------------------------
# 2-process scatter-gather smoke
# ----------------------------------------------------------------------
class TestShardedSmoke:
    CONFIG = Configuration(error_bound=0.0)
    STATEMENTS = (
        "SELECT COUNT(*) FROM DataPoint",
        "SELECT MIN(Value), MAX(Value) FROM DataPoint",
    )

    def test_ingest_path_matches_embedded_engine(self):
        series = make_series()
        reference = ModelarDB(self.CONFIG)
        reference.ingest(series)
        with ShardedCluster(2, config=self.CONFIG) as tier:
            report = tier.ingest(series)
            assert report.data_points == sum(len(s) for s in series)
            assert tier.tids == {ts.tid for ts in series}
            for sql in self.STATEMENTS:
                rows, report = tier.sql(sql)
                assert rows == reference.sql(sql)  # order-free: exact
                assert report.subqueries >= 1
                assert report.retries == 0

    def test_load_storage_path_matches_source_store(self):
        series = make_series()
        source = ModelarDB(self.CONFIG)
        source.ingest(series)
        with ShardedCluster(2, config=self.CONFIG) as tier:
            placement = tier.load_storage(source.storage)
            assert placement["segments"] == source.storage.segment_count()
            for sql in self.STATEMENTS:
                rows, _ = tier.sql(sql)
                assert rows == source.sql(sql)

    def test_dispatcher_caches_and_invalidates_on_worker_loss(self):
        series = make_series()
        reference = ModelarDB(self.CONFIG)
        reference.ingest(series)
        with ShardedCluster(2, n_replicas=2, config=self.CONFIG) as tier:
            tier.ingest(series)
            dispatcher = ShardedDispatcher(tier)
            sql = self.STATEMENTS[0]
            rows, cached = dispatcher.execute(sql)
            assert list(rows) == reference.sql(sql) and not cached
            rows, cached = dispatcher.execute(sql)
            assert cached
            # A real loss: fence worker 1 out from under the tier. A
            # cached statement would be served without scattering, so
            # run an uncached one — its scatter detects the dead
            # process, retires it (one generation bump), the replica
            # still answers, and the generation listener empties the
            # result cache, evicting the first statement's entry.
            victim = tier.fleet._workers[1].process
            victim.terminate()
            victim.join(timeout=5.0)
            other = self.STATEMENTS[1]
            rows, cached = dispatcher.execute(other)
            assert list(rows) == reference.sql(other) and not cached
            rows, cached = dispatcher.execute(sql)
            assert list(rows) == reference.sql(sql)
            assert not cached  # invalidated by the placement change
            assert tier.lost_workers == 1
            assert tier.live_worker_ids == [0]
            assert tier.generation >= 1
            stats = dispatcher.stats()
            assert stats["mode"] == "sharded"
            assert stats["shard_tier"]["lost_workers"] == 1
            catalog = dispatcher.catalog()
            assert catalog["replicas"] == 2
            assert catalog["generation"] == tier.generation

    def test_analytics_scatter_gather_matches_single_node(self):
        """FORECAST and SIMILAR TO under scatter-gather: per-shard
        analytics rows merged master-side (`merge_analytics_rows`) must
        equal the single-node engine's answer exactly — forecasts
        re-sorted into (Tid, TS) order across disjoint shard Tids, and
        the per-shard top-k lists re-cut to the global top-k under the
        (Distance, Tid, StartTime) total order."""
        series = make_series()
        pattern = ", ".join(
            repr(round(float(value), 3)) for value in series[2].values[60:65]
        )
        statements = (
            "SELECT FORECAST(TS, 8) FROM DataPoint",
            f"SELECT * FROM DataPoint SIMILAR TO ({pattern}) LIMIT 5",
        )
        reference = ModelarDB(self.CONFIG)
        reference.ingest(series)
        with ShardedCluster(2, config=self.CONFIG) as tier:
            tier.ingest(series)
            for sql in statements:
                rows, report = tier.sql(sql)
                assert rows == reference.sql(sql), sql
                assert report.subqueries >= 1
            # Segment selections merge by pass-through, so shard order
            # differs from Tid order; anomaly flags must still agree.
            flags = "SELECT Tid, StartTime FROM Segment WHERE Anomaly = 1"
            rows, _ = tier.sql(flags)
            key = lambda row: (row["Tid"], row["StartTime"])
            assert sorted(rows, key=key) == sorted(
                reference.sql(flags), key=key
            )
