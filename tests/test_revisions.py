"""Segment revisions, the correction path, and AS OF reads (tier 1).

The revision contract, end to end:

* corrections append superseding revisions — latest-known reads see
  them, ``AS OF`` a pre-correction knowledge time reproduces the
  original answer *bit for bit* (row and columnar modes alike);
* a brute-force replay oracle: every knowledge time ever observed
  re-answers exactly as the store answered at that moment;
* latest-known reads equal a fresh store ingested in order;
* FileStorage round-trips revision state (stamps, counter, AS OF
  answers) across close/reopen, and across a kill before any flush
  without re-issuing a knowledge tick;
* the sharded tier and the TCP server answer ``AS OF`` identically to
  the embedded engine.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle

import numpy as np
import pytest

from repro import (
    Configuration,
    ModelarDB,
    SegmentScan,
    TimeSeries,
)
from repro.core.errors import IngestionError, QueryError
from repro.query.sql import apply_as_of, parse
from repro.server import (
    BadRequestError,
    EmbeddedDispatcher,
    QueryServer,
    ServerClient,
    ServerThread,
)
from repro.shard import ShardedCluster
from repro.storage import FileStorage

SI = 100
N_POINTS = 240

#: Query shapes the oracle replays at every knowledge time: point
#: reconstruction, segment aggregates, grouping, and predicates.
STATEMENTS = (
    "SELECT TS, Value FROM DataPoint WHERE Tid = 1",
    "SELECT TS, Value FROM DataPoint WHERE Tid = 2 AND TS >= 2000 AND TS <= 9000",
    "SELECT COUNT(*) FROM DataPoint",
    "SELECT SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment",
    "SELECT Tid, AVG_S(*) FROM Segment GROUP BY Tid",
    "SELECT SUM_S(*) FROM Segment WHERE Tid IN (1, 3)",
)


def series_values(n_series: int = 3, seed: int = 3) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    base = 50 + np.cumsum(rng.normal(0, 0.4, N_POINTS))
    return [
        np.float32(base + rng.normal(0, 0.1, N_POINTS))
        for _ in range(n_series)
    ]


def make_db(storage=None, n_series: int = 3, seed: int = 3) -> ModelarDB:
    db = ModelarDB(Configuration(error_bound=0.0), storage=storage)
    db.ingest(
        [
            TimeSeries(
                tid, SI, np.arange(N_POINTS) * SI, values
            )
            for tid, values in enumerate(series_values(n_series, seed), 1)
        ]
    )
    return db


def snapshot(db: ModelarDB) -> dict[str, list[dict]]:
    return {sql: db.query(sql) for sql in STATEMENTS}


def _correct_then_ingest_more(db: ModelarDB) -> None:
    """A correction, then a second slice of every registered series."""
    db.correct([(1, 700, 999.0)])
    db.ingest(
        [
            TimeSeries(tid, SI, (N_POINTS + np.arange(N_POINTS)) * SI, values)
            for tid, values in enumerate(series_values(seed=4), 1)
        ]
    )


def _write_then_die(path, report) -> None:
    """Child process body: write without flush() or close(), report the
    knowledge time and the rows seen, then die without exit handlers."""
    db = make_db(storage=FileStorage(path))
    _correct_then_ingest_more(db)
    with open(report, "wb") as handle:
        pickle.dump((db.knowledge_time(), snapshot(db)), handle)
    os._exit(0)


def _highest_stamp(db: ModelarDB) -> int:
    return max(
        segment.knowledge_time
        for segment in db.storage.scan(SegmentScan(all_revisions=True))
    )


# ----------------------------------------------------------------------
# The correction path
# ----------------------------------------------------------------------
class TestCorrections:
    def test_latest_reads_see_the_correction(self):
        db = make_db()
        db.correct([(1, 700, 999.0)])
        rows = db.query("SELECT TS, Value FROM DataPoint WHERE Tid = 1")
        by_ts = {row["TS"]: row["Value"] for row in rows}
        assert by_ts[700] == 999.0
        # Neighbouring points are reconstructed unchanged.
        original = {
            ts: float(v)
            for ts, v in zip(
                np.arange(N_POINTS) * SI, series_values()[0]
            )
        }
        assert by_ts[600] == pytest.approx(original[600])
        assert by_ts[800] == pytest.approx(original[800])

    def test_as_of_reproduces_original_bit_for_bit(self):
        db = make_db()
        mark = db.knowledge_time()
        before = snapshot(db)
        db.correct([(1, 700, 999.0), (2, 1200, -5.0)])
        for sql in STATEMENTS:
            assert db.query(sql, as_of=mark) == before[sql]
            # Same bound spelled inside the statement.
            head, _, tail = sql.partition(" FROM ")
            view, _, rest = tail.partition(" ")
            inline = f"{head} FROM {view} AS OF {mark}"
            if rest:
                inline += f" {rest}"
            assert db.query(inline) == before[sql]
            # And in both execution modes.
            assert db.query(sql, as_of=mark, columnar=True) == before[sql]
            assert db.query(sql, as_of=mark, columnar=False) == before[sql]

    def test_correction_stats_and_metrics(self):
        db = make_db()
        stats = db.correct([(1, 700, 999.0), (1, 800, 998.0)])
        assert stats.revisions >= 1
        assert stats.out_of_order_points == 2
        assert db.stats.revisions == stats.revisions

    def test_erasure_creates_a_gap(self):
        db = make_db()
        db.correct([(1, 700, None)])
        rows = db.query("SELECT TS, Value FROM DataPoint WHERE Tid = 1")
        timestamps = {row["TS"] for row in rows}
        assert 700 not in timestamps
        assert 600 in timestamps and 800 in timestamps

    def test_late_data_extends_the_series(self):
        db = make_db()
        last = (N_POINTS - 1) * SI
        db.correct([(1, last + SI, 77.0)])
        rows = db.query("SELECT TS, Value FROM DataPoint WHERE Tid = 1")
        by_ts = {row["TS"]: row["Value"] for row in rows}
        assert by_ts[last + SI] == 77.0

    def test_unknown_tid_rejected(self):
        db = make_db()
        with pytest.raises(IngestionError):
            db.correct([(99, 700, 1.0)])

    def test_off_grid_timestamp_rejected(self):
        db = make_db()
        with pytest.raises(IngestionError):
            db.correct([(1, 733, 1.0)])

    def test_knowledge_time_advances_per_correction(self):
        db = make_db()
        first = db.knowledge_time()
        db.correct([(1, 700, 1.0)])
        second = db.knowledge_time()
        db.correct([(1, 700, 2.0)])
        assert first < second < db.knowledge_time()


# ----------------------------------------------------------------------
# The replay oracle
# ----------------------------------------------------------------------
class TestReplayOracle:
    BATCHES = (
        [(1, 700, 999.0)],
        [(2, 1200, -5.0), (2, 1300, -6.0)],
        [(1, 700, 123.0)],  # correct the correction
        [(3, 0, 0.0), (3, 100, None)],  # head rewrite + erasure
        [(1, (N_POINTS - 1) * SI + SI, 55.0)],  # late arrival
    )

    def test_every_knowledge_time_replays_exactly(self):
        """AS OF k answers exactly as the store answered at k — for
        every k ever observed, across all query shapes."""
        db = make_db()
        history = {db.knowledge_time(): snapshot(db)}
        for batch in self.BATCHES:
            db.correct(batch)
            history[db.knowledge_time()] = snapshot(db)
        for mark, answers in history.items():
            for sql, rows in answers.items():
                assert db.query(sql, as_of=mark) == rows, (mark, sql)
        # The newest knowledge time is the default read.
        assert snapshot(db) == history[db.knowledge_time()]

    def test_latest_equals_a_fresh_store_ingested_in_order(self):
        db = make_db()
        values = series_values()
        corrected = [vals.astype(np.float64).copy() for vals in values]
        for batch in self.BATCHES[:3]:
            db.correct(batch)
            for tid, timestamp, value in batch:
                corrected[tid - 1][timestamp // SI] = value
        fresh = ModelarDB(Configuration(error_bound=0.0))
        fresh.ingest(
            [
                TimeSeries(
                    tid,
                    SI,
                    np.arange(N_POINTS) * SI,
                    np.float32(vals),
                )
                for tid, vals in enumerate(corrected, 1)
            ]
        )
        point_sql = "SELECT Tid, TS, Value FROM DataPoint"
        key = lambda row: (row["Tid"], row["TS"])  # noqa: E731
        revised = sorted(db.query(point_sql), key=key)
        replayed = sorted(fresh.query(point_sql), key=key)
        assert [key(r) for r in revised] == [key(r) for r in replayed]
        for left, right in zip(revised, replayed):
            assert left["Value"] == pytest.approx(right["Value"])
        total = "SELECT SUM_S(*) FROM Segment"
        assert db.query(total)[0]["SUM_S(*)"] == pytest.approx(
            fresh.query(total)[0]["SUM_S(*)"]
        )


# ----------------------------------------------------------------------
# Durability
# ----------------------------------------------------------------------
class TestFileStorePersistence:
    def test_revision_state_round_trips_across_reopen(self, tmp_path):
        path = tmp_path / "db"
        db = make_db(storage=FileStorage(path))
        mark = db.knowledge_time()
        before = snapshot(db)
        db.correct([(1, 700, 999.0)])
        counter = db.knowledge_time()
        after = snapshot(db)
        db.close()

        with ModelarDB.open(path) as reopened:
            assert reopened.knowledge_time() == counter
            assert snapshot(reopened) == after
            for sql in STATEMENTS:
                assert reopened.query(sql, as_of=mark) == before[sql]
            # The recovered counter keeps advancing monotonically.
            reopened.correct([(1, 800, 1.0)])
            assert reopened.knowledge_time() > counter

    def test_kill_between_insert_and_flush_keeps_every_observed_tick(
        self, tmp_path
    ):
        """A process killed after writes but before any flush()/close():
        reopening keeps every row and never re-issues a knowledge tick
        the dead process handed out."""
        path = tmp_path / "db"
        report = tmp_path / "report.pickle"
        # spawn: a forked child could inherit a lock another test's
        # thread holds.
        ctx = mp.get_context("spawn")
        child = ctx.Process(target=_write_then_die, args=(path, report))
        child.start()
        child.join(timeout=120)
        assert child.exitcode == 0
        with open(report, "rb") as handle:
            mark, before = pickle.load(handle)

        memory = make_db()
        _correct_then_ingest_more(memory)
        reopened = ModelarDB(
            Configuration(error_bound=0.0), storage=FileStorage(path)
        )
        assert snapshot(reopened) == snapshot(memory) == before
        assert reopened.storage.segment_count() == memory.storage.segment_count()
        assert reopened.knowledge_time() >= mark
        assert reopened.knowledge_time() >= _highest_stamp(reopened)
        for sql in STATEMENTS:
            assert reopened.query(sql, as_of=mark) == before[sql]
        reopened.correct([(2, 1500, -3.0)])
        assert _highest_stamp(reopened) > mark
        for sql in STATEMENTS:
            assert reopened.query(sql, as_of=mark) == before[sql]
        reopened.close()

    def test_reopen_preserves_revision_history_scan(self, tmp_path):
        path = tmp_path / "db"
        db = make_db(storage=FileStorage(path))
        db.correct([(1, 700, 999.0)])
        history = sorted(
            (s.gid, s.end_time, s.revision, s.knowledge_time)
            for s in db.storage.scan(SegmentScan(all_revisions=True))
        )
        db.close()
        reopened = FileStorage(path)
        assert sorted(
            (s.gid, s.end_time, s.revision, s.knowledge_time)
            for s in reopened.scan(SegmentScan(all_revisions=True))
        ) == history
        assert any(revision for _, _, revision, _ in history)


# ----------------------------------------------------------------------
# The typed read request
# ----------------------------------------------------------------------
class TestSegmentScanAPI:
    def test_all_revisions_bypasses_resolution(self):
        db = make_db()
        db.correct([(1, 700, 999.0)])
        resolved = list(db.storage.scan(SegmentScan()))
        history = list(db.storage.scan(SegmentScan(all_revisions=True)))
        assert len(history) > len(resolved)
        assert all(s.revision == 0 or s.knowledge_time for s in history)

    def test_apply_as_of_agreement_and_conflict(self):
        query = parse("SELECT SUM_S(*) FROM Segment AS OF 3")
        assert apply_as_of(query, None).as_of == 3
        assert apply_as_of(query, 3).as_of == 3
        with pytest.raises(QueryError, match="conflicting"):
            apply_as_of(query, 4)
        with pytest.raises(QueryError, match="non-negative"):
            apply_as_of(parse("SELECT SUM_S(*) FROM Segment"), -1)

    def test_as_of_parse_errors(self):
        with pytest.raises(QueryError):
            parse("SELECT SUM_S(*) FROM Segment AS OF banana")
        with pytest.raises(QueryError):
            parse("SELECT SUM_S(*) FROM Segment AS OF -1")
        with pytest.raises(QueryError):
            # The clause binds to the view, not the WHERE tail.
            parse("SELECT SUM_S(*) FROM Segment WHERE Tid = 1 AS OF 1")


# ----------------------------------------------------------------------
# Distribution: the sharded tier and the TCP server
# ----------------------------------------------------------------------
class TestShardedAsOf:
    def test_sharded_as_of_matches_embedded(self):
        db = make_db()
        mark = db.knowledge_time()
        db.correct([(1, 700, 999.0), (2, 1200, -5.0)])
        with ShardedCluster(2, config=db.config) as tier:
            tier.load_storage(db.storage)
            for sql in STATEMENTS:
                latest, _ = tier.sql(sql)
                assert latest == db.query(sql), sql
                bounded, _ = tier.sql(sql, as_of=mark)
                assert bounded == db.query(sql, as_of=mark), sql


class TestServerAsOf:
    def test_server_answers_as_of_and_validates_the_field(self):
        db = make_db()
        mark = db.knowledge_time()
        db.correct([(1, 700, 999.0)])
        sql = "SELECT TS, Value FROM DataPoint WHERE Tid = 1"
        dispatcher = EmbeddedDispatcher.for_db(db)
        thread = ServerThread(QueryServer(dispatcher))
        host, port = thread.start()
        try:
            with ServerClient(host, port) as client:
                assert client.query(sql) == db.query(sql)
                assert client.query(sql, as_of=mark) == db.query(
                    sql, as_of=mark
                )
                # Distinct bounds must not alias in the result cache.
                assert client.query(sql, as_of=mark) != client.query(sql)
                with pytest.raises(BadRequestError):
                    client.query(sql, as_of=-1)
                response = client.request(
                    {"op": "query", "sql": sql, "as_of": "soon"}
                )
                assert response["error"]["code"] == "bad_request"
        finally:
            thread.stop()
