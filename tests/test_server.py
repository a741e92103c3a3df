"""The concurrent query-serving layer (tier 1).

Covers the serving contract end to end against an in-process server:
bit-identical results under 32 concurrent clients, fast-fail admission
control, deadline-driven cancellation, explicit cancel, result-cache
hits and ingestion-flush invalidation, and structured error frames that
leave the connection (and server) up.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro import Configuration, ModelarDB, TimeSeries
from repro.server import (
    BusyError,
    CancelledError,
    DeadlineError,
    Dispatcher,
    EmbeddedDispatcher,
    ErrorCode,
    QueryServer,
    RemoteQueryError,
    ServerClient,
    ServerThread,
)

N_CLIENTS = 32

#: The statement mix the concurrency test replays on every client.
STATEMENTS = (
    "SELECT COUNT_S(*) FROM Segment",
    "SELECT SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment",
    "SELECT Tid, AVG_S(*) FROM Segment GROUP BY Tid",
    "SELECT SUM_S(*) FROM Segment WHERE Tid IN (1, 3)",
    "SELECT COUNT(*) FROM DataPoint WHERE Tid = 2",
    "SELECT TS, Value FROM DataPoint WHERE Tid = 1 AND TS <= 900",
)


def make_db(n_series: int = 4, n_points: int = 300) -> ModelarDB:
    rng = np.random.default_rng(11)
    db = ModelarDB(Configuration(error_bound=0.0))
    series = []
    for tid in range(1, n_series + 1):
        values = np.float32(
            50 + tid + np.cumsum(rng.normal(0, 0.3, n_points))
        )
        series.append(
            TimeSeries(tid, 100, np.arange(n_points) * 100, values)
        )
    db.ingest(series)
    return db


class _Harness:
    """One in-process server over one embedded db, torn down on exit."""

    def __init__(self, db: ModelarDB, hook=None, **server_kwargs) -> None:
        self.db = db
        self.dispatcher = EmbeddedDispatcher.for_db(db, execute_hook=hook)
        self.server = QueryServer(self.dispatcher, **server_kwargs)
        self.thread = ServerThread(self.server)

    def __enter__(self) -> tuple[str, int]:
        return self.thread.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.thread.stop()


# ----------------------------------------------------------------------
# The acceptance scenario
# ----------------------------------------------------------------------
class TestConcurrentClients:
    def test_32_clients_bit_identical_to_embedded_engine(self):
        db = make_db()
        expected = {sql: db.sql(sql) for sql in STATEMENTS}
        failures: list[str] = []
        with _Harness(db, max_inflight=8, max_waiting=2 * N_CLIENTS) as (
            host, port,
        ):
            def client_run(client_id: int) -> None:
                try:
                    with ServerClient(host, port) as client:
                        # Different starting offsets so the server sees
                        # a mixed, not lockstep, statement stream.
                        for turn in range(len(STATEMENTS)):
                            sql = STATEMENTS[
                                (client_id + turn) % len(STATEMENTS)
                            ]
                            rows = client.query(sql, timeout=30.0)
                            if rows != expected[sql]:
                                failures.append(
                                    f"client {client_id}: {sql!r} diverged"
                                )
                except Exception as error:  # noqa: BLE001 - collected
                    failures.append(f"client {client_id}: {error!r}")

            threads = [
                threading.Thread(target=client_run, args=(i,), daemon=True)
                for i in range(N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert failures == []

    def test_server_stats_counts_all_accepted(self):
        db = make_db(n_series=2, n_points=100)
        with _Harness(db, max_inflight=4, max_waiting=64) as (host, port):
            with ServerClient(host, port) as client:
                for _ in range(5):
                    client.query("SELECT COUNT_S(*) FROM Segment")
                stats = client.stats()
        counters = stats["counters"]
        assert counters["accepted"] == 5
        assert counters["completed"] == 5
        assert counters["rejected_busy"] == 0
        assert stats["latency"]["count"] == 5
        assert stats["admission"]["max_inflight"] == 4


class TestAdmissionControl:
    def test_over_admission_rejected_never_hung(self):
        gate = threading.Event()
        started = threading.Semaphore(0)

        def hook(sql: str, token) -> None:
            if "WHERE Tid = 1" in sql:
                started.release()
                gate.wait(timeout=30)

        db = make_db(n_series=2, n_points=60)
        outcomes: list[str] = []
        lock = threading.Lock()
        try:
            with _Harness(
                db, hook=hook, max_inflight=2, max_waiting=2,
            ) as (host, port):
                def blocked_client(index: int) -> None:
                    with ServerClient(host, port) as client:
                        try:
                            client.query(
                                "SELECT COUNT_S(*) FROM Segment "
                                "WHERE Tid = 1",
                                timeout=30.0,
                            )
                            result = "ok"
                        except BusyError:
                            result = "busy"
                    with lock:
                        outcomes.append(result)

                threads = [
                    threading.Thread(
                        target=blocked_client, args=(i,), daemon=True
                    )
                    for i in range(5)
                ]
                for thread in threads:
                    thread.start()
                # Wait until both executor slots are actually held, so
                # the remaining three requests face a full server.
                assert started.acquire(timeout=10)
                assert started.acquire(timeout=10)
                deadline = time.time() + 10
                while len(outcomes) < 1 and time.time() < deadline:
                    time.sleep(0.01)
                # The 5th request (2 running + 2 queued) fast-fails.
                assert outcomes == ["busy"]
                gate.set()
                for thread in threads:
                    thread.join(timeout=30)
                assert sorted(outcomes) == ["busy", "ok", "ok", "ok", "ok"]
                # The admission controller recovered: new queries run.
                with ServerClient(host, port) as client:
                    rows = client.query("SELECT COUNT_S(*) FROM Segment")
                    assert rows == db.sql("SELECT COUNT_S(*) FROM Segment")
                    counters = client.stats()["counters"]
                assert counters["rejected_busy"] == 1
                assert counters["queued"] >= 2
        finally:
            gate.set()


class TestDeadlinesAndCancel:
    def test_slow_query_cancelled_by_deadline(self):
        def hook(sql: str, token) -> None:
            if "WHERE Tid = 999" in sql and token is not None:
                # A cooperative slow query: aborts the moment the
                # deadline fires the token instead of sleeping blindly.
                token.wait(30)

        db = make_db(n_series=2, n_points=60)
        with _Harness(db, hook=hook, max_inflight=2) as (host, port):
            with ServerClient(host, port) as client:
                started = time.perf_counter()
                with pytest.raises(DeadlineError):
                    client.query(
                        "SELECT COUNT_S(*) FROM Segment WHERE Tid = 999",
                        timeout=0.4,
                    )
                elapsed = time.perf_counter() - started
                assert elapsed < 10.0  # answered at the deadline, not 30 s
                # The server survives and still executes new statements.
                assert client.ping()
                rows = client.query("SELECT COUNT_S(*) FROM Segment")
                assert rows == db.sql("SELECT COUNT_S(*) FROM Segment")
                assert client.stats()["counters"]["timed_out"] == 1

    def test_explicit_cancel_from_second_connection(self):
        def hook(sql: str, token) -> None:
            if "WHERE Tid = 999" in sql and token is not None:
                token.wait(30)

        db = make_db(n_series=2, n_points=60)
        with _Harness(db, hook=hook, max_inflight=2) as (host, port):
            errors: list[Exception] = []

            def victim() -> None:
                with ServerClient(host, port) as client:
                    try:
                        client.query(
                            "SELECT COUNT_S(*) FROM Segment "
                            "WHERE Tid = 999",
                            timeout=30.0,
                            query_id="victim-1",
                        )
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)

            thread = threading.Thread(target=victim, daemon=True)
            thread.start()
            with ServerClient(host, port) as controller:
                deadline = time.time() + 10
                cancelled = False
                while time.time() < deadline and not cancelled:
                    cancelled = controller.cancel("victim-1")
                    if not cancelled:
                        time.sleep(0.01)
                assert cancelled
            thread.join(timeout=30)
            assert len(errors) == 1
            assert isinstance(errors[0], CancelledError)


class _RaisesWhenWoken(Dispatcher):
    """Blocks until its token fires, then raises at once — so the
    executor's error reaches the event loop while the server's own
    cancel waiter is still pending, the order the race used to lose."""

    def __init__(self) -> None:
        super().__init__(result_cache_capacity=0)
        self.started = threading.Event()
        self.token = None

    def execute(self, sql, token=None, as_of=None):
        self.token = token
        self.started.set()
        token.wait(30)
        raise CancelledError("woken by the token")


class TestOutcomeFollowsTokenReason:
    @pytest.mark.parametrize(
        "reason, code, counter",
        [
            ("cancelled", ErrorCode.CANCELLED, "cancelled"),
            ("timeout", ErrorCode.TIMEOUT, "timed_out"),
        ],
    )
    def test_executor_error_landing_first_keeps_the_code(
        self, reason, code, counter
    ):
        dispatcher = _RaisesWhenWoken()
        server = QueryServer(dispatcher)

        async def scenario() -> dict:
            await server.start()
            try:
                query = asyncio.ensure_future(
                    server._handle_request(
                        {"op": "query", "sql": "SELECT 1", "id": "q"}
                    )
                )
                while not dispatcher.started.is_set():
                    await asyncio.sleep(0.001)
                # Fire the token only: the future completes with the
                # executor's error and nothing else is in `done`.
                dispatcher.token.cancel(reason)
                return await asyncio.wait_for(query, timeout=10)
            finally:
                await server.stop()

        response = asyncio.run(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == code
        counters = server.counters.snapshot()
        assert counters[counter] == 1
        assert counters["failed"] == 0


class TestResultCache:
    def test_hits_on_repeat_miss_after_ingestion_flush(self):
        db = make_db(n_series=2, n_points=200)
        sql = "SELECT SUM_S(*) FROM Segment"
        with _Harness(db, max_inflight=2) as (host, port):
            with ServerClient(host, port) as client:
                first = client.query_response(sql)
                second = client.query_response("select  sum_s(*) "
                                               "FROM   segment")
                assert first["ok"] and second["ok"]
                assert first["cached"] is False
                # Normalized SQL: same statement modulo case/whitespace.
                assert second["cached"] is True
                assert second["rows"] == first["rows"]

                warm = client.stats()["dispatcher"]["segment_cache"]

                # New segments land -> the flush hook invalidates.
                extra = TimeSeries(
                    9, 100, np.arange(120) * 100,
                    np.float32(np.linspace(0, 5, 120)),
                )
                db.ingest([extra])
                third = client.query_response(sql)
                assert third["ok"]
                assert third["cached"] is False
                assert (
                    third["rows"][0]["SUM_S(*)"]
                    > first["rows"][0]["SUM_S(*)"]
                )
                stats = client.stats()
        cache = stats["dispatcher"]["result_cache"]
        assert cache["hits"] >= 1
        assert cache["invalidations"] >= 1
        # The flush invalidated cached results, not decoded models:
        # the re-scan found every model decoded before it and decoded
        # only the new series' segments.
        segment_cache = stats["dispatcher"]["segment_cache"]
        assert segment_cache["generation"] == 0
        assert warm["misses"] > 0
        assert (
            segment_cache["hits"] - warm["hits"]
            >= warm["hits"] + warm["misses"]
        )
        assert segment_cache["misses"] > warm["misses"]


class _CountingDispatcher(EmbeddedDispatcher):
    """Counts the statements that reach :meth:`execute`."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.executed: list[str] = []

    def execute(self, sql, token=None, as_of=None):
        self.executed.append(sql)
        return super().execute(sql, token, as_of)


class TestHitsAreAnsweredOnTheLoop:
    def test_repeated_statement_never_reaches_execute(self):
        db = make_db(n_series=2, n_points=100)
        dispatcher = _CountingDispatcher.for_db(db)
        sql = "SELECT Tid, AVG_S(*) FROM Segment GROUP BY Tid"
        with ServerThread(QueryServer(dispatcher)) as (host, port):
            with ServerClient(host, port) as client:
                responses = [client.query_response(sql) for _ in range(4)]
                # Normalised text and an as_of share the loop-side key
                # rule with execute(): one more execution, then a hit.
                for _ in range(2):
                    client.query_response("select tid, avg_s(*) from "
                                          "segment  group by tid")
                    client.query_response(sql, as_of=db.knowledge_time())
        assert [r["cached"] for r in responses] == [False, True, True, True]
        assert all(r["rows"] == db.sql(sql) for r in responses)
        assert dispatcher.executed == [sql, sql]

    def test_hit_is_answered_while_every_slot_is_busy(self):
        gate = threading.Event()
        started = threading.Event()

        def hook(sql: str, token) -> None:
            if "WHERE Tid = 1" in sql:
                started.set()
                gate.wait(timeout=30)

        db = make_db(n_series=2, n_points=60)
        cached_sql = "SELECT COUNT_S(*) FROM Segment"
        blocked: list[dict] = []
        try:
            with _Harness(
                db, hook=hook, max_inflight=1, max_waiting=0,
            ) as (host, port):
                with ServerClient(host, port) as client:
                    assert client.query_response(cached_sql)["ok"]

                    def hold_the_slot() -> None:
                        with ServerClient(host, port) as holder:
                            blocked.append(holder.query_response(
                                "SELECT COUNT_S(*) FROM Segment "
                                "WHERE Tid = 1"
                            ))

                    thread = threading.Thread(
                        target=hold_the_slot, daemon=True
                    )
                    thread.start()
                    assert started.wait(timeout=10)
                    hit = client.query_response(cached_sql)
                    # A statement that must execute still meets the
                    # full server.
                    with pytest.raises(BusyError):
                        client.query("SELECT COUNT(*) FROM DataPoint")
                    gate.set()
                    thread.join(timeout=30)
                    counters = client.stats()["counters"]
        finally:
            gate.set()
        assert hit["ok"] and hit["cached"] is True
        assert hit["rows"] == db.sql(cached_sql)
        assert blocked and blocked[0]["ok"]
        assert counters["rejected_busy"] == 1
        assert counters["completed"] == 3

    def test_accounting_identities_hold_under_mixed_traffic(self):
        db = make_db(n_series=3, n_points=120)
        as_of = db.knowledge_time()
        #: (request, counted by the result cache?)
        traffic = [
            ({"sql": STATEMENTS[0]}, True),
            ({"sql": STATEMENTS[1]}, True),
            ({"sql": STATEMENTS[0]}, True),
            ({"sql": STATEMENTS[0], "as_of": as_of}, True),
            ({"sql": "EXPLAIN ANALYZE " + STATEMENTS[0]}, False),
            ({"sql": "SELECT COUNT_S(*) FROM Nowhere"}, True),
            ({"sql": ""}, False),
            ({"sql": STATEMENTS[0], "timeout": float("nan")}, False),
            ({"sql": STATEMENTS[1], "as_of": -1}, False),
        ]
        n_clients, rounds = 4, 3
        failures: list[str] = []
        with _Harness(db, max_inflight=2, max_waiting=64) as (host, port):
            def client_run() -> None:
                try:
                    with ServerClient(host, port) as client:
                        for _ in range(rounds):
                            for fields, _counted in traffic:
                                client.request({"op": "query", **fields})
                except Exception as error:  # noqa: BLE001 - collected
                    failures.append(repr(error))

            threads = [
                threading.Thread(target=client_run, daemon=True)
                for _ in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            with ServerClient(host, port) as client:
                stats = client.stats()
        assert failures == []
        counters = stats["counters"]
        repeats = n_clients * rounds
        assert counters["requests"] == repeats * len(traffic)
        assert counters["requests"] == (
            counters["accepted"]
            + counters["rejected_busy"]
            + counters["bad_requests"]
        )
        assert counters["accepted"] == (
            counters["completed"]
            + counters["failed"]
            + counters["timed_out"]
            + counters["cancelled"]
        )
        assert counters["bad_requests"] == 3 * repeats
        assert counters["failed"] == repeats
        assert stats["latency"]["count"] == counters["completed"]
        cache = stats["dispatcher"]["result_cache"]
        counted = sum(1 for _fields, cached in traffic if cached)
        assert cache["hits"] + cache["misses"] == counted * repeats
        assert cache["hits"] > 0

    def test_hit_after_stop_began_answers_shutdown(self):
        db = make_db(n_series=2, n_points=60)
        server = QueryServer(EmbeddedDispatcher.for_db(db))
        request = {"op": "query", "sql": "SELECT COUNT_S(*) FROM Segment"}

        async def scenario() -> tuple[dict, dict]:
            await server.start()
            warm = await server._handle_request(request)
            stopping = asyncio.ensure_future(server.stop())
            await asyncio.sleep(0)  # stop() has begun, not finished
            late = await server._handle_request(request)
            await stopping
            return warm, late

        warm, late = asyncio.run(scenario())
        assert warm["ok"]
        assert late["ok"] is False
        assert late["error"]["code"] == ErrorCode.SHUTDOWN
        counters = server.counters.snapshot()
        assert counters["completed"] == 1
        assert counters["rejected_busy"] == 1
        assert server.dispatcher.result_cache.hits == 0


class TestErrorFrames:
    def test_query_errors_are_structured_and_connection_survives(self):
        db = make_db(n_series=2, n_points=60)
        with _Harness(db, max_inflight=2) as (host, port):
            with ServerClient(host, port) as client:
                for bad_sql in (
                    "SELEC COUNT_S(*) FROM Segment",       # malformed
                    "SELECT COUNT_S(*) FROM Nowhere",      # unknown table
                    "SELECT Bogus FROM DataPoint",         # unknown column
                    "SELECT SUM_S(*) FROM Segment GROUP BY Nope",
                    "SELECT CUBE_SUM_EON(*) FROM Segment",  # bad level
                ):
                    response = client.query_response(bad_sql)
                    assert response["ok"] is False
                    error = response["error"]
                    assert error["code"] == "query_error"
                    assert error["status"] == 400
                    assert error["message"]
                    # Same connection keeps serving after every error.
                    assert client.ping()
                with pytest.raises(RemoteQueryError):
                    client.query("SELECT COUNT_S(*) FROM Nowhere")
                rows = client.query("SELECT COUNT_S(*) FROM Segment")
                assert rows == db.sql("SELECT COUNT_S(*) FROM Segment")
                counters = client.stats()["counters"]
        assert counters["failed"] == 6
        assert counters["completed"] >= 1

    def test_unknown_op_and_missing_sql_are_bad_requests(self):
        db = make_db(n_series=2, n_points=60)
        with _Harness(db, max_inflight=2) as (host, port):
            with ServerClient(host, port) as client:
                response = client.request({"op": "mystery"})
                assert response["error"]["code"] == "bad_request"
                response = client.request({"op": "query"})
                assert response["error"]["code"] == "bad_request"
                response = client.request(
                    {"op": "query", "sql": "SELECT 1", "timeout": -1}
                )
                assert response["error"]["code"] == "bad_request"
                assert client.ping()

    @pytest.mark.parametrize(
        "timeout",
        [True, False, float("nan"), float("inf"), -float("inf"), 0, "1",
         10 ** 400],
        ids=["true", "false", "nan", "inf", "-inf", "zero", "string",
             "huge-int"],
    )
    def test_malformed_timeout_is_a_bad_request(self, timeout):
        db = make_db(n_series=2, n_points=60)
        sql = "SELECT COUNT_S(*) FROM Segment"
        with _Harness(db, max_inflight=2) as (host, port):
            with ServerClient(host, port) as client:
                # Cached first: validation runs ahead of the cache, so a
                # hit with a malformed deadline is rejected too.
                assert client.query_response(sql)["ok"]
                response = client.request(
                    {"op": "query", "sql": sql, "timeout": timeout}
                )
                assert response["error"]["code"] == "bad_request"
                assert "timeout" in response["error"]["message"]
                assert client.ping()
                counters = client.stats()["counters"]
        assert counters["bad_requests"] == 1
        assert counters["accepted"] == counters["completed"] == 1
        assert counters["timed_out"] == 0

    def test_cancel_unknown_id_is_harmless(self):
        db = make_db(n_series=2, n_points=60)
        with _Harness(db, max_inflight=2) as (host, port):
            with ServerClient(host, port) as client:
                assert client.cancel("never-started") is False
                assert client.ping()


class TestServerShutdown:
    def test_stop_closes_owned_storage(self, tmp_path):
        directory = tmp_path / "db"
        db = ModelarDB.open(directory, config=Configuration(error_bound=0.0))
        db.ingest([
            TimeSeries(
                1, 100, np.arange(50) * 100,
                np.float32(np.linspace(0, 1, 50)),
            )
        ])
        db.storage.flush()

        dispatcher = EmbeddedDispatcher.open_directory(directory)
        server = QueryServer(dispatcher, max_inflight=2)
        harness = ServerThread(server)
        host, port = harness.start()
        with ServerClient(host, port) as client:
            assert client.query("SELECT COUNT_S(*) FROM Segment")
        harness.stop()
        # The shutdown path released the store deterministically...
        assert dispatcher._owned_storage.closed
        # ...so a restart can immediately reopen the same directory.
        dispatcher2 = EmbeddedDispatcher.open_directory(directory)
        harness2 = ServerThread(QueryServer(dispatcher2, max_inflight=2))
        host2, port2 = harness2.start()
        try:
            with ServerClient(host2, port2) as client:
                rows = client.query("SELECT COUNT_S(*) FROM Segment")
                assert rows[0]["COUNT_S(*)"] == 50
        finally:
            harness2.stop()
