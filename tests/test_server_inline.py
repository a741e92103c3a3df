"""The query server's inline route: short misses run on the event loop.

A statement that must execute runs on the event loop thread, not the
executor, when the dispatcher computes in-process without an execute
hook and the previous run of the same ``(sql, as_of)`` took less than
both the GIL switch interval and the request's deadline. Everything
else takes the executor. The duration each choice rests on is kept by
the dispatcher, cleared by a flush and bounded.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro import Configuration, ModelarDB, TimeSeries
from repro.server import (
    Dispatcher,
    EmbeddedDispatcher,
    ErrorCode,
    QueryServer,
    ServerClient,
    ServerThread,
)
from repro.server.dispatcher import _DURATIONS_CAPACITY
from repro.shard import InProcessFleet, ShardedCluster, ShardedDispatcher

SQL = "SELECT COUNT_S(*) FROM Segment"


def make_series(n_series: int = 2, n_points: int = 100) -> list[TimeSeries]:
    rng = np.random.default_rng(5)
    return [
        TimeSeries(
            tid, 100, np.arange(n_points) * 100,
            np.float32(20 + tid + np.cumsum(rng.normal(0, 0.2, n_points))),
        )
        for tid in range(1, n_series + 1)
    ]


def make_db() -> ModelarDB:
    db = ModelarDB(Configuration(error_bound=0.0))
    db.ingest(make_series())
    db.sql(SQL)  # warm the segment cache: the first served run is short
    return db


class _Recording(EmbeddedDispatcher):
    """Records the thread each run computes on; sleeps ``delay`` first."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.threads: list[str] = []
        self.delay = 0.0

    def _run(self, sql, as_of=None):
        self.threads.append(threading.current_thread().name)
        time.sleep(self.delay)
        return super()._run(sql, as_of)


class _RecordingSharded(ShardedDispatcher):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.threads: list[str] = []

    def _run(self, sql, as_of=None):
        self.threads.append(threading.current_thread().name)
        return super()._run(sql, as_of)


def _recording(db: ModelarDB, **kwargs) -> _Recording:
    dispatcher = _Recording(db.engine, result_cache_capacity=0, **kwargs)
    db.add_flush_listener(dispatcher.notify_flush)
    return dispatcher


def _serve(dispatcher: Dispatcher, requests: list[dict]) -> tuple[list, dict]:
    """Send ``requests`` one after another; responses and counters."""
    with ServerThread(QueryServer(dispatcher)) as (host, port):
        with ServerClient(host, port) as client:
            responses = [
                client.request({"op": "query", **request})
                for request in requests
            ]
            counters = client.stats()["counters"]
    return responses, counters


def _on_loop(threads: list[str]) -> list[bool]:
    """Per run: computed on the server's loop thread (not the pool)."""
    return [name == "repro-server" for name in threads]


@pytest.fixture
def roomy_switch_interval():
    """A switch interval no warm test statement comes near, so which
    route a run takes does not hang on a loaded machine's timing."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(0.2)
    yield 0.2
    sys.setswitchinterval(previous)


@pytest.mark.usefixtures("roomy_switch_interval")
class TestShortRepeatsRunOnTheLoop:
    def test_second_run_is_inline_and_counted(self):
        db = make_db()
        dispatcher = _recording(db)
        responses, counters = _serve(dispatcher, [{"sql": SQL}] * 3)
        assert [r["ok"] for r in responses] == [True] * 3
        assert all(r["rows"] == db.sql(SQL) for r in responses)
        assert _on_loop(dispatcher.threads) == [False, True, True]
        assert counters["inline"] == 2
        assert counters["completed"] == 3

    def test_as_of_is_part_of_the_key(self):
        db = make_db()
        dispatcher = _recording(db)
        as_of = db.knowledge_time()
        _serve(dispatcher, [{"sql": SQL}, {"sql": SQL, "as_of": as_of}])
        assert _on_loop(dispatcher.threads) == [False, False]


class TestTheExecutorKeeps:
    def test_statements_with_an_execute_hook(self, roomy_switch_interval):
        db = make_db()
        dispatcher = _recording(db, execute_hook=lambda sql, token: None)
        _responses, counters = _serve(dispatcher, [{"sql": SQL}] * 3)
        assert _on_loop(dispatcher.threads) == [False] * 3
        assert counters["inline"] == 0

    def test_statements_that_took_a_switch_interval(self):
        db = make_db()
        dispatcher = _recording(db)
        dispatcher.delay = 2 * sys.getswitchinterval()
        _responses, counters = _serve(dispatcher, [{"sql": SQL}] * 3)
        assert _on_loop(dispatcher.threads) == [False] * 3
        assert counters["inline"] == 0

    def test_the_sharded_dispatcher(self, roomy_switch_interval):
        with ShardedCluster(
            2, config=Configuration(error_bound=0.0),
            fleet_type=InProcessFleet,
        ) as tier:
            tier.ingest(make_series())
            dispatcher = _RecordingSharded(tier, result_cache_capacity=0)
            responses, counters = _serve(dispatcher, [{"sql": SQL}] * 3)
        assert [r["ok"] for r in responses] == [True] * 3
        assert _on_loop(dispatcher.threads) == [False] * 3
        assert counters["inline"] == 0


@pytest.mark.usefixtures("roomy_switch_interval")
class TestDeadlines:
    def test_timeout_below_the_last_run_takes_the_executor(self):
        db = make_db()
        dispatcher = _recording(db)
        dispatcher.delay = 0.05
        with ServerThread(QueryServer(dispatcher)) as (host, port):
            with ServerClient(host, port) as client:
                assert client.request({"op": "query", "sql": SQL})["ok"]
                # Inline this run would block the loop for a second.
                dispatcher.delay = 1.0
                started = time.perf_counter()
                late = client.request(
                    {"op": "query", "sql": SQL, "timeout": 0.02}
                )
                elapsed = time.perf_counter() - started
                assert client.ping()
                counters = client.stats()["counters"]
        assert late["error"]["code"] == ErrorCode.TIMEOUT
        assert elapsed < 0.5  # answered at its deadline
        assert _on_loop(dispatcher.threads) == [False, False]
        assert counters["inline"] == 0
        assert counters["timed_out"] == 1

    def test_an_inline_run_that_overruns_answers_timeout(self):
        db = make_db()
        dispatcher = _recording(db)
        with ServerThread(QueryServer(dispatcher)) as (host, port):
            with ServerClient(host, port) as client:
                assert client.request({"op": "query", "sql": SQL})["ok"]
                dispatcher.delay = 0.1
                late = client.request(
                    {"op": "query", "sql": SQL, "timeout": 0.05}
                )
                counters = client.stats()["counters"]
        assert late["ok"] is False
        assert late["error"]["code"] == ErrorCode.TIMEOUT
        assert _on_loop(dispatcher.threads) == [False, True]
        assert counters["inline"] == 1
        assert counters["timed_out"] == 1
        assert counters["completed"] == 1


class TestDurations:
    def test_recorded_per_statement_and_as_of(self):
        db = make_db()
        dispatcher = _recording(db)
        assert dispatcher.last_duration(SQL) is None
        dispatcher.execute(SQL)
        assert dispatcher.last_duration(SQL) > 0
        assert dispatcher.last_duration(SQL, as_of=1) is None

    def test_a_flush_clears_them(self, roomy_switch_interval):
        db = make_db()
        dispatcher = _recording(db)
        dispatcher.execute(SQL)
        db.ingest(make_series(n_series=3)[2:])
        assert dispatcher.last_duration(SQL) is None
        # Served, the first run after the flush takes the executor again.
        _serve(dispatcher, [{"sql": SQL}] * 2)
        assert _on_loop(dispatcher.threads) == [False, False, True]

    def test_the_map_stays_bounded(self):
        class Trivial(Dispatcher):
            in_process = True

            def _run(self, sql, as_of=None):
                return []

        dispatcher = Trivial(result_cache_capacity=0)
        statements = [
            f"SELECT {index}" for index in range(_DURATIONS_CAPACITY + 10)
        ]
        for sql in statements:
            dispatcher.execute(sql)
        assert len(dispatcher._durations) == _DURATIONS_CAPACITY
        # Oldest first out.
        assert dispatcher.last_duration(statements[0]) is None
        assert dispatcher.last_duration(statements[-1]) is not None
