"""Segment View aggregates folded from resident tables under concurrent
ingestion.

The columnar fold reads each partition's published table and builds (or
extends) fold columns on it without a lock, while ingestion publishes
new tables beside it. Four reader threads run aggregates (an hourly
rollup among them) while one thread ingests slices, under a 10 µs
switch interval: every answer must equal the same statement on a fresh
handle at some published prefix, and the long-lived handle must end
where a fresh handle starts. Two threads on a cold handle race to build
the same tables' cells and CUBE pieces, and must answer as one thread
does.
"""

import random
import sys
import threading

import numpy as np
import pytest

from repro import (
    Configuration,
    Dimension,
    DimensionSet,
    MemoryStorage,
    ModelarDB,
    TimeSeries,
)
from repro.core.group import TimeSeriesGroup

from .test_columnar_equivalence import make_values

SI = 10_000  # 480 ticks: 80 minutes, over an hour boundary
START = 1_600_000_000_000
SLICES = 16
SLICE_TICKS = 30
CONFIG = Configuration(error_bound=5.0, model_length_limit=8)

#: Each statement reads one partition, which a slice's ingest publishes
#: in one write, so every answer belongs to one slice prefix.
GROUP = "Tid IN (1, 2, 3)"
MIDDLE = START + SLICES * SLICE_TICKS * SI // 2
STATEMENTS = [
    "SELECT Tid, SUM_S(*), MIN_S(*), MAX_S(*), AVG_S(*), COUNT_S(*) "
    f"FROM Segment WHERE {GROUP} GROUP BY Tid",
    f"SELECT SUM(*), COUNT(*) FROM DataPoint WHERE {GROUP}",
    f"SELECT AVG_S(*), MIN_S(*) FROM Segment WHERE {GROUP} AND TS >= {MIDDLE}",
    "SELECT SUM_S(*), MAX_S(*) FROM Segment WHERE Tid = 4",
    f"SELECT Park, CUBE_AVG_HOUR(*) FROM Segment WHERE {GROUP} GROUP BY Park",
]


def dimensions():
    """A ``Park`` dimension that puts series 1 and 3 under one key."""
    park = Dimension("Location", ["Park"])
    for tid, member in zip((1, 2, 3, 4), ("north", "south", "north", "north")):
        park.assign(tid, (member,))
    return DimensionSet([park])


def slices():
    """A correlated three-series group with a gap, and a singleton, cut
    into ``SLICES`` time slices (holds, ramps and noise: all models)."""
    ticks = SLICES * SLICE_TICKS
    matrix = make_values(random.Random(5), ticks, 3)
    matrix[100:130, 1] = np.nan
    timestamps = np.arange(ticks, dtype=np.int64) * SI + START
    cut = []
    for index in range(SLICES):
        part = slice(index * SLICE_TICKS, (index + 1) * SLICE_TICKS)
        members = [
            TimeSeries(tid, SI, timestamps[part], matrix[part, tid - 1])
            for tid in (1, 2, 3)
        ]
        solo = TimeSeries(4, SI, timestamps[part], matrix[part, 0] + 7.0)
        cut.append(
            [TimeSeriesGroup(1, members), TimeSeriesGroup(2, [solo])]
        )
    return cut


def answers(db):
    return {sql: db.sql(sql) for sql in STATEMENTS}


def prefix_answers(cut):
    """Each statement's answer on a fresh handle after slices 0..k."""
    expected = []
    for count in range(1, len(cut) + 1):
        db = ModelarDB(CONFIG, storage=MemoryStorage(), dimensions=dimensions())
        for part in cut[:count]:
            db.ingest(part)
        expected.append(answers(db))
    return expected


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_concurrent_folds_answer_a_published_prefix(tmp_path, backend):
    cut = slices()
    expected = prefix_answers(cut)
    directory = tmp_path / "store"
    db = ModelarDB.open(
        None if backend == "memory" else directory,
        config=CONFIG,
        dimensions=dimensions(),
    )
    db.ingest(cut[0])
    seen: list[tuple[str, list[dict]]] = []
    errors: list[BaseException] = []
    done = threading.Event()

    def reader():
        try:
            while not done.is_set():
                for sql in STATEMENTS:
                    seen.append((sql, db.sql(sql)))
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    def writer():
        try:
            for part in cut[1:]:
                db.ingest(part)
        except BaseException as error:  # reported by the main thread
            errors.append(error)
        finally:
            done.set()

    threads = [threading.Thread(target=reader) for _ in range(4)]
    threads.append(threading.Thread(target=writer))
    interval_before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval_before)
        done.set()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    prefixes = set()
    for sql, rows in seen:
        matches = [k for k, state in enumerate(expected) if state[sql] == rows]
        assert matches, (sql, rows)
        prefixes.update(matches)
    assert len(prefixes) > 1  # readers saw the store grow
    final = answers(db)
    assert final == expected[-1]
    if backend == "file":
        db.close()
        with ModelarDB.open(
            directory, config=CONFIG, dimensions=dimensions()
        ) as fresh:
            assert answers(fresh) == final


#: Whole-table rollups: each builds, or reads, its tables' cells and
#: pieces (MINUTE, HOUR and DAY).
CUBES = [
    "SELECT Park, CUBE_SUM_MINUTE(*), CUBE_MAX_HOUR(*) FROM Segment "
    "GROUP BY Park",
    "SELECT Tid, CUBE_AVG_MINUTE(*), CUBE_MIN_DAY(*), COUNT_S(*) FROM Segment "
    "GROUP BY Tid",
    "SELECT CUBE_MIN_HOUR(*), CUBE_COUNT_MINUTE(*), SUM_S(*) FROM Segment",
]


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_cold_threads_build_whole_pieces_alike(tmp_path, backend):
    directory = None if backend == "memory" else tmp_path / "store"
    with ModelarDB.open(directory, config=CONFIG, dimensions=dimensions()) as db:
        for part in slices():
            db.ingest(part)
        expected = {sql: db.sql(sql) for sql in CUBES}
    for attempt in range(3):
        if backend == "memory":
            db = ModelarDB(CONFIG, storage=MemoryStorage(), dimensions=dimensions())
            for part in slices():
                db.ingest(part)
        else:
            db = ModelarDB.open(directory, config=CONFIG, dimensions=dimensions())
        seen: list[tuple[str, list[dict]]] = []
        errors: list[BaseException] = []
        start = threading.Barrier(2)

        def reader(order):
            try:
                start.wait()
                for sql in order:
                    seen.append((sql, db.sql(sql)))
            except BaseException as error:  # reported by the main thread
                errors.append(error)

        orders = (CUBES * 2, CUBES[::-1] * 2)
        threads = [threading.Thread(target=reader, args=(o,)) for o in orders]
        interval_before = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval_before)
        db.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(seen) == 4 * len(CUBES)
        for sql, rows in seen:
            assert rows == expected[sql], (attempt, sql)
