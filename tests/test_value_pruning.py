"""Value predicates skip the segments whose models cannot meet them.

The Data Point View skips every segment none of whose selected series'
model bounds can satisfy the statement's ``Value`` conditions before
decode: a PMC-Mean level, or a Swing line's values at the two ends of
the clipped range, divided by the series' scaling. Answers must not
change, so the row-at-a-time oracle (``tests/oracle.py``), which prunes
nothing, is the reference: rows and aggregates
``struct.pack``-identical, in order.
The corpus aims at the bounds' edges — thresholds equal to a stored
level and to a Swing end value, negative scalings that swap the ends,
NaN gaps, lossless and lossy bounds, and ``AS OF`` after a correction.
"""

from __future__ import annotations

import random
import sys
import threading
from typing import Iterator

import numpy as np
import pytest

from repro import Configuration, MemoryStorage, ModelarDB, TimeSeries
from repro.core.errors import QueryError
from repro.core.group import TimeSeriesGroup
from repro.core.segment import SegmentGroup
from repro.models.pmc_mean import FittedPMCMean
from repro.models.swing import FittedSwing
from repro.obs import get_registry
from repro.server import ErrorCode, ServerClient
from repro.storage import SegmentScan

from . import oracle
from .test_columnar_equivalence import assert_rows_bit_identical, make_values
from .test_server import _Harness

START = 1_600_000_000_000
SI = 1_000
TICKS = 240
OPERATORS = ("=", "<", "<=", ">", ">=")
#: Group members (Tid, scaling) and the singleton's: the negative
#: scaling swaps a bound's ends, 2.5 makes the divided ends inexact.
MEMBERS = ((1, 1.0), (2, 2.5), (3, -3.0), (4, 1.0))
SOLO = (5, -3.0)


def build(seed: int, bound: float, directory=None) -> tuple[ModelarDB, int]:
    """A four-series group with NaN gaps in two members plus a
    singleton, corrected once after ``mark``, in memory or persisted to
    ``directory``; returns both."""
    rng = random.Random(seed)
    matrix = make_values(rng, TICKS, 4)
    for column in (1, 3):
        for _ in range(3):
            start = rng.randrange(TICKS - 20)
            matrix[start:start + rng.randint(1, 15), column] = np.nan
    timestamps = np.arange(TICKS, dtype=np.int64) * SI + START
    # Divided by their scaling, the members store one group's values.
    group = [
        TimeSeries(
            tid, SI, timestamps, matrix[:, tid - 1] / scaling, scaling=scaling
        )
        for tid, scaling in MEMBERS
    ]
    tid, scaling = SOLO
    solo = TimeSeries(tid, SI, timestamps, matrix[:, 0], scaling=scaling)
    db = ModelarDB.open(directory, config=config(bound))
    db.ingest([TimeSeriesGroup(1, group), TimeSeriesGroup(2, [solo])])
    mark = db.knowledge_time()
    db.correct(
        [
            (1, int(timestamps[rng.randrange(TICKS)]), 7.25),
            (4, int(timestamps[rng.randrange(TICKS)]), None),
        ]
    )
    return db, mark


def config(bound: float) -> Configuration:
    return Configuration(error_bound=bound, model_length_limit=8)


def model_values(db: ModelarDB) -> tuple[list[float], list[float]]:
    """Every series' scaled PMC levels and Swing end values as stored."""
    scalings = dict((*MEMBERS, SOLO))
    levels, ends = [], []
    for segment in stored(db):
        model = db.engine.segment_cache.model_of(segment)
        for tid in segment.member_tids:
            scaling = scalings[tid]
            if isinstance(model, FittedPMCMean):
                levels.append(model.value / scaling)
            elif isinstance(model, FittedSwing):
                for index in (0, segment.length - 1):
                    ends.append(model.value_at(index, 0) / scaling)
    return levels, ends


def stored(db: ModelarDB) -> Iterator[SegmentGroup]:
    """Every stored segment, shadowed revisions included."""
    for table in db.storage.tables(SegmentScan(all_revisions=True)):
        yield from table.segments


def thresholds(db: ModelarDB, seed: int) -> list[float]:
    """Stored levels and Swing ends, the data's extremes, and zero."""
    levels, ends = model_values(db)
    assert levels and ends, "the corpus must store PMC and Swing rows"
    ((low, high),) = [
        tuple(row.values())
        for row in db.sql("SELECT MIN(*), MAX(*) FROM DataPoint")
    ]
    rng = random.Random(seed)
    return [*rng.sample(levels, 3), *rng.sample(ends, 3), low, high, 0.0]


def statements(threshold: float) -> Iterator[str]:
    middle = START + (TICKS // 2) * SI + SI // 2  # cuts a segment
    for operator in OPERATORS:
        condition = f"Value {operator} {threshold!r}"
        yield f"SELECT Tid, TS, Value FROM DataPoint WHERE {condition}"
        yield (
            "SELECT SUM(*), COUNT(*), MIN(*), MAX(*) FROM DataPoint "
            f"WHERE {condition}"
        )
        yield (
            "SELECT Tid, SUM(*), COUNT(*), MIN(*), MAX(*) FROM DataPoint "
            f"WHERE {condition} AND TS >= {middle} GROUP BY Tid"
        )


def counter(name: str) -> float:
    return get_registry().counter(name).value


class TestPrunedAnswersMatchTheRowEngine:
    @pytest.mark.parametrize("bound", (0.0, 1.0))
    def test_every_operator_at_every_edge(self, bound):
        for seed in range(2):
            db, mark = build(seed, bound)
            pruned = counter("query.segments_pruned_total")
            for threshold in thresholds(db, seed):
                for sql in statements(threshold):
                    for as_of in (None, mark):
                        assert_rows_bit_identical(
                            db.query(sql, as_of=as_of),
                            oracle.query(db, sql, as_of=as_of),
                            context=f"seed={seed} bound={bound} "
                            f"as_of={as_of}: {sql}",
                        )
            assert counter("query.segments_pruned_total") > pruned
            # A threshold equal to a stored level selects that level.
            levels, _ = model_values(db)
            assert any(
                db.sql(f"SELECT TS FROM DataPoint WHERE Value = {level!r}")
                for level in levels
            )

    def test_a_conjunction_prunes_from_either_side(self):
        db, mark = build(3, 0.0)
        levels, _ = model_values(db)
        low, high = min(levels), max(levels)
        for sql in (
            f"SELECT Tid, TS, Value FROM DataPoint "
            f"WHERE Value >= {low!r} AND Value <= {high!r}",
            f"SELECT SUM(*), COUNT(*) FROM DataPoint "
            f"WHERE Value > {low!r} AND Value < {low!r}",
        ):
            for as_of in (None, mark):
                assert_rows_bit_identical(
                    db.query(sql, as_of=as_of),
                    oracle.query(db, sql, as_of=as_of),
                    context=sql,
                )


class TestCounters:
    def test_a_threshold_above_every_level_decodes_fewer_blocks(self):
        db, _ = build(0, 0.0)
        levels, _ = model_values(db)
        blocks = counter("query.columnar_blocks_total")
        db.query("SELECT Tid, TS, Value FROM DataPoint")
        unconditioned = counter("query.columnar_blocks_total") - blocks
        blocks = counter("query.columnar_blocks_total")
        pruned = counter("query.segments_pruned_total")
        db.query(
            "SELECT Tid, TS, Value FROM DataPoint "
            f"WHERE Value > {max(levels)!r}"
        )
        assert counter("query.columnar_blocks_total") - blocks < unconditioned
        assert counter("query.segments_pruned_total") > pruned

    def test_gorilla_rows_are_never_pruned(self):
        values = np.float32(np.sin(np.arange(300) / 7.0) * 40.0)
        db = ModelarDB(
            Configuration(error_bound=0.0, models=("Gorilla",)),
            storage=MemoryStorage(),
        )
        db.ingest(
            [TimeSeries(1, SI, np.arange(300, dtype=np.int64) * SI, values)]
        )
        blocks = counter("query.columnar_blocks_total")
        db.query("SELECT Tid, TS, Value FROM DataPoint")
        unconditioned = counter("query.columnar_blocks_total") - blocks
        blocks = counter("query.columnar_blocks_total")
        pruned = counter("query.segments_pruned_total")
        rows = db.query("SELECT COUNT(*) FROM DataPoint WHERE Value > 1e5")
        assert rows == [{"COUNT(*)": 0}]
        assert counter("query.segments_pruned_total") == pruned
        assert counter("query.columnar_blocks_total") - blocks == unconditioned


def test_lookups_count_what_the_row_engine_counts(tmp_path):
    """On a fresh handle each, a pruning statement cut by a ``TS`` bound
    counts one cache lookup per segment it reads, as the oracle's
    row-at-a-time walk does: equal hits cold and warm, and no miss warm.
    Cold, the fold columns behind the bounds decode every PMC-Mean and
    Swing row of the tables, also outside the clip, so the engine's
    misses exceed the oracle's by exactly the models pinned beyond its
    own."""
    directory = tmp_path / "store"
    db, _ = build(0, 1.0, directory)
    levels, _ = model_values(db)
    db.close()
    middle = START + (TICKS // 2) * SI + SI // 2
    sql = (
        "SELECT Tid, TS, Value FROM DataPoint "
        f"WHERE Value > {sorted(levels)[len(levels) // 2]!r} AND TS >= {middle}"
    )
    counted, pinned = {}, {}
    for reference in (False, True):
        fresh = ModelarDB.open(directory, config=config(1.0))
        try:
            before = fresh.engine.cache_stats
            for _ in range(2):
                if reference:
                    oracle.query(fresh, sql)
                else:
                    fresh.query(sql)
                after = fresh.engine.cache_stats
                counted.setdefault(reference, []).append(
                    (after[0] - before[0], after[1] - before[1])
                )
                before = after
            pinned[reference] = sum(
                "_model" in segment.__dict__ for segment in stored(fresh)
            )
        finally:
            fresh.close()
    (cold_hits, cold_misses), warm = counted[False]
    (walk_hits, walk_misses), walk_warm = counted[True]
    assert cold_hits == walk_hits
    assert warm == walk_warm and warm[1] == 0 and warm[0] > 0
    assert pinned[False] > pinned[True]
    assert cold_misses - walk_misses == pinned[False] - pinned[True]


def test_concurrent_scans_on_a_fresh_handle_agree(tmp_path):
    """Four threads build a fresh handle's fold columns while pruning."""
    directory = tmp_path / "store"
    db, _ = build(1, 1.0, directory)
    sql = "SELECT Tid, TS, Value FROM DataPoint WHERE Value > 0.0"
    expected = oracle.query(db, sql)
    db.close()
    fresh = ModelarDB.open(directory, config=config(1.0))
    seen: list[list[dict]] = []
    errors: list[BaseException] = []

    def reader():
        try:
            seen.append(fresh.query(sql))
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    interval_before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval_before)
        fresh.close()
    assert not errors, errors
    assert len(seen) == 4
    for rows in seen:
        assert_rows_bit_identical(rows, expected)


class TestBadValueLiterals:
    BAD = ("Value > 'abc'", "Value IN (5, 6)")

    @pytest.mark.parametrize("condition", BAD)
    def test_a_query_error_with_or_without_overlapping_segments(self, condition):
        db, _ = build(0, 0.0)
        far = START + 10 * TICKS * SI
        for where in (condition, f"{condition} AND TS > {far}"):
            for select in ("Tid, TS, Value", "COUNT(*)"):
                sql = f"SELECT {select} FROM DataPoint WHERE {where}"
                with pytest.raises(QueryError):
                    db.query(sql)

    @pytest.mark.parametrize("condition", BAD)
    def test_the_wire_reports_a_query_error(self, condition):
        db, _ = build(0, 0.0)
        with _Harness(db, max_inflight=2) as (host, port):
            with ServerClient(host, port) as client:
                response = client.query_response(
                    f"SELECT COUNT(*) FROM DataPoint WHERE {condition}"
                )
                assert response["ok"] is False
                assert response["error"]["code"] == ErrorCode.QUERY
                assert client.ping()
