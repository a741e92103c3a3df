"""The engine against the row-at-a-time oracle: bit-identical answers.

The engine decodes stored segments a partition table at a time and
folds aggregates from vectorized slices; the oracle (``tests/oracle.py``)
walks the Segment View one row at a time, as the retired row engine did.
Both share one plan — including the per-subtree pushdown decisions —
and must produce the *same bits*: every float in every result row must
compare equal at the ``struct.pack`` level, for SUM/MIN/MAX/AVG/COUNT
over PMC-Mean, Swing and Gorilla segments, with lossy error bounds,
scaled correlated groups, and time ranges that cut segments mid-way. A
second corpus aims at the Segment View fold, which answers a partition
at a time: gaps, long partitions, dimension keys spanning columns,
``AS OF`` over revisions, ``Multi`` models, and partitions mixing group
layouts, which fold one layout run at a time; its CUBE part places
stores across calendar boundaries, so that segments (Gorilla ones too)
straddle every level's buckets and one segment feeds a DatePart
component twice.

Uses hypothesis when installed; otherwise the same properties run over
seeded pseudo-random cases so the suite stays meaningful without the
dependency.
"""

import datetime as dt
import random
import struct

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
from repro.core.segment import SegmentGroup
from repro.models.gorilla import Gorilla
from repro.models.multi import MultiModel
from repro.models.pmc_mean import PMCMean
from repro.models.registry import ModelRegistry
from repro.query.engine import QueryEngine
from repro.query.rollup import (
    DATEPART_LEVELS,
    TIME_LEVELS,
    datepart_of,
    floor_to_level,
)
from repro.storage import SegmentScan, TimeSeriesRecord

from . import oracle

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

#: The acceptance matrix: scalar baseline, prime-sized, default chunks.
CHUNK_SIZES = (1, 7, 1024)

START = 1_600_000_000_000  # an epoch-ms origin, mid-2020
SI = 100


def bits(value):
    """A comparable bit pattern for any result cell."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def assert_rows_bit_identical(rows, expected, context=""):
    assert len(rows) == len(expected), context
    for left, right in zip(rows, expected):
        assert list(left.keys()) == list(right.keys()), context
        for key in left:
            assert type(left[key]) is type(right[key]), (context, key)
            assert bits(left[key]) == bits(right[key]), (
                context, key, left[key], right[key],
            )


def make_values(rng: random.Random, n_ticks: int, n_columns: int):
    """Constant holds, linear ramps and rough noise — the regimes that
    select PMC-Mean, Swing and Gorilla respectively."""
    base = rng.uniform(-50, 50)
    matrix = np.empty((n_ticks, n_columns))
    i = 0
    while i < n_ticks:
        run = min(n_ticks - i, rng.randint(1, 14))
        kind = rng.random()
        if kind < 0.4:  # hold
            matrix[i:i + run] = base
        elif kind < 0.8:  # ramp
            slope = rng.uniform(-1, 1)
            matrix[i:i + run] = (
                base + slope * np.arange(run)
            )[:, np.newaxis]
            base = matrix[i + run - 1, 0]
        else:  # noise
            matrix[i:i + run] = base + np.array(
                [
                    [rng.uniform(-5, 5) for _ in range(n_columns)]
                    for _ in range(run)
                ]
            )
        i += run
    return np.float64(np.float32(matrix))


def build_db(seed, bound, chunk_size, grouped=True):
    """One in-memory instance: a correlated group (distinct scalings)
    plus a singleton series, same data for any chunk_size."""
    rng = random.Random(seed)
    n_ticks = rng.randint(40, 260)
    matrix = make_values(rng, n_ticks, 3)
    timestamps = np.arange(n_ticks, dtype=np.int64) * SI + START
    series = [
        TimeSeries(
            tid, SI, timestamps, matrix[:, tid - 1],
            scaling=(1.0, 2.0, 0.5)[tid - 1],
        )
        for tid in (1, 2, 3)
    ]
    solo = TimeSeries(4, SI, timestamps, matrix[:, 0] * 1.5 + 3.0)
    config = Configuration(
        error_bound=bound,
        model_length_limit=16,
        ingest_chunk_size=chunk_size,
    )
    db = ModelarDB(config, storage=MemoryStorage())
    if grouped:
        db.ingest([TimeSeriesGroup(1, series), TimeSeriesGroup(2, [solo])])
    else:
        db.ingest(series + [solo])
    return db, n_ticks


def query_matrix(n_ticks):
    """Statements covering every aggregate, both views, partial-segment
    time ranges, Value predicates and selections."""
    mid = START + (n_ticks // 2) * SI + SI // 2  # cuts a segment mid-way
    lo = START + 3 * SI + 1  # off-grid: exercises ceiling clipping
    return [
        "SELECT COUNT(*), SUM(*), MIN(*), MAX(*), AVG(*) FROM DataPoint",
        "SELECT Tid, SUM(*), AVG(*) FROM DataPoint GROUP BY Tid",
        f"SELECT COUNT(*), SUM(*), MIN(*), MAX(*), AVG(*) FROM DataPoint "
        f"WHERE TS >= {lo} AND TS <= {mid}",
        f"SELECT Tid, MIN(*), MAX(*) FROM DataPoint "
        f"WHERE Tid IN (1, 3, 4) AND TS >= {mid} GROUP BY Tid",
        "SELECT SUM(*), COUNT(*) FROM DataPoint WHERE Value > 0.0",
        f"SELECT AVG(*) FROM DataPoint WHERE Value <= 10.0 AND TS <= {mid}",
        "SELECT COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*), AVG_S(*) "
        "FROM Segment",
        f"SELECT Tid, SUM_S(*) FROM Segment WHERE TS >= {lo} GROUP BY Tid",
        "SELECT Tid, CUBE_SUM_MINUTE(*) FROM Segment GROUP BY Tid",
        "SELECT Tid, CUBE_AVG_MINUTE(*) FROM DataPoint GROUP BY Tid",
        f"SELECT Tid, TS, Value FROM DataPoint "
        f"WHERE Value >= -5.0 AND TS <= {mid}",
        "SELECT * FROM Segment WHERE Tid IN (2, 4)",
    ]


def check_equivalence(seed, bound, chunk_size, grouped=True):
    db, n_ticks = build_db(seed, bound, chunk_size, grouped)
    for sql in query_matrix(n_ticks):
        assert_rows_bit_identical(
            db.sql(sql),
            oracle.query(db, sql),
            context=f"seed={seed} bound={bound} chunk={chunk_size}: {sql}",
        )


class TestSeededEquivalence:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("bound", (0.0, 5.0))
    def test_row_and_columnar_agree_bitwise(self, bound, chunk_size):
        for seed in range(6):
            check_equivalence(seed, bound, chunk_size)

    def test_singleton_groups_agree_bitwise(self):
        # No group compression: every series its own (1-column) segment.
        for seed in range(4):
            check_equivalence(seed, 10.0, 1024, grouped=False)

    def test_mixed_model_types_are_exercised(self):
        db, _ = build_db(seed=1, bound=5.0, chunk_size=1024)
        mids = {segment.mid for segment in db.storage.scan(SegmentScan())}
        assert len(mids) >= 2, "data should select more than one model type"


if HAVE_HYPOTHESIS:

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 31),
        bound=st.sampled_from((0.0, 1.0, 5.0, 10.0)),
        chunk_size=st.sampled_from(CHUNK_SIZES),
    )
    def test_equivalence_hypothesis(seed, bound, chunk_size):
        check_equivalence(seed, bound, chunk_size)


# ----------------------------------------------------------------------
# Where a partition-at-a-time fold can go wrong
# ----------------------------------------------------------------------
FOLD_TICKS = 900  # with a length limit of 4: >= 200 segments per partition
MULTI_MODELS = ("Multi(PMC)", "Swing", "Multi(Gorilla)")


def build_fold_db(seed, bound, multi=False, origin=START, si=SI, revise=True):
    """A three-series group and a singleton, sampled every ``si`` ms
    from ``origin``, shaped against the partition fold's shortcuts:

    * series 2 has NaN gaps, so member Tids change inside a partition;
    * a length limit of 4 gives every partition >= 200 segments, so the
      order of ~1 000 additions shows in the last bits;
    * a ``Park`` dimension puts columns 0 and 2 of the group and the
      singleton under one key, so a key interleaves columns and
      partitions;
    * unless ``revise`` is false, a correction revises the group's
      partition after ``mark``, so reads resolve revisions, and ``AS OF
      mark`` reads a transient table;
    * ``multi`` stores column-dependent ``Multi`` rows beside Swing.

    Returns the database, the pre-correction knowledge time and the
    timestamps.
    """
    rng = random.Random(seed)
    matrix = make_values(rng, FOLD_TICKS, 3)
    for _ in range(6):
        start = rng.randrange(FOLD_TICKS - 30)
        matrix[start:start + rng.randint(1, 25), 1] = np.nan
    timestamps = np.arange(FOLD_TICKS, dtype=np.int64) * si + origin
    park = Dimension("Location", ["Park"])
    for tid, member in zip((1, 2, 3, 4), ("north", "south", "north", "north")):
        park.assign(tid, (member,))
    # Divided by their scaling, the series store equal holds and ramps,
    # which one group model fits.
    series = [
        TimeSeries(
            tid, si, timestamps, matrix[:, tid - 1] / scaling, scaling=scaling
        )
        for tid, scaling in zip((1, 2, 3), (1.0, 3.0, 0.7))
    ]
    solo = TimeSeries(4, si, timestamps, matrix[:, 0] * 1.5 + 3.0)
    config = Configuration(
        error_bound=bound,
        model_length_limit=4,
        models=MULTI_MODELS if multi else ("PMC", "Swing", "Gorilla"),
    )
    db = ModelarDB(
        config,
        storage=MemoryStorage(),
        dimensions=DimensionSet([park]),
        extra_models=[MultiModel(PMCMean()), MultiModel(Gorilla())],
    )
    db.ingest([TimeSeriesGroup(1, series), TimeSeriesGroup(2, [solo])])
    mark = db.knowledge_time()
    if revise:
        db.correct(
            [
                (1, int(timestamps[rng.randrange(FOLD_TICKS)]), 7.25),
                (3, int(timestamps[rng.randrange(FOLD_TICKS)]), None),
            ]
        )
    return db, mark, timestamps


def fold_queries(timestamps):
    """Every Segment-answerable aggregate shape the fold serves, with
    bounds that cut the first and last segments off the grid."""
    lo = int(timestamps[2]) + SI // 2
    hi = int(timestamps[-3]) - SI // 3
    every = "SUM_S(*), MIN_S(*), MAX_S(*), AVG_S(*), COUNT_S(*)"
    return [
        f"SELECT {every} FROM Segment",
        f"SELECT Tid, {every} FROM Segment GROUP BY Tid",
        f"SELECT Park, {every} FROM Segment GROUP BY Park",
        f"SELECT Park, Tid, SUM_S(*), AVG_S(*) FROM Segment "
        f"WHERE TS >= {lo} AND TS <= {hi} GROUP BY Park, Tid",
        f"SELECT SUM(*), MIN(*), MAX(*), COUNT(*) FROM DataPoint "
        f"WHERE TS >= {lo} AND TS <= {hi}",
        "SELECT Park, SUM(*), AVG(*) FROM DataPoint "
        "WHERE Tid IN (2, 3, 4) GROUP BY Park",
    ]


def utc(year, month, day, hour=0, minute=0, second=0):
    """Epoch milliseconds of a UTC wall-clock time."""
    moment = dt.datetime(
        year, month, day, hour, minute, second, tzinfo=dt.timezone.utc
    )
    return int(moment.timestamp() * 1000)


HOUR_MS, DAY_MS = 3_600_000, 86_400_000

#: Where the CUBE corpus's stores sit on the calendar: (origin, SI,
#: levels). With at most four ticks a segment, segments straddle the
#: named levels' boundaries. A level much finer than a segment is left
#: out where the oracle, which walks every bucket, would crawl.
CALENDARS = {
    # 5 hours over Dec 31 -> Jan 1: every level's boundary at once.
    "new-year": (
        utc(2015, 12, 31, 23, 40, 10),
        20_000,
        (*TIME_LEVELS, *DATEPART_LEVELS),
    ),
    # A 7-minute SI under MINUTE, over Feb 29 2016 and a month end.
    "coarse": (
        utc(2016, 2, 27, 5, 3),
        420_000,
        ("MINUTE", "HOUR", "DAY", "MONTH", "DAYOFMONTH"),
    ),
    # From before 1970; a segment spans a day: HOUROFDAY twice.
    "daily": (
        utc(1969, 12, 20, 7),
        8 * HOUR_MS,
        ("HOUR", "DAY", "MONTH", "YEAR", "HOUROFDAY", "DAYOFWEEK"),
    ),
    # A segment spans a week: DAYOFWEEK twice.
    "weekly": (utc(2019, 6, 1, 3), 56 * HOUR_MS, ("DAY", "DAYOFWEEK")),
    # A segment spans a 30-day month: DAYOFMONTH twice.
    "monthly": (utc(2016, 1, 5), 10 * DAY_MS, ("MONTH", "DAYOFMONTH")),
    # From 1950; a segment spans a year: MONTHOFYEAR twice.
    "yearly": (
        utc(1950, 3, 5, 11),
        122 * DAY_MS,
        ("MONTH", "YEAR", "MONTHOFYEAR"),
    ),
}

#: The DatePart component one segment of a calendar feeds twice.
FED_TWICE = {
    "daily": "HOUROFDAY",
    "weekly": "DAYOFWEEK",
    "monthly": "DAYOFMONTH",
    "yearly": "MONTHOFYEAR",
}


def rollup_queries(timestamps, si, levels):
    """Every aggregate at every level of a calendar, then mixed select
    lists, two levels in one statement, and bounds that cut a bucket
    inside a segment."""
    lo = int(timestamps[2]) + si // 2
    hi = int(timestamps[-3]) - si // 3
    cut = f"TS >= {lo} AND TS <= {hi}"
    queries = [
        "SELECT Park, "
        + ", ".join(
            f"CUBE_{name}_{level}(*)"
            for name in ("SUM", "AVG", "MIN", "MAX", "COUNT")
        )
        + " FROM Segment GROUP BY Park"
        for level in levels
    ]
    fine, coarse = levels[0], levels[-1]
    return queries + [
        f"SELECT Tid, SUM_S(*), CUBE_MAX_{fine}(*), COUNT_S(*), "
        f"CUBE_AVG_{fine}(*) FROM Segment GROUP BY Tid",
        f"SELECT CUBE_SUM_{fine}(*), MIN_S(*), CUBE_MIN_{coarse}(*) "
        "FROM Segment",
        f"SELECT Park, CUBE_SUM_{coarse}(*), CUBE_MIN_{fine}(*) "
        f"FROM Segment WHERE {cut} GROUP BY Park",
        f"SELECT CUBE_AVG_{fine}(*), CUBE_COUNT_{fine}(*) FROM DataPoint "
        f"WHERE Tid IN (2, 3, 4) AND {cut}",
    ]


#: The group layouts of the mixed-layout corpus's one Gid: (Tids,
#: sampling interval). The last two differ in their interval only.
LAYOUTS = (((1, 2), 100), ((1, 2, 3), 100), ((2, 3), 200), ((2, 3), 100))
#: Three seconds before a new year: stores cross a minute, an hour and
#: a day boundary.
MIXED_ORIGIN = utc(2015, 12, 31, 23, 59, 57)


def mixed_layout_engine(seed):
    """An engine over one Gid whose rows disagree on the group's Tids
    and sampling interval (``LAYOUTS``, in runs that may come back after
    another layout's), and those rows. Each row is a PMC-Mean hold, a
    Swing ramp or Gorilla noise, fitted at an error bound of 0, 1 or 5 %
    (Gorilla where the chosen model does not fit); the series have
    distinct scalings. MemoryStorage stores rows as given."""
    rng = random.Random(seed)
    bound = (0.0, 1.0, 5.0)[seed % 3]
    registry = ModelRegistry()
    storage = MemoryStorage()
    storage.insert_time_series(
        [
            TimeSeriesRecord(tid, 100, 1, scaling)
            for tid, scaling in ((1, 1.0), (2, 2.5), (3, -0.5))
        ]
    )
    segments, start, layout = [], MIXED_ORIGIN, rng.choice(LAYOUTS)
    for _ in range(rng.randint(4, 16)):
        if rng.random() < 0.5:
            layout = rng.choice(LAYOUTS)
        tids, si = layout
        length = rng.randint(1, 12)
        base, slope = rng.uniform(-20, 20), rng.uniform(-2, 2)
        name = rng.choice(("PMC", "Swing", "Gorilla"))
        matrix = np.full((length, len(tids)), base)
        if name == "Swing":
            matrix += slope * np.arange(length)[:, np.newaxis]
        elif name == "Gorilla":
            matrix += np.array([[rng.uniform(-5, 5) for _ in tids] for _ in matrix])
        matrix = np.float64(np.float32(matrix))
        for name in (name, "Gorilla"):
            fitter = registry.by_name(name).fitter(len(tids), bound, length)
            if all(fitter.append(tuple(row.tolist())) for row in matrix):
                break
        segments.append(
            SegmentGroup(
                1, start, start + (length - 1) * si, si, registry.mid_of(name),
                fitter.parameters(), group_tids=tids,
            )
        )
        start += length * si + rng.choice((0, 0, si, 7))
    storage.insert_segments(segments)
    return QueryEngine(storage, registry), segments


def mixed_layout_queries(segments):
    """GROUP BY Tid, TS cuts off the grid, MINUTE and HOUROFDAY CUBEs
    and every aggregate, over a mixed-layout store."""
    first, end = segments[0].start_time, segments[-1].end_time
    lo, hi = first + (end - first) // 3 + 1, end - (end - first) // 4 - 1
    every = "COUNT_S(*), SUM_S(*), MIN_S(*), MAX_S(*), AVG_S(*)"
    return [
        f"SELECT {every} FROM Segment",
        f"SELECT Tid, {every} FROM Segment GROUP BY Tid",
        f"SELECT Tid, SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment "
        f"WHERE TS >= {lo} AND TS <= {hi} GROUP BY Tid",
        "SELECT Tid, CUBE_SUM_MINUTE(*), CUBE_MAX_MINUTE(*), "
        "CUBE_COUNT_MINUTE(*) FROM Segment GROUP BY Tid",
        "SELECT CUBE_AVG_HOUROFDAY(*), CUBE_MIN_HOUROFDAY(*), MAX_S(*) "
        "FROM Segment",
        f"SELECT Tid, CUBE_SUM_MINUTE(*), AVG_S(*) FROM Segment "
        f"WHERE TS >= {lo} GROUP BY Tid",
        f"SELECT Tid, SUM(*), COUNT(*), MIN(*) FROM DataPoint "
        f"WHERE Value < 1 AND TS <= {hi} GROUP BY Tid",
    ]


class TestPartitionFold:
    @pytest.mark.parametrize("multi", (False, True))
    @pytest.mark.parametrize("bound", (0.0, 5.0))
    def test_fold_matches_the_row_engine_bitwise(self, bound, multi):
        for seed in range(3):
            db, mark, timestamps = build_fold_db(seed, bound, multi)
            for sql in fold_queries(timestamps):
                for as_of in (None, mark):
                    assert_rows_bit_identical(
                        db.query(sql, as_of=as_of),
                        oracle.query(db, sql, as_of=as_of),
                        context=f"seed={seed} bound={bound} multi={multi} "
                        f"as_of={as_of}: {sql}",
                    )

    @pytest.mark.parametrize("multi", (False, True))
    def test_the_corpus_reaches_the_corner_cases(self, multi):
        db, mark, _ = build_fold_db(0, 5.0, multi)
        group = list(db.storage.scan(SegmentScan(gids=(1,))))
        assert len(group) >= 200
        assert any(s.gaps for s in group) and not all(s.gaps for s in group)
        assert any(s.revision for s in group)
        names = {db.registry.by_mid(s.mid).name for s in group}
        expected = {"Multi(PMC)", "Swing"} if multi else {"PMC", "Swing"}
        assert expected <= names
        before = db.query("SELECT COUNT_S(*) FROM Segment", as_of=mark)
        after = db.query("SELECT COUNT_S(*) FROM Segment")
        assert before != after  # the correction erased a point

    def test_a_partition_mixing_group_layouts_folds_exactly(self):
        """Sixty seeded stores whose one Gid mixes three group layouts,
        some in interleaved runs: every statement folds each layout run
        as its own table and matches the oracle bit for bit."""
        interleaved, names, registry = 0, set(), ModelRegistry()
        for seed in range(60):
            engine, segments = mixed_layout_engine(seed)
            layouts = [(s.group_tids, s.sampling_interval) for s in segments]
            runs = [
                layout
                for row, layout in enumerate(layouts)
                if row == 0 or layout != layouts[row - 1]
            ]
            interleaved += len(runs) > len(set(runs))
            names |= {registry.by_mid(s.mid).name for s in segments}
            for sql in mixed_layout_queries(segments):
                assert_rows_bit_identical(
                    engine.sql(sql),
                    oracle.query(engine, sql),
                    context=f"seed={seed}: {sql}",
                )
        assert interleaved >= 10
        assert names == {"PMC", "Swing", "Gorilla"}

    def test_a_hand_built_mixed_partition_answers_exactly(self):
        # MemoryStorage stores rows as given: hand-built rows of one Gid
        # may disagree on the group's Tids and sampling interval.
        storage = MemoryStorage()
        storage.insert_time_series(
            [TimeSeriesRecord(tid, SI, 1) for tid in (1, 2, 3)]
        )
        registry = ModelRegistry()
        mid = registry.mid_of("PMC")
        storage.insert_segments(
            [
                SegmentGroup(
                    1, START + first * SI, START + (first + 4 * si) * SI,
                    si * SI, mid, struct.pack("<f", value), group_tids=tids,
                )
                for first, si, value, tids in (
                    (0, 1, 2.5, (1, 2)),
                    (5, 1, -1.25, (1, 2, 3)),
                    (10, 1, 0.75, (1, 2)),
                    (15, 2, -0.5, (2, 3)),
                )
            ]
        )
        engine = QueryEngine(storage, registry)
        sql = "SELECT Tid, SUM_S(*), MIN_S(*), COUNT_S(*) FROM Segment GROUP BY Tid"
        rows = engine.sql(sql)
        assert_rows_bit_identical(rows, oracle.query(engine, sql))
        assert [row["COUNT_S(*)"] for row in rows] == [15, 20, 10]
        # The Data Point View decodes the foreign rows (another Tid
        # layout, another SI) one at a time within the partition.
        for sql in (
            "SELECT Tid, CUBE_SUM_MINUTE(*), CUBE_MAX_DAYOFWEEK(*) "
            "FROM Segment GROUP BY Tid",
            "SELECT Tid, TS, Value FROM DataPoint",
            "SELECT Tid, TS, Value FROM DataPoint WHERE Value > 0",
            "SELECT Tid, TS, Value FROM DataPoint WHERE Tid = 3",
            "SELECT Tid, SUM(*), COUNT(*) FROM DataPoint "
            "WHERE Value < 1 GROUP BY Tid",
        ):
            rows = engine.sql(sql)
            assert rows, sql
            assert_rows_bit_identical(rows, oracle.query(engine, sql), context=sql)
        rows = engine.sql("SELECT TS FROM DataPoint WHERE Tid = 3")
        assert [row["TS"] for row in rows] == [
            START + tick * SI for tick in (*range(5, 10), *range(15, 24, 2))
        ]

    @pytest.mark.parametrize("multi", (False, True))
    @pytest.mark.parametrize("bound", (0.0, 5.0))
    @pytest.mark.parametrize("calendar", CALENDARS)
    def test_rollups_match_the_row_engine_bitwise(self, calendar, bound, multi):
        origin, si, levels = CALENDARS[calendar]
        db, mark, timestamps = build_fold_db(
            len(calendar), bound, multi, origin=origin, si=si
        )
        for sql in rollup_queries(timestamps, si, levels):
            for as_of in (None, mark):
                assert_rows_bit_identical(
                    db.query(sql, as_of=as_of),
                    oracle.query(db, sql, as_of=as_of),
                    context=f"{calendar} bound={bound} multi={multi} "
                    f"as_of={as_of}: {sql}",
                )

    @pytest.mark.parametrize("calendar", CALENDARS)
    def test_the_rollup_corpus_reaches_the_corner_cases(self, calendar):
        origin, si, levels = CALENDARS[calendar]
        db, _, _ = build_fold_db(len(calendar), 0.0, origin=origin, si=si)
        segments = list(db.storage.scan(SegmentScan()))
        fine = levels[0]
        gorilla = db.registry.mid_of("Gorilla")
        assert any(
            segment.mid == gorilla
            and floor_to_level(segment.start_time, fine)
            != floor_to_level(segment.end_time, fine)
            for segment in segments
        )
        level = FED_TWICE.get(calendar)
        if level is not None:
            walk = DATEPART_LEVELS[level]
            floors = [
                (floor_to_level(s.start_time, walk), floor_to_level(s.end_time, walk))
                for s in segments
            ]
            assert any(
                a != b and datepart_of(a, level) == datepart_of(b, level)
                for a, b in floors
            )

    def test_a_rollup_counts_what_the_row_engine_counts(self):
        """On a fresh handle each, a CUBE statement over Gorilla rows
        split into several buckets looks every model up once, as the
        oracle's row-at-a-time walk does: equal cache hits and misses,
        cold and then warm. (Without revisions: fold columns also decode
        the rows a revision shadows.)"""
        origin, si, _ = CALENDARS["new-year"]
        sql = (
            "SELECT Park, CUBE_SUM_MINUTE(*), MAX_S(*), "
            "CUBE_COUNT_HOUR(*) FROM Segment GROUP BY Park"
        )
        counted, reports = {}, []
        for reference in (False, True):
            db, _, _ = build_fold_db(0, 0.0, origin=origin, si=si, revise=False)
            for _ in range(2):
                before = db.engine.cache_stats
                if reference:
                    oracle.query(db, sql)
                else:
                    report = db.query("EXPLAIN ANALYZE " + sql)
                    (scan,) = [r["detail"] for r in report if r["stage"] == "scan"]
                    reports.append(dict(item.split("=") for item in scan.split()))
                after = db.engine.cache_stats
                counted.setdefault(reference, []).append(
                    (after[0] - before[0], after[1] - before[1])
                )
        assert counted[False] == counted[True]
        (_, misses), (hits, warm_misses) = counted[False]
        cold, warm = reports
        assert int(cold["decoded"]) == misses > 0 and warm_misses == 0
        assert int(warm["cache_hits"]) == hits == int(cold["segments"]) > 200
        assert int(cold["rows_skipped_materialization"]) > 0


# ----------------------------------------------------------------------
# The decode kernels themselves: values_block == values()[first:last+1]
# ----------------------------------------------------------------------
class TestValuesBlockContract:
    def test_blocks_slice_the_full_reconstruction(self):
        db, _ = build_db(seed=3, bound=5.0, chunk_size=1024)
        cache = db.engine.segment_cache
        checked = 0
        for segment in db.storage.scan(SegmentScan()):
            model = cache.decode(
                segment.mid,
                segment.parameters,
                segment.n_columns,
                segment.length,
            )
            full = model.values()
            for first, last in [
                (0, segment.length - 1),
                (0, 0),
                (segment.length // 2, segment.length - 1),
            ]:
                block = model.values_block(first, last)
                assert block.shape == (last - first + 1, segment.n_columns)
                assert (
                    block.tobytes() == full[first:last + 1].tobytes()
                ), (segment.mid, first, last)
                checked += 1
        assert checked > 0
