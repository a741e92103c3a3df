"""Whole-table Segment View folds against the row-at-a-time oracle.

A partition table whose every row the statement's interval holds folds
from memos kept on the table: each column's point count, every row's
whole-segment slice sums, minima and maxima (``Cells``), built once per
row, and per CUBE level the rows' calendar pieces with their cells
(``Pieces``), kept while they number at most twice the rows. Answers
must stay bit-identical to ``tests/oracle.py`` — the same cells added in
the same (segment, column[, piece]) order — for every Segment View
aggregate and time rollup, alone and together, ungrouped and grouped,
over PMC-Mean, Swing, Gorilla and ``Multi`` rows, signed zeros, NaN
gaps, revisions read ``AS OF``, partitions mixing group layouts, and
tables extended after their memo was built. Statements that cut tables
share the memo, so they run interleaved with whole ones in both orders.
"""

import random

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
from repro.models.gorilla import Gorilla
from repro.models.multi import MultiModel
from repro.models.pmc_mean import PMCMean
from repro.obs import get_registry
from repro.storage import SegmentScan

from . import oracle
from .test_columnar_equivalence import (
    assert_rows_bit_identical,
    make_values,
    mixed_layout_engine,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

START = 1_600_000_000_000
SI = 100
TICKS = 600
CALLS = ("SUM_S(*)", "MIN_S(*)", "MAX_S(*)", "AVG_S(*)", "COUNT_S(*)")
MODELS = {
    False: ("PMC", "Swing", "Gorilla"),
    True: ("Multi(PMC)", "Swing", "Multi(Gorilla)"),
}


def matrix(seed):
    """Holds, ramps and noise over three columns, with NaN gaps in the
    second and runs of +0.0 and -0.0 in the first: the extremes of a
    key then tie between zeros of both signs."""
    rng = random.Random(seed)
    values = make_values(rng, TICKS, 3)
    for _ in range(5):
        start = rng.randrange(TICKS - 30)
        values[start:start + rng.randint(1, 25), 1] = np.nan
    for column in (0, 2):
        for sign in (1.0, -1.0, 1.0, -1.0):
            start = rng.randrange(TICKS - 20)
            values[start:start + rng.randint(4, 20), column] = sign * 0.0
    return values


def dimensions():
    park = Dimension("Location", ["Park"])
    for tid, member in zip((1, 2, 3, 4), ("north", "south", "north", "north")):
        park.assign(tid, (member,))
    return DimensionSet([park])


def groups(values, first, last, origin=START, si=SI):
    """Ticks ``first..last-1`` of a three-series group (scalings 1, 3
    and -0.5, so a scaled zero flips sign) and a singleton."""
    timestamps = np.arange(first, last, dtype=np.int64) * si + origin
    series = [
        TimeSeries(
            tid, si, timestamps, values[first:last, tid - 1] / scaling,
            scaling=scaling,
        )
        for tid, scaling in zip((1, 2, 3), (1.0, 3.0, -0.5))
    ]
    solo = TimeSeries(4, si, timestamps, values[first:last, 0] * 1.5 + 3.0)
    return [TimeSeriesGroup(1, series), TimeSeriesGroup(2, [solo])]


def store(seed, bound, multi=False, ticks=TICKS, origin=START, si=SI, limit=6):
    """A database holding the first ``ticks`` ticks of seed's data,
    sampled every ``si`` ms from ``origin`` in rows of at most ``limit``
    ticks."""
    config = Configuration(
        error_bound=bound, model_length_limit=limit, models=MODELS[multi]
    )
    db = ModelarDB(
        config,
        storage=MemoryStorage(),
        dimensions=dimensions(),
        extra_models=[MultiModel(PMCMean()), MultiModel(Gorilla())],
    )
    db.ingest(groups(matrix(seed), 0, ticks, origin, si))
    return db


def whole_statements():
    """Every Segment View aggregate alone and all together, ungrouped,
    by Tid and by a dimension that spans groups, over the whole store,
    a Tid subset and a TS interval that holds every row."""
    wheres = (
        "",
        " WHERE Tid IN (1, 3)",
        " WHERE Tid = 2",
        f" WHERE TS >= {START - SI} AND TS <= {START + 2 * TICKS * SI}",
    )
    statements = []
    for where in wheres:
        for calls in [*((call,) for call in CALLS), CALLS]:
            select = ", ".join(calls)
            statements += [
                f"SELECT {select} FROM Segment{where}",
                f"SELECT Tid, {select} FROM Segment{where} GROUP BY Tid",
                f"SELECT Park, {select} FROM Segment{where} GROUP BY Park",
            ]
    return statements


def cut_statements():
    """Statements whose interval cuts rows, reading the same tables."""
    lo, hi = START + 7 * SI + SI // 2, START + (TICKS // 2) * SI - SI // 3
    every = ", ".join(CALLS)
    return [
        f"SELECT {every} FROM Segment WHERE TS >= {lo}",
        f"SELECT Tid, {every} FROM Segment WHERE TS <= {hi} GROUP BY Tid",
        f"SELECT Park, SUM_S(*), MAX_S(*) FROM Segment "
        f"WHERE TS >= {lo} AND TS <= {hi} GROUP BY Park",
        "SELECT Tid, CUBE_SUM_MINUTE(*), MIN_S(*) FROM Segment GROUP BY Tid",
    ]


def assert_oracle(db, statements, as_of=None, context=""):
    for sql in statements:
        assert_rows_bit_identical(
            db.query(sql, as_of=as_of),
            oracle.query(db, sql, as_of=as_of),
            context=f"{context} as_of={as_of}: {sql}",
        )


def resident_tables(db):
    return list(db.storage.tables(SegmentScan()))


def lookups(db):
    """Models looked up in the LRU or decoded so far (pinned reads aside)."""
    counters = get_registry().snapshot()["counters"]
    return sum(
        counters.get(f"query.segment_cache_{kind}_total", 0)
        for kind in ("hits", "misses")
    )


class TestWholeFolds:
    @pytest.mark.parametrize("multi", (False, True))
    @pytest.mark.parametrize("bound", (0.0, 5.0))
    def test_whole_statements_match_the_oracle(self, bound, multi):
        for seed in range(2):
            db = store(seed, bound, multi)
            assert_oracle(db, whole_statements(), context=f"seed={seed}")

    @pytest.mark.parametrize("multi", (False, True))
    def test_the_corpus_reaches_every_row_kind(self, multi):
        db = store(0, 0.0, multi)
        segments = list(db.storage.scan(SegmentScan()))
        names = {db.registry.by_mid(s.mid).name for s in segments}
        assert set(MODELS[multi]) <= names
        assert any(s.gaps for s in segments)
        cache = db.engine.segment_cache
        zeros = {
            bool(np.signbit(cell))
            for s in segments
            if s.gid == 1 and 1 in s.member_tids
            for cell in [cache.model_of(s).slice_min(0, s.length - 1, 0)]
            if cell == 0.0
        }
        assert zeros == {False, True}
        # A whole read builds every table's cells, over every row.
        db.sql("SELECT SUM_S(*) FROM Segment")
        for table in resident_tables(db):
            assert len(table.fold.cells.constant) == len(table.segments)

    def test_a_revised_partition_reads_whole_as_of_before_and_after(self):
        for multi in (False, True):
            db = store(1, 5.0, multi)
            mark = db.knowledge_time()
            timestamps = START + SI * np.array([17, 250, 431])
            db.correct(
                [(1, int(timestamps[0]), 7.25), (3, int(timestamps[1]), None),
                 (2, int(timestamps[2]), -0.0)]
            )
            assert any(s.revision for s in db.storage.scan(SegmentScan()))
            for as_of in (None, mark, None):
                assert_oracle(db, whole_statements(), as_of, f"multi={multi}")

    @pytest.mark.parametrize("whole_first", (True, False))
    def test_whole_and_cut_statements_interleave(self, whole_first):
        """On a fresh handle, cut statements read the whole exact rows of
        cells a whole read built, and build none of their own."""
        for seed in range(3):
            db = store(seed, (0.0, 1.0, 5.0)[seed], multi=seed == 1)
            whole, cut = whole_statements()[::3], cut_statements()
            first, second = (whole, cut) if whole_first else (cut, whole)
            for sql in [*first, *second, *first]:
                assert_oracle(db, [sql], context=f"seed={seed}")

    def test_a_read_after_an_append_extends_built_cells(self):
        values = matrix(3)
        db = store(3, 1.0, ticks=TICKS // 2)
        statements = whole_statements()
        assert_oracle(db, statements)
        before = sum(len(table.segments) for table in resident_tables(db))
        db.ingest(groups(values, TICKS // 2, TICKS))
        cache = db.engine.segment_cache
        misses = cache.misses
        assert_oracle(db, statements[:1])
        for table in resident_tables(db):
            assert len(table.fold.cells.constant) == len(table.segments)
        # Only appended rows were decoded: the prefix kept its cells.
        appended = sum(len(t.segments) for t in resident_tables(db)) - before
        assert 0 < cache.misses - misses <= appended
        assert_oracle(db, statements + cut_statements())

    def test_partitions_mixing_group_layouts_fold_exactly(self):
        """A partition with a FOREIGN row never reads whole: it folds
        one layout run at a time, for each aggregate alone too."""
        for seed in range(20):
            engine, segments = mixed_layout_engine(seed)
            for calls in [*((call,) for call in CALLS), CALLS]:
                select = ", ".join(calls)
                for sql in (
                    f"SELECT {select} FROM Segment",
                    f"SELECT Tid, {select} FROM Segment GROUP BY Tid",
                ):
                    assert_rows_bit_identical(
                        engine.sql(sql),
                        oracle.query(engine, sql),
                        context=f"seed={seed}: {sql}",
                    )


class TestAccounting:
    def test_count_on_a_cold_handle_decodes_no_gorilla_model(self, tmp_path):
        db = ModelarDB.open(
            tmp_path, config=Configuration(error_bound=1.0, model_length_limit=6),
            dimensions=dimensions(),
        )
        db.ingest(groups(matrix(4), 0, TICKS))
        db.close()
        db = ModelarDB.open(tmp_path, dimensions=dimensions())
        try:
            segments = list(db.storage.scan(SegmentScan()))
            names = [db.registry.by_mid(s.mid).name for s in segments]
            assert names.count("Gorilla") > 0
            cache = db.engine.segment_cache
            count = "SELECT COUNT_S(*) FROM Segment"
            rows = db.sql(count)
            # Fold columns decode PMC-Mean and Swing rows; COUNT looks
            # no Gorilla model up.
            assert cache.misses == len(segments) - names.count("Gorilla")
            assert cache.stats()["entries"] == 0
            assert rows == oracle.query(db, count)
            # A warm COUNT counts one pinned hit per row read.
            hits, misses = db.engine.cache_stats
            report = db.sql("EXPLAIN ANALYZE " + count)
            (scan,) = [r["detail"] for r in report if r["stage"] == "scan"]
            details = dict(item.split("=") for item in scan.split())
            assert db.engine.cache_stats == (hits + len(segments), misses)
            # Every point a COUNT counts is one never materialised.
            assert int(details["rows_skipped_materialization"]) == (
                rows[0]["COUNT_S(*)"]
            )
        finally:
            db.close()

    def test_a_revised_partition_keeps_its_cells_across_an_append(self):
        """A table of survivors fills the cells of the table of every row,
        which the next survivors gather: after an append, a whole read of
        a revised partition looks up its appended rows' models only."""
        db = store(3, 1.0, ticks=TICKS // 2)
        db.correct([(4, START + 17 * SI, 7.25)])
        sql = "SELECT SUM_S(*), MIN_S(*) FROM Segment WHERE Tid = 4"
        rows = lambda: len(list(db.storage.scan(SegmentScan(gids=(2,)))))
        db.sql(sql)
        stored = rows()
        db.ingest(groups(matrix(3), TICKS // 2, TICKS))
        before = lookups(db)
        db.sql(sql)
        assert lookups(db) - before <= rows() - stored
        assert_oracle(db, [sql])

    def test_cut_reads_build_no_cells_and_read_built_ones(self):
        """A cut statement never builds cells; once a whole read built
        them, it looks up only the models of the rows it cuts."""
        db = store(0, 1.0)
        middle = START + (TICKS // 2) * SI + SI // 2
        cut = f"SELECT MAX_S(*), SUM_S(*) FROM Segment WHERE TS >= {middle}"
        before = lookups(db)
        assert_oracle(db, [cut])
        cold = lookups(db) - before
        assert all(table.fold.cells is None for table in resident_tables(db))
        db.sql("SELECT MIN_S(*) FROM Segment")
        before = lookups(db)
        assert_oracle(db, [cut])
        assert lookups(db) - before < cold

    def test_published_cells_are_never_written(self):
        """Cells are built whole and published read-only: extending a
        table or gathering its survivors copies them, so a reader still
        holding an older table never sees a row change under it."""
        db = store(2, 0.0, ticks=TICKS // 2)
        db.correct([(4, START + 17 * SI, 7.25)])
        db.sql("SELECT SUM_S(*) FROM Segment")
        tables = resident_tables(db)
        sources = [t.source[0] for t in tables if t.source is not None]
        assert sources
        memos = [table.fold.cells for table in [*tables, *sources]]
        copies = [[array.copy() for array in memo] for memo in memos]
        db.ingest(groups(matrix(2), TICKS // 2, TICKS))
        assert_oracle(db, whole_statements()[:9] + cut_statements())
        for memo, copy in zip(memos, copies):
            for array, before in zip(memo, copy):
                assert not array.flags.writeable
                assert np.array_equal(array, before)

    def test_a_whole_read_counts_what_the_oracle_counts(self):
        """Cold, a whole read looks every Gorilla row's model up once,
        as the oracle's walk does; warm, it counts one pinned hit per
        row it reads, Tid subsets included."""
        for sql in (
            "SELECT Tid, SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment GROUP BY Tid",
            "SELECT AVG_S(*) FROM Segment WHERE Tid IN (2, 4)",
        ):
            counted = {}
            for reference in (False, True):
                db = store(2, 0.0)
                for _ in range(2):
                    before = db.engine.cache_stats
                    (oracle.query if reference else type(db).sql)(db, sql)
                    after = db.engine.cache_stats
                    counted.setdefault(reference, []).append(
                        (after[0] - before[0], after[1] - before[1])
                    )
            assert counted[False][1] == counted[True][1], sql
            assert counted[False][1][1] == 0


#: 23:10 on Sunday 2016-01-03 UTC: 600 ticks of 20 s run 3 h 20 min
#: into Monday, over MINUTE, HOUR, DAY and DAYOFWEEK boundaries.
SUNDAY = 1_451_862_600_000
SLOW = 20_000
LEVELS = ("DAY", "HOUR", "MINUTE", "DAYOFWEEK")
FUNCTIONS = ("SUM", "AVG", "MIN", "MAX", "COUNT")


def calendar_store(seed, bound, multi=False, limit=3, ticks=TICKS):
    """Rows of at most ``limit`` 20 s ticks: at 3 a row spans at most two
    minutes, so every level keeps its pieces; at 40 a row spans up to
    13 minutes, so MINUTE's pieces outnumber twice the rows and are
    split per statement."""
    return store(seed, bound, multi, ticks, SUNDAY, SLOW, limit)


def cube_statements():
    """Every rollup at every level alone and all five together,
    ungrouped, by Tid and by a dimension over a Tid subset, and rollups
    beside simple calls."""
    statements = []
    for level in LEVELS:
        every = ", ".join(f"CUBE_{name}_{level}(*)" for name in FUNCTIONS)
        statements += [
            f"SELECT {every} FROM Segment",
            f"SELECT Tid, {every} FROM Segment GROUP BY Tid",
            f"SELECT Park, {every} FROM Segment WHERE Tid IN (1, 3, 4) "
            "GROUP BY Park",
        ]
        statements += [
            f"SELECT Park, CUBE_{name}_{level}(*) FROM Segment GROUP BY Park"
            for name in FUNCTIONS
        ]
    return statements + [
        "SELECT Tid, SUM_S(*), CUBE_MIN_HOUR(*), MAX_S(*), "
        "CUBE_AVG_DAYOFWEEK(*) FROM Segment GROUP BY Tid",
        "SELECT Park, COUNT_S(*), CUBE_SUM_MINUTE(*), CUBE_MAX_DAY(*) "
        "FROM Segment GROUP BY Park",
        "SELECT AVG_S(*), MIN_S(*), CUBE_COUNT_HOUR(*), CUBE_SUM_HOUR(*) "
        "FROM Segment WHERE Tid = 2",
    ]


def cut_cube_statements():
    """Rollups whose interval cuts rows, reading the same tables."""
    lo = SUNDAY + 37 * SLOW + SLOW // 2
    hi = SUNDAY + (TICKS // 2) * SLOW - SLOW // 3
    return [
        f"SELECT Tid, CUBE_SUM_HOUR(*), CUBE_MIN_HOUR(*) FROM Segment "
        f"WHERE TS >= {lo} GROUP BY Tid",
        f"SELECT Park, CUBE_AVG_MINUTE(*), MAX_S(*) FROM Segment "
        f"WHERE TS <= {hi} GROUP BY Park",
        f"SELECT CUBE_MAX_DAYOFWEEK(*), CUBE_COUNT_DAY(*) FROM Segment "
        f"WHERE TS >= {lo} AND TS <= {hi}",
    ]


def assert_pieces_cover(db, levels):
    """Every resident table keeps ``levels``' pieces over all its rows,
    and no level's pieces (a prefix's, until a read extends them) that
    outnumber twice the rows they cover."""
    for table in resident_tables(db):
        kept = table.fold.pieces
        for level in levels:
            assert int(kept[level].rows[-1]) + 1 == len(table.segments)
        for pieces in kept.values():
            assert len(pieces.rows) <= 2 * (int(pieces.rows[-1]) + 1)


class TestWholeCubes:
    @pytest.mark.parametrize(
        "bound, multi, limit",
        [(0.0, False, 3), (5.0, True, 3), (0.0, True, 40), (5.0, False, 40)],
    )
    def test_cube_statements_match_the_oracle(self, bound, multi, limit):
        db = calendar_store(limit, bound, multi, limit)
        assert_oracle(db, cube_statements(), context=f"limit={limit}")
        assert_pieces_cover(db, LEVELS if limit == 3 else ("DAY", "HOUR"))
        if limit == 40:
            assert all(
                "MINUTE" not in table.fold.pieces for table in resident_tables(db)
            )
        assert_oracle(db, cube_statements()[::3], context="warm")

    @pytest.mark.parametrize("multi", (False, True))
    def test_the_cube_corpus_reaches_every_row_shape(self, multi):
        """Exact rows inside one minute and across a minute boundary, and
        minima that tie between zeros of both signs under a negative
        scaling."""
        db = calendar_store(0, 0.0, multi)
        cache = db.engine.segment_cache
        segments = list(db.storage.scan(SegmentScan()))
        exact = [
            s for s in segments
            if db.registry.by_mid(s.mid).name in ("Gorilla", "Multi(Gorilla)")
        ]
        spans = {(s.end_time // 60_000) - (s.start_time // 60_000) for s in exact}
        assert {0, 1} <= spans
        zeros = {
            bool(np.signbit(cell / -0.5))
            for s in segments
            if s.gid == 1 and 3 in s.member_tids
            for column in [s.member_tids.index(3)]
            for cell in [cache.model_of(s).slice_min(0, s.length - 1, column)]
            if cell == 0.0
        }
        assert zeros == {False, True}

    def test_an_append_extends_built_pieces(self):
        values = matrix(3)
        db = calendar_store(3, 1.0, ticks=TICKS // 2)
        statements = cube_statements()
        assert_oracle(db, statements)
        before = sum(len(table.segments) for table in resident_tables(db))
        db.ingest(groups(values, TICKS // 2, TICKS, SUNDAY, SLOW))
        cache = db.engine.segment_cache
        misses = cache.misses
        assert_oracle(db, statements[:1])
        assert_pieces_cover(db, ("DAY",))
        # Only appended rows were decoded: the prefix kept its pieces.
        appended = sum(len(t.segments) for t in resident_tables(db)) - before
        assert 0 < cache.misses - misses <= appended
        assert_oracle(db, statements + cut_cube_statements())

    def test_a_revised_partition_reads_whole_cubes_as_of_before_and_after(self):
        for multi in (False, True):
            db = calendar_store(1, 5.0, multi)
            mark = db.knowledge_time()
            timestamps = SUNDAY + SLOW * np.array([17, 250, 431])
            db.correct(
                [(1, int(timestamps[0]), 7.25), (3, int(timestamps[1]), None),
                 (2, int(timestamps[2]), -0.0)]
            )
            assert any(s.revision for s in db.storage.scan(SegmentScan()))
            for as_of in (None, mark, None):
                assert_oracle(db, cube_statements()[::4], as_of, f"multi={multi}")

    @pytest.mark.parametrize("whole_first", (True, False))
    def test_whole_and_cut_cubes_interleave(self, whole_first):
        for seed in range(2):
            db = calendar_store(seed, (0.0, 5.0)[seed], multi=seed == 1)
            whole, cut = cube_statements()[::5], cut_cube_statements()
            first, second = (whole, cut) if whole_first else (cut, whole)
            for sql in [*first, *second, *first]:
                assert_oracle(db, [sql], context=f"seed={seed}")

    def test_published_pieces_are_never_written(self):
        """Pieces are built whole and published read-only: extending a
        table or gathering its survivors copies them."""
        db = calendar_store(2, 0.0, ticks=TICKS // 2)
        db.correct([(4, SUNDAY + 17 * SLOW, 7.25)])
        db.sql("SELECT CUBE_SUM_HOUR(*), CUBE_MAX_DAY(*) FROM Segment")
        tables = resident_tables(db)
        sources = [t.source[0] for t in tables if t.source is not None]
        assert sources
        memos = [
            pieces
            for table in [*tables, *sources]
            for pieces in table.fold.pieces.values()
        ]
        assert len(memos) == 2 * len(tables + sources)
        copies = [[array.copy() for array in memo] for memo in memos]
        db.ingest(groups(matrix(2), TICKS // 2, TICKS, SUNDAY, SLOW))
        assert_oracle(db, cube_statements()[:8] + cut_cube_statements())
        for memo, copy in zip(memos, copies):
            for array, before in zip(memo, copy):
                assert not array.flags.writeable
                assert np.array_equal(array, before)


if HAVE_HYPOTHESIS:

    @settings(max_examples=settings.default.max_examples // 5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 31),
        bound=st.sampled_from((0.0, 1.0, 5.0)),
        multi=st.booleans(),
        order=st.permutations(range(6)),
    )
    def test_whole_folds_match_the_oracle_in_any_order(seed, bound, multi, order):
        """Whole and cut statements in a random order on a fresh handle."""
        db = store(seed, bound, multi, ticks=200)
        statements = [*whole_statements()[::9], *cut_statements()]
        for index in order:
            assert_oracle(db, statements[index::6], context=f"seed={seed}")
