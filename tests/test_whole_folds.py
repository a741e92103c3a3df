"""Whole-table Segment View folds against the row-at-a-time oracle.

A partition table whose every row the statement's interval holds folds
from memos kept on the table: each column's point count, and every
row's whole-segment slice sums, minima and maxima (``Cells``), filled
once per row. Answers must stay bit-identical to ``tests/oracle.py`` —
the same cells added in the same (segment, column) order — for every
Segment View aggregate, alone and together, ungrouped and grouped, over
PMC-Mean, Swing, Gorilla and ``Multi`` rows, signed zeros, NaN gaps,
revisions read ``AS OF``, partitions mixing group layouts, and tables
extended after their memo was built. Statements that cut tables share
the memo, so they run interleaved with whole ones in both orders.
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
    for sign in (1.0, -1.0, 1.0, -1.0):
        start = rng.randrange(TICKS - 20)
        values[start:start + rng.randint(4, 20), 0] = sign * 0.0
    return values


def dimensions():
    park = Dimension("Location", ["Park"])
    for tid, member in zip((1, 2, 3, 4), ("north", "south", "north", "north")):
        park.assign(tid, (member,))
    return DimensionSet([park])


def groups(values, first, last):
    """Ticks ``first..last-1`` of a three-series group (scalings 1, 3
    and -0.5, so a scaled zero flips sign) and a singleton."""
    timestamps = np.arange(first, last, dtype=np.int64) * SI + START
    series = [
        TimeSeries(
            tid, SI, timestamps, values[first:last, tid - 1] / scaling,
            scaling=scaling,
        )
        for tid, scaling in zip((1, 2, 3), (1.0, 3.0, -0.5))
    ]
    solo = TimeSeries(4, SI, timestamps, values[first:last, 0] * 1.5 + 3.0)
    return [TimeSeriesGroup(1, series), TimeSeriesGroup(2, [solo])]


def store(seed, bound, multi=False, ticks=TICKS):
    """A database holding the first ``ticks`` ticks of seed's data."""
    config = Configuration(
        error_bound=bound, model_length_limit=6, models=MODELS[multi]
    )
    db = ModelarDB(
        config,
        storage=MemoryStorage(),
        dimensions=dimensions(),
        extra_models=[MultiModel(PMCMean()), MultiModel(Gorilla())],
    )
    db.ingest(groups(matrix(seed), 0, ticks))
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
