"""The Data Point View decoded a partition at a time, held to the row
engine bit for bit.

The columnar engine fills a partition table's PMC-Mean levels and Swing
ramps with one numpy pass, decodes Gorilla and ``Multi`` rows one at a
time, reads a series from its rank among a row's members, divides by
each series' scaling and drops the series whose model bounds cannot
meet a ``Value`` predicate. The row engine, which reconstructs one
segment row at a time, is the oracle: every selection and Data Point
View aggregate must return the same rows in the same order, each key in
the same order, each value of the same Python type (never a numpy
scalar) and ``struct.pack``-identical. The corpus aims at the decode's
edges: a ``-0.0`` level, negative and non-unit scalings, gaps that move
a series' model column, ``Multi`` rows, ``TS`` bounds that cut segments
on both sides, ``AS OF`` after a correction and a predicate that prunes
some series of a row but not the others. Last, readers race an
ingesting ``FileStorage`` handle: every answer must be the row engine's
at some published prefix.
"""

from __future__ import annotations

import random
import struct
import sys
import threading

import numpy as np
import pytest

from repro import Configuration, MemoryStorage, ModelarDB, TimeSeries
from repro.core.group import TimeSeriesGroup
from repro.core.segment import SegmentGroup
from repro.models.gorilla import Gorilla
from repro.models.multi import MultiModel
from repro.models.pmc_mean import PMCMean
from repro.models.registry import ModelRegistry
from repro.obs import get_registry
from repro.query.engine import QueryEngine
from repro.storage import SegmentScan, TimeSeriesRecord

from .test_columnar_equivalence import assert_rows_bit_identical, make_values

START = 1_600_000_000_000
SI = 1_000  # 600 ticks: ten minutes, so minute buckets cut segments
TICKS = 600
#: Group members (Tid, scaling) and the singleton's: negative scalings
#: swap a bound's ends, 2.5 and 0.5 make divided values inexact.
MEMBERS = ((1, 1.0), (2, -2.5), (3, 0.5))
SOLO = (4, -3.0)
#: Every value meets it, so an aggregate takes the Data Point View
#: without any series pruned.
EVERYTHING = "Value > -1e30"


def assert_same(columnar_rows, row_rows, context=""):
    """Rows bit-identical to the oracle's, every value a Python scalar."""
    assert_rows_bit_identical(columnar_rows, row_rows, context)
    for row in columnar_rows:
        for value in row.values():
            assert type(value) in (int, float, str, type(None)), (context, value)


def counter(name: str) -> float:
    return get_registry().counter(name).value


# ----------------------------------------------------------------------
# A hand-built partition
# ----------------------------------------------------------------------
def fitted(registry: ModelRegistry, name: str, matrix) -> tuple[int, bytes]:
    """The mid and parameters ``name`` fits to ``matrix`` (ticks × columns)."""
    fitter = registry.by_name(name).fitter(matrix.shape[1], 0.0, len(matrix))
    for row in matrix:
        assert fitter.append(tuple(float(v) for v in row))
    return registry.mid_of(name), fitter.parameters()


def hand_built() -> QueryEngine:
    """One three-series partition holding a ``-0.0`` PMC level, a level
    that only one series' scaling lifts over 5, a Swing ramp, and two
    Gorilla rows, one with series 2 in a gap (so series 3 reads model
    column 1, not its group column 2); plus a Gorilla singleton."""
    registry = ModelRegistry()
    storage = MemoryStorage()
    storage.insert_time_series(
        [TimeSeriesRecord(tid, SI, 1, scaling) for tid, scaling in MEMBERS]
        + [TimeSeriesRecord(SOLO[0], SI, 2, SOLO[1])]
    )
    pmc = registry.mid_of("PMC")
    noise = np.float32(np.sin(np.arange(24).reshape(8, 3) * 1.7) * 9.0)
    rows = [
        (1, 0, 5, (pmc, struct.pack("<f", -0.0)), ()),
        (1, 5, 5, (pmc, struct.pack("<f", 4.0)), ()),
        (1, 10, 8, fitted(registry, "Swing", np.repeat(
            (1.0 + 0.75 * np.arange(8))[:, None], 3, axis=1)), ()),
        (1, 18, 8, fitted(registry, "Gorilla", noise[:, [0, 2]]), (2,)),
        (1, 26, 8, fitted(registry, "Gorilla", noise), ()),
        (2, 0, 8, fitted(registry, "Gorilla", noise[:, :1] - 2.0), ()),
    ]
    storage.insert_segments(
        [
            SegmentGroup(
                gid, START + first * SI, START + (first + length - 1) * SI,
                SI, mid, parameters, gaps=frozenset(gaps),
                group_tids=(1, 2, 3) if gid == 1 else (4,),
            )
            for gid, first, length, (mid, parameters), gaps in rows
        ]
    )
    return QueryEngine(storage, registry)


class TestHandBuiltPartition:
    def test_every_statement_matches_the_row_engine(self):
        engine = hand_built()
        lo, hi = START + 2 * SI, START + 30 * SI
        for sql in (
            "SELECT Tid, TS, Value FROM DataPoint",
            "SELECT * FROM DataPoint WHERE Tid IN (2, 3)",
            f"SELECT Value, TS FROM DataPoint WHERE TS > {lo} AND TS < {hi}",
            "SELECT Tid, TS, Value FROM DataPoint WHERE Value > 5",
            "SELECT Tid, TS, Value FROM DataPoint WHERE Value <= 0",
            "SELECT SUM(*), AVG(*), MIN(*), MAX(*), COUNT(*) FROM DataPoint "
            f"WHERE {EVERYTHING}",
            "SELECT Tid, SUM(*), AVG(*), MIN(*), MAX(*), COUNT(*) "
            f"FROM DataPoint WHERE Value < 2 AND TS >= {lo} GROUP BY Tid",
        ):
            assert_same(
                engine.sql(sql, columnar=True),
                engine.sql(sql, columnar=False),
                context=sql,
            )

    def test_a_negative_zero_level_keeps_its_sign(self):
        # The Swing row in range puts a ramp beside the level fill.
        engine = hand_built()
        sql = (
            "SELECT Tid, TS, Value FROM DataPoint "
            f"WHERE Tid IN (1, 2, 3) AND TS < {START + 18 * SI}"
        )
        rows = engine.sql(sql, columnar=True)
        assert_same(rows, engine.sql(sql, columnar=False))
        # -0.0 divided by 1.0 and 0.5 stays -0.0; by -2.5 it turns +0.0.
        signs = {
            row["Tid"]: struct.pack("<d", row["Value"])
            for row in rows
            if row["TS"] < START + 5 * SI
        }
        assert signs == {
            1: struct.pack("<d", -0.0),
            2: struct.pack("<d", 0.0),
            3: struct.pack("<d", -0.0),
        }

    def test_a_gap_moves_a_series_model_column(self):
        engine = hand_built()
        sql = (
            "SELECT Tid, TS, Value FROM DataPoint "
            f"WHERE TS >= {START + 18 * SI} AND TS <= {START + 25 * SI}"
        )
        rows = engine.sql(sql, columnar=True)
        assert_same(rows, engine.sql(sql, columnar=False))
        assert [row["Tid"] for row in rows] == [1] * 8 + [3] * 8
        noise = np.float32(np.sin(np.arange(24).reshape(8, 3) * 1.7) * 9.0)
        assert [row["Value"] for row in rows[8:]] == (noise[:, 2] / 0.5).tolist()

    def test_a_predicate_prunes_one_series_of_a_row(self):
        # The 4.0 level reads 4.0, -1.6 and 8.0 through the scalings:
        # only series 3 can exceed 5, so its row is decoded, not pruned.
        engine = hand_built()
        sql = (
            "SELECT Tid, TS, Value FROM DataPoint WHERE Value > 5 "
            f"AND Tid IN (1, 2, 3) AND TS >= {START + 5 * SI} "
            f"AND TS <= {START + 9 * SI}"
        )
        pruned = counter("query.segments_pruned_total")
        blocks = counter("query.columnar_blocks_total")
        rows = engine.sql(sql, columnar=True)
        assert counter("query.segments_pruned_total") == pruned
        assert counter("query.columnar_blocks_total") == blocks + 1
        assert_same(rows, engine.sql(sql, columnar=False))
        assert [(row["Tid"], row["Value"]) for row in rows] == [(3, 8.0)] * 5
        sql = sql.replace("Value > 5", "Value > 9")
        assert engine.sql(sql, columnar=True) == []
        assert counter("query.segments_pruned_total") == pruned + 1


# ----------------------------------------------------------------------
# An ingested corpus
# ----------------------------------------------------------------------
def build(seed: int, bound: float, multi: bool) -> tuple[ModelarDB, int]:
    """The group with NaN gaps in its middle series (whose gaps move
    series 3's model column) and the singleton, corrected after
    ``mark``; ``multi`` stores ``Multi`` rows beside Swing."""
    rng = random.Random(seed)
    matrix = make_values(rng, TICKS, 3)
    for _ in range(6):
        start = rng.randrange(TICKS - 30)
        matrix[start:start + rng.randint(1, 25), 1] = np.nan
    timestamps = np.arange(TICKS, dtype=np.int64) * SI + START
    group = [
        TimeSeries(
            tid, SI, timestamps, matrix[:, tid - 1] / scaling, scaling=scaling
        )
        for tid, scaling in MEMBERS
    ]
    tid, scaling = SOLO
    solo = TimeSeries(tid, SI, timestamps, matrix[:, 0] / scaling, scaling=scaling)
    models = (
        ("Multi(PMC)", "Swing", "Multi(Gorilla)")
        if multi
        else ("PMC", "Swing", "Gorilla")
    )
    db = ModelarDB(
        Configuration(error_bound=bound, model_length_limit=6, models=models),
        storage=MemoryStorage(),
        extra_models=[MultiModel(PMCMean()), MultiModel(Gorilla())],
    )
    db.ingest([TimeSeriesGroup(1, group), TimeSeriesGroup(2, [solo])])
    mark = db.knowledge_time()
    db.correct(
        [
            (1, int(timestamps[rng.randrange(TICKS)]), 7.25),
            (3, int(timestamps[rng.randrange(TICKS)]), None),
        ]
    )
    return db, mark


def statements(threshold: float) -> list[str]:
    """Selections and Data Point View aggregates, with ``TS`` bounds
    that cut a segment on either side."""
    lo = START + 7 * SI + SI // 2
    hi = START + (TICKS - 9) * SI - SI // 3
    cut = f"TS >= {lo} AND TS <= {hi}"
    every = "SUM(*), AVG(*), MIN(*), MAX(*), COUNT(*)"
    return [
        "SELECT * FROM DataPoint",
        f"SELECT Tid, TS, Value FROM DataPoint WHERE {cut}",
        f"SELECT Value, Tid FROM DataPoint WHERE Tid = 3 AND TS > {lo}",
        f"SELECT Tid, TS, Value FROM DataPoint WHERE Value > {threshold!r}",
        f"SELECT TS, Value FROM DataPoint WHERE Value <= {threshold!r} "
        f"AND TS < {hi}",
        f"SELECT {every} FROM DataPoint WHERE {EVERYTHING} AND {cut}",
        f"SELECT Tid, {every} FROM DataPoint WHERE {EVERYTHING} GROUP BY Tid",
        f"SELECT Tid, {every} FROM DataPoint WHERE Value > {threshold!r} "
        f"AND {cut} GROUP BY Tid",
        "SELECT Tid, CUBE_SUM_MINUTE(*), CUBE_MAX_MINUTE(*) FROM DataPoint "
        f"WHERE Value < {threshold!r} AND TS >= {lo} GROUP BY Tid",
    ]


class TestIngestedCorpus:
    @pytest.mark.parametrize("multi", (False, True))
    @pytest.mark.parametrize("bound", (0.0, 5.0))
    def test_selections_and_aggregates_match_the_row_engine(self, bound, multi):
        for seed in range(2):
            db, mark = build(seed, bound, multi)
            ((mean,),) = [
                tuple(row.values())
                for row in db.query(
                    f"SELECT AVG(*) FROM DataPoint WHERE {EVERYTHING}"
                )
            ]
            for threshold in (mean, 0.0):
                for sql in statements(threshold):
                    for as_of in (None, mark):
                        assert_same(
                            db.query(sql, as_of=as_of, columnar=True),
                            db.query(sql, as_of=as_of, columnar=False),
                            context=f"seed={seed} bound={bound} "
                            f"multi={multi} as_of={as_of}: {sql}",
                        )

    @pytest.mark.parametrize("multi", (False, True))
    def test_the_corpus_reaches_the_corner_cases(self, multi):
        db, mark = build(0, 0.0, multi)
        segments = [
            segment
            for table in db.storage.tables(SegmentScan(all_revisions=True))
            for segment in table.segments
        ]
        names = {db.registry.by_mid(s.mid).name for s in segments}
        if multi:
            assert {"Multi(PMC)", "Multi(Gorilla)", "Swing"} <= names
        else:
            assert {"PMC", "Swing", "Gorilla"} <= names
        # A gap in series 2 moves series 3 to model column 1.
        assert any(
            s.gid == 1 and 2 in s.gaps and db.registry.by_mid(s.mid).name
            in ("Gorilla", "Multi(Gorilla)", "Multi(PMC)")
            for s in segments
        )
        assert any(s.revision for s in segments)
        sql = "SELECT COUNT(*) FROM DataPoint WHERE " + EVERYTHING
        assert db.query(sql, as_of=mark) != db.query(sql)


# ----------------------------------------------------------------------
# Readers beside an ingesting FileStorage handle
# ----------------------------------------------------------------------
SLICES = 12
SLICE_TICKS = 40
CONFIG = Configuration(error_bound=5.0, model_length_limit=8)
#: Each statement reads one partition, which a slice's ingest publishes
#: in one write, so every answer belongs to one slice prefix.
RACED = [
    "SELECT Tid, TS, Value FROM DataPoint WHERE Tid IN (1, 2, 3)",
    "SELECT Tid, TS, Value FROM DataPoint WHERE Tid IN (1, 2, 3) AND Value > 0",
    "SELECT TS, Value FROM DataPoint WHERE Tid = 4 AND Value < 0",
    "SELECT Tid, SUM(*), COUNT(*), MIN(*), MAX(*) FROM DataPoint "
    f"WHERE Tid IN (1, 2, 3) AND {EVERYTHING} GROUP BY Tid",
    "SELECT AVG(*), COUNT(*) FROM DataPoint WHERE Tid = 4 AND Value > 1",
]


def raced_slices():
    """The group (a gap in series 2) and the singleton, in slices."""
    ticks = SLICES * SLICE_TICKS
    matrix = make_values(random.Random(9), ticks, 3)
    matrix[150:190, 1] = np.nan
    timestamps = np.arange(ticks, dtype=np.int64) * SI + START
    cut = []
    for index in range(SLICES):
        part = slice(index * SLICE_TICKS, (index + 1) * SLICE_TICKS)
        members = [
            TimeSeries(
                tid, SI, timestamps[part], matrix[part, tid - 1] / scaling,
                scaling=scaling,
            )
            for tid, scaling in MEMBERS
        ]
        tid, scaling = SOLO
        solo = TimeSeries(
            tid, SI, timestamps[part], matrix[part, 0] / scaling, scaling=scaling
        )
        cut.append([TimeSeriesGroup(1, members), TimeSeriesGroup(2, [solo])])
    return cut


def bits_of(rows: list[dict]) -> tuple:
    """Rows as comparable bits: keys in order, floats packed."""
    return tuple(
        tuple(
            (key, struct.pack("<d", value) if type(value) is float else value)
            for key, value in row.items()
        )
        for row in rows
    )


def test_readers_beside_an_ingesting_file_store_answer_a_prefix(tmp_path):
    cut = raced_slices()
    expected = []
    for count in range(1, len(cut) + 1):
        oracle = ModelarDB(CONFIG, storage=MemoryStorage())
        for part in cut[:count]:
            oracle.ingest(part)
        expected.append(
            {sql: bits_of(oracle.query(sql, columnar=False)) for sql in RACED}
        )
    db = ModelarDB.open(tmp_path / "store", config=CONFIG)
    db.ingest(cut[0])
    seen: list[tuple[str, tuple]] = []
    errors: list[BaseException] = []
    done = threading.Event()

    def reader():
        try:
            while not done.is_set():
                for sql in RACED:
                    seen.append((sql, bits_of(db.query(sql, columnar=True))))
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
    try:
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        prefixes = set()
        for sql, rows in seen:
            matches = [k for k, state in enumerate(expected) if state[sql] == rows]
            assert matches, sql
            prefixes.update(matches)
        assert len(prefixes) > 1  # readers saw the store grow
        for sql in RACED:
            assert bits_of(db.query(sql, columnar=True)) == expected[-1][sql]
    finally:
        db.close()
