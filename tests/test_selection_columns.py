"""Data Point View selections gathered as columns equal the oracle.

The engine answers a selection with one
:class:`~repro.query.columnar.ResultColumns` (one concatenated array per
column) and fills row dicts only at the public boundary. The oracle
(``tests/oracle.py``) shapes one dict per point, one view row at a time,
and is the reference: every cell must be the same
Python ``int``/``float``/``str`` (never a numpy scalar) with the same
bits, under the same keys in the same order, in the same row order
(segment, member series, tick).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import QueryError
from repro.obs import get_registry
from repro.query.columnar import ResultColumns, as_rows

from . import oracle
from .test_columnar_equivalence import assert_rows_bit_identical, build_fold_db

#: (seed, error bound %, Multi models) of the stores the corpus runs on.
STORES = ((0, 0.0, False), (1, 5.0, False), (2, 5.0, True))


def corpus(db, mark, timestamps):
    """Selections covering every shape the gather has to reproduce."""
    lo = int(timestamps[5]) + 37  # off the grid: cuts a segment
    hi = int(timestamps[-7]) - 41
    values = [
        row["Value"] for row in db.query("SELECT Value FROM DataPoint")
    ]
    threshold = float(np.nanquantile(values, 0.9))
    return [
        "SELECT * FROM DataPoint",
        "SELECT value, tid FROM DataPoint",
        "SELECT TS, Park, Tid FROM DataPoint WHERE Tid IN (2, 4)",
        "SELECT Tid, TS, Tid FROM DataPoint WHERE Tid = 3",
        f"SELECT Tid, TS FROM DataPoint WHERE TS < {int(timestamps[0])}",
        "SELECT * FROM DataPoint WHERE Value > 1e300",
        "SELECT Tid, TS, Value FROM DataPoint WHERE Tid = 2",
        f"SELECT Tid, TS, Value FROM DataPoint WHERE TS >= {lo} AND TS <= {hi}",
        f"SELECT Tid, TS, Value FROM DataPoint WHERE Value > {threshold!r}",
        f"SELECT Value, TS FROM DataPoint WHERE Value <= {threshold!r} "
        f"AND TS >= {lo}",
        f"SELECT * FROM DataPoint AS OF {mark}",
        f"SELECT Tid, Value FROM DataPoint AS OF {mark} WHERE Tid IN (1, 4)",
        "SELECT Tid, TS, Value FROM DataPoint WHERE Tid IN (1, 4)",
    ]


@pytest.fixture(scope="module", params=STORES, ids=lambda s: "seed%d-b%g-m%d" % s)
def store(request):
    seed, bound, multi = request.param
    db, mark, timestamps = build_fold_db(seed, bound, multi=multi)
    return db, corpus(db, mark, timestamps)


def assert_plain_scalars(rows):
    for row in rows:
        for value in row.values():
            assert type(value) in (int, float, str, type(None)), type(value)


def pruned_total():
    counters = get_registry().snapshot()["counters"]
    return counters.get("query.segments_pruned_total", 0)


class TestColumnsEqualRowEngine:
    def test_every_statement_bit_identical(self, store):
        db, statements = store
        for sql in statements:
            expected = oracle.query(db, sql)
            rows = db.query(sql)
            assert_rows_bit_identical(rows, expected, context=sql)
            assert_plain_scalars(rows)

    def test_engine_returns_columns_for_selections(self, store):
        db, statements = store
        for sql in statements:
            result = db.engine.run(sql)
            assert isinstance(result, ResultColumns), sql
            expected = oracle.query(db, sql)
            assert len(result) == len(expected)
            assert_rows_bit_identical(as_rows(result), expected, context=sql)

    def test_corpus_covers_its_cases(self, store):
        db, statements = store
        rows = db.query("SELECT * FROM DataPoint")
        # NaN gaps: series 2 misses ticks the others have.
        counts = {}
        for row in rows:
            counts[row["Tid"]] = counts.get(row["Tid"], 0) + 1
        assert counts[2] < counts[1]
        assert list(rows[0]) == ["Tid", "TS", "Value", "Park"]
        assert db.query(statements[4]) == [] and db.query(statements[5]) == []
        # Tid IN over two groups returns both Tids.
        assert {row["Tid"] for row in db.query(statements[-1])} == {1, 4}
        # AS OF before the correction differs from the latest state.
        assert db.query(statements[10]) != rows
        # A repeated column keeps one key.
        assert list(db.query(statements[3])[0]) == ["Tid", "TS"]

    def test_value_predicate_prunes_segments(self, store):
        db, statements = store
        before = pruned_total()
        db.query(statements[8])
        assert pruned_total() > before

    def test_non_selections_stay_rows(self, store):
        db, _ = store
        assert isinstance(db.engine.run("SELECT COUNT(*) FROM DataPoint"), list)
        assert isinstance(db.engine.run("SELECT * FROM Segment"), list)


def answer(db, sql, columns):
    """``sql``'s rows, through :meth:`~repro.query.engine.QueryEngine.run`
    (a selection's columns, filled into rows here) when ``columns``,
    else through ``ModelarDB.query``."""
    return as_rows(db.engine.run(sql)) if columns else db.query(sql)


class TestDimensionNameCase:
    """A dimension column matches exactly, as WHERE and GROUP BY do;
    built-in columns match in any case, whether a selection stays
    columns or is filled into rows."""

    @pytest.fixture(scope="class")
    def db(self):
        return build_fold_db(0, 0.0, revise=False)[0]

    @pytest.mark.parametrize("view", ["DataPoint", "Segment"])
    @pytest.mark.parametrize("columns", [True, False])
    def test_other_case_dimension_is_unknown(self, db, view, columns):
        with pytest.raises(QueryError, match="unknown column 'park'"):
            answer(db, f"SELECT Tid, park FROM {view} WHERE Tid = 1", columns)

    def test_where_and_group_by_agree(self, db):
        with pytest.raises(QueryError):
            db.query("SELECT COUNT(*) FROM DataPoint WHERE park = 'north'")
        with pytest.raises(QueryError):
            db.query("SELECT park, COUNT(*) FROM DataPoint GROUP BY park")

    @pytest.mark.parametrize("columns", [True, False])
    def test_exact_dimension_and_any_case_built_ins(self, db, columns):
        rows = answer(
            db, "SELECT TID, ts, VALUE, Park FROM DataPoint WHERE Tid = 1", columns
        )
        assert rows and list(rows[0]) == ["TID", "ts", "VALUE", "Park"]
        assert {row["Park"] for row in rows} == {"north"}
        segments = answer(db, "SELECT tid, Park FROM Segment WHERE Tid = 2", columns)
        assert segments and {row["Park"] for row in segments} == {"south"}
