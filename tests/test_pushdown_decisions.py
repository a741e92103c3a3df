"""The pushdown decision layer: what is segment-answerable, and proof
that a wrong answer would be caught.

``rewriter.decide_pushdown`` classifies every select-list subtree as
``segment`` (fold model parameters, never materialize a point) or
``materialize`` (reconstruct values). The corpus below locks the
classification; the metric tests assert that segment-routed aggregates
really never touch ``_accumulate_point``; and the regression test shows
the equivalence suite is a real safety net — a deliberately wrong
"segment-only" claim for a Value-predicate query produces a *different
answer*, so it cannot slip through the bit check against the oracle.
"""

import numpy as np
import pytest

from repro import Configuration, MemoryStorage, ModelarDB, TimeSeries
from repro.core.group import TimeSeriesGroup
from repro.obs import get_registry
from repro.query import engine as engine_module
from repro.query.rewriter import decide_pushdown
from repro.query.sql import parse

from . import oracle

START = 1_700_000_000_000
SI = 1000


def routes(sql):
    return [(d.subtree, d.route) for d in decide_pushdown(parse(sql))]


# ----------------------------------------------------------------------
# The decision corpus
# ----------------------------------------------------------------------
class TestDecisionCorpus:
    @pytest.mark.parametrize(
        ("sql", "expected"),
        [
            # Segment view: always answered from model parameters.
            ("SELECT SUM_S(*) FROM Segment", [("SUM_S(*)", "segment")]),
            (
                "SELECT MIN_S(*), MAX_S(*) FROM Segment WHERE Tid = 1",
                [("MIN_S(*)", "segment"), ("MAX_S(*)", "segment")],
            ),
            (
                # Value predicates are ignored on the Segment view (legacy
                # semantics) — still segment-only.
                "SELECT AVG_S(*) FROM Segment WHERE Value > 3.0",
                [("AVG_S(*)", "segment")],
            ),
            ("SELECT * FROM Segment", [("scan", "segment")]),
            # DataPoint aggregates without Value predicates: TS bounds
            # clip the per-segment index range exactly, so fold models.
            ("SELECT SUM(*) FROM DataPoint", [("SUM(*)", "segment")]),
            (
                "SELECT COUNT(*), AVG(*) FROM DataPoint "
                f"WHERE TS >= {START} AND TS < {START + 10 * SI}",
                [("COUNT(*)", "segment"), ("AVG(*)", "segment")],
            ),
            (
                "SELECT Tid, MIN(*) FROM DataPoint "
                "WHERE Tid IN (1, 2) GROUP BY Tid",
                [("MIN(*)", "segment")],
            ),
            # A Value predicate forces materialization of every subtree.
            (
                "SELECT SUM(*) FROM DataPoint WHERE Value > 0.0",
                [("SUM(*)", "materialize")],
            ),
            (
                "SELECT COUNT(*), MAX(*) FROM DataPoint "
                f"WHERE Value <= 5.0 AND TS >= {START}",
                [("COUNT(*)", "materialize"), ("MAX(*)", "materialize")],
            ),
            # Point selections reconstruct values by definition.
            ("SELECT Tid, TS, Value FROM DataPoint", [("scan", "materialize")]),
            (
                "SELECT * FROM DataPoint WHERE Tid = 1",
                [("scan", "materialize")],
            ),
        ],
    )
    def test_route(self, sql, expected):
        assert routes(sql) == expected

    def test_reasons_are_explanatory(self):
        (decision,) = decide_pushdown(
            parse("SELECT SUM(*) FROM DataPoint WHERE Value > 1.0")
        )
        assert not decision.segment_only
        assert "Value" in decision.reason


# ----------------------------------------------------------------------
# Execution: segment-routed aggregates never materialize points
# ----------------------------------------------------------------------
def constant_db(grouped=False):
    """Two constant series (PMC-Mean everywhere): one at +4, one at -6,
    50 ticks each, stored alone or, ``grouped``, as one group of two.
    Their scalings (1.5 and -1) make both store 6.0, so the group fits
    one PMC-Mean model. Every aggregate is exactly predictable."""
    timestamps = np.arange(50, dtype=np.int64) * SI + START
    series = [
        TimeSeries(1, SI, timestamps, np.full(50, 4.0), scaling=1.5),
        TimeSeries(2, SI, timestamps, np.full(50, -6.0), scaling=-1.0),
    ]
    db = ModelarDB(Configuration(error_bound=0.0), storage=MemoryStorage())
    db.ingest([TimeSeriesGroup(1, series)] if grouped else series)
    return db


def counter_value(name):
    return get_registry().snapshot()["counters"].get(name, 0)


class TestNeverMaterializes:
    @pytest.mark.parametrize("grouped", [True, False])
    def test_pushdown_skips_materialization(self, grouped, monkeypatch):
        db = constant_db(grouped)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("segment-answerable query materialized")

        monkeypatch.setattr(engine_module.QueryEngine, "_accumulate_point", boom)
        skipped_before = counter_value("query.rows_skipped_materialization_total")
        segment_before = counter_value(
            "query.pushdown_subtrees_total{decision=segment}"
        )
        rows = db.sql("SELECT SUM(*), COUNT(*), AVG(*) FROM DataPoint")
        assert rows == [{"SUM(*)": -100.0, "COUNT(*)": 100, "AVG(*)": -1.0}]
        # 2 series x 50 ticks were answered from model parameters alone.
        assert (
            counter_value("query.rows_skipped_materialization_total")
            - skipped_before
        ) == 100
        assert (
            counter_value("query.pushdown_subtrees_total{decision=segment}")
            - segment_before
        ) == 3

    def test_value_predicate_routes_to_materialize(self):
        db = constant_db()
        materialize_before = counter_value(
            "query.pushdown_subtrees_total{decision=materialize}"
        )
        rows = db.sql("SELECT SUM(*) FROM DataPoint WHERE Value > 0.0")
        assert rows == [{"SUM(*)": 200.0}]
        assert (
            counter_value("query.pushdown_subtrees_total{decision=materialize}")
            - materialize_before
        ) == 1


class TestExplainAnalyze:
    def test_stage_breakdown_reports_pushdown(self):
        db = constant_db()
        report = db.sql("EXPLAIN ANALYZE SELECT SUM(*) FROM DataPoint")
        details = {row["stage"].strip(): row["detail"] for row in report}
        assert "pushdown=SUM(*):segment" in details["plan"]
        assert "rows_skipped_materialization=100" in details["scan"]

    def test_materialized_subtree_is_visible(self):
        db = constant_db()
        report = db.sql(
            "EXPLAIN ANALYZE SELECT SUM(*) FROM DataPoint WHERE Value > 0.0"
        )
        details = {row["stage"].strip(): row["detail"] for row in report}
        assert "pushdown=SUM(*):materialize" in details["plan"]
        assert "rows_skipped_materialization" not in details.get("scan", "")


# ----------------------------------------------------------------------
# The safety net: a wrong segment-only claim cannot hide
# ----------------------------------------------------------------------
class TestWrongClaimIsCaught:
    def test_false_segment_claim_changes_the_answer(self, monkeypatch):
        """If the rewriter ever wrongly declared a Value-predicate
        aggregate segment-answerable, the pushed-down fold would ignore
        the predicate and answer differently from the oracle (computed
        here before the wrong claim is patched in), so a bit check
        against the oracle fails loudly rather than bless the wrong
        plan.
        """
        sql = "SELECT SUM(*) FROM DataPoint WHERE Value > 0.0"
        correct = oracle.query(constant_db(), sql)
        assert correct == [{"SUM(*)": 200.0}]

        real = engine_module.decide_pushdown

        def overconfident(query):
            return tuple(
                type(d)(d.subtree, True, "wrong: claims Value is absorbed")
                for d in real(query)
            )

        monkeypatch.setattr(engine_module, "decide_pushdown", overconfident)
        wrong = constant_db().sql(sql)
        # The fold summed both series over all ticks: predicate ignored.
        assert wrong == [{"SUM(*)": -100.0}]
        assert wrong != correct
