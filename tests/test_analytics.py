"""Model-native analytics (tier 1): FORECAST, SIMILAR TO, Anomaly.

The contracts locked here:

- **Segment-only**: FORECAST never reconstructs a stored point at all,
  and neither analytics statement ever enters the engine's point
  materialization paths — proven by making those paths raise.
- **Exactness**: the envelope-pruned SIMILAR TO search returns exactly
  the rows a brute-force decode-everything scan returns, bit for bit —
  including on tie-heavy flat data where runs of equal-distance windows
  must resolve under the (Distance, Tid, StartTime) total order.
- **Containment**: for trend data the store fits with a trend model,
  the true continuation lies inside the forecast's [Lo, Hi] interval,
  and interval widths never shrink with the horizon.

Uses hypothesis when installed; otherwise the same properties run over
a fixed parameter corpus so the suite stays meaningful without the
dependency.
"""

import re
import struct
from pathlib import Path

import numpy as np
import pytest

from repro import Configuration, MemoryStorage, ModelarDB, TimeSeries
from repro.core.errors import QueryError
from repro.obs import get_registry
from repro.query import analytics
from repro.query import engine as engine_module
from repro.query.rewriter import Predicates, rewrite
from repro.query.sql import parse

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

SI = 100
REPO_ROOT = Path(__file__).resolve().parent.parent


def bits(value):
    """A comparable bit pattern for any result cell."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def assert_rows_bit_identical(left_rows, right_rows, context=""):
    assert len(left_rows) == len(right_rows), context
    for left, right in zip(left_rows, right_rows):
        assert list(left.keys()) == list(right.keys()), context
        for key in left:
            assert bits(left[key]) == bits(right[key]), (
                context, key, left[key], right[key],
            )


def make_db(series, error_bound=0.0):
    db = ModelarDB(Configuration(error_bound=error_bound), storage=MemoryStorage())
    db.ingest(series)
    return db


def ramp_series(tid, n_points, slope, intercept, start=0):
    values = np.float32(intercept + slope * np.arange(n_points))
    timestamps = start + np.arange(n_points, dtype=np.int64) * SI
    return TimeSeries(tid, SI, timestamps, values)


def counter_value(name):
    return get_registry().snapshot()["counters"].get(name, 0)


# ----------------------------------------------------------------------
# FORECAST
# ----------------------------------------------------------------------
class TestForecast:
    def test_trend_continues_the_fitted_slope(self):
        # 0.5 steps from 10.0 are exact in float32: Swing fits at
        # bound 0 and the extrapolation is exact arithmetic.
        db = make_db([ramp_series(1, 100, 0.5, 10.0)])
        rows = db.sql("SELECT FORECAST(TS, 3) FROM DataPoint")
        assert rows == [
            {"Tid": 1, "TS": 10000, "Value": 60.0, "Lo": 60.0, "Hi": 60.0},
            {"Tid": 1, "TS": 10100, "Value": 60.5, "Lo": 60.5, "Hi": 60.5},
            {"Tid": 1, "TS": 10200, "Value": 61.0, "Lo": 61.0, "Hi": 61.0},
        ]

    def test_level_hold_with_error_interval(self):
        db = make_db(
            [ramp_series(1, 60, 0.0, 4.0)], error_bound=1.0
        )
        rows = db.sql("SELECT FORECAST(TS, 4) FROM DataPoint")
        tolerance = 0.01 * 4.0 / 0.99
        assert len(rows) == 4
        for row in rows:
            assert row["Value"] == 4.0
            # A level hold has no slope uncertainty: the interval is
            # the endpoint tolerance, constant across the horizon.
            assert row["Hi"] - row["Lo"] == pytest.approx(2 * tolerance)
            assert row["Lo"] < 4.0 < row["Hi"]

    def test_lossless_segments_hold_the_last_value(self):
        rng = np.random.default_rng(3)
        values = np.float32(20 + np.cumsum(rng.normal(0, 1.0, 80)))
        series = TimeSeries(1, SI, np.arange(80, dtype=np.int64) * SI, values)
        db = make_db([series], error_bound=0.0)
        rows = db.sql("SELECT FORECAST(TS, 2) FROM DataPoint")
        last = float(values[-1])
        for row in rows:
            assert row["Value"] == last
            assert row["Lo"] == last and row["Hi"] == last

    def test_rows_per_series_and_total_order(self):
        db = make_db(
            [ramp_series(tid, 70, 0.25 * tid, 10.0) for tid in (3, 1, 2)]
        )
        rows = db.sql("SELECT FORECAST(TS, 4) FROM DataPoint")
        assert len(rows) == 12
        order = [(row["Tid"], row["TS"]) for row in rows]
        assert order == sorted(order)
        for row in rows:
            assert row["TS"] > 69 * SI  # strictly past the stored range

    def test_forecast_as_of_a_past_timestamp(self):
        """`WHERE TS <= t` clips the plan, so extrapolation starts at
        the last in-interval point, not the last ingested one."""
        db = make_db([ramp_series(1, 100, 0.5, 10.0)])
        rows = db.sql(
            "SELECT FORECAST(TS, 2) FROM DataPoint WHERE TS <= 4900"
        )
        assert rows == [
            {"Tid": 1, "TS": 5000, "Value": 35.0, "Lo": 35.0, "Hi": 35.0},
            {"Tid": 1, "TS": 5100, "Value": 35.5, "Lo": 35.5, "Hi": 35.5},
        ]

    def test_never_touches_point_paths_or_decodes(self, monkeypatch):
        db = make_db([ramp_series(1, 100, 0.5, 10.0)], error_bound=1.0)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("FORECAST materialized stored points")

        monkeypatch.setattr(
            engine_module.QueryEngine, "_accumulate_point", boom
        )
        monkeypatch.setattr(
            engine_module.QueryEngine, "_execute_point_selection", boom
        )
        # Stronger than "no view materialization": forecasts read model
        # parameters only, so even the index's decoder must stay cold.
        monkeypatch.setattr(analytics.SignatureIndex, "reconstruct", boom)
        rows = db.sql("SELECT FORECAST(TS, 8) FROM DataPoint")
        assert len(rows) == 8


def forecast_containment_case(slope, intercept, error_bound, horizon):
    """Linear data steep enough that Swing wins every segment: the true
    continuation must lie inside [Lo, Hi], and widths must not shrink."""
    n_points = 100 + horizon
    series = ramp_series(1, n_points, slope, intercept)
    truth = series.values[100:]
    db = make_db(
        [TimeSeries(1, SI, series.timestamps[:100], series.values[:100])],
        error_bound=error_bound,
    )
    rows = db.sql(f"SELECT FORECAST(TS, {horizon}) FROM DataPoint")
    assert len(rows) == horizon
    previous_width = 0.0
    for row, true_value in zip(rows, truth):
        slack = 1e-6 * max(abs(float(true_value)), 1.0)
        assert row["Lo"] - slack <= float(true_value) <= row["Hi"] + slack, (
            slope, intercept, error_bound, row, float(true_value),
        )
        width = row["Hi"] - row["Lo"]
        assert width >= previous_width - 1e-12
        previous_width = width


CONTAINMENT_CORPUS = [
    (0.5, 25.0, 0.5, 8),
    (-1.5, 120.0, 1.0, 24),
    (3.0, 40.0, 2.0, 16),
    (0.25, 200.0, 0.5, 1),
    (-0.75, 60.0, 1.0, 12),
]


@pytest.mark.parametrize(
    ("slope", "intercept", "error_bound", "horizon"), CONTAINMENT_CORPUS
)
def test_forecast_interval_contains_truth_corpus(
    slope, intercept, error_bound, horizon
):
    forecast_containment_case(slope, intercept, error_bound, horizon)


if HAVE_HYPOTHESIS:

    @given(
        slope=st.floats(min_value=0.2, max_value=3.0),
        sign=st.sampled_from([-1.0, 1.0]),
        intercept=st.floats(min_value=20.0, max_value=200.0),
        error_bound=st.sampled_from([0.5, 1.0, 2.0]),
        horizon=st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=25, deadline=None)
    def test_forecast_interval_contains_truth_hypothesis(
        slope, sign, intercept, error_bound, horizon
    ):
        forecast_containment_case(sign * slope, intercept, error_bound, horizon)


# ----------------------------------------------------------------------
# SIMILAR TO
# ----------------------------------------------------------------------
def walk_db(seed=14, n_series=3, n_points=240, error_bound=0.0, planted=None):
    """Random-walk series; ``planted=(tid, position, pattern)`` embeds
    an exact copy of the pattern."""
    rng = np.random.default_rng(seed)
    series = []
    for tid in range(1, n_series + 1):
        values = np.float32(100 + np.cumsum(rng.normal(0, 0.3, n_points)))
        if planted is not None and planted[0] == tid:
            _, position, pattern = planted
            values[position:position + len(pattern)] = np.float32(pattern)
        series.append(
            TimeSeries(tid, SI, np.arange(n_points, dtype=np.int64) * SI,
                       values)
        )
    return make_db(series, error_bound=error_bound)


def brute_force_rows(db, pattern, k):
    """Decode-everything reference: every window of every series,
    verified with the exact same distance expression the engine uses."""
    index = analytics.SignatureIndex(
        db.engine._segment_view().rows(
            rewrite(Predicates(), db.engine.metadata)
        )
    )
    query = np.asarray(pattern, dtype=np.float64)
    matches = []
    for tid in index.tids:
        timestamps, _, _ = index.envelope(tid)
        values = index.reconstruct(tid, len(timestamps))
        for position in range(len(values) - len(query) + 1):
            window = values[position:position + len(query)]
            if np.isnan(window).any():
                continue
            distance = float(np.sqrt(((window - query) ** 2).sum()))
            matches.append(
                {
                    "Tid": tid,
                    "StartTime": int(timestamps[position]),
                    "Distance": distance,
                }
            )
    matches.sort(
        key=lambda row: (row["Distance"], row["Tid"], row["StartTime"])
    )
    return matches[:k]


def pattern_sql(pattern, k=None):
    literals = ", ".join(repr(float(value)) for value in pattern)
    limit = f" LIMIT {k}" if k is not None else ""
    return f"SELECT * FROM DataPoint SIMILAR TO ({literals}){limit}"


class TestSimilarity:
    PATTERN = (101.0, 103.5, 106.0, 103.5, 101.0)

    def test_planted_pattern_is_the_top_match(self):
        db = walk_db(planted=(2, 120, self.PATTERN))
        rows = db.sql(pattern_sql(self.PATTERN, k=1))
        assert rows[0]["Tid"] == 2
        assert rows[0]["StartTime"] == 120 * SI
        assert rows[0]["Distance"] == pytest.approx(0.0, abs=1e-5)

    def test_matches_brute_force_bit_identical(self):
        db = walk_db(planted=(2, 120, self.PATTERN))
        rows = db.sql(pattern_sql(self.PATTERN, k=7))
        assert_rows_bit_identical(
            rows, brute_force_rows(db, self.PATTERN, 7), "vs brute force"
        )

    def test_distance_verified_against_the_data_point_view(self):
        """An independent cross-check: recompute a reported distance
        from points materialized by the ordinary read path."""
        db = walk_db(planted=(2, 120, self.PATTERN))
        (row,) = db.sql(pattern_sql(self.PATTERN, k=1))
        end = row["StartTime"] + (len(self.PATTERN) - 1) * SI
        points = [
            p.value
            for p in db.points(
                tids=[row["Tid"]],
                start_time=row["StartTime"],
                end_time=end,
            )
        ]
        expected = float(
            np.sqrt(((np.array(points) - np.array(self.PATTERN)) ** 2).sum())
        )
        assert row["Distance"] == pytest.approx(expected, rel=1e-9)

    def test_tie_heavy_flat_data_resolves_by_total_order(self):
        """Three identical constant series: every window ties at
        distance zero, so top-k is decided purely by (Tid, StartTime).
        Regression for two real bugs — tie acceptance compared distance
        alone, and ulp-level bound noise pruned tied windows."""
        series = [
            ramp_series(tid, 24, 0.0, 5.0) for tid in (1, 2, 3)
        ]
        db = make_db(series)
        rows = db.sql(pattern_sql((5.0, 5.0, 5.0, 5.0), k=5))
        assert rows == [
            {"Tid": 1, "StartTime": start * SI, "Distance": 0.0}
            for start in range(5)
        ]
        assert_rows_bit_identical(
            rows, brute_force_rows(db, (5.0, 5.0, 5.0, 5.0), 5), "flat ties"
        )

    def test_limit_defaults_to_ten(self):
        db = walk_db()
        rows = db.sql(pattern_sql(self.PATTERN))
        assert len(rows) == analytics.DEFAULT_SIMILARITY_K == 10

    def test_lossy_store_matches_its_own_brute_force(self):
        db = walk_db(error_bound=5.0, planted=(1, 40, self.PATTERN))
        rows = db.sql(pattern_sql(self.PATTERN, k=5))
        assert_rows_bit_identical(
            rows, brute_force_rows(db, self.PATTERN, 5), "lossy"
        )

    def test_tid_predicate_restricts_the_search(self):
        db = walk_db(planted=(2, 120, self.PATTERN))
        rows = db.sql(
            "SELECT * FROM DataPoint WHERE Tid = 1 "
            f"SIMILAR TO {pattern_sql(self.PATTERN, 3).split('SIMILAR TO ')[1]}"
        )
        assert rows and all(row["Tid"] == 1 for row in rows)

    def test_never_touches_point_paths(self, monkeypatch):
        db = walk_db(planted=(2, 120, self.PATTERN))

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("SIMILAR TO entered a point path")

        monkeypatch.setattr(
            engine_module.QueryEngine, "_accumulate_point", boom
        )
        monkeypatch.setattr(
            engine_module.QueryEngine, "_execute_point_selection", boom
        )
        rows = db.sql(pattern_sql(self.PATTERN, k=3))
        assert len(rows) == 3

    def test_pruning_metrics(self):
        # A pattern far from the walk's ambient level: the envelope
        # bound alone disqualifies nearly every window.
        pattern = (20.0, 35.0, 50.0, 35.0, 20.0)
        db = walk_db(n_points=600, planted=(2, 120, pattern))
        windows_before = counter_value("query.analytics_windows_total")
        pruned_before = counter_value("query.analytics_windows_pruned_total")
        searches_before = counter_value("query.analytics_similarity_total")
        db.sql(pattern_sql(pattern, k=1))
        windows = counter_value("query.analytics_windows_total") - windows_before
        pruned = (
            counter_value("query.analytics_windows_pruned_total")
            - pruned_before
        )
        assert counter_value("query.analytics_similarity_total") \
            - searches_before == 1
        # 3 series x (600 - 5 + 1) candidate windows, almost all pruned
        # from the envelope alone.
        assert windows == 3 * 596
        assert pruned / windows > 0.9


def similarity_case(seed, error_bound, k, pattern_length):
    rng = np.random.default_rng(seed)
    position = int(rng.integers(0, 200 - pattern_length))
    pattern = tuple(
        float(value)
        for value in np.round(
            100 + rng.normal(0, 2.0, pattern_length), 3
        )
    )
    db = walk_db(
        seed=seed, n_points=200, error_bound=error_bound,
        planted=(int(rng.integers(1, 4)), position, pattern),
    )
    rows = db.sql(pattern_sql(pattern, k=k))
    assert_rows_bit_identical(
        rows, brute_force_rows(db, pattern, k), f"seed={seed}"
    )


@pytest.mark.parametrize(
    ("seed", "error_bound", "k", "pattern_length"),
    [(1, 0.0, 3, 5), (2, 5.0, 5, 8), (3, 1.0, 1, 3), (4, 10.0, 4, 6)],
)
def test_similarity_exactness_corpus(seed, error_bound, k, pattern_length):
    similarity_case(seed, error_bound, k, pattern_length)


if HAVE_HYPOTHESIS:

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        error_bound=st.sampled_from([0.0, 1.0, 5.0]),
        k=st.integers(min_value=1, max_value=6),
        pattern_length=st.integers(min_value=2, max_value=10),
    )
    @settings(max_examples=25, deadline=None)
    def test_similarity_exactness_hypothesis(
        seed, error_bound, k, pattern_length
    ):
        similarity_case(seed, error_bound, k, pattern_length)


# ----------------------------------------------------------------------
# Anomaly flags
# ----------------------------------------------------------------------
class TestAnomaly:
    def test_level_shift_is_flagged_at_the_boundary(self):
        values = np.float32(
            np.concatenate([np.full(200, 1.0), np.full(200, 50.0)])
        )
        series = TimeSeries(
            1, SI, np.arange(400, dtype=np.int64) * SI, values
        )
        db = make_db([series], error_bound=1.0)
        rows = db.sql("SELECT Tid, StartTime FROM Segment WHERE Anomaly = 1")
        assert rows == [{"Tid": 1, "StartTime": 200 * SI}]

    def test_smooth_ramp_is_never_flagged(self):
        db = make_db([ramp_series(1, 400, 0.2, 10.0)], error_bound=1.0)
        segments = db.sql("SELECT Tid FROM Segment")
        assert len(segments) > 1  # several boundaries, none anomalous
        assert db.sql("SELECT Tid FROM Segment WHERE Anomaly = 1") == []

    def test_gap_boundaries_are_not_scored(self):
        """The same level shift across a gap: absence is not drift."""
        values = [1.0] * 120 + [None] * 5 + [50.0] * 120
        timestamps = [index * SI for index in range(len(values))]
        db = make_db(
            [TimeSeries(1, SI, timestamps, values)], error_bound=1.0
        )
        rows = db.sql("SELECT StartTime FROM Segment WHERE Anomaly = 1")
        assert rows == []

    def test_anomaly_column_is_explicit_only(self):
        db = make_db([ramp_series(1, 120, 0.0, 5.0)])
        star_row = db.sql("SELECT * FROM Segment")[0]
        assert "Anomaly" not in star_row
        explicit = db.sql("SELECT Tid, Anomaly FROM Segment")
        assert all(row["Anomaly"] in (0, 1) for row in explicit)

    def test_anomaly_zero_filter_is_the_complement(self):
        values = np.float32(
            np.concatenate([np.full(200, 1.0), np.full(200, 50.0)])
        )
        series = TimeSeries(
            1, SI, np.arange(400, dtype=np.int64) * SI, values
        )
        db = make_db([series], error_bound=1.0)
        total = len(db.sql("SELECT Tid FROM Segment"))
        calm = len(db.sql("SELECT Tid FROM Segment WHERE Anomaly = 0"))
        assert total - calm == 1

    def test_anomaly_metric_counts_flags(self):
        values = np.float32(
            np.concatenate([np.full(200, 1.0), np.full(200, 50.0)])
        )
        series = TimeSeries(
            1, SI, np.arange(400, dtype=np.int64) * SI, values
        )
        db = make_db([series], error_bound=1.0)
        before = counter_value("query.analytics_anomalies_total")
        db.sql("SELECT Tid FROM Segment WHERE Anomaly = 1")
        assert counter_value("query.analytics_anomalies_total") - before == 1


# ----------------------------------------------------------------------
# Validation and EXPLAIN ANALYZE
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.fixture(scope="class")
    def db(self):
        return make_db([ramp_series(1, 60, 0.5, 10.0)])

    @pytest.mark.parametrize(
        ("sql", "fragment"),
        [
            (
                "SELECT FORECAST(TS, 4), COUNT(*) FROM DataPoint",
                "cannot be combined",
            ),
            ("SELECT FORECAST(TS, 4) FROM Segment", "FROM DataPoint"),
            (
                "SELECT FORECAST(TS, 4) FROM DataPoint GROUP BY Tid",
                "GROUP BY",
            ),
            (
                "SELECT FORECAST(TS, 4) FROM DataPoint SIMILAR TO (1.0)",
                "cannot be combined",
            ),
            (
                "SELECT Tid FROM DataPoint SIMILAR TO (1.0)",
                "select '*'",
            ),
            (
                "SELECT FORECAST(TS, 2) FROM DataPoint WHERE Value > 1.0",
                "Value predicates",
            ),
            (
                "SELECT * FROM DataPoint WHERE TS > 0 SIMILAR TO (1.0)",
                "whole series",
            ),
            (
                "SELECT COUNT(*) FROM DataPoint LIMIT 5",
                "only supported with SIMILAR TO",
            ),
            (
                "SELECT Tid FROM DataPoint WHERE Anomaly = 1",
                "Segment view column",
            ),
            (
                "SELECT Tid FROM Segment WHERE Anomaly > 0",
                "'= 0' and '= 1'",
            ),
        ],
    )
    def test_shape_rules(self, db, sql, fragment):
        with pytest.raises(QueryError, match=re.escape(fragment)):
            db.sql(sql)


class TestExplainAnalyze:
    def test_forecast_scan_stage_is_annotated(self):
        db = make_db([ramp_series(1, 60, 0.5, 10.0)])
        report = db.sql("EXPLAIN ANALYZE SELECT FORECAST(TS, 3) FROM DataPoint")
        details = {row["stage"].strip(): row["detail"] for row in report}
        assert "horizon=3" in details["scan"]
        assert "series=1" in details["scan"]

    def test_similarity_scan_stage_reports_pruning(self):
        db = walk_db(planted=(2, 120, (101.0, 103.5, 106.0)))
        report = db.sql(
            "EXPLAIN ANALYZE " + pattern_sql((101.0, 103.5, 106.0), k=2)
        )
        details = {row["stage"].strip(): row["detail"] for row in report}
        assert "windows=" in details["scan"]
        assert "verified=" in details["scan"]
        assert "k=2" in details["scan"]


# ----------------------------------------------------------------------
# The scatter-gather merge (unit level; process-level in test_shard.py)
# ----------------------------------------------------------------------
class TestMergeAnalyticsRows:
    def test_similarity_merge_keeps_the_global_top_k(self):
        query = parse("SELECT * FROM DataPoint SIMILAR TO (1.0) LIMIT 3")
        shard_a = [
            {"Tid": 1, "StartTime": 400, "Distance": 0.5},
            {"Tid": 5, "StartTime": 100, "Distance": 2.0},
        ]
        shard_b = [
            {"Tid": 2, "StartTime": 0, "Distance": 0.5},
            {"Tid": 4, "StartTime": 900, "Distance": 1.0},
        ]
        merged = analytics.merge_analytics_rows(query, shard_a + shard_b)
        assert merged == [
            {"Tid": 1, "StartTime": 400, "Distance": 0.5},
            {"Tid": 2, "StartTime": 0, "Distance": 0.5},
            {"Tid": 4, "StartTime": 900, "Distance": 1.0},
        ]

    def test_similarity_merge_defaults_to_k_ten(self):
        query = parse("SELECT * FROM DataPoint SIMILAR TO (1.0)")
        rows = [
            {"Tid": tid, "StartTime": 0, "Distance": float(tid)}
            for tid in range(1, 30)
        ]
        assert len(analytics.merge_analytics_rows(query, rows)) == 10

    def test_forecast_merge_restores_tid_order(self):
        query = parse("SELECT FORECAST(TS, 2) FROM DataPoint")
        shards = [
            {"Tid": 7, "TS": 100, "Value": 1.0, "Lo": 1.0, "Hi": 1.0},
            {"Tid": 2, "TS": 200, "Value": 2.0, "Lo": 2.0, "Hi": 2.0},
            {"Tid": 2, "TS": 100, "Value": 2.0, "Lo": 2.0, "Hi": 2.0},
        ]
        merged = analytics.merge_analytics_rows(query, list(shards))
        assert [(row["Tid"], row["TS"]) for row in merged] == [
            (2, 100), (2, 200), (7, 100),
        ]

    def test_non_analytics_rows_pass_through(self):
        query = parse("SELECT COUNT(*) FROM DataPoint")
        rows = [{"COUNT(*)": 7}]
        assert analytics.merge_analytics_rows(query, rows) is rows


# ----------------------------------------------------------------------
# The README quickstart (executed verbatim, as the README promises)
# ----------------------------------------------------------------------
def test_readme_analytics_quickstart():
    text = (REPO_ROOT / "README.md").read_text()
    marker = "<!-- analytics-quickstart -->"
    assert marker in text, "README lost the analytics quickstart marker"
    block = text.split(marker, 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["forecast"]) == 5
    assert all(
        row["Lo"] <= row["Value"] <= row["Hi"]
        for row in namespace["forecast"]
    )
    assert len(namespace["nearest"]) == 3
    # The promised structural break: the level shift at 200 * SI.
    assert namespace["breaks"] == [{"Tid": 1, "StartTime": 20000}]
