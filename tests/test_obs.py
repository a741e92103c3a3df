"""The unified observability layer (tier 1).

Covers the metrics registry (catalog enforcement, thread-safe counters
and histograms, the cross-process snapshot/merge path), trace spans
(nesting, timing, zero-cost-when-inactive), the ``EXPLAIN ANALYZE``
stage breakdown, the ``REPRO_PROFILE`` hook, and the empty-histogram
``min`` bugfix (0.0, never ``inf``).
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro import Configuration, ModelarDB, TimeSeries
from repro.obs import (
    CATALOG,
    Histogram,
    MetricsRegistry,
    SpanRecorder,
    annotate,
    current_span,
    maybe_profile,
    set_registry,
    span,
)


@pytest.fixture
def registry():
    """A fresh process-wide registry, restored after the test."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


def make_db(n_series: int = 3, n_points: int = 200) -> ModelarDB:
    rng = np.random.default_rng(5)
    db = ModelarDB(Configuration(error_bound=1.0))
    series = [
        TimeSeries(
            tid,
            100,
            np.arange(n_points) * 100,
            np.float32(10 + np.cumsum(rng.normal(0, 0.1, n_points))),
        )
        for tid in range(1, n_series + 1)
    ]
    db.ingest(series)
    return db


# ----------------------------------------------------------------------
# Registry and catalog
# ----------------------------------------------------------------------
class TestCatalogEnforcement:
    def test_undeclared_name_is_refused(self, registry):
        with pytest.raises(KeyError):
            registry.counter("query.made_up_total")

    def test_kind_mismatch_is_refused(self, registry):
        with pytest.raises(TypeError):
            registry.histogram("ingest.points_total")

    def test_label_mismatch_is_refused(self, registry):
        with pytest.raises(ValueError):
            registry.counter("ingest.points_total", model="PMC")
        with pytest.raises(ValueError):
            registry.counter("ingest.segments_total")  # needs model=

    def test_declare_extends_the_catalog(self, registry):
        registry.declare("custom.events_total", "counter")
        registry.counter("custom.events_total").inc(3)
        assert registry.snapshot()["counters"]["custom.events_total"] == 3

    def test_every_catalog_entry_is_instantiable(self, registry):
        for spec in CATALOG.values():
            labels = {name: "x" for name in spec.labels}
            getattr(registry, spec.kind)(spec.name, **labels)


class TestRegistryThreadSafety:
    def test_concurrent_increments_are_exact(self, registry):
        counter = registry.counter("ingest.points_total")
        histogram = registry.histogram("query.execute_seconds")
        n_threads, n_iterations = 8, 2_000

        def work() -> None:
            for _ in range(n_iterations):
                counter.inc()
                histogram.record(0.001)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == n_threads * n_iterations
        assert histogram.count == n_threads * n_iterations

    def test_concurrent_instrument_creation_yields_one_instrument(
        self, registry
    ):
        instruments = []
        barrier = threading.Barrier(8)

        def create() -> None:
            barrier.wait()
            instruments.append(registry.counter("query.rows_returned_total"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(instrument) for instrument in instruments}) == 1


class TestSnapshotMerge:
    """The cross-process path: workers snapshot, the master merges."""

    def test_counters_add_and_labels_round_trip(self):
        master, worker = MetricsRegistry(), MetricsRegistry()
        master.counter("ingest.points_total").inc(10)
        worker.counter("ingest.points_total").inc(32)
        worker.counter("ingest.segments_total", model="PMC").inc(4)
        master.merge_snapshot(worker.snapshot())
        counters = master.snapshot()["counters"]
        assert counters["ingest.points_total"] == 42
        assert counters["ingest.segments_total{model=PMC}"] == 4

    def test_histograms_fold_buckets_counts_and_extremes(self):
        master, worker = MetricsRegistry(), MetricsRegistry()
        for seconds in (0.001, 0.002):
            master.histogram("query.execute_seconds").record(seconds)
        for seconds in (0.5, 1.5):
            worker.histogram("query.execute_seconds").record(seconds)
        master.merge_snapshot(worker.snapshot())
        merged = master.snapshot()["histograms"]["query.execute_seconds"]
        assert merged["count"] == 4
        assert merged["min_ms"] == pytest.approx(1.0)
        assert merged["max_ms"] == pytest.approx(1500.0)

    def test_merge_is_associative_across_three_processes(self):
        parts = []
        for count in (3, 5, 7):
            part = MetricsRegistry()
            part.counter("query.statements_total").inc(count)
            parts.append(part.snapshot())
        left, right = MetricsRegistry(), MetricsRegistry()
        for snapshot in parts:
            left.merge_snapshot(snapshot)
        for snapshot in reversed(parts):
            right.merge_snapshot(snapshot)
        assert left.snapshot() == right.snapshot()

    def test_snapshot_is_json_clean(self, registry):
        import json

        registry.counter("ingest.points_total").inc(5)
        registry.histogram("ingest.flush_seconds").record(0.01)
        json.dumps(registry.snapshot())


# ----------------------------------------------------------------------
# The empty-histogram min bugfix
# ----------------------------------------------------------------------
class TestHistogramMin:
    def test_empty_histogram_reports_zero_not_inf(self):
        histogram = Histogram()
        assert histogram.min == 0.0
        snapshot = histogram.snapshot()
        assert snapshot["min_ms"] == 0.0
        assert not math.isinf(snapshot["min_ms"])

    def test_min_tracks_smallest_observation_once_recorded(self):
        histogram = Histogram()
        histogram.record(0.25)
        histogram.record(0.01)
        assert histogram.min == pytest.approx(0.01)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_span_without_recorder_is_a_noop(self):
        with span("orphan") as opened:
            assert opened is None
        annotate(ignored=True)  # must not raise
        assert current_span() is None

    def test_nesting_and_timing(self):
        recorder = SpanRecorder("root")
        with recorder:
            with span("outer", flavor="a"):
                with span("inner"):
                    annotate(rows=7)
        tree = list(recorder.root.walk())
        assert [(depth, s.name) for depth, s in tree] == [
            (0, "root"), (1, "outer"), (2, "inner")
        ]
        outer, inner = tree[1][1], tree[2][1]
        assert outer.meta == {"flavor": "a"}
        assert inner.meta == {"rows": 7}
        assert recorder.root.elapsed >= outer.elapsed >= inner.elapsed >= 0
        assert current_span() is None  # recorder closed cleanly

    def test_nested_recorders_shadow_and_restore(self):
        outer = SpanRecorder("outer")
        with outer:
            inner = SpanRecorder("inner")
            with inner:
                with span("stage"):
                    pass
            with span("after"):
                pass
        assert [s.name for _, s in inner.root.walk()] == ["inner", "stage"]
        assert [s.name for _, s in outer.root.walk()] == ["outer", "after"]

    def test_to_dict_shape(self):
        recorder = SpanRecorder("q")
        with recorder:
            with span("stage", rows=1):
                pass
        payload = recorder.root.to_dict()
        assert payload["name"] == "q"
        assert payload["children"][0]["meta"] == {"rows": 1}
        assert payload["children"][0]["elapsed_ms"] >= 0


# ----------------------------------------------------------------------
# EXPLAIN ANALYZE
# ----------------------------------------------------------------------
class TestExplainAnalyze:
    def test_stage_breakdown_shape(self, registry):
        db = make_db()
        report = db.sql("EXPLAIN ANALYZE SELECT COUNT_S(*) FROM Segment")
        stages = [row["stage"].strip() for row in report]
        assert stages == ["parse", "plan", "scan", "finalize", "total"]
        for row in report:
            assert set(row) == {"stage", "ms", "rows", "detail"}
            assert row["ms"] >= 0.0
        total = report[-1]
        assert total["rows"] == 1  # COUNT_S(*) returns one row
        plan_detail = report[stages.index("plan")]["detail"]
        assert "partitions=" in plan_detail

    def test_statement_really_runs_and_total_dominates(self, registry):
        db = make_db()
        report = db.sql(
            "EXPLAIN ANALYZE SELECT Tid, AVG_S(*) FROM Segment GROUP BY Tid"
        )
        total = report[-1]
        assert total["rows"] == len(
            db.sql("SELECT Tid, AVG_S(*) FROM Segment GROUP BY Tid")
        )
        stage_ms = sum(row["ms"] for row in report[:-1])
        assert total["ms"] >= stage_ms * 0.5  # stages nest under total

    def test_case_insensitive_and_multiline(self, registry):
        db = make_db()
        report = db.sql(
            "explain analyze\nSELECT COUNT(*) FROM DataPoint WHERE Tid = 1"
        )
        assert report[-1]["stage"] == "total"


# ----------------------------------------------------------------------
# Layer instrumentation lands in the registry
# ----------------------------------------------------------------------
class TestEndToEndCounters:
    def test_ingest_query_and_storage_record(self, registry):
        db = make_db()
        db.sql("SELECT COUNT_S(*) FROM Segment")
        counters = registry.snapshot()["counters"]
        assert counters["ingest.points_total"] == 3 * 200
        assert counters["storage.segments_written_total"] > 0
        assert counters["query.statements_total"] >= 1
        assert counters["query.segments_scanned_total"] > 0
        model_segments = sum(
            value
            for name, value in counters.items()
            if name.startswith("ingest.segments_total{")
        )
        assert model_segments == counters["storage.segments_written_total"]
        histograms = registry.snapshot()["histograms"]
        assert histograms["ingest.flush_seconds"]["count"] > 0
        assert histograms["query.execute_seconds"]["count"] >= 1


# ----------------------------------------------------------------------
# Profiling hook
# ----------------------------------------------------------------------
class TestMaybeProfile:
    def test_noop_when_unset(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        with maybe_profile():
            pass
        assert capsys.readouterr().err == ""

    def test_profiles_and_dumps_when_set(self, monkeypatch, tmp_path):
        out_path = tmp_path / "profile.pstats"
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_PROFILE_OUT", str(out_path))
        import io

        buffer = io.StringIO()
        with maybe_profile(out=buffer):
            sum(range(1000))
        assert out_path.exists()
        assert "REPRO_PROFILE summary" in buffer.getvalue()
