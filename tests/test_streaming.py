"""Streaming (micro-batch) ingestion with online query access."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import Configuration, TimeSeriesGroup
from repro.core.errors import IngestionError
from repro.ingest import Ingestor, StreamingIngestor
from repro.models import ModelRegistry
from repro.obs import MetricsRegistry, set_registry
from repro.query.engine import QueryEngine
from repro.storage import MemoryStorage, SegmentScan, records_for_groups

from .conftest import make_series

EXAMPLE = Path(__file__).parents[1] / "examples" / "streaming_ingestion.py"


def build_stream(n_series=2, error_bound=1.0, length_limit=10):
    series = [make_series(tid, [0.0]) for tid in range(1, n_series + 1)]
    group = TimeSeriesGroup(1, series)
    config = Configuration(
        error_bound=error_bound,
        model_length_limit=length_limit,
        bulk_write_size=1,  # make segments visible immediately
    )
    storage = MemoryStorage()
    storage.insert_time_series(records_for_groups([group]))
    registry = ModelRegistry()
    storage.insert_model_table(registry.model_table())
    stream = StreamingIngestor([group], config, registry, storage)
    return stream, storage


def stored(storage):
    """Every stored segment, read through ``Storage.tables``."""
    return [
        segment
        for table in storage.tables(SegmentScan())
        for segment in table.segments
    ]


def segment_rows(storage):
    return sorted(
        (s.gid, s.start_time, s.end_time, s.mid, bytes(s.parameters),
         tuple(sorted(s.gaps)))
        for s in stored(storage)
    )


class TestAppend:
    def test_stream_matches_batch_semantics(self):
        stream, storage = build_stream()
        for i in range(40):
            stream.append(1, i * 100, 5.0)
            stream.append(2, i * 100, 5.0)
        stream.flush()
        covered = sorted(
            ts for segment in stored(storage) for ts in segment.timestamps()
        )
        assert covered == [i * 100 for i in range(40)]
        assert stream.stats.data_points == 80

        # A non-finite value is a gap when streamed, exactly as in the
        # batch Ingestor.
        for value in (math.nan, math.inf, -math.inf):
            values = {1: [1.0] * 20, 2: [1.0] * 20}
            values[1][5] = value
            stream, storage = build_stream()
            for i in range(20):
                for tid in (1, 2):
                    stream.append(tid, i * 100, values[tid][i])
            assert stream.flush().data_points == 39
            group = TimeSeriesGroup(
                1, [make_series(tid, values[tid]) for tid in (1, 2)]
            )
            batch = MemoryStorage()
            config = Configuration(error_bound=1.0, model_length_limit=10)
            stats = Ingestor(config, ModelRegistry(), batch).ingest([group])
            assert stats.data_points == 39
            assert segment_rows(storage) == segment_rows(batch)
            assert any(1 in row[-1] for row in segment_rows(storage))

    def test_missing_series_becomes_gap(self):
        stream, storage = build_stream()
        for i in range(10):
            stream.append(1, i * 100, 1.0)
            if i < 5:
                stream.append(2, i * 100, 1.0)
        stream.flush()
        gaps = [segment.gaps for segment in stored(storage)]
        assert frozenset({2}) in gaps

    def test_out_of_order_rejected(self):
        stream, _ = build_stream()
        stream.append(1, 1_000, 1.0)
        stream.append(1, 1_100, 1.0)  # opens tick 1100
        with pytest.raises(IngestionError):
            stream.append(2, 1_000, 1.0)

    def test_unknown_tid_rejected(self):
        stream, _ = build_stream()
        with pytest.raises(IngestionError):
            stream.append(99, 0, 1.0)

    def test_duplicate_tid_across_groups_rejected(self):
        series = make_series(1, [0.0])
        groups = [
            TimeSeriesGroup(1, [series]),
            TimeSeriesGroup(2, [make_series(1, [0.0])]),
        ]
        storage = MemoryStorage()
        with pytest.raises(IngestionError):
            StreamingIngestor(
                groups, Configuration(), ModelRegistry(), storage
            )

    def test_pending_points(self):
        stream, _ = build_stream()
        assert stream.pending_points == 0
        stream.append(1, 0, 1.0)
        assert stream.pending_points == 1
        stream.append(2, 0, 1.0)
        assert stream.pending_points == 2
        stream.append(1, 100, 1.0)  # closes the tick at 0
        assert stream.pending_points == 1


class TestOnlineAnalytics:
    def test_queries_during_ingestion(self):
        """Segments become queryable while the stream is still open —
        the O-6 property of Fig. 13."""
        stream, storage = build_stream(length_limit=5)
        engine = QueryEngine(storage, ModelRegistry())
        for i in range(23):
            stream.append(1, i * 100, 7.0)
            stream.append(2, i * 100, 7.0)
        # 23 ticks with a length limit of 5: at least 4 full segments
        # are already flushed and visible mid-stream.
        rows = engine.sql("SELECT COUNT_S(*) FROM Segment")
        assert rows[0]["COUNT_S(*)"] >= 2 * 20
        stream.flush()
        engine.refresh_metadata()
        rows = engine.sql("SELECT COUNT_S(*) FROM Segment")
        assert rows[0]["COUNT_S(*)"] == 2 * 23

    def test_flush_is_resumable(self):
        stream, storage = build_stream()
        stream.append(1, 0, 1.0)
        stream.append(2, 0, 1.0)
        stream.flush()
        # The stream continues after a checkpoint flush.
        stream.append(1, 100, 1.0)
        stream.append(2, 100, 1.0)
        stream.flush()
        covered = sorted(
            ts for segment in stored(storage) for ts in segment.timestamps()
        )
        assert covered == [0, 100]

    def test_micro_batch_interface(self):
        stream, storage = build_stream()
        batch = [
            (tid, i * 100, float(i))
            for i in range(10)
            for tid in (1, 2)
        ]
        for tid, timestamp, value in batch:
            stream.append(tid, timestamp, value)
        stats = stream.flush()
        assert stats.data_points == 20


def interleaved_groups(n=900, seed=11):
    """Five groups of widths 1-5: a random walk; a pair with NaN and
    +-inf gaps; a triple whose third member diverges for a while (it
    splits and rejoins); a quad with a member that starts late; and a
    correlated five."""
    rng = np.random.default_rng(seed)

    def walk():
        return [float(v) for v in np.float32(100 + np.cumsum(rng.normal(0, 0.2, n)))]

    gapped = [walk(), walk()]
    for column, row, value in (
        (0, 50, math.nan), (0, 51, math.nan), (1, 200, math.inf),
        (0, 700, -math.inf), (1, 701, math.nan),
    ):
        gapped[column][row] = value
    steady = [100.0] * n
    diverging = list(steady)
    for row in range(300, 600):
        diverging[row] = float(np.float32(150 + rng.normal(0, 5)))
    base = np.cumsum(rng.normal(0, 0.5, n)) + 50
    five = [
        [float(v) for v in np.float32(base + rng.normal(0, 0.1, n))]
        for _ in range(5)
    ]
    late = 250
    columns = [
        [(walk(), 0)],
        [(values, 0) for values in gapped],
        [(steady, 0), (list(steady), 0), (diverging, 0)],
        [(walk(), 0), (walk(), 0), (walk(), 0), (walk()[late:], late)],
        [(values, 0) for values in five],
    ]
    groups, tid = [], 1
    for gid, members in enumerate(columns, start=1):
        series = []
        for values, start in members:
            series.append(make_series(tid, values, start=start * 100))
            tid += 1
        groups.append(TimeSeriesGroup(gid, series))
    return groups


class TestStreamEqualsBulk:
    @pytest.mark.parametrize("bulk_write_size", [1, 4, 50_000])
    def test_interleaved_appends_store_the_bulk_rows(self, bulk_write_size):
        """Per-point appends interleaved across groups store exactly the
        rows that ``Ingestor.ingest`` stores for the same series."""
        groups = interleaved_groups()
        config = Configuration(error_bound=1.0, bulk_write_size=bulk_write_size)
        registry = ModelRegistry()
        streamed, batch = MemoryStorage(), MemoryStorage()
        for storage in (streamed, batch):
            storage.insert_time_series(records_for_groups(groups))
            storage.insert_model_table(registry.model_table())
        points = {}  # raw values: NaN and +-inf are appended as they are
        for group in groups:
            for series in group:
                for row, value in enumerate(series.values.tolist()):
                    timestamp = series.start_time + row * series.sampling_interval
                    points.setdefault(timestamp, []).append(
                        (series.tid, timestamp, value)
                    )
        rng = np.random.default_rng(3)
        stream = StreamingIngestor(groups, config, registry, streamed)
        for timestamp in sorted(points):
            tick = points[timestamp]
            for index in rng.permutation(len(tick)):
                stream.append(*tick[index])
        stream_stats = stream.flush()
        bulk_stats = Ingestor(config, registry, batch).ingest(groups)
        assert stream_stats.splits >= 1 and stream_stats.joins >= 1
        assert segment_rows(streamed) == segment_rows(batch)
        for name in ("data_points", "segments", "splits", "joins", "fits"):
            assert getattr(stream_stats, name) == getattr(bulk_stats, name), name
        assert {row[0] for row in segment_rows(streamed)} == {1, 2, 3, 4, 5}


class TestMetrics:
    def test_streamed_points_are_counted_once(self):
        """Every flush folds the points it closed into
        ``ingest.points_total``, and nothing twice."""
        metrics = MetricsRegistry()
        previous = set_registry(metrics)
        try:
            stream, _ = build_stream()
            for i in range(40):
                stream.append(1, i * 100, 5.0)
                stream.append(2, i * 100, 5.0)
            first = stream.flush().data_points
            counted = metrics.snapshot()["counters"]["ingest.points_total"]
            assert counted == first == 80
            for i in range(40, 60):
                stream.append(1, i * 100, 6.0)
                stream.append(2, i * 100, 6.0)
            total = stream.flush().data_points
            counted = metrics.snapshot()["counters"]["ingest.points_total"]
            assert counted == total == 120
            flushes = metrics.snapshot()["histograms"]["ingest.flush_seconds"]
            assert flushes["count"] > 0
        finally:
            set_registry(previous)


class TestStreamingExample:
    def test_points_are_queryable_before_the_stream_closes(self):
        """The streaming example run as a user runs it."""
        src = str(EXAMPLE.parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, str(EXAMPLE)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        live = [int(n) for n in re.findall(r"(\d+) points queryable", result.stdout)]
        assert live and live[0] > 0
        closed = re.findall(r"stream closed: (\d+) points", result.stdout)
        assert closed == ["6000"]
