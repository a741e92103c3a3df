"""Streaming (micro-batch) ingestion with online query access."""

import math

import pytest

from repro.core import Configuration, TimeSeriesGroup
from repro.core.errors import IngestionError
from repro.ingest import Ingestor, StreamingIngestor
from repro.models import ModelRegistry
from repro.query.engine import QueryEngine
from repro.storage import MemoryStorage, SegmentScan, records_for_groups

from .conftest import make_series


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


def segment_rows(storage):
    return sorted(
        (s.start_time, s.end_time, s.mid, bytes(s.parameters),
         tuple(sorted(s.gaps)))
        for s in storage.scan(SegmentScan())
    )


class TestAppend:
    def test_stream_matches_batch_semantics(self):
        stream, storage = build_stream()
        for i in range(40):
            stream.append(1, i * 100, 5.0)
            stream.append(2, i * 100, 5.0)
        stream.flush()
        covered = sorted(
            ts for segment in storage.scan(SegmentScan()) for ts in segment.timestamps()
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
            stats = Ingestor(config, ModelRegistry(), batch).ingest_group(group)
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
        gaps = [segment.gaps for segment in storage.scan(SegmentScan())]
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
            ts for segment in storage.scan(SegmentScan()) for ts in segment.timestamps()
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
