"""The batch ingestor: the tick grid, bulk writes, statistics."""

import math

from repro.core import Configuration, TimeSeriesGroup
from repro.ingest import Ingestor
from repro.ingest.ingestor import group_tick_blocks
from repro.models import ModelRegistry
from repro.storage import MemoryStorage, SegmentScan, records_for_groups

from .conftest import correlated_group, make_series


def grid(group, chunk_size=1024):
    """The group grid as ``(timestamp, {tid: value or None})`` rows."""
    rows = []
    for timestamps, matrix in group_tick_blocks(group, chunk_size):
        for timestamp, row in zip(timestamps.tolist(), matrix.tolist()):
            rows.append((timestamp, {
                tid: None if math.isnan(value) else value
                for tid, value in zip(group.tids, row)
            }))
    return rows


class TestGroupTicks:
    def test_full_grid(self):
        group = TimeSeriesGroup(
            1, [make_series(1, [1.0, 2.0]), make_series(2, [5.0, 6.0])]
        )
        ticks = grid(group)
        assert ticks == [
            (0, {1: 1.0, 2: 5.0}),
            (100, {1: 2.0, 2: 6.0}),
        ]
        assert grid(group, 1) == ticks

    def test_gap_reported_as_none(self):
        group = TimeSeriesGroup(1, [make_series(1, [1.0, None, 3.0])])
        ticks = grid(group)
        assert ticks[1] == (100, {1: None})

    def test_shifted_series_padded_with_none(self):
        group = TimeSeriesGroup(
            1,
            [
                make_series(1, [1.0, 2.0, 3.0], start=0),
                make_series(2, [9.0], start=200),
            ],
        )
        ticks = grid(group, 2)
        assert ticks[0][1] == {1: 1.0, 2: None}
        assert ticks[2][1] == {1: 3.0, 2: 9.0}

    def test_series_ending_early_padded(self):
        group = TimeSeriesGroup(
            1,
            [
                make_series(1, [1.0], start=0),
                make_series(2, [9.0, 8.0], start=0),
            ],
        )
        ticks = grid(group)
        assert ticks[1][1] == {1: None, 2: 8.0}


class TestIngestor:
    def make(self, bulk=50_000, error_bound=5.0):
        config = Configuration(
            error_bound=error_bound, bulk_write_size=bulk
        )
        storage = MemoryStorage()
        return Ingestor(config, ModelRegistry(), storage), storage

    def test_ingest_group_produces_segments(self):
        ingestor, storage = self.make()
        group = correlated_group(n_points=300)
        storage.insert_time_series(records_for_groups([group]))
        stats = ingestor.ingest_group(group)
        assert storage.segment_count() > 0
        assert stats.data_points == 3 * 300
        assert stats.storage_bytes == storage.size_bytes()

    def test_all_points_covered(self):
        ingestor, storage = self.make()
        group = correlated_group(n_points=257)
        storage.insert_time_series(records_for_groups([group]))
        ingestor.ingest_group(group)
        covered = set()
        for segment in storage.scan(SegmentScan()):
            covered.update(segment.timestamps())
        assert covered == set(range(0, 257 * 100, 100))

    def test_bulk_write_batches(self):
        # With a bulk size of 1, every segment lands immediately; with a
        # large size, the flush happens at group end — same content.
        group = correlated_group(n_points=300)

        small, small_store = self.make(bulk=1)
        small_store.insert_time_series(records_for_groups([group]))
        small.ingest_group(group)

        large, large_store = self.make(bulk=10_000)
        large_store.insert_time_series(records_for_groups([group]))
        large.ingest_group(group)

        assert small_store.segment_count() == large_store.segment_count()
        assert small_store.size_bytes() == large_store.size_bytes()

    def test_ingest_multiple_groups_merges_stats(self):
        ingestor, storage = self.make()
        groups = [
            correlated_group(gid=1, n_points=100, seed=0),
            correlated_group(gid=2, n_points=100, seed=1),
        ]
        # Reassign tids of the second group to avoid duplicate metadata.
        groups[1] = TimeSeriesGroup(
            2,
            [
                make_series(tid + 3, [p.value for p in ts], si=100)
                for tid, ts in zip(range(1, 4), groups[1])
            ],
        )
        storage.insert_time_series(records_for_groups(groups))
        stats = ingestor.ingest(groups)
        assert stats.data_points == 600
        assert storage.segment_count() > 0
        assert set(s.gid for s in storage.scan(SegmentScan())) == {1, 2}
