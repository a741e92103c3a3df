"""The batch ingestor: the tick grid, bulk writes, statistics."""

import math

import numpy as np
import pytest

from repro import ModelarDB
from repro.core import Configuration, TimeSeriesGroup
from repro.ingest import Ingestor
from repro.ingest.ingestor import group_tick_blocks
from repro.models import ModelRegistry
from repro.models.gorilla import Gorilla, GorillaFitter
from repro.storage import FileStorage, MemoryStorage, SegmentScan, records_for_groups

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
        stats = ingestor.ingest([group])
        assert storage.segment_count() > 0
        assert stats.data_points == 3 * 300
        assert stats.storage_bytes == storage.size_bytes()

    def test_all_points_covered(self):
        ingestor, storage = self.make()
        group = correlated_group(n_points=257)
        storage.insert_time_series(records_for_groups([group]))
        ingestor.ingest([group])
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
        small.ingest([group])

        large, large_store = self.make(bulk=10_000)
        large_store.insert_time_series(records_for_groups([group]))
        large.ingest([group])

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


class _RaisingFitter(GorillaFitter):
    """Gorilla whose ``_extend`` raises on its ``fail_at``-th call."""

    calls = 0
    fail_at = 0

    def _extend(self, block):
        _RaisingFitter.calls += 1
        if _RaisingFitter.calls == _RaisingFitter.fail_at:
            raise RuntimeError("injected fit failure")
        return super()._extend(block)


class _Raising(Gorilla):
    """A registered user model fitted eagerly, one block after another,
    after the batched PMC-Mean and Swing of the same round."""

    name = "test.Raising"
    always_fits = False

    def fitter(self, n_columns, error_bound, length_limit):
        return _RaisingFitter(n_columns, error_bound, length_limit)


def _failing_groups(first_gid):
    """A short group that ends early and two long ones."""
    rng = np.random.default_rng(first_gid)
    groups = []
    for offset, n in enumerate((40, 1500, 1500)):
        gid = first_gid + offset
        groups.append(TimeSeriesGroup(gid, [
            make_series(10 * gid + k, (100 + np.cumsum(rng.normal(0, 1, n))).tolist())
            for k in range(2)
        ]))
    return groups


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_a_group_that_raises_while_fitting_lands_nothing(backend, tmp_path):
    """Writes land only once every group has ended, so a fit that raises
    in the middle of a round leaves the store as the call found it, the
    short group that ended before it included."""
    config = Configuration(
        error_bound=1.0, bulk_write_size=2, models=("PMC", "Swing", "test.Raising")
    )
    storage = MemoryStorage() if backend == "memory" else FileStorage(tmp_path)
    with storage:
        db = ModelarDB(config, storage=storage, extra_models=[_Raising()])
        _RaisingFitter.calls, _RaisingFitter.fail_at = 0, 0
        db.ingest(_failing_groups(1))
        calls = _RaisingFitter.calls
        assert calls > 20
        before = (storage.segment_count(), storage.knowledge_time())
        assert before[0] > 0
        # The same shape again: fail late in the call, once the short
        # group has long ended.
        _RaisingFitter.calls, _RaisingFitter.fail_at = 0, calls * 9 // 10
        with pytest.raises(RuntimeError, match="injected"):
            db.ingest(_failing_groups(4))
        assert (storage.segment_count(), storage.knowledge_time()) == before


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_a_failed_ingest_stores_no_time_series_record(backend, tmp_path):
    """The new groups' records land with their first segment write, so
    a call that raises while fitting lists no new Tid, and retrying it
    stores every point once."""
    config = Configuration(
        error_bound=1.0, bulk_write_size=2, models=("PMC", "Swing", "test.Raising")
    )
    storage = MemoryStorage() if backend == "memory" else FileStorage(tmp_path)
    count = "SELECT COUNT_S(*) FROM Segment"
    with storage:
        db = ModelarDB(config, storage=storage, extra_models=[_Raising()])
        _RaisingFitter.calls, _RaisingFitter.fail_at = 0, 0
        db.ingest(_failing_groups(1))
        calls = _RaisingFitter.calls
        tids = sorted(record.tid for record in storage.time_series())
        gids = [group.gid for group in db.groups]
        stored = db.sql(count)[0]["COUNT_S(*)"]
        _RaisingFitter.calls, _RaisingFitter.fail_at = 0, calls * 9 // 10
        with pytest.raises(RuntimeError, match="injected"):
            db.ingest(_failing_groups(4))
        assert sorted(record.tid for record in storage.time_series()) == tids
        assert [group.gid for group in db.groups] == gids
        _RaisingFitter.calls, _RaisingFitter.fail_at = 0, 0
        retry = _failing_groups(4)
        db.ingest(retry)
        points = sum(len(series.values) for group in retry for series in group)
        assert db.sql(count)[0]["COUNT_S(*)"] == stored + points
        assert sorted(record.tid for record in storage.time_series()) == sorted(
            tids + [series.tid for group in retry for series in group]
        )
