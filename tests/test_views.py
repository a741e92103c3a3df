"""Segment/Data Point views: clipping, decoding, ``points()``."""

import random

import numpy as np
import pytest

from repro import ModelarDB
from repro.core import SegmentGroup, TimeSeries
from repro.models import ModelRegistry
from repro.query.cache import SegmentCache
from repro.query.metadata import MetadataCache
from repro.query.rewriter import Predicates, rewrite
from repro.query.views import SegmentView
from repro.storage import MemoryStorage, TimeSeriesRecord
from repro.storage.scan import Table


def make_segment(start=0, end=900, si=100):
    return SegmentGroup(
        gid=1, start_time=start, end_time=end, sampling_interval=si,
        mid=1, parameters=b"\x00\x00\x80?",  # PMC constant 1.0
        group_tids=(1, 2),
    )


def clipped(start, end, segments=None):
    """(row, first, last) per row of a table clipped to [start, end]."""
    table = Table.of([make_segment()] if segments is None else segments)
    rows, first, last = table.clip(start, end)
    return list(zip(rows.tolist(), first.tolist(), last.tolist()))


def reference_clip(segment, start_time, end_time):
    """The per-segment clip the views applied before ``Table.clip``:
    the inclusive model index range inside [start, end], or None."""
    first = 0
    last = segment.length - 1
    si = segment.sampling_interval
    if start_time is not None and start_time > segment.start_time:
        offset = start_time - segment.start_time
        first = -(-offset // si)  # ceiling division
    if end_time is not None and end_time < segment.end_time:
        last = (end_time - segment.start_time) // si
    if first > last:
        return None
    return first, last


class TestClip:
    def test_no_predicates(self):
        assert clipped(None, None) == [(0, 0, 9)]

    def test_start_inside(self):
        assert clipped(250, None) == [(0, 3, 9)]

    def test_start_on_grid(self):
        assert clipped(300, None) == [(0, 3, 9)]

    def test_end_inside(self):
        assert clipped(None, 450) == [(0, 0, 4)]

    def test_both(self):
        assert clipped(200, 700) == [(0, 2, 7)]

    def test_empty_intersection(self):
        assert clipped(901, None) == []
        assert clipped(None, -1) == []

    def test_point_interval(self):
        assert clipped(500, 500) == [(0, 5, 5)]
        # Overlaps the segment but holds none of its ticks.
        ((_, first, last),) = clipped(501, 599)
        assert first > last

    def test_rows_of_two_sampling_intervals_in_one_call(self):
        segments = [
            make_segment(1000, 1900, 100),
            make_segment(0, 900, 300),
            make_segment(0, 900, 100),
        ]
        assert clipped(250, 700, segments) == [(1, 1, 2), (2, 3, 7)]

    def test_empty_table(self):
        assert clipped(None, None, []) == []
        assert clipped(0, 10, []) == []

    def test_agrees_with_the_per_segment_clip(self):
        generator = random.Random(7)
        far = 10**30  # beyond int64: only ever compared, never rounded

        def bound():
            return generator.choice(
                [None, -far, far, generator.randint(-1500, 1500)]
            )

        for _ in range(300):
            segments = []
            for _ in range(generator.randint(0, 12)):
                start = generator.randint(-1000, 1000)
                si = generator.choice([1, 3, 7, 100])
                length = generator.randint(1, 20)
                segments.append(
                    make_segment(start, start + (length - 1) * si, si)
                )
            start, end = bound(), bound()
            expected = [
                (row, reference_clip(segment, start, end))
                for row, segment in enumerate(segments)
                if (start is None or segment.end_time >= start)
                and (end is None or segment.start_time <= end)
            ]
            actual = [
                (row, (first, last) if first <= last else None)
                for row, first, last in clipped(start, end, segments)
            ]
            assert actual == expected, (start, end)


class TestViews:
    @pytest.fixture
    def setup(self):
        storage = MemoryStorage()
        storage.insert_time_series([
            TimeSeriesRecord(1, 100, gid=1, scaling=2.0),
            TimeSeriesRecord(2, 100, gid=1),
        ])
        storage.insert_segments([make_segment()])
        registry = ModelRegistry()
        cache = SegmentCache(registry)
        metadata = MetadataCache(storage)
        return storage, cache, metadata

    def test_segment_view_rows(self, setup):
        storage, cache, metadata = setup
        view = SegmentView(storage, cache, metadata)
        plan = rewrite(Predicates(), metadata)
        rows = list(view.rows(plan))
        assert [r.row.tid for r in rows] == [1, 2]
        assert rows[0].row.scaling == 2.0
        assert (rows[0].first, rows[0].last) == (0, 9)

    def test_segment_view_respects_tid_filter(self, setup):
        storage, cache, metadata = setup
        view = SegmentView(storage, cache, metadata)
        plan = rewrite(Predicates(tids=frozenset({2})), metadata)
        rows = list(view.rows(plan))
        assert [r.row.tid for r in rows] == [2]

    def test_data_point_view_applies_scaling(self, setup):
        storage, _, _ = setup
        points = list(ModelarDB(storage=storage).points(tids=[1]))
        # Stored constant 1.0 divided by the scaling constant 2.0.
        assert all(p.value == 0.5 for p in points)
        assert [p.timestamp for p in points] == list(range(0, 1000, 100))
        assert {(p.tid, type(p.value)) for p in points} == {(1, float)}

    def test_arrays_are_clipped(self, setup):
        storage, _, _ = setup
        points = ModelarDB(storage=storage).points(
            tids=[2], start_time=200, end_time=400
        )
        assert [(p.timestamp, p.value) for p in points] == [
            (200, 1.0), (300, 1.0), (400, 1.0)
        ]

    def test_bounds_beyond_int64_read_like_no_bound(self):
        db = ModelarDB()
        db.ingest([
            TimeSeries(1, 100, np.arange(50) * 100, np.arange(50.0, dtype=np.float32))
        ])
        far = "99999999999999999999"
        for sql in (
            f"SELECT COUNT_S(*) FROM Segment WHERE TS >= -{far}",
            f"SELECT COUNT(*) FROM DataPoint WHERE TS <= {far}",
            f"SELECT COUNT(*) FROM DataPoint WHERE Value > -1 AND TS <= {far}",
        ):
            (row,) = db.query(sql)
            assert list(row.values()) == [50], sql


class TestColumnSharedModel:
    def test_every_member_reads_the_group_model(self, registry):
        """One Swing model stands for every member of its group: each
        series' points are the shared line, divided by its own scaling."""
        fitter = registry.by_name("Swing").fitter(3, 1.0, 50)
        for i in range(10):
            fitter.append((float(i), float(i), float(i)))
        storage = MemoryStorage()
        storage.insert_time_series(
            [TimeSeriesRecord(tid, 100, 1, scaling) for tid, scaling in
             ((1, 1.0), (2, 4.0), (3, -0.5))]
        )
        storage.insert_segments([
            SegmentGroup(
                1, 0, 900, 100, registry.mid_of("Swing"), fitter.parameters(),
                group_tids=(1, 2, 3),
            )
        ])
        line = [float(i) for i in range(10)]
        for tid, scaling in ((1, 1.0), (2, 4.0), (3, -0.5)):
            points = ModelarDB(storage=storage).points(tids=[tid])
            assert [p.value for p in points] == [v / scaling for v in line]
