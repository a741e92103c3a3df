"""Segments and their per-series explosion (Definition 9)."""

import pytest

from repro.core import SegmentGroup, explode
from repro.core.errors import ModelarError
from repro.core.segment import SEGMENT_OVERHEAD_BYTES


def segment(**overrides) -> SegmentGroup:
    defaults = dict(
        gid=1,
        start_time=100,
        end_time=400,
        sampling_interval=100,
        mid=1,
        parameters=b"\x01\x02\x03\x04",
        gaps=frozenset(),
        group_tids=(1, 2, 3),
    )
    defaults.update(overrides)
    return SegmentGroup(**defaults)


class TestInvariants:
    def test_length(self):
        assert segment().length == 4

    def test_single_point_segment(self):
        assert segment(end_time=100).length == 1

    def test_end_before_start_rejected(self):
        with pytest.raises(ModelarError):
            segment(end_time=0)

    def test_interval_must_be_si_multiple(self):
        with pytest.raises(ModelarError):
            segment(end_time=450)

    def test_gaps_must_belong_to_group(self):
        with pytest.raises(ModelarError):
            segment(gaps=frozenset({9}))

    def test_member_tids_exclude_gaps(self):
        s = segment(gaps=frozenset({2}))
        assert s.member_tids == (1, 3)
        assert s.n_columns == 2

    def test_column_of(self):
        s = segment(gaps=frozenset({2}))
        assert s.column_of(1) == 0
        assert s.column_of(3) == 1
        with pytest.raises(ModelarError):
            s.column_of(2)

    def test_timestamps(self):
        assert list(segment().timestamps()) == [100, 200, 300, 400]

    def test_index_of(self):
        """A grid timestamp's row is its position on the segment grid;
        an off-grid or out-of-range timestamp has none."""
        grid = segment().timestamps()
        assert grid.index(100) == 0
        assert grid.index(400) == 3
        assert 150 not in grid and 500 not in grid

    def test_overlaps(self):
        s = segment()
        assert s.overlaps(None, None)
        assert s.overlaps(400, None)
        assert s.overlaps(None, 100)
        assert not s.overlaps(401, None)
        assert not s.overlaps(None, 99)
        assert s.overlaps(250, 260)

    def test_storage_bytes_matches_paper_accounting(self):
        # Section 3.2: a segment costs 24 + sizeof(Model) bytes.
        assert segment().storage_bytes() == SEGMENT_OVERHEAD_BYTES + 4


class TestGapBitmask:
    def test_round_trip(self):
        s = segment(gaps=frozenset({1, 3}))
        mask = s.gap_bitmask()
        assert mask == 0b101
        assert SegmentGroup.gaps_from_bitmask(mask, (1, 2, 3)) == {1, 3}

    def test_no_gaps_is_zero(self):
        assert segment().gap_bitmask() == 0


class TestExplode:
    def test_one_row_per_member(self):
        rows = explode(segment(gaps=frozenset({2})))
        assert [row.tid for row in rows] == [1, 3]
        assert all(row.start_time == 100 for row in rows)
        assert [row.column for row in rows] == [0, 1]

    def test_tid_filter(self):
        rows = explode(segment(), tids={2})
        assert [row.tid for row in rows] == [2]

    def test_scaling_and_dimensions_attached(self):
        rows = explode(
            segment(),
            scalings={1: 4.75},
            dimension_rows={1: {"Park": "Aalborg"}},
        )
        assert rows[0].scaling == 4.75
        assert rows[0].dimensions == {"Park": "Aalborg"}
        assert rows[1].scaling == 1.0

    def test_row_length(self):
        rows = explode(segment())
        assert rows[0].length == 4
