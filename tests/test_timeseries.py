"""Time series primitives: Definitions 1-3 and 5-6."""

import numpy as np
import pytest

from repro.core import DataPoint, Gap, TimeSeries, from_data_points
from repro.core.errors import TimeSeriesError

from .conftest import make_series


class TestConstruction:
    def test_basic_series(self):
        ts = make_series(1, [188.5, 181.8, 179.15], si=100)
        assert len(ts) == 3
        assert ts.start_time == 0
        assert ts.end_time == 200
        assert ts.sampling_interval == 100

    def test_values_preserved(self):
        ts = make_series(1, [1.0, 2.0, 3.0])
        assert list(ts.values) == [1.0, 2.0, 3.0]

    def test_iteration_yields_data_points(self):
        ts = make_series(7, [1.0, None, 3.0])
        points = list(ts)
        assert points[0] == DataPoint(7, 0, 1.0)
        assert points[1] == DataPoint(7, 100, None)
        assert points[2] == DataPoint(7, 200, 3.0)

    def test_non_positive_si_rejected(self):
        with pytest.raises(TimeSeriesError):
            TimeSeries(1, 0, [0], [1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(TimeSeriesError):
            TimeSeries(1, 100, [0, 100], [1.0])

    def test_zero_scaling_rejected(self):
        with pytest.raises(TimeSeriesError):
            TimeSeries(1, 100, [0], [1.0], scaling=0.0)

    def test_unordered_timestamps_rejected(self):
        with pytest.raises(TimeSeriesError):
            TimeSeries(1, 100, [0, 200, 100], [1.0, 2.0, 3.0])

    def test_duplicate_timestamps_rejected(self):
        with pytest.raises(TimeSeriesError):
            TimeSeries(1, 100, [0, 0], [1.0, 2.0])

    def test_misaligned_timestamps_rejected(self):
        with pytest.raises(TimeSeriesError):
            TimeSeries(1, 100, [0, 150], [1.0, 2.0])

    def test_empty_series_allowed(self):
        ts = TimeSeries(1, 100, [], [])
        assert len(ts) == 0

    def test_from_data_points(self):
        ts = from_data_points(3, 100, [(0, 1.0), (100, None), (200, 3.0)])
        assert ts.tid == 3
        assert ts.gap_count() == 1


class TestRegularization:
    """The TSg -> TSrg example of Section 2."""

    def test_missing_rows_become_gap_points(self):
        # Gap between 500 and 1100 with SI=100 creates five ⊥ points.
        ts = TimeSeries(
            1,
            100,
            [100, 200, 300, 400, 500, 1100],
            [188.45, 181.8, 179.15, 172.4, 169.7, 141.5],
        )
        assert len(ts) == 11
        assert ts.gap_count() == 5

    def test_gap_boundaries_match_definition_5(self):
        ts = TimeSeries(1, 100, [100, 500], [1.0, 2.0])
        assert ts.gaps() == [Gap(100, 500)]

    def test_multiple_gaps(self):
        ts = TimeSeries(1, 10, [0, 30, 60], [1.0, 2.0, 3.0])
        assert ts.gaps() == [Gap(0, 30), Gap(30, 60)]

    def test_already_regular_is_untouched(self):
        ts = make_series(1, [1.0, 2.0, 3.0])
        assert ts.gap_count() == 0
        assert ts.gaps() == []

    def test_explicit_none_gap_points(self):
        ts = make_series(1, [1.0, None, None, 4.0])
        assert ts.gap_count() == 2
        assert ts.gaps() == [Gap(0, 300)]


class TestAccessors:
    def test_value_at(self):
        ts = make_series(1, [1.0, None, 3.0])
        assert ts.value_at(0) == 1.0
        assert ts.value_at(100) is None
        assert ts.value_at(200) == 3.0

    def test_value_at_off_grid_rejected(self):
        ts = make_series(1, [1.0, 2.0])
        with pytest.raises(TimeSeriesError):
            ts.value_at(50)

    def test_value_at_outside_rejected(self):
        ts = make_series(1, [1.0, 2.0])
        with pytest.raises(TimeSeriesError):
            ts.value_at(300)
        with pytest.raises(TimeSeriesError):
            ts.value_at(-100)

    def test_alignment(self):
        ts = TimeSeries(1, 100, [150, 250], [1.0, 2.0])
        assert ts.alignment == 50

    def test_empty_series_has_no_bounds(self):
        ts = TimeSeries(1, 100, [], [])
        with pytest.raises(TimeSeriesError):
            _ = ts.start_time
        with pytest.raises(TimeSeriesError):
            _ = ts.end_time

    def test_bounded_subset(self):
        ts = make_series(1, [1.0, 2.0, 3.0, 4.0, 5.0])
        bounded = ts.bounded(100, 300)
        assert list(bounded.values) == [2.0, 3.0, 4.0]
        assert bounded.start_time == 100

    def test_scaled_values(self):
        ts = make_series(1, [1.0, 2.0], scaling=4.75)
        assert list(ts.values * ts.scaling) == [4.75, 9.5]

    def test_values_are_read_only(self):
        ts = make_series(1, [1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 9.0
        with pytest.raises(ValueError):
            ts.timestamps[0] = 9
