"""Time-dimension rollups (Algorithm 6, Fig. 12)."""

import datetime as dt
import random

import numpy as np
import pytest

from repro.core.errors import QueryError
from repro.models.pmc_mean import FittedPMCMean
from repro.models.swing import FittedSwing
from repro.query.aggregates import aggregate_by_name
from repro.query.rollup import (
    DATEPART_LEVELS,
    TIME_LEVELS,
    bucket_bounds,
    bucket_numbers,
    datepart_of,
    floor_to_level,
    format_bucket,
    next_boundary,
    parse_cube_function,
    split_at_boundaries,
)

from . import oracle
from .oracle import rollup

ALL_LEVELS = (*TIME_LEVELS, *DATEPART_LEVELS)


def ms(year, month, day, hour=0, minute=0, second=0):
    moment = dt.datetime(
        year, month, day, hour, minute, second, tzinfo=dt.timezone.utc
    )
    return int(moment.timestamp() * 1000)


class TestBoundaries:
    def test_floor_hour(self):
        assert floor_to_level(ms(2016, 4, 12, 7, 45), "HOUR") == ms(
            2016, 4, 12, 7
        )

    def test_floor_day_month_year(self):
        t = ms(2016, 4, 12, 7, 45, 30)
        assert floor_to_level(t, "DAY") == ms(2016, 4, 12)
        assert floor_to_level(t, "MONTH") == ms(2016, 4, 1)
        assert floor_to_level(t, "YEAR") == ms(2016, 1, 1)

    def test_next_boundary_simple_units(self):
        assert next_boundary(ms(2016, 4, 12, 7), "HOUR") == ms(2016, 4, 12, 8)
        assert next_boundary(ms(2016, 4, 12), "DAY") == ms(2016, 4, 13)
        assert next_boundary(ms(2016, 4, 12, 7, 5), "MINUTE") == ms(
            2016, 4, 12, 7, 6
        )

    def test_next_boundary_month_lengths(self):
        assert next_boundary(ms(2016, 4, 1), "MONTH") == ms(2016, 5, 1)
        assert next_boundary(ms(2016, 1, 1), "MONTH") == ms(2016, 2, 1)
        # Leap year February.
        assert next_boundary(ms(2016, 2, 1), "MONTH") == ms(2016, 3, 1)
        assert next_boundary(ms(2015, 2, 1), "MONTH") == ms(2015, 3, 1)

    def test_next_boundary_year_rollover(self):
        assert next_boundary(ms(2016, 1, 1), "YEAR") == ms(2017, 1, 1)
        assert next_boundary(ms(2015, 1, 1), "YEAR") == ms(2016, 1, 1)

    def test_unknown_level_rejected(self):
        with pytest.raises(QueryError):
            floor_to_level(0, "FORTNIGHT")
        with pytest.raises(QueryError):
            next_boundary(0, "FORTNIGHT")


def calendar_corners():
    """Seeded random timestamps from 1901 to 2099 plus the calendar's
    corners, each with its neighbours one millisecond either side."""
    rng = random.Random(11)
    corners = [
        ms(1969, 12, 31, 23, 59, 59),  # negative milliseconds
        ms(1900, 3, 1),
        ms(1970, 1, 1),
        ms(2016, 2, 29),
        ms(2016, 2, 29, 23, 59, 59),
        ms(2016, 3, 1),
        ms(2015, 12, 31, 23, 59, 59),
        ms(2016, 1, 1),
        ms(2016, 12, 31, 12),
        ms(2017, 1, 1),
    ]
    corners += [ms(2016, month, 1) for month in range(1, 13)]
    timestamps = [rng.randint(ms(1901, 1, 1), ms(2099, 1, 1)) for _ in range(2000)]
    for corner in corners:
        timestamps += [corner - 1, corner, corner + 1]
    return np.array(timestamps, dtype=np.int64)


class TestVectorisedCalendar:
    @pytest.mark.parametrize("level", ALL_LEVELS)
    def test_equals_the_scalar_calendar(self, level):
        timestamps = calendar_corners()
        walk = DATEPART_LEVELS.get(level, level)
        starts, ends, keys = bucket_bounds(bucket_numbers(timestamps, level), level)
        floors = [floor_to_level(t, walk) for t in timestamps.tolist()]
        assert starts.tolist() == floors
        assert ends.tolist() == [next_boundary(f, walk) for f in floors]
        if level in DATEPART_LEVELS:
            assert keys.tolist() == [datepart_of(f, level) for f in floors]
        else:
            assert keys.tolist() == floors

    @pytest.mark.parametrize("si", (1_000, 61_000, 7 * 3_600_000, 40 * 86_400_000))
    @pytest.mark.parametrize("level", ALL_LEVELS)
    def test_split_walks_like_rollup_segment(self, level, si):
        """Sampling intervals finer and coarser than the level, clipped
        rows: the pieces are exactly the oracle's scalar boundary walk's
        (first, last, key), each keyed by the bucket of its first tick."""
        rng = random.Random(f"{level}/{si}")
        walk = DATEPART_LEVELS.get(level, level)
        origins = rng.sample(calendar_corners().tolist(), 150)
        firsts, lasts, expected = [], [], []
        for origin in origins:
            length = rng.randint(1, 40)
            first = rng.randrange(length)
            last = rng.randrange(first, length)
            firsts.append(first)
            lasts.append(last)
            pieces = oracle.walk(origin, si, first, last, level)
            # A piece's first index is the first tick of its bucket.
            floors = [floor_to_level(origin + a * si, walk) for a, _, _ in pieces]
            if level in DATEPART_LEVELS:
                floors = [datepart_of(floor, level) for floor in floors]
            assert [key for _, _, key in pieces] == floors
            expected.append(pieces)
        row, first, last, keys = split_at_boundaries(
            np.array(origins), np.array(firsts), np.array(lasts), si, level
        )
        got = [[] for _ in origins]
        for index, *piece in zip(
            row.tolist(), first.tolist(), last.tolist(), keys.tolist()
        ):
            got[index].append(tuple(piece))
        assert got == expected


class TestParseCube:
    def test_parse(self):
        assert parse_cube_function("CUBE_SUM_HOUR") == ("SUM", "HOUR")
        assert parse_cube_function("cube_avg_month") == ("AVG", "MONTH")

    def test_malformed_rejected(self):
        with pytest.raises(QueryError):
            parse_cube_function("CUBE_SUM")
        with pytest.raises(QueryError):
            parse_cube_function("ROLLUP_SUM_HOUR")
        with pytest.raises(QueryError):
            parse_cube_function("CUBE_SUM_FORTNIGHT")


class TestRollupSegment:
    """The oracle's per-segment CUBE fold (Algorithm 6), which the
    engine's partition-at-a-time rollups are held to."""

    def test_paper_fig12_structure(self):
        """A segment from 00:13 to 02:48 splits into [00:13, 01:00),
        [01:00, 02:00) and [02:00, 02:48] with an inclusive end."""
        si = 60_000  # one minute
        start = ms(2016, 4, 12, 0, 13)
        length = 156  # 00:13 .. 02:48 inclusive
        model = FittedPMCMean(1.0, n_columns=1, length=length)
        agg = aggregate_by_name("SUM")
        states: dict[int, object] = {}
        rollup(
            states, agg, model, start, si, 0, length - 1, 0, 1.0, "HOUR"
        )
        assert sorted(states) == [
            ms(2016, 4, 12, 0),
            ms(2016, 4, 12, 1),
            ms(2016, 4, 12, 2),
        ]
        # 47 minutes in hour 0 (00:13..00:59), 60 in hour 1,
        # 49 in hour 2 (02:00..02:48 inclusive).
        assert agg.finalize(states[ms(2016, 4, 12, 0)]) == 47.0
        assert agg.finalize(states[ms(2016, 4, 12, 1)]) == 60.0
        assert agg.finalize(states[ms(2016, 4, 12, 2)]) == 49.0

    def test_clipped_range_respected(self):
        si = 60_000
        start = ms(2016, 4, 12, 0, 0)
        model = FittedPMCMean(2.0, n_columns=1, length=120)
        agg = aggregate_by_name("SUM")
        states: dict[int, object] = {}
        # Only indices 30..89 (00:30 .. 01:29).
        rollup(states, agg, model, start, si, 30, 89, 0, 1.0, "HOUR")
        assert agg.finalize(states[ms(2016, 4, 12, 0)]) == 60.0
        assert agg.finalize(states[ms(2016, 4, 12, 1)]) == 60.0

    def test_linear_model_sums_match(self):
        si = 60_000
        start = ms(2016, 4, 12, 0, 30)
        model = FittedSwing(0.0, 1.0, n_columns=1, length=60)
        agg = aggregate_by_name("SUM")
        states: dict[int, object] = {}
        rollup(states, agg, model, start, si, 0, 59, 0, 1.0, "HOUR")
        # Indices 0..29 in hour 0 (values 0..29), 30..59 in hour 1.
        assert agg.finalize(states[ms(2016, 4, 12, 0)]) == sum(range(30))
        assert agg.finalize(states[ms(2016, 4, 12, 1)]) == sum(
            range(30, 60)
        )

    def test_scaling_applied(self):
        si = 60_000
        start = ms(2016, 4, 12, 0, 0)
        model = FittedPMCMean(10.0, n_columns=1, length=10)
        agg = aggregate_by_name("SUM")
        states: dict[int, object] = {}
        rollup(states, agg, model, start, si, 0, 9, 0, 4.0, "HOUR")
        assert agg.finalize(states[ms(2016, 4, 12, 0)]) == 25.0

    def test_existing_states_are_merged(self):
        si = 60_000
        start = ms(2016, 4, 12, 0, 0)
        model = FittedPMCMean(1.0, n_columns=1, length=10)
        agg = aggregate_by_name("SUM")
        states: dict[int, object] = {}
        rollup(states, agg, model, start, si, 0, 9, 0, 1.0, "HOUR")
        rollup(states, agg, model, start, si, 0, 9, 0, 1.0, "HOUR")
        assert agg.finalize(states[ms(2016, 4, 12, 0)]) == 20.0


class TestFormatBucket:
    def test_formats(self):
        t = ms(2016, 4, 12, 7, 5)
        assert format_bucket(t, "YEAR") == "2016"
        assert format_bucket(t, "MONTH") == "2016-04"
        assert format_bucket(t, "DAY") == "2016-04-12"
        assert format_bucket(t, "HOUR") == "2016-04-12 07:00"
        assert format_bucket(t, "MINUTE") == "2016-04-12 07:05"
