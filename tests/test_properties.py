"""Property-based tests of the core invariants (hypothesis).

The model properties (accepted prefixes within the bound, Gorilla
lossless) scale their example count with the Hypothesis profile:
200/150 by default, ten times that under ``HYPOTHESIS_PROFILE=nightly``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Configuration, ModelarDB, TimeSeries
from repro.core import SegmentGroup
from repro.models import ModelRegistry
from repro.models.gorilla import Gorilla
from repro.models.pmc_mean import PMCMean
from repro.models.swing import Swing
from repro.storage import SegmentScan, decode_segment, encode_segment

#: Values representable as float32 without the extremes that make
#: relative-error arithmetic degenerate.
f32_values = st.floats(
    min_value=-1e6,
    max_value=1e6,
    allow_nan=False,
    allow_infinity=False,
    width=32,
)

bounds = st.sampled_from([0.0, 1.0, 5.0, 10.0])


def within_bound(original, estimate, bound_percent):
    slack = 1e-6 * max(abs(original), 1e-3)
    return abs(estimate - original) <= bound_percent / 100.0 * abs(original) + slack


@given(values=st.lists(f32_values, min_size=1, max_size=60), bound=bounds)
@settings(max_examples=settings.default.max_examples * 2, deadline=None)
def test_pmc_accepted_prefix_is_within_bound(values, bound):
    """Whatever PMC accepts it must reconstruct within the bound."""
    pmc = PMCMean()
    fitter = pmc.fitter(1, bound, 60)
    accepted = []
    for value in values:
        if not fitter.append((value,)):
            break
        accepted.append(value)
    if not accepted:
        return
    model = pmc.decode(fitter.parameters(), 1, len(accepted))
    for index, value in enumerate(accepted):
        assert within_bound(value, model.value_at(index, 0), bound)


@given(values=st.lists(f32_values, min_size=1, max_size=60), bound=bounds)
@settings(max_examples=settings.default.max_examples * 2, deadline=None)
def test_swing_accepted_prefix_is_within_bound(values, bound):
    swing = Swing()
    fitter = swing.fitter(1, bound, 60)
    accepted = []
    for value in values:
        if not fitter.append((value,)):
            break
        accepted.append(value)
    if not accepted:
        return
    model = swing.decode(fitter.parameters(), 1, len(accepted))
    for index, value in enumerate(accepted):
        assert within_bound(value, model.value_at(index, 0), bound)


@given(
    rows=st.lists(
        st.lists(f32_values, min_size=2, max_size=2), min_size=1, max_size=50
    )
)
@settings(max_examples=settings.default.max_examples * 3 // 2, deadline=None)
def test_gorilla_is_lossless_for_any_float32(rows):
    gorilla = Gorilla()
    fitter = gorilla.fitter(2, 0.0, 50)
    for row in rows:
        assert fitter.append(tuple(row))
    model = gorilla.decode(fitter.parameters(), 2, len(rows))
    decoded = model.values()
    for index, row in enumerate(rows):
        for column, value in enumerate(row):
            assert decoded[index, column] == float(np.float32(value))


@given(
    values=st.lists(f32_values, min_size=1, max_size=120),
    bound=bounds,
)
@settings(max_examples=settings.default.max_examples * 3 // 5, deadline=None)
def test_ingestion_reconstructs_within_bound(values, bound):
    """End-to-end: ingest -> store -> Data Point View stays in bound and
    loses no data points."""
    series = TimeSeries(1, 100, [i * 100 for i in range(len(values))], values)
    db = ModelarDB(Configuration(error_bound=bound))
    db.ingest([series])
    points = {p.timestamp: p.value for p in db.points(tids=[1])}
    assert len(points) == len(values)
    for index, value in enumerate(values):
        quantized = float(np.float32(value))
        assert within_bound(quantized, points[index * 100], bound)


@given(
    values=st.lists(f32_values, min_size=1, max_size=80),
    bound=bounds,
)
@settings(max_examples=settings.default.max_examples * 2 // 5, deadline=None)
def test_segment_views_agree_on_sum(values, bound):
    """SUM on the Segment View equals SUM on the Data Point View."""
    series = TimeSeries(1, 100, [i * 100 for i in range(len(values))], values)
    db = ModelarDB(Configuration(error_bound=bound))
    db.ingest([series])
    sv = db.sql("SELECT SUM_S(*) FROM Segment")[0]["SUM_S(*)"]
    dpv = db.sql("SELECT SUM(*) FROM DataPoint")[0]["SUM(*)"]
    assert sv == pytest.approx(dpv, rel=1e-9, abs=1e-9)


@given(
    values=st.lists(f32_values, min_size=1, max_size=80),
)
@settings(max_examples=settings.default.max_examples * 2 // 5, deadline=None)
def test_segments_partition_the_timeline(values):
    """Emitted segments are disjoint and cover every non-gap timestamp."""
    series = TimeSeries(1, 100, [i * 100 for i in range(len(values))], values)
    db = ModelarDB(Configuration(error_bound=1.0))
    db.ingest([series])
    covered = []
    for segment in db.storage.scan(SegmentScan()):
        covered.extend(segment.timestamps())
    assert sorted(covered) == [i * 100 for i in range(len(values))]
    assert len(covered) == len(set(covered))


@given(
    gid=st.integers(min_value=0, max_value=2 ** 31 - 1),
    start_index=st.integers(min_value=0, max_value=1000),
    length=st.integers(min_value=1, max_value=500),
    mid=st.integers(min_value=1, max_value=255),
    params=st.binary(max_size=64),
    gap_positions=st.sets(st.integers(min_value=0, max_value=4), max_size=4),
)
@settings(max_examples=settings.default.max_examples * 2, deadline=None)
def test_segment_serialization_round_trip(
    gid, start_index, length, mid, params, gap_positions
):
    group_tids = (1, 2, 3, 4, 5)
    gaps = frozenset(group_tids[p] for p in gap_positions)
    si = 100
    segment = SegmentGroup(
        gid=gid,
        start_time=start_index * si,
        end_time=(start_index + length - 1) * si,
        sampling_interval=si,
        mid=mid,
        parameters=params,
        gaps=gaps,
        group_tids=group_tids,
    )
    decoded, offset = decode_segment(
        encode_segment(segment), 0, si, group_tids
    )
    assert decoded == segment


@given(
    data=st.lists(
        st.tuples(f32_values, st.booleans()), min_size=2, max_size=100
    )
)
@settings(max_examples=settings.default.max_examples * 2 // 5, deadline=None)
def test_gaps_never_produce_phantom_points(data):
    """Ingesting a series with arbitrary gaps reconstructs exactly the
    non-gap points — nothing lost, nothing invented."""
    values = [value if present else None for value, present in data]
    if all(v is None for v in values):
        return
    # The series must start with a real point for a stable start time.
    first_present = next(i for i, v in enumerate(values) if v is not None)
    values = values[first_present:]
    series = TimeSeries(1, 100, [i * 100 for i in range(len(values))], values)
    db = ModelarDB(Configuration(error_bound=0.0))
    db.ingest([series])
    points = {p.timestamp for p in db.points(tids=[1])}
    expected = {
        i * 100 for i, value in enumerate(values) if value is not None
    }
    assert points == expected
