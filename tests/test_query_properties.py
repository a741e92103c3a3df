"""Property-based tests of query-layer equivalences.

For arbitrary data, bounds and intervals the three ways of answering an
aggregate must agree: the Segment View (on models), the Data Point View
(reconstruction) and numpy over the reconstructed points. For lossless
ingestion all three must equal ground truth over the *original* values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Configuration, ModelarDB, TimeSeries

f32_values = st.floats(
    min_value=-1e5, max_value=1e5,
    allow_nan=False, allow_infinity=False, width=32,
)


def build_db(values, bound):
    series = TimeSeries(1, 100, [i * 100 for i in range(len(values))], values)
    db = ModelarDB(Configuration(error_bound=bound))
    db.ingest([series])
    return db


@given(
    values=st.lists(f32_values, min_size=3, max_size=90),
    bound=st.sampled_from([0.0, 1.0, 10.0]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_views_agree_on_clipped_aggregates(values, bound, data):
    """SV == DPV for every aggregate over a random sub-interval."""
    db = build_db(values, bound)
    n = len(values)
    first = data.draw(st.integers(min_value=0, max_value=n - 1))
    last = data.draw(st.integers(min_value=first, max_value=n - 1))
    start, end = first * 100, last * 100
    for function in ("SUM", "MIN", "MAX", "AVG", "COUNT"):
        sv = db.sql(
            f"SELECT {function}_S(*) FROM Segment WHERE TS >= {start} "
            f"AND TS <= {end}"
        )[0][f"{function}_S(*)"]
        dpv = db.sql(
            f"SELECT {function}(*) FROM DataPoint WHERE TS >= {start} "
            f"AND TS <= {end}"
        )[0][f"{function}(*)"]
        assert sv == pytest.approx(dpv, rel=1e-9, abs=1e-9), function


@given(values=st.lists(f32_values, min_size=1, max_size=90))
@settings(max_examples=60, deadline=None)
def test_lossless_aggregates_equal_ground_truth(values):
    db = build_db(values, 0.0)
    quantized = np.float32(values).astype(np.float64)
    row = db.sql(
        "SELECT SUM_S(*), MIN_S(*), MAX_S(*), COUNT_S(*) FROM Segment"
    )[0]
    assert row["COUNT_S(*)"] == len(values)
    assert row["SUM_S(*)"] == pytest.approx(quantized.sum(), rel=1e-9, abs=1e-9)
    assert row["MIN_S(*)"] == pytest.approx(quantized.min())
    assert row["MAX_S(*)"] == pytest.approx(quantized.max())


@given(
    values=st.lists(f32_values, min_size=1, max_size=90),
    bound=st.sampled_from([0.0, 5.0]),
)
@settings(max_examples=40, deadline=None)
def test_rollup_partitions_the_simple_aggregate(values, bound):
    """Minute-bucket sums must add up to the overall sum (Algorithm 6
    covers every point exactly once)."""
    db = build_db(values, bound)
    total = db.sql("SELECT SUM_S(*) FROM Segment")[0]["SUM_S(*)"]
    buckets = db.sql("SELECT CUBE_SUM_MINUTE(*) FROM Segment")
    bucket_total = sum(row["CUBE_SUM_MINUTE(*)"] for row in buckets)
    assert bucket_total == pytest.approx(total, rel=1e-9, abs=1e-9)
    counts = db.sql("SELECT CUBE_COUNT_MINUTE(*) FROM Segment")
    assert sum(row["CUBE_COUNT_MINUTE(*)"] for row in counts) == len(values)


@given(
    values=st.lists(f32_values, min_size=2, max_size=60),
    scaling=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_scaling_round_trips_through_queries(values, scaling):
    """Ingesting with a scaling constant must not change query results
    beyond the error bound (ingest multiplies, queries divide)."""
    quantized = [float(np.float32(v)) for v in values]
    series = TimeSeries(
        1, 100, [i * 100 for i in range(len(values))], quantized,
        scaling=scaling,
    )
    db = ModelarDB(Configuration(error_bound=0.0))
    db.ingest([series])
    points = {p.timestamp: p.value for p in db.points(tids=[1])}
    for index, value in enumerate(quantized):
        # The scaled value is quantised to float32 during ingestion, so
        # the round trip may lose the low bits of value * scaling.
        scaled = float(np.float32(value * scaling))
        assert points[index * 100] == pytest.approx(
            scaled / scaling, rel=1e-6, abs=1e-30
        )


@pytest.mark.parametrize(
    "values",
    [
        [513.0, 5.3917380813967714e-14],
        [1.0, 3.5198528673411e-23],
        [1.0, 1.0982115729047644e-27],
        [1.0, 1.0861723971511578e-20],
    ],
)
def test_swing_keeps_tiny_values_at_bound_zero(values):
    """The examples hypothesis drew for the round-trip property above,
    where Swing once decoded the tiny value beside a large one as 0.0,
    pinned so they are checked on every run."""
    series = TimeSeries(1, 100, [0, 100], values)
    db = ModelarDB(Configuration(error_bound=0.0))
    db.ingest([series])
    points = [p.value for p in db.points(tids=[1])]
    assert points == pytest.approx(values, rel=1e-6, abs=1e-30)


@given(
    values=st.lists(f32_values, min_size=1, max_size=60),
    bound=st.sampled_from([0.0, 1.0, 10.0]),
)
@settings(max_examples=40, deadline=None)
def test_count_never_depends_on_bound(values, bound):
    db = build_db(values, bound)
    assert db.sql("SELECT COUNT_S(*) FROM Segment")[0]["COUNT_S(*)"] == len(
        values
    )
