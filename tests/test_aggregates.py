"""The UDAF framework: initialize / merge / finalize, and the slice
aggregates the fold adds between them."""

import numpy as np
import pytest

from repro import Configuration, ModelarDB, TimeSeries
from repro.core.errors import QueryError
from repro.models.pmc_mean import FittedPMCMean
from repro.models.swing import FittedSwing
from repro.query.aggregates import aggregate_by_name, aggregate_names
from repro.storage import SegmentScan


@pytest.fixture
def constant_model():
    return FittedPMCMean(10.0, n_columns=1, length=8)


@pytest.fixture
def linear_model():
    # 0, 1, 2, ..., 9
    return FittedSwing(0.0, 1.0, n_columns=1, length=10)


class TestLookup:
    def test_names(self):
        assert aggregate_names() == ["AVG", "COUNT", "MAX", "MIN", "SUM"]

    def test_suffixed_lookup(self):
        assert aggregate_by_name("SUM_S").name == "SUM"
        assert aggregate_by_name("sum_s").name == "SUM"
        assert aggregate_by_name("MIN").name == "MIN"

    def test_unknown_rejected(self):
        with pytest.raises(QueryError):
            aggregate_by_name("MEDIAN_S")


class TestIterate:
    """What the fold adds per segment: the models' slice aggregates over
    a clipped index range, divided by the series' scaling."""

    def test_count(self, constant_model):
        agg = aggregate_by_name("COUNT")
        state = agg.merge(agg.initialize(), constant_model.length)
        assert agg.finalize(state) == 8

    def test_sum(self, constant_model):
        assert constant_model.slice_sum(2, 5, 0) == 40.0

    def test_min_max(self, linear_model):
        assert linear_model.slice_min(3, 7, 0) == 3.0
        assert linear_model.slice_max(3, 7, 0) == 7.0

    def test_avg(self, linear_model):
        agg = aggregate_by_name("AVG")
        state = (linear_model.slice_sum(0, 9, 0), 10)
        assert agg.finalize(state) == pytest.approx(4.5)

    def test_scaling_divides_results(self):
        # Section 6.1: aggregates divide by the scaling constant. The
        # series stores 5.0 times its scaling 2.0, a constant 10.0.
        timestamps = np.arange(8, dtype=np.int64) * 100
        db = ModelarDB(Configuration(error_bound=0.0))
        db.ingest([TimeSeries(1, 100, timestamps, np.full(8, 5.0), scaling=2.0)])
        (segment,) = db.storage.scan(SegmentScan())
        model = db.engine.segment_cache.model_of(segment)
        assert model.slice_sum(0, 7, 0) == 80.0
        (row,) = db.query("SELECT SUM_S(*), MIN_S(*) FROM Segment")
        assert row == {"SUM_S(*)": 40.0, "MIN_S(*)": 5.0}

    def test_empty_states_finalize(self):
        assert aggregate_by_name("MIN").finalize(
            aggregate_by_name("MIN").initialize()
        ) is None
        assert aggregate_by_name("AVG").finalize(
            aggregate_by_name("AVG").initialize()
        ) is None
        assert aggregate_by_name("COUNT").finalize(
            aggregate_by_name("COUNT").initialize()
        ) == 0


class TestMerge:
    """Distributive/algebraic merging for the cluster's master step."""

    def test_sum_merge(self):
        agg = aggregate_by_name("SUM")
        assert agg.finalize(agg.merge(40.0, 40.0)) == 80.0

    def test_min_merge_with_empty(self):
        agg = aggregate_by_name("MIN")
        assert agg.finalize(agg.merge(2.0, agg.initialize())) == 2.0
        assert agg.finalize(agg.merge(agg.initialize(), 2.0)) == 2.0

    def test_max_merge(self):
        agg = aggregate_by_name("MAX")
        assert agg.finalize(agg.merge(4.0, 9.0)) == 9.0

    def test_avg_merge_is_algebraic(self):
        # AVG merges (sum, count) pairs, not averages of averages.
        agg = aggregate_by_name("AVG")
        assert agg.finalize(agg.merge((1.0, 2), (44.0, 8))) == pytest.approx(4.5)

    def test_count_merge(self):
        agg = aggregate_by_name("COUNT")
        assert agg.finalize(agg.merge(3, 1)) == 4
