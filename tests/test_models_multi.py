"""Multiple models per segment (Section 5.1)."""

import numpy as np
import pytest

from repro import Configuration, MemoryStorage, ModelarDB, TimeSeries
from repro.core.errors import ModelError
from repro.core.group import TimeSeriesGroup
from repro.models.gorilla import Gorilla
from repro.models.multi import MultiModel
from repro.models.pmc_mean import PMCMean
from repro.models.swing import Swing


class TestFitting:
    def test_independent_columns_fit_separately(self):
        # Column 0 rises, column 1 falls: a single group Swing would
        # fail, but per-column sub-models fit both.
        multi = MultiModel(Swing())
        fitter = multi.fitter(2, 1.0, 50)
        for i in range(20):
            assert fitter.append((float(i), float(100 - i)))
        assert fitter.length == 20

    def test_lock_step_rejection(self):
        # Fig. 9 case III: when one column rejects, the timestamp is not
        # covered for any column.
        multi = MultiModel(PMCMean())
        fitter = multi.fitter(2, 1.0, 50)
        assert fitter.append((100.0, 200.0))
        assert not fitter.append((100.0, 900.0))  # column 1 rejects
        assert fitter.length == 1

    def test_rollback_preserves_prefix(self):
        multi = MultiModel(PMCMean())
        fitter = multi.fitter(2, 1.0, 50)
        assert fitter.append((100.0, 200.0))
        assert not fitter.append((100.0, 900.0))
        # The prefix is still extendable after the rollback.
        assert fitter.append((100.5, 200.5))
        assert fitter.length == 2

    def test_gorilla_rollback_discards_leftover_parameters(self):
        # A variable-size sub-model must not keep bits for the rejected
        # timestamp (the "leftover parameters" of Section 5.1).
        multi = MultiModel(Gorilla())
        fitter = multi.fitter(2, 0.0, 3)
        for i in range(3):
            fitter.append((float(i), float(i)))
        size_before = fitter.size_bytes()
        assert not fitter.append((3.0, 3.0))  # length limit
        assert fitter.size_bytes() == size_before


class TestEncoding:
    def test_round_trip(self):
        multi = MultiModel(Swing())
        fitter = multi.fitter(3, 0.0, 50)
        rows = [
            (float(i), float(2 * i), float(100 - i)) for i in range(10)
        ]
        for row in rows:
            assert fitter.append(row)
        model = multi.decode(fitter.parameters(), 3, 10)
        decoded = model.values()
        assert decoded.shape == (10, 3)
        assert np.allclose(decoded, np.array(rows), atol=1e-5)

    def test_empty_fitter_cannot_encode(self):
        multi = MultiModel(PMCMean())
        with pytest.raises(ModelError):
            multi.fitter(2, 1.0, 50).parameters()

    def test_decode_truncated_rejected(self):
        multi = MultiModel(PMCMean())
        fitter = multi.fitter(2, 1.0, 50)
        fitter.append((1.0, 2.0))
        params = fitter.parameters()
        with pytest.raises(ModelError):
            multi.decode(params[:-2], 2, 1)

    def test_size_larger_than_single_group_model(self):
        # The Section 5.1 baseline shares metadata but not values: for
        # correlated series one group PMC beats N sub-models.
        multi = MultiModel(PMCMean())
        multi_fitter = multi.fitter(3, 1.0, 50)
        group = PMCMean().fitter(3, 1.0, 50)
        for _ in range(20):
            multi_fitter.append((100.0, 100.1, 99.9))
            group.append((100.0, 100.1, 99.9))
        assert multi_fitter.size_bytes() > group.size_bytes()


class TestAggregates:
    def test_per_column_aggregates(self):
        multi = MultiModel(Swing())
        fitter = multi.fitter(2, 0.0, 50)
        for i in range(5):
            fitter.append((float(i), float(10 - i)))
        model = multi.decode(fitter.parameters(), 2, 5)
        assert model.slice_sum(0, 4, 0) == pytest.approx(10.0)
        assert model.slice_sum(0, 4, 1) == pytest.approx(40.0)
        assert model.slice_min(0, 4, 1) == pytest.approx(6.0)
        assert model.slice_max(0, 4, 0) == pytest.approx(4.0)
        assert model.value_at(2, 0) == pytest.approx(2.0)

    def test_constant_time_follows_base(self):
        pmc_multi = MultiModel(PMCMean())
        fitter = pmc_multi.fitter(1, 1.0, 50)
        fitter.append((1.0,))
        assert pmc_multi.decode(
            fitter.parameters(), 1, 1
        ).constant_time_aggregates

        gorilla_multi = MultiModel(Gorilla())
        fitter = gorilla_multi.fitter(1, 0.0, 50)
        fitter.append((1.0,))
        assert not gorilla_multi.decode(
            fitter.parameters(), 1, 1
        ).constant_time_aggregates

    def test_name_and_always_fits(self):
        assert MultiModel(Swing()).name == "Multi(Swing)"
        assert MultiModel(Gorilla()).always_fits
        assert not MultiModel(Swing()).always_fits

    def test_constant_time_but_not_column_independent(self):
        fitter = MultiModel(PMCMean()).fitter(2, 0.0, 50)
        fitter.append((10.0, 30.0))
        model = MultiModel(PMCMean()).decode(fitter.parameters(), 2, 1)
        assert model.constant_time_aggregates
        assert not model.column_independent
        assert not MultiModel(PMCMean()).column_independent
        assert PMCMean().column_independent and Swing().column_independent


def multi_db(columnar):
    """A group of two series held at 10.0 and 30.0 (100 ticks each),
    stored only through ``Multi`` models: one sub-model per column."""
    timestamps = np.arange(100, dtype=np.int64) * 1000
    series = [
        TimeSeries(1, 1000, timestamps, np.full(100, 10.0)),
        TimeSeries(2, 1000, timestamps, np.full(100, 30.0)),
    ]
    bases = (PMCMean(), Swing(), Gorilla())
    config = Configuration(
        error_bound=0.0,
        models=tuple(f"Multi({base.name})" for base in bases),
        columnar_read=columnar,
    )
    db = ModelarDB(
        config,
        storage=MemoryStorage(),
        extra_models=[MultiModel(base) for base in bases],
    )
    db.ingest([TimeSeriesGroup(1, series)])
    return db


class TestSegmentOnlyAggregates:
    """Segment-only aggregates read each member's own sub-model; they
    once answered column 0's series for every member."""

    @pytest.mark.parametrize("columnar", [True, False])
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT Tid, SUM_S(*), MIN_S(*), MAX_S(*), AVG_S(*) "
            "FROM Segment GROUP BY Tid",
            "SELECT Tid, SUM(*), MIN(*), MAX(*), AVG(*) "
            "FROM DataPoint GROUP BY Tid",
        ],
    )
    def test_each_member_answers_its_own_values(self, columnar, sql):
        rows = multi_db(columnar).sql(sql)
        assert [list(row.values()) for row in rows] == [
            [1, 1000.0, 10.0, 10.0, 10.0],
            [2, 3000.0, 30.0, 30.0, 30.0],
        ]

    @pytest.mark.parametrize("columnar", [True, False])
    def test_segment_only_matches_materialized(self, columnar):
        db = multi_db(columnar)
        for tid in (1, 2):
            folded = db.sql(f"SELECT SUM(*) FROM DataPoint WHERE Tid = {tid}")
            points = db.sql(
                f"SELECT SUM(*) FROM DataPoint WHERE Tid = {tid} "
                "AND Value > 0.0"
            )
            assert folded == points == [{"SUM(*)": 1000.0 * (2 * tid - 1)}]
