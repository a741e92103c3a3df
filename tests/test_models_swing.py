"""Swing: the group-extended linear model."""

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.models.base import to_float32
from repro.models.swing import Swing


@pytest.fixture
def swing():
    return Swing()


def fit(swing, vectors, error_bound=10.0, limit=50):
    fitter = swing.fitter(len(vectors[0]), error_bound, limit)
    accepted = 0
    for vector in vectors:
        if not fitter.append(tuple(vector)):
            break
        accepted += 1
    return fitter, accepted


def linear(start, slope, n):
    return [(to_float32(start + slope * i),) for i in range(n)]


class TestFitting:
    def test_exact_line_fits_losslessly(self, swing):
        fitter, accepted = fit(swing, linear(5.0, 0.5, 30), error_bound=0.0)
        assert accepted == 30

    def test_noisy_line_fits_within_bound(self, swing):
        rng = np.random.default_rng(0)
        vectors = [
            (100.0 + 2.0 * i + rng.uniform(-1, 1),) for i in range(30)
        ]
        fitter, accepted = fit(swing, vectors, error_bound=5.0)
        assert accepted == 30

    def test_direction_change_rejected(self, swing):
        vectors = linear(100.0, 1.0, 10) + [(10.0,)]
        fitter, accepted = fit(swing, vectors, error_bound=1.0)
        assert accepted == 10

    def test_rejection_keeps_state(self, swing):
        fitter = swing.fitter(1, 1.0, 50)
        for (value,) in linear(100.0, 1.0, 5):
            assert fitter.append((value,))
        assert not fitter.append((500.0,))
        assert fitter.append((105.0,))  # the line continues
        assert fitter.length == 6

    def test_group_reduction(self, swing):
        # Three series on parallel lines within the bound.
        vectors = [
            (100.0 + i, 101.0 + i, 99.0 + i) for i in range(20)
        ]
        fitter, accepted = fit(swing, vectors, error_bound=5.0)
        assert accepted == 20

    def test_group_outside_bound_rejected(self, swing):
        vectors = [(100.0, 150.0)]
        fitter, accepted = fit(swing, vectors, error_bound=1.0)
        assert accepted == 0

    def test_single_point_has_zero_slope(self, swing):
        fitter, _ = fit(swing, [(42.0,)])
        model = swing.decode(fitter.parameters(), 1, 1)
        assert model.slope == 0.0
        assert model.intercept == pytest.approx(42.0, rel=1e-6)

    def test_length_limit(self, swing):
        fitter, accepted = fit(swing, linear(0.0, 1.0, 60), limit=50)
        assert accepted == 50

    @pytest.mark.parametrize(
        "vectors",
        [[(1.0,), (1.0861723971511578e-20,)], [(513.0,), (5.39e-14,)]],
    )
    def test_slope_that_decodes_outside_bound_rejected(self, swing, vectors):
        # In float64 the slope interval is exactly [-1.0, -1.0] for the
        # first pair, and 1.0 - 1.0 decodes the tiny value as 0.0.
        _, accepted = fit(swing, vectors, error_bound=0.0)
        assert accepted == 1
        fitter = swing.fitter(1, 0.0, 50)
        assert fitter.extend(None, np.array(vectors)) == 1


class TestEncoding:
    def test_parameters_are_eight_bytes(self, swing):
        fitter, _ = fit(swing, linear(1.0, 1.0, 5))
        assert len(fitter.parameters()) == 8
        assert fitter.size_bytes() == 8

    def test_empty_fitter_cannot_encode(self, swing):
        with pytest.raises(ModelError):
            swing.fitter(1, 1.0, 50).parameters()

    def test_decode_rejects_wrong_size(self, swing):
        with pytest.raises(ModelError):
            swing.decode(b"\x00" * 4, 1, 5)

    def test_round_trip_exact_line(self, swing):
        vectors = linear(5.0, 0.5, 20)
        fitter, _ = fit(swing, vectors, error_bound=0.0)
        model = swing.decode(fitter.parameters(), 1, 20)
        for index, (value,) in enumerate(vectors):
            assert model.value_at(index, 0) == pytest.approx(value, abs=1e-9)

    def test_round_trip_within_bound(self, swing):
        rng = np.random.default_rng(3)
        vectors = [
            (200.0 - 1.5 * i + rng.uniform(-2, 2),) for i in range(30)
        ]
        fitter, accepted = fit(swing, vectors, error_bound=5.0)
        model = swing.decode(fitter.parameters(), 1, accepted)
        for index in range(accepted):
            value = vectors[index][0]
            error = abs(model.value_at(index, 0) - value)
            assert error <= 0.05 * abs(value) + 1e-6


class TestAggregates:
    def test_slice_sum_is_arithmetic_series(self, swing):
        fitter, _ = fit(swing, linear(0.0, 1.0, 10), error_bound=0.0)
        model = swing.decode(fitter.parameters(), 1, 10)
        # 0 + 1 + ... + 9 = 45
        assert model.slice_sum(0, 9, 0) == pytest.approx(45.0)
        # 2 + 3 + 4 = 9
        assert model.slice_sum(2, 4, 0) == pytest.approx(9.0)

    def test_min_max_at_endpoints(self, swing):
        fitter, _ = fit(swing, linear(10.0, -1.0, 5), error_bound=0.0)
        model = swing.decode(fitter.parameters(), 1, 5)
        assert model.slice_min(0, 4, 0) == pytest.approx(6.0)
        assert model.slice_max(0, 4, 0) == pytest.approx(10.0)

    def test_constant_time_flag(self, swing):
        fitter, _ = fit(swing, linear(0.0, 1.0, 3))
        model = swing.decode(fitter.parameters(), 1, 3)
        assert model.constant_time_aggregates

    def test_values_shape_broadcasts_columns(self, swing):
        fitter, _ = fit(
            swing, [(i * 1.0, i * 1.0) for i in range(5)], error_bound=1.0
        )
        model = swing.decode(fitter.parameters(), 2, 5)
        assert model.values().shape == (5, 2)

    def test_paper_example_sum(self, swing):
        # Fig. 11: SUM over -0.0465t + 186.1 for t = 100..2300 step 100
        # equals ((181.45 + 79.15) / 2) * 23 = 2996.9.
        from repro.models.swing import FittedSwing

        model = FittedSwing(
            intercept=-0.0465 * 100 + 186.1, slope=-0.0465 * 100,
            n_columns=3, length=23,
        )
        assert model.slice_sum(0, 22, 0) == pytest.approx(2996.9, abs=0.01)
