"""PMC-Mean: the group-extended constant model."""

import struct

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.models.base import float32_within, to_float32
from repro.models import pmc_mean
from repro.models.pmc_mean import PMCMean


@pytest.fixture
def pmc():
    return PMCMean()


def fit(pmc, vectors, error_bound=10.0, limit=50):
    fitter = pmc.fitter(len(vectors[0]), error_bound, limit)
    accepted = 0
    for vector in vectors:
        if not fitter.append(tuple(vector)):
            break
        accepted += 1
    return fitter, accepted


class TestFitting:
    def test_constant_run_fits(self, pmc):
        fitter, accepted = fit(pmc, [(100.0,)] * 20)
        assert accepted == 20

    def test_within_bound_fits(self, pmc):
        # 10% of 100 allows estimates in [90, 110] for each value.
        fitter, accepted = fit(pmc, [(95.0,), (105.0,), (100.0,)])
        assert accepted == 3

    def test_outside_bound_rejected(self, pmc):
        fitter, accepted = fit(pmc, [(100.0,), (130.0,)])
        assert accepted == 1

    def test_group_reduction_uses_extremes(self, pmc):
        # Group values per timestamp: only min/max matter (Fig. 10).
        fitter, accepted = fit(pmc, [(95.0, 100.0, 105.0)] * 5)
        assert accepted == 5

    def test_group_with_empty_intersection_rejected(self, pmc):
        fitter, accepted = fit(pmc, [(80.0, 120.0)])
        assert accepted == 0

    def test_rejection_keeps_state(self, pmc):
        fitter = pmc.fitter(1, 10.0, 50)
        assert fitter.append((100.0,))
        assert not fitter.append((200.0,))
        assert fitter.append((101.0,))  # still fits the old interval
        assert fitter.length == 2

    def test_length_limit(self, pmc):
        fitter, accepted = fit(pmc, [(1.0,)] * 60, limit=50)
        assert accepted == 50

    def test_zero_error_bound_requires_exact_equality(self, pmc):
        fitter, accepted = fit(pmc, [(1.5,), (1.5,), (1.5001,)], error_bound=0.0)
        assert accepted == 2

    def test_zero_value_with_relative_bound(self, pmc):
        fitter, accepted = fit(pmc, [(0.0,), (0.0,)], error_bound=10.0)
        assert accepted == 2
        model = pmc.decode(fitter.parameters(), 1, fitter.length)
        assert model.value == 0.0


class TestEncoding:
    def test_parameters_are_four_bytes(self, pmc):
        fitter, _ = fit(pmc, [(100.0,)])
        assert len(fitter.parameters()) == 4
        assert fitter.size_bytes() == 4

    def test_empty_fitter_cannot_encode(self, pmc):
        fitter = pmc.fitter(1, 10.0, 50)
        with pytest.raises(ModelError):
            fitter.parameters()

    def test_decode_rejects_wrong_size(self, pmc):
        with pytest.raises(ModelError):
            pmc.decode(b"\x00" * 8, 1, 5)

    def test_round_trip_within_bound(self, pmc):
        values = [(100.0,), (105.0,), (95.0,)]
        fitter, _ = fit(pmc, values)
        model = pmc.decode(fitter.parameters(), 1, fitter.length)
        for (value,) in values:
            assert abs(model.value - value) <= 0.10 * abs(value) + 1e-6

    def test_representative_prefers_average(self, pmc):
        fitter, _ = fit(pmc, [(100.0,), (102.0,)], error_bound=10.0)
        (stored,) = struct.unpack("<f", fitter.parameters())
        assert stored == pytest.approx(101.0, abs=0.01)


def loop_average(fitter) -> float:
    """The clamped average with the row sums added one value at a time
    from int 0, as ``sum(row)`` does up to Python 3.11."""
    total = 0.0
    for rows in fitter._rows:
        for row in rows.tolist():
            row_sum = 0
            for value in row:
                row_sum += value
            total += row_sum
    average = total / (fitter.length * fitter.n_columns)
    return min(max(average, fitter._lower), fitter._upper)


def loop_representative(fitter) -> float:
    """The stored constant :func:`loop_average` gives."""
    clamped = loop_average(fitter)
    candidate = to_float32(clamped)
    if fitter._lower <= candidate <= fitter._upper:
        return candidate
    return float32_within(fitter._lower, fitter._upper)


class TestRepresentativeSum:
    @pytest.mark.parametrize("seed", range(24))
    def test_matches_the_python_loop(self, pmc, seed, monkeypatch):
        # The float64 average, before the float32 rounding hides its
        # last bits, must be the loop's.
        averages = []

        def spy(value):
            averages.append(value)
            return to_float32(value)

        monkeypatch.setattr(pmc_mean, "to_float32", spy)
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 11))
        shape = int(rng.integers(1, 60)) if seed % 3 else 1, width
        # Positive values up to 2**50 apart: their float64 sums round, so
        # the order of the additions shows in the average, and a 1e20 %
        # bound keeps the average inside the intersection.
        rows = np.ldexp(rng.uniform(1, 2, shape), rng.integers(0, 50, shape))
        rows = np.float32(rows).astype(np.float64)
        if seed % 4 == 3:  # signed zeros, whole rows of -0.0: the average is 0
            rows[rng.random(rows.shape) < 0.1] = -0.0
            rows[rng.random(len(rows)) < 0.2] = -0.0
        fitter = pmc.fitter(width, 1e20, len(rows))  # every row fits
        cuts = sorted(rng.choice(len(rows) + 1, 3).tolist())
        for first, end in zip([0, *cuts], [*cuts, len(rows)]):
            fitter.extend(None, rows[first:end])
        assert fitter.length == len(rows)
        expected = struct.pack("<f", loop_representative(fitter))
        assert fitter.parameters() == expected
        assert averages == [loop_average(fitter)]

    @pytest.mark.parametrize("width", (1, 3))
    def test_all_negative_zero_rows_store_positive_zero(self, pmc, width):
        fitter = pmc.fitter(width, 0.0, 10)
        fitter.extend(None, np.full((4, width), -0.0))
        fitter.extend(None, np.full((3, width), -0.0))
        assert fitter.parameters() == struct.pack("<f", loop_representative(fitter))
        assert fitter.parameters() == struct.pack("<f", 0.0)


class TestAggregates:
    def test_constant_time_flag(self, pmc):
        fitter, _ = fit(pmc, [(10.0,)] * 4)
        model = pmc.decode(fitter.parameters(), 1, 4)
        assert model.constant_time_aggregates

    def test_slice_aggregates(self, pmc):
        fitter, _ = fit(pmc, [(10.0,)] * 4, error_bound=0.0)
        model = pmc.decode(fitter.parameters(), 1, 4)
        assert model.slice_sum(0, 3, 0) == 40.0
        assert model.slice_sum(1, 2, 0) == 20.0
        assert model.slice_min(0, 3, 0) == 10.0
        assert model.slice_max(0, 3, 0) == 10.0
        assert model.value_at(2, 0) == 10.0

    def test_values_shape(self, pmc):
        fitter, _ = fit(pmc, [(10.0, 10.0, 10.0)] * 4, error_bound=0.0)
        model = pmc.decode(fitter.parameters(), 3, 4)
        assert model.values().shape == (4, 3)
