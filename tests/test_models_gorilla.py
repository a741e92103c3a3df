"""Gorilla: lossless XOR compression with group blocks."""

import numpy as np
import pytest

from repro.core.errors import ModelError
from repro.models.base import to_float32
from repro.models.gorilla import Gorilla


@pytest.fixture
def gorilla():
    return Gorilla()


def round_trip(gorilla, vectors):
    fitter = gorilla.fitter(len(vectors[0]), 0.0, max(len(vectors), 1))
    for vector in vectors:
        assert fitter.append(tuple(float(v) for v in vector))
    model = gorilla.decode(fitter.parameters(), len(vectors[0]), len(vectors))
    return fitter, model.values()


class TestLossless:
    def test_single_series_round_trip(self, gorilla):
        rng = np.random.default_rng(0)
        values = np.float32(rng.normal(100, 10, 100)).reshape(-1, 1)
        _, decoded = round_trip(gorilla, values)
        assert np.array_equal(np.float32(decoded), np.float32(values))

    def test_group_round_trip(self, gorilla):
        rng = np.random.default_rng(1)
        values = np.float32(rng.normal(0, 1, (40, 4)))
        _, decoded = round_trip(gorilla, values)
        assert np.array_equal(np.float32(decoded), values)

    def test_identical_values_compress_to_control_bits(self, gorilla):
        _, decoded = round_trip(gorilla, [[1.5]] * 64)
        # 32 bits + 63 zero bits = 95 bits -> 12 bytes.
        fitter = gorilla.fitter(1, 0.0, 64)
        for _ in range(64):
            fitter.append((1.5,))
        assert fitter.size_bytes() == 12

    def test_special_values(self, gorilla):
        values = [[0.0], [-0.0], [float(np.float32(1e38))], [1e-38], [-5.5]]
        _, decoded = round_trip(gorilla, values)
        expected = [to_float32(v[0]) for v in values]
        assert [decoded[i, 0] for i in range(5)] == expected

    def test_alternating_extremes(self, gorilla):
        values = [[1e30 if i % 2 else -1e-30] for i in range(20)]
        _, decoded = round_trip(gorilla, values)
        for i in range(20):
            assert decoded[i, 0] == to_float32(values[i][0])

    def test_correlated_group_smaller_than_independent(self, gorilla):
        rng = np.random.default_rng(2)
        base = np.float32(100 + np.cumsum(rng.normal(0, 0.01, 50)))
        correlated = np.column_stack([base, base, base])
        fitter = gorilla.fitter(3, 0.0, 50)
        for row in correlated:
            fitter.append(tuple(float(v) for v in row))
        independent = gorilla.fitter(1, 0.0, 50)
        for value in base:
            independent.append((float(value),))
        # One group stream beats three separate streams' worth of bytes.
        assert fitter.size_bytes() < 3 * independent.size_bytes()


class TestBehaviour:
    def test_always_fits_any_values(self, gorilla):
        assert gorilla.always_fits
        fitter = gorilla.fitter(2, 0.0, 50)
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert fitter.append(tuple(rng.normal(0, 1e10, 2)))

    def test_length_limit_is_the_only_rejection(self, gorilla):
        fitter = gorilla.fitter(1, 0.0, 3)
        assert fitter.append((1.0,))
        assert fitter.append((2.0,))
        assert fitter.append((3.0,))
        assert not fitter.append((4.0,))

    def test_run_bound_is_tight_for_constants(self, gorilla):
        # 32 bits and one control bit per repeat, wherever the window
        # starts in the run. The bound holding in general is checked in
        # tests/test_deferred_fits.py.
        rows = np.full((100, 1), 7.25)
        run = gorilla.deferred_run(rows)
        for first, end in ((0, 100), (10, 11), (37, 90)):
            fitter = gorilla.fitter(1, 0.0, 100)
            fitter.extend(None, rows[first:end])
            assert fitter.size_bytes() == run.minimum_size_bytes(first, end)
            assert fitter.size_bytes() == (32 + end - first - 1 + 7) // 8

    def test_empty_fitter_cannot_encode(self, gorilla):
        with pytest.raises(ModelError):
            gorilla.fitter(1, 0.0, 50).parameters()

    def test_not_constant_time(self, gorilla):
        fitter = gorilla.fitter(1, 0.0, 4)
        for value in (1.0, 2.0, 3.0):
            fitter.append((value,))
        model = gorilla.decode(fitter.parameters(), 1, 3)
        assert not model.constant_time_aggregates

    def test_slice_aggregates_via_reconstruction(self, gorilla):
        fitter = gorilla.fitter(1, 0.0, 10)
        for value in (1.0, 5.0, 3.0, 2.0):
            fitter.append((value,))
        model = gorilla.decode(fitter.parameters(), 1, 4)
        assert model.slice_sum(0, 3, 0) == 11.0
        assert model.slice_min(1, 3, 0) == 2.0
        assert model.slice_max(0, 2, 0) == 5.0

    def test_decode_truncated_stream_raises(self, gorilla):
        fitter = gorilla.fitter(1, 0.0, 10)
        for value in (1.0, 2.0, 3.0):
            fitter.append((value,))
        params = fitter.parameters()
        model = gorilla.decode(params, 1, 30)  # claims 30 values
        with pytest.raises(ModelError):
            model.values()
