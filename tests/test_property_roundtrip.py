"""Property-based round-trips for the Gorilla codec and bit I/O.

Gorilla is the lossless fallback model: whatever float32 stream
ingestion throws at it must decode to bit-identical values, including
NaNs, infinities, denormals, constant runs (the 0-bit XOR path) and
adversarial sign flips whose XOR touches all 32 bits. Equality is
checked on the packed float32 bytes, not ``==``, so NaNs and signed
zeros are compared bit-for-bit.

Uses hypothesis when installed; otherwise the same properties run over
seeded pseudo-random streams so the suite stays meaningful without the
dependency.
"""

import random
import struct

import pytest

from repro.core.errors import ModelError
from repro.models.gorilla import FittedGorilla, GorillaFitter

from .model_oracle import BitReader, BitWriter, _bits_to_float

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

_F32 = struct.Struct("<f")


def pack32(value: float) -> bytes:
    return _F32.pack(value)


def roundtrip(values, n_columns=1):
    """Encode ``values`` (flattened column-order) and decode; compare
    every value on its float32 bit pattern."""
    assert len(values) % n_columns == 0
    fitter = GorillaFitter(n_columns, 0.0, max(1, len(values)))
    for start in range(0, len(values), n_columns):
        assert fitter.append(values[start:start + n_columns])
    fitted = FittedGorilla(
        fitter.parameters(), n_columns, fitter.length
    )
    decoded = fitted.values().reshape(-1)
    assert len(decoded) == len(values)
    for got, expected in zip(decoded, values):
        assert pack32(got) == pack32(expected)


def random_floats(rng: random.Random, size: int) -> list[float]:
    """Arbitrary float32 values drawn from raw bit patterns: covers
    NaNs, infinities, denormals and both zeros by construction."""
    return [
        _bits_to_float(rng.getrandbits(32)) for _ in range(size)
    ]


# -- hand-picked adversarial streams (always run) ----------------------

ADVERSARIAL_STREAMS = {
    "constant": [1.5] * 50,
    "constant-nan": [float("nan")] * 20,
    "zero-and-negative-zero": [0.0, -0.0] * 25,
    "sign-flips": [1.0, -1.0, 2.0, -2.0] * 10,
    # XOR of these two patterns is 0xFFFFFFFF: all 32 bits meaningful.
    "all-bits-differ": [
        _bits_to_float(0x00000000), _bits_to_float(0xFFFFFFFF)
    ] * 8,
    "nan-bearing": [1.0, float("nan"), 2.0, float("inf"),
                    float("-inf"), -0.0, 3.5] * 5,
    "denormals": [_bits_to_float(1), _bits_to_float(0x007FFFFF)] * 10,
    "single-value": [3.14159],
    "window-shrink": [
        _bits_to_float(p)
        for p in (0x40490FDB, 0x40490FDC, 0x40490FDB, 0x7FC00000,
                  0x40490FDB, 0x00000001)
    ],
}


@pytest.mark.parametrize(
    "values", ADVERSARIAL_STREAMS.values(), ids=ADVERSARIAL_STREAMS.keys()
)
def test_gorilla_adversarial_streams(values):
    roundtrip(list(values))


@pytest.mark.parametrize("n_columns", [2, 3])
def test_gorilla_group_columns(n_columns):
    rng = random.Random(1234 + n_columns)
    base = [20.0 + i * 0.25 for i in range(60)]
    flat = []
    for value in base:
        for column in range(n_columns):
            flat.append(
                float(struct.unpack(
                    "<f", pack32(value + rng.random() * 1e-3)
                )[0])
            )
    roundtrip(flat, n_columns=n_columns)


# -- the round-trip property -------------------------------------------

if HAVE_HYPOTHESIS:

    @given(
        st.lists(
            st.floats(width=32, allow_nan=True, allow_infinity=True),
            min_size=1,
            max_size=128,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_gorilla_roundtrip_property(values):
        roundtrip(values)

    @given(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=128)
    )
    @settings(max_examples=120, deadline=None)
    def test_gorilla_roundtrip_raw_patterns(patterns):
        roundtrip([_bits_to_float(p) for p in patterns])

    @given(
        st.lists(
            st.tuples(st.integers(0, 64), st.integers(0, 2**64 - 1)),
            max_size=64,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_bit_writer_reader_property(fields):
        writer = BitWriter()
        expected = []
        for bits, raw in fields:
            value = raw & ((1 << bits) - 1) if bits else 0
            writer.write(value, bits)
            expected.append((bits, value))
        reader = BitReader(writer.to_bytes())
        for bits, value in expected:
            assert reader.read(bits) == value

else:  # pragma: no cover - hypothesis is available in CI

    @pytest.mark.parametrize("seed", range(40))
    def test_gorilla_roundtrip_property(seed):
        rng = random.Random(9000 + seed)
        roundtrip(random_floats(rng, rng.randrange(1, 129)))

    @pytest.mark.parametrize("seed", range(40))
    def test_gorilla_roundtrip_raw_patterns(seed):
        rng = random.Random(7000 + seed)
        roundtrip(random_floats(rng, rng.randrange(1, 129)))

    @pytest.mark.parametrize("seed", range(40))
    def test_bit_writer_reader_property(seed):
        rng = random.Random(5000 + seed)
        writer = BitWriter()
        expected = []
        for _ in range(rng.randrange(0, 65)):
            bits = rng.randrange(0, 65)
            value = rng.getrandbits(bits) if bits else 0
            writer.write(value, bits)
            expected.append((bits, value))
        reader = BitReader(writer.to_bytes())
        for bits, value in expected:
            assert reader.read(bits) == value


# -- bit codec edge cases (always run) ---------------------------------

class TestBitEdgeCases:
    def test_zero_bit_write_is_a_noop(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert writer.bit_length == 0
        assert writer.to_bytes() == b""
        assert BitReader(b"").read(0) == 0

    def test_full_64_bit_write(self):
        value = 0xFEDCBA9876543210
        writer = BitWriter()
        writer.write(value, 64)
        assert writer.bit_length == 64
        assert BitReader(writer.to_bytes()).read(64) == value

    def test_64_bits_across_byte_boundaries(self):
        writer = BitWriter()
        writer.write_bit(1)
        writer.write(2**64 - 1, 64)
        writer.write_bit(0)
        reader = BitReader(writer.to_bytes())
        assert reader.read_bit() == 1
        assert reader.read(64) == 2**64 - 1
        assert reader.read_bit() == 0

    def test_write_rejects_out_of_range(self):
        writer = BitWriter()
        with pytest.raises(ModelError):
            writer.write(0, 65)
        with pytest.raises(ModelError):
            writer.write(0, -1)
        with pytest.raises(ModelError):
            writer.write(2, 1)
        with pytest.raises(ModelError):
            writer.write(-1, 8)

    def test_reader_raises_when_exhausted(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        reader = BitReader(writer.to_bytes())
        reader.read(3)
        # The zero padding added by to_bytes is readable bits, so only
        # reading beyond the padded byte fails.
        reader.read(5)
        with pytest.raises(ModelError):
            reader.read(1)

    def test_zero_xor_uses_one_bit(self):
        """A constant stream costs 32 bits + one control bit per repeat."""
        fitter = GorillaFitter(1, 0.0, 100)
        for _ in range(33):
            assert fitter.append([42.0])
        assert fitter._writer.bit_length == 32 + 32
