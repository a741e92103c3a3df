"""Bit-level writer used by the Gorilla codec, read back by the test reader."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ModelError

from .model_oracle import BitReader, BitWriter


class TestWriter:
    def test_single_bits(self):
        writer = BitWriter()
        for bit in (1, 0, 1, 1):
            writer.write_bit(bit)
        assert writer.to_bytes() == bytes([0b10110000])

    def test_multi_bit_values(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        writer.write(0b01, 2)
        writer.write(0b111, 3)
        assert writer.to_bytes() == bytes([0b10101111])

    def test_bit_length(self):
        writer = BitWriter()
        writer.write(0xFF, 8)
        writer.write(1, 3)
        assert writer.bit_length == 11
        assert writer.byte_length() == 2

    def test_value_too_large_rejected(self):
        writer = BitWriter()
        with pytest.raises(ModelError):
            writer.write(4, 2)

    def test_negative_value_rejected(self):
        with pytest.raises(ModelError):
            BitWriter().write(-1, 4)

    def test_zero_bits_is_noop(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert writer.bit_length == 0

    def test_64_bit_write(self):
        writer = BitWriter()
        writer.write((1 << 64) - 1, 64)
        assert writer.to_bytes() == b"\xff" * 8


class TestReader:
    def test_round_trip_aligned(self):
        writer = BitWriter()
        writer.write(0xDEADBEEF, 32)
        reader = BitReader(writer.to_bytes())
        assert reader.read(32) == 0xDEADBEEF

    def test_round_trip_unaligned(self):
        writer = BitWriter()
        pieces = [(1, 1), (5, 3), (100, 7), (0, 2), (1234, 11)]
        for value, bits in pieces:
            writer.write(value, bits)
        reader = BitReader(writer.to_bytes())
        for value, bits in pieces:
            assert reader.read(bits) == value

    def test_exhaustion_raises(self):
        reader = BitReader(b"\x00")
        reader.read(8)
        with pytest.raises(ModelError):
            reader.read(1)

    def test_remaining_bits(self):
        reader = BitReader(b"\x00\x00")
        reader.read(5)
        assert reader.remaining_bits == 11


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=48).flatmap(
            lambda bits: st.tuples(
                st.integers(min_value=0, max_value=(1 << bits) - 1),
                st.just(bits),
            )
        )),
        max_size=50,
    )
)
def test_property_round_trip(pieces):
    """Any sequence of (value, width) writes reads back identically."""
    flat = [piece[0] for piece in pieces]
    writer = BitWriter()
    for value, bits in flat:
        writer.write(value, bits)
    reader = BitReader(writer.to_bytes())
    for value, bits in flat:
        assert reader.read(bits) == value
