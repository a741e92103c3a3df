"""Bit-level packing used by the Gorilla codec.

Bits are written most-significant-first within each byte, matching the
layout of the original Gorilla paper [28].
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ModelError


class BitWriter:
    """Append-only bit buffer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._accumulator = 0
        self._pending = 0  # bits currently in the accumulator

    def write(self, value: int, bits: int) -> None:
        """Write the ``bits`` least significant bits of ``value``."""
        if bits < 0 or bits > 64:
            raise ModelError(f"cannot write {bits} bits at once")
        if bits == 0:
            return
        if value < 0 or value >> bits:
            raise ModelError(f"value {value} does not fit in {bits} bits")
        self._accumulator = (self._accumulator << bits) | value
        self._pending += bits
        while self._pending >= 8:
            self._pending -= 8
            self._bytes.append((self._accumulator >> self._pending) & 0xFF)
        self._accumulator &= (1 << self._pending) - 1

    def write_big(self, value: int, bits: int) -> None:
        """Write an arbitrarily wide non-negative ``value`` in one call.

        Equivalent to :meth:`write` without the 64-bit ceiling; whole
        bytes are flushed through ``int.to_bytes`` instead of one
        ``append`` per byte, which is what makes bulk bit-packing (the
        batch Gorilla encoder) cheap.
        """
        if bits == 0:
            return
        if value < 0 or value >> bits:
            raise ModelError(f"value does not fit in {bits} bits")
        accumulator = (self._accumulator << bits) | value
        pending = self._pending + bits
        whole, pending = divmod(pending, 8)
        if whole:
            self._bytes += (accumulator >> pending).to_bytes(whole, "big")
            accumulator &= (1 << pending) - 1
        self._accumulator = accumulator
        self._pending = pending

    @property
    def bit_length(self) -> int:
        return len(self._bytes) * 8 + self._pending

    def byte_length(self) -> int:
        """Length in whole bytes if flushed now."""
        return len(self._bytes) + (1 if self._pending else 0)

    def to_bytes(self) -> bytes:
        """The written bits, zero-padded to a whole number of bytes."""
        if not self._pending:
            return bytes(self._bytes)
        tail = (self._accumulator << (8 - self._pending)) & 0xFF
        return bytes(self._bytes) + bytes([tail])


def pack_xor_block(
    writer: BitWriter,
    xors: list,
    leadings: list,
    trailings: list,
    window_leading: int,
    window_meaningful: int,
) -> tuple[int, int]:
    """Append a run of precomputed Gorilla XOR residues in one pass.

    The encoding half of the Gorilla codec: the caller vectorizes the XOR
    chain and the leading/trailing zero counts over a whole block, and
    this loop only carries the sequential window state. MSB-first writes
    concatenate, so packing control bits, window headers and payloads
    into one accumulated field per value leaves the stream bit-identical
    to writing each field on its own. Returns the updated
    ``(window_leading, window_meaningful)`` pair.
    """
    # Fields accumulate into one big integer, flushed in bulk through
    # write_big — one BitWriter call per value dominates the encode
    # otherwise. The periodic flush bounds the cost of big-int shifts.
    accumulator = 0
    accumulated_bits = 0
    window_trailing = 32 - window_leading - window_meaningful
    for xor, leading, trailing in zip(xors, leadings, trailings):
        if xor == 0:
            accumulator <<= 1
            accumulated_bits += 1
        else:
            if leading > 31:
                leading = 31
            if (
                window_leading >= 0
                and leading >= window_leading
                and trailing >= window_trailing
            ):
                width = 2 + window_meaningful
                field = (0b10 << window_meaningful) | (xor >> window_trailing)
            else:
                meaningful = 32 - leading - trailing
                prefix = (((0b11 << 5) | leading) << 5) | (meaningful - 1)
                width = 12 + meaningful
                field = (prefix << meaningful) | (xor >> trailing)
                window_leading = leading
                window_meaningful = meaningful
                window_trailing = trailing
            accumulator = (accumulator << width) | field
            accumulated_bits += width
        if accumulated_bits >= 8192:
            writer.write_big(accumulator, accumulated_bits)
            accumulator = 0
            accumulated_bits = 0
    writer.write_big(accumulator, accumulated_bits)
    return window_leading, window_meaningful


#: Zero bits appended to the stream so that one value's fields (at most
#: 1 + 1 + 10 + 32 bits) can be read before checking for exhaustion.
_UNPACK_PAD = 64


def unpack_xor_block(data: bytes, count: int) -> np.ndarray:
    """Decode ``count`` Gorilla float32 bit patterns in one pass.

    The batch half of the decoder, mirroring :func:`pack_xor_block`: the
    sequential control-bit walk happens once per segment, emitting every
    value's bit pattern into one ``<u4`` array that the caller
    reinterprets as float32 in bulk — instead of a struct round trip per
    value. The whole stream is one integer read with shifts and masks
    (``remaining`` counts the bits below the cursor), so a field costs
    two operations however many bytes it straddles.
    """
    if count == 0:
        return np.empty(0, dtype="<u4")
    stream = int.from_bytes(data, "big") << _UNPACK_PAD
    remaining = len(data) * 8 + _UNPACK_PAD - 32
    if remaining < _UNPACK_PAD:
        raise ModelError("bit stream exhausted")
    previous = stream >> remaining
    patterns = [previous]
    window_meaningful = 0
    window_trailing = 33  # no window yet: leading -1, meaningful 0
    for _ in range(1, count):
        remaining -= 1
        if stream >> remaining & 1:
            remaining -= 1
            if stream >> remaining & 1:
                remaining -= 10
                window_leading = stream >> remaining + 5 & 31
                window_meaningful = (stream >> remaining & 31) + 1
                window_trailing = 32 - window_leading - window_meaningful
                if window_trailing < 0:
                    raise ModelError("Gorilla window wider than a value")
            remaining -= window_meaningful
            previous ^= (
                stream >> remaining & (1 << window_meaningful) - 1
            ) << window_trailing
        if remaining < _UNPACK_PAD:
            raise ModelError("bit stream exhausted")
        patterns.append(previous)
    return np.array(patterns, dtype="<u4")

