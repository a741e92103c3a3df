"""Gorilla: lossless XOR float compression [28], extended for groups.

Gorilla encodes each float32 value by XOR-ing its bit pattern with the
previous value's and storing only the meaningful (non-zero) bits. The
group extension of Section 5.2 (Fig. 10) stores values in *time-ordered
blocks*: at every sampling interval the values of all series in the group
are appended in column order before moving to the next timestamp. For
correlated series the values inside a block differ only slightly from
their predecessor, so most encodings need just a few bits, exploiting
temporal correlation *and* cross-series correlation at once.

This is the 32-bit adaptation used by ModelarDB: a control bit, then for
changed values either the previous meaningful-bit window (control ``10``)
or an explicit window of 5 leading-zero bits + 5 bits of length (control
``11``). The model is lossless with respect to float32 values and is the
fallback that can always fit (only the model length limit stops it).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ModelError
from .base import FittedModel, ModelFitter, ModelType
from .bits import BitWriter, pack_xor_block, unpack_xor_block

_BITS = 32


class GorillaFitter(ModelFitter):
    """Streaming Gorilla encoder over a group's flattened value stream."""

    def __init__(self, n_columns: int, error_bound: float, length_limit: int) -> None:
        super().__init__(n_columns, error_bound, length_limit)
        self._writer = BitWriter()
        self._previous: int | None = None
        self._window_leading = -1
        self._window_meaningful = 0

    def _extend(self, block: np.ndarray) -> int:
        # Lossless fallback: every row fits, so the whole capacity-capped
        # block is consumed. The XOR chain and zero counts vectorize
        # (frexp is exact on integers below 2**53); only the sequential
        # window bookkeeping stays a Python loop, in pack_xor_block.
        patterns = (
            np.ascontiguousarray(block, dtype=np.float32)
            .view(np.uint32)
            .reshape(-1)
        )
        start = 0
        if self._previous is None:
            first = int(patterns[0])
            self._writer.write(first, _BITS)
            self._previous = first
            start = 1
        rest = patterns[start:]
        if rest.size:
            shifted = np.empty_like(rest)
            shifted[0] = self._previous
            shifted[1:] = rest[:-1]
            xors = (rest ^ shifted).astype(np.int64)
            _, high = np.frexp(xors)  # frexp exponent == bit_length
            leadings = _BITS - high
            _, low = np.frexp(xors & -xors)
            trailings = low - 1
            self._window_leading, self._window_meaningful = pack_xor_block(
                self._writer,
                xors.tolist(),
                leadings.tolist(),
                trailings.tolist(),
                self._window_leading,
                self._window_meaningful,
            )
            self._previous = int(rest[-1])
        return block.shape[0]

    def parameters(self) -> bytes:
        if self.length == 0:
            raise ModelError("cannot encode an empty Gorilla model")
        return self._writer.to_bytes()

    def size_bytes(self) -> int:
        return self._writer.byte_length()


class FittedGorilla(FittedModel):
    """A decoded Gorilla model; reconstruction decodes the bit stream."""

    def __init__(self, parameters: bytes, n_columns: int, length: int) -> None:
        super().__init__(n_columns, length)
        self._parameters = parameters
        self._decoded: np.ndarray | None = None

    def values(self) -> np.ndarray:
        if self._decoded is None:
            self._decoded = self._decode()
        return self._decoded

    def _decode(self) -> np.ndarray:
        # Array-at-once unpack: the sequential control-bit walk emits
        # raw uint32 patterns (unpack_xor_block, mirroring the encoder's
        # pack_xor_block), and the bit-pattern -> float32 -> float64
        # conversion happens vectorized over the whole segment instead of
        # one struct round trip per value. float32 -> float64 widening is
        # exact.
        count = self.length * self.n_columns
        patterns = unpack_xor_block(self._parameters, count)
        flat = patterns.view("<f4").astype(np.float64)
        return flat.reshape(self.length, self.n_columns)


class Gorilla(ModelType):
    """Model-table entry for Gorilla (classpath ``"Gorilla"``)."""

    name = "Gorilla"
    always_fits = True

    def minimum_size_bytes(self, n_values: int) -> int:
        # Best case: 32 bits for the first value, one control bit for
        # every identical follower.
        return (_BITS + (n_values - 1) + 7) // 8

    def fitter(
        self, n_columns: int, error_bound: float, length_limit: int
    ) -> GorillaFitter:
        return GorillaFitter(n_columns, error_bound, length_limit)

    def decode(
        self, parameters: bytes, n_columns: int, length: int
    ) -> FittedGorilla:
        return FittedGorilla(parameters, n_columns, length)
