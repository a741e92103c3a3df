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
from .base import DeferredRun, FittedModel, ModelFitter, ModelType
from .bits import BitWriter, pack_xor_block, unpack_xor_block, xor_residues

_BITS = 32


def _patterns(rows: np.ndarray) -> np.ndarray:
    """The float32 bit patterns of a block's values, row after row."""
    return np.ascontiguousarray(rows, dtype=np.float32).view(np.uint32).reshape(-1)


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
        # (xor_residues); only the sequential window bookkeeping stays a
        # Python loop, in pack_xor_block.
        patterns = _patterns(block)
        if self._previous is None:
            self._writer.write(int(patterns[0]), _BITS)
        else:
            patterns = np.insert(patterns, 0, self._previous)
        self._pack(*xor_residues(patterns)[:3])
        self._previous = int(patterns[-1])
        return block.shape[0]

    def _pack(
        self, xors: np.ndarray, leadings: np.ndarray, trailings: np.ndarray
    ) -> None:
        self._window_leading, self._window_meaningful = pack_xor_block(
            self._writer,
            xors.tolist(),
            leadings.tolist(),
            trailings.tolist(),
            self._window_leading,
            self._window_meaningful,
        )

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


class _GorillaRun(DeferredRun):
    """A presence run's XOR residues, computed once: a window's bound is
    two lookups, and its fit packs the window's slices."""

    def __init__(self, rows: np.ndarray) -> None:
        self._rows, self._width = rows, rows.shape[1]
        self._xors, self._leadings, self._trailings, self._cost = xor_residues(
            _patterns(rows)
        )

    def minimum_size_bytes(self, first: int, end: int) -> int:
        a, b = first * self._width, end * self._width - 1
        return (_BITS + int(self._cost[b] - self._cost[a]) + 7) // 8

    def fitter(
        self, first: int, end: int, error_bound: float, length_limit: int
    ) -> GorillaFitter:
        a, b = first * self._width, end * self._width - 1
        fitter = GorillaFitter(self._width, error_bound, length_limit)
        fitter._writer.write(int(_patterns(self._rows[first])[0]), _BITS)
        fitter._pack(self._xors[a:b], self._leadings[a:b], self._trailings[a:b])
        fitter._previous = int(_patterns(self._rows[end - 1])[-1])
        fitter.length = end - first
        return fitter


class Gorilla(ModelType):
    """Model-table entry for Gorilla (classpath ``"Gorilla"``)."""

    name = "Gorilla"
    always_fits = True

    def deferred_run(self, rows: np.ndarray) -> _GorillaRun:
        return _GorillaRun(rows)

    def fitter(
        self, n_columns: int, error_bound: float, length_limit: int
    ) -> GorillaFitter:
        return GorillaFitter(n_columns, error_bound, length_limit)

    def decode(
        self, parameters: bytes, n_columns: int, length: int
    ) -> FittedGorilla:
        return FittedGorilla(parameters, n_columns, length)
