"""The bundled models fitted a row at a time: the reference for ``_extend``.

The per-row kernels of Section 5.2 (Fig. 10) and Multi's lock step with
its rollback (Fig. 9, case III). Each reference subclasses the shipped
fitter, so only fitting differs: ``extend`` over any chunking must leave
the shipped fitter in the reference's state. ``BitReader`` and
``_bits_to_float`` decode what the reference Gorilla encodes.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.core.errors import ModelError
from repro.models import bits
from repro.models.base import float32_within
from repro.models.gorilla import Gorilla, GorillaFitter
from repro.models.multi import MultiFitter, MultiModel
from repro.models.pmc_mean import PMCMean, PMCMeanFitter
from repro.models.swing import Swing, SwingFitter, _float32_ends_leave

_BITS = 32
_LEADING_BITS = 5  # encodes 0..31 leading zeros
_LENGTH_BITS = 5  # encodes meaningful-bit count - 1 (1..32)
_FLOAT = struct.Struct("<f")
_UINT = struct.Struct("<I")


def value_interval(values, error_bound):
    """The estimates within the bound of every value of one timestamp as
    ``(lower, upper)``, empty when ``lower > upper``. ``max``/``min`` keep
    the first of equal bounds, so 0.0 and -0.0 reduce in column order."""
    scale = error_bound / 100.0
    lower = max(value - abs(value) * scale for value in values)
    upper = min(value + abs(value) * scale for value in values)
    return lower, upper


class _RowByRow:
    """Fitting by the per-row ``_try_append``, one accepted row at a time."""

    def append(self, values):
        if self.length >= self.length_limit or not self._try_append(values):
            return False
        self.length += 1
        return True

    def extend(self, timestamps, matrix):
        rows = np.asarray(matrix, dtype=np.float64).tolist()
        rejected = (i for i, row in enumerate(rows) if not self.append(row))
        return next(rejected, len(rows))


class PMCReference(_RowByRow, PMCMeanFitter):
    def _try_append(self, values) -> bool:
        lower, upper = value_interval(values, self.error_bound)
        new_lower = max(self._lower, lower)
        new_upper = min(self._upper, upper)
        if float32_within(new_lower, new_upper) is None:
            return False
        self._lower = new_lower
        self._upper = new_upper
        self._rows.append(np.array([values], dtype=np.float64))
        return True


class SwingReference(_RowByRow, SwingFitter):
    def _try_append(self, values) -> bool:
        lower, upper = value_interval(values, self.error_bound)
        if lower > upper:
            return False
        if self._anchor is None:
            return self._fit_anchor(values, lower, upper)
        step = self.length  # index of the incoming timestamp
        slope_lower = max(self._slope_lower, (lower - self._anchor) / step)
        slope_upper = min(self._slope_upper, (upper - self._anchor) / step)
        if float32_within(slope_lower, slope_upper) is None:
            return False
        # Decoding is monotone in the slope: the interval's float32 ends
        # decide, and they lie inside the float64 bounds.
        anchor = self._anchor
        if (
            anchor + slope_lower * step < lower
            or anchor + slope_upper * step > upper
        ):
            row = (float(step), lower, upper, slope_lower, slope_upper)
            if _float32_ends_leave(anchor, *map(np.atleast_1d, row))[0]:
                return False
        self._slope_lower = slope_lower
        self._slope_upper = slope_upper
        return True


def _float_to_bits(value: float) -> int:
    return _UINT.unpack(_FLOAT.pack(value))[0]


def _bits_to_float(pattern: int) -> float:
    return _FLOAT.unpack(_UINT.pack(pattern))[0]


class BitWriter(bits.BitWriter):
    def write_bit(self, bit: int) -> None:
        self.write(bit & 1, 1)


class BitReader:
    """Sequential reader over bytes produced by :class:`BitWriter`."""

    def __init__(self, data: bytes) -> None:
        self._stream = int.from_bytes(data, "big")
        self.remaining_bits = len(data) * 8

    def read(self, bits: int) -> int:
        if bits > self.remaining_bits:
            raise ModelError("bit stream exhausted")
        self.remaining_bits -= bits
        return self._stream >> self.remaining_bits & (1 << bits) - 1

    def read_bit(self) -> int:
        return self.read(1)


class GorillaReference(_RowByRow, GorillaFitter):
    def __init__(self, n_columns, error_bound, length_limit):
        super().__init__(n_columns, error_bound, length_limit)
        self._writer = BitWriter()

    def _try_append(self, values) -> bool:
        for value in values:
            self._encode(_float_to_bits(value))
        return True

    def _encode(self, pattern: int) -> None:
        if self._previous is None:
            self._writer.write(pattern, _BITS)
            self._previous = pattern
            return
        xor = self._previous ^ pattern
        self._previous = pattern
        if xor == 0:
            self._writer.write_bit(0)
            return
        self._writer.write_bit(1)
        leading = min(_BITS - xor.bit_length(), (1 << _LEADING_BITS) - 1)
        trailing = (xor & -xor).bit_length() - 1
        meaningful = _BITS - leading - trailing
        window_trailing = _BITS - self._window_leading - self._window_meaningful
        fits_window = (
            self._window_leading >= 0
            and leading >= self._window_leading
            and trailing >= window_trailing
        )
        if fits_window:
            self._writer.write_bit(0)
            self._writer.write(xor >> window_trailing, self._window_meaningful)
        else:
            self._writer.write_bit(1)
            self._writer.write(leading, _LEADING_BITS)
            self._writer.write(meaningful - 1, _LENGTH_BITS)
            self._writer.write(xor >> trailing, meaningful)
            self._window_leading = leading
            self._window_meaningful = meaningful


class MultiReference(_RowByRow, MultiFitter):
    def _try_append(self, values) -> bool:
        accepted_columns = 0
        for column, fitter in enumerate(self._fitters):
            if not fitter.append((values[column],)):
                break
            accepted_columns += 1
        if accepted_columns == self.n_columns:
            self._accepted.append(tuple(values))
            return True
        if accepted_columns:
            self._rollback()
        return False


_REFERENCES = {PMCMean: PMCReference, Swing: SwingReference, Gorilla: GorillaReference}


class ReferenceType:
    """Fits bundled model types by the references, any other by its own."""

    def __init__(self, model_type):
        self.model_type = model_type

    def fitter(self, n_columns, error_bound, length_limit):
        shape = (n_columns, error_bound, length_limit)
        if isinstance(self.model_type, MultiModel):
            return MultiReference(ReferenceType(self.model_type._base), *shape)
        fitter = _REFERENCES.get(type(self.model_type), self.model_type.fitter)
        return fitter(*shape)
