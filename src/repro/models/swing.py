"""Swing: the linear model [15], extended for group compression.

The Swing filter fits a linear function anchored at the initial data
point, maintaining the feasible slope interval online and shrinking it as
each data point arrives. Two extensions from Section 5.2 (Fig. 10):

* the anchor of the group model is derived from the *set* of values at
  the first timestamp using the PMC reduction (a float32 within the
  intersection of their acceptable intervals, preferring the average);
* at every later timestamp only the intersection interval of the group's
  values constrains the slope, so the update stays O(1) per timestamp
  regardless of group size.

Parameters are two float32 values — intercept (value at the segment's
first timestamp) and per-step slope — 8 bytes total. Working with index
steps rather than raw timestamps keeps the encoding independent of the
sampling interval. A value is accepted only if the decoded line,
``intercept + slope * index`` evaluated in float64 from the float32
parameters, stays within the bound for every slope still feasible.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..core.errors import ModelError
from .base import (
    FittedModel,
    ModelFitter,
    ModelType,
    feasible_prefix,
    float32_within,
    to_float32,
    value_interval,
    value_intervals,
)

_FORMAT = "<ff"


def _float32_ends_leave(
    anchor: float,
    steps: np.ndarray,
    lowers: np.ndarray,
    uppers: np.ndarray,
    slope_lowers: np.ndarray,
    slope_uppers: np.ndarray,
) -> np.ndarray:
    """Per row, whether the line decoded as ``anchor + slope * step``
    leaves ``[lower, upper]`` for the smallest float32 ``>= slope_lower``
    or the largest float32 ``<= slope_upper``."""
    ceils = slope_lowers.astype(np.float32)
    np.nextafter(ceils, np.float32(np.inf), out=ceils, where=ceils < slope_lowers)
    floors = slope_uppers.astype(np.float32)
    np.nextafter(
        floors, np.float32(-np.inf), out=floors, where=floors > slope_uppers
    )
    return (anchor + ceils * steps < lowers) | (anchor + floors * steps > uppers)


class SwingFitter(ModelFitter):
    """Online linear-model fitter over a group of series."""

    def __init__(self, n_columns: int, error_bound: float, length_limit: int) -> None:
        super().__init__(n_columns, error_bound, length_limit)
        self._anchor: float | None = None
        self._slope_lower = -math.inf
        self._slope_upper = math.inf

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
        # The bounds are float64 quotients, which can round a value far
        # below the anchor away (anchor 1.0, then 1e-20 at bound 0: slope
        # -1.0 decodes 0.0). Decoding, anchor + slope * step, is monotone
        # in the slope, so the interval's smallest and largest float32
        # decide for every slope the segment may store; later appends
        # only narrow the interval, so earlier steps stay checked. The
        # float64 bounds lie outside those two, so when they decode
        # inside, so do the float32 ends, and rounding is skipped.
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

    def _extend(self, block: np.ndarray) -> int:
        accepted = 0
        if self._anchor is None:
            # The anchor derives from the first row alone; reuse the
            # scalar reduction and vectorize the slope narrowing that
            # dominates.
            row = block[0].tolist()
            lower, upper = value_interval(row, self.error_bound)
            if lower > upper or not self._fit_anchor(row, lower, upper):
                return 0
            accepted = 1
            block = block[1:]
            if block.shape[0] == 0:
                return accepted
        lowers, uppers = value_intervals(block, self.error_bound)
        # Row i of the block lands at index self.length + accepted + i of
        # the segment; the anchor sits at index 0, so each row bounds the
        # slope by (interval - anchor) / step. An empty per-tick interval
        # (lower > upper) inverts under the monotone transform and keeps
        # the cumulative intersection empty, so float32_within rejects it
        # exactly as the scalar kernel's early lower > upper test does.
        steps = np.arange(
            self.length + accepted,
            self.length + accepted + block.shape[0],
            dtype=np.float64,
        )
        slope_lowers = lowers - self._anchor
        slope_lowers /= steps
        slope_uppers = uppers - self._anchor
        slope_uppers /= steps
        # Seeding the running slope bounds into the first row makes the
        # accumulate produce the combined intersections directly.
        if self._slope_lower > slope_lowers[0]:
            slope_lowers[0] = self._slope_lower
        if self._slope_upper < slope_uppers[0]:
            slope_uppers[0] = self._slope_upper
        np.maximum.accumulate(slope_lowers, out=slope_lowers)
        np.minimum.accumulate(slope_uppers, out=slope_uppers)
        narrowed = feasible_prefix(slope_lowers, slope_uppers)
        # The scalar kernel's decode check, row by row over that prefix:
        # the float64 bounds first, their float32 ends only if one fails.
        anchor = self._anchor
        steps = steps[:narrowed]
        lowers, uppers = lowers[:narrowed], uppers[:narrowed]
        ends = slope_lowers[:narrowed], slope_uppers[:narrowed]
        if (anchor + ends[0] * steps < lowers).any() or (
            anchor + ends[1] * steps > uppers
        ).any():
            outside = _float32_ends_leave(anchor, steps, lowers, uppers, *ends)
            if outside.any():
                narrowed = int(outside.argmax())
        if narrowed:
            self._slope_lower = float(slope_lowers[narrowed - 1])
            self._slope_upper = float(slope_uppers[narrowed - 1])
        return accepted + narrowed

    def _fit_anchor(self, values, lower: float, upper: float) -> bool:
        """Pin the line's initial point using the PMC reduction."""
        average = sum(values) / len(values)
        clamped = min(max(average, lower), upper)
        candidate = to_float32(clamped)
        if not lower <= candidate <= upper:
            feasible = float32_within(lower, upper)
            if feasible is None:
                return False
            candidate = feasible
        self._anchor = candidate
        return True

    def _slope(self) -> float:
        if self.length <= 1:
            return 0.0
        slope = float32_within(self._slope_lower, self._slope_upper)
        if slope is None:  # pragma: no cover - _try_append guarantees it
            raise ModelError("no float32 slope exists")
        return slope

    def parameters(self) -> bytes:
        if self._anchor is None:
            raise ModelError("cannot encode an empty Swing model")
        return struct.pack(_FORMAT, self._anchor, self._slope())

    def size_bytes(self) -> int:
        return struct.calcsize(_FORMAT)


class FittedSwing(FittedModel):
    """A decoded linear model; aggregates use closed forms (Fig. 11)."""

    def __init__(
        self, intercept: float, slope: float, n_columns: int, length: int
    ) -> None:
        super().__init__(n_columns, length)
        self.intercept = intercept
        self.slope = slope

    column_independent = True

    @property
    def constant_time_aggregates(self) -> bool:
        return True

    def values(self) -> np.ndarray:
        line = self.intercept + self.slope * np.arange(self.length)
        return np.repeat(line[:, np.newaxis], self.n_columns, axis=1)

    def value_at(self, index: int, column: int) -> float:
        return self.intercept + self.slope * index

    def values_block(self, first: int, last: int) -> np.ndarray:
        # Linear ramp over the requested indices only. Elementwise the
        # arithmetic is exactly value_at's `intercept + slope * index`,
        # so the block is bit-identical to values()[first:last + 1].
        line = self.intercept + self.slope * np.arange(first, last + 1)
        return np.repeat(line[:, np.newaxis], self.n_columns, axis=1)

    def slice_sum(self, first: int, last: int, column: int) -> float:
        # Arithmetic series: n * (first value + last value) / 2.
        count = last - first + 1
        first_value = self.intercept + self.slope * first
        last_value = self.intercept + self.slope * last
        return count * (first_value + last_value) / 2.0

    def slice_min(self, first: int, last: int, column: int) -> float:
        return min(self.value_at(first, column), self.value_at(last, column))

    def slice_max(self, first: int, last: int, column: int) -> float:
        return max(self.value_at(first, column), self.value_at(last, column))


class Swing(ModelType):
    """Model-table entry for Swing (classpath ``"Swing"``)."""

    name = "Swing"
    column_independent = True

    def fitter(
        self, n_columns: int, error_bound: float, length_limit: int
    ) -> SwingFitter:
        return SwingFitter(n_columns, error_bound, length_limit)

    def decode(
        self, parameters: bytes, n_columns: int, length: int
    ) -> FittedSwing:
        if len(parameters) != struct.calcsize(_FORMAT):
            raise ModelError(
                f"Swing expects {struct.calcsize(_FORMAT)} parameter bytes, "
                f"got {len(parameters)}"
            )
        intercept, slope = struct.unpack(_FORMAT, parameters)
        return FittedSwing(intercept, slope, n_columns, length)
