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
from typing import Sequence

import numpy as np

from ..core.errors import ModelError
from .base import (
    FittedModel,
    ModelFitter,
    ModelType,
    feasible_prefixes,
    float32_within,
    stacked_intervals,
    to_float32,
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

    def _extend(self, block: np.ndarray) -> int:
        return self._extend_many([self], [block])[0]

    @classmethod
    def _extend_many(
        cls, fitters: Sequence[SwingFitter], blocks: Sequence[np.ndarray]
    ) -> list[int]:
        counts = [0] * len(fitters)
        # The fitters that reach the slope stage and the rows they offer.
        sloped: list[int] = []
        tails: list[np.ndarray] = []
        for index, (fitter, block) in enumerate(zip(fitters, blocks)):
            if fitter._anchor is None:
                # The anchor derives from the first row alone. Its
                # interval is reduced in Python, which keeps the first of
                # equal bounds: np.max may pick -0.0 over an equal 0.0,
                # and a clamp to that bound would change the anchor's
                # bytes.
                row = block[0].tolist()
                scale = fitter.error_bound / 100.0
                lower = max(value - abs(value) * scale for value in row)
                upper = min(value + abs(value) * scale for value in row)
                if lower > upper or not fitter._fit_anchor(row, lower, upper):
                    continue
                counts[index] = 1
                block = block[1:]
                if not len(block):
                    continue
            sloped.append(index)
            tails.append(block)
        if not sloped:
            return counts
        members = [fitters[index] for index in sloped]
        lowers, uppers, _ = stacked_intervals(
            tails, [fitter.error_bound for fitter in members]
        )
        # Row j of a tail lands at index length + counts + j of the
        # segment; the anchor sits at index 0, so each row bounds the
        # slope by (interval - anchor) / step. An empty per-tick interval
        # (lower > upper) inverts under the monotone transform and keeps
        # the cumulative intersection empty, so feasible_prefixes stops
        # before it. The (-inf, +inf) pads stay unbounded. One row of
        # the stacks per fitter.
        starts = [fitters[index].length + counts[index] for index in sloped]
        steps = np.arange(lowers.shape[1], dtype=np.float64) + np.array(
            starts, dtype=np.float64
        )[:, np.newaxis]
        anchors = np.array([fitter._anchor for fitter in members])[:, np.newaxis]
        slope_lowers = lowers - anchors
        slope_lowers /= steps
        slope_uppers = uppers - anchors
        slope_uppers /= steps
        # The running slope bounds seed the cumulative intersections.
        narrowed = feasible_prefixes(
            slope_lowers,
            slope_uppers,
            [(fitter._slope_lower, fitter._slope_upper) for fitter in members],
            [len(tail) for tail in tails],
        )
        # The decode check over each prefix: the float64 bounds first,
        # their float32 ends only if one fails inside the prefix.
        leaves = (anchors + slope_lowers * steps < lowers) | (
            anchors + slope_uppers * steps > uppers
        )
        outside = None
        for row, first in enumerate(leaves.argmax(axis=1).tolist()):
            count = narrowed[row]
            if first >= count or not leaves[row, first]:
                continue
            if outside is None:
                outside = _float32_ends_leave(
                    anchors, steps, lowers, uppers, slope_lowers, slope_uppers
                )
            if outside[row, :count].any():
                narrowed[row] = int(outside[row, :count].argmax())
        for row, (index, fitter, count) in enumerate(
            zip(sloped, members, narrowed)
        ):
            if count:
                fitter._slope_lower = float(slope_lowers[row, count - 1])
                fitter._slope_upper = float(slope_uppers[row, count - 1])
            counts[index] += count
        return counts

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
        if slope is None:  # pragma: no cover - _extend guarantees it
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
