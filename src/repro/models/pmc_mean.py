"""PMC-Mean: the constant model [25], extended for group compression.

PMC-Mean represents a run of data points with a single value. The group
extension (Section 5.2, Fig. 10) follows from the observation that under
the uniform error norm only the extreme values matter: the set of values
``V`` arriving at one timestamp collapses to the intersection of their
acceptable intervals, so the fitter only tracks a running lower/upper
bound plus the running average used to pick the representative.

Parameters are a single float32 (4 bytes), as in the paper's schema.
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
    value_intervals,
)

_FORMAT = "<f"


class PMCMeanFitter(ModelFitter):
    """Online constant-model fitter over a group of series."""

    def __init__(self, n_columns: int, error_bound: float, length_limit: int) -> None:
        super().__init__(n_columns, error_bound, length_limit)
        self._lower = -math.inf
        self._upper = math.inf
        self._sum = 0.0
        self._count = 0

    def _extend(self, block: np.ndarray) -> int:
        # Intersecting per-tick intervals is an associative min/max
        # reduction, so the running bounds after tick i are cumulative
        # intersections — nested, which makes the float32 feasibility
        # test a monotone prefix predicate (see feasible_prefix).
        lowers, uppers = value_intervals(block, self.error_bound)
        # Seeding the running bounds into the first row makes the
        # accumulate produce the combined intersections directly.
        if self._lower > lowers[0]:
            lowers[0] = self._lower
        if self._upper < uppers[0]:
            uppers[0] = self._upper
        np.maximum.accumulate(lowers, out=lowers)
        np.minimum.accumulate(uppers, out=uppers)
        accepted = feasible_prefix(lowers, uppers)
        if accepted:
            self._lower = float(lowers[accepted - 1])
            self._upper = float(uppers[accepted - 1])
            # The representative divides a sequentially-accumulated sum;
            # numpy's pairwise summation rounds differently (and would
            # depend on how the rows were cut into blocks), so add the
            # accepted rows one value at a time.
            for row in block[:accepted].tolist():
                self._sum += sum(row)
            self._count += accepted * self.n_columns
        return accepted

    def _representative(self) -> float:
        """The stored constant: the running average clamped into the
        feasible interval, nudged to a float32 inside it."""
        if self._count == 0:
            raise ModelError("cannot encode an empty PMC-Mean model")
        average = self._sum / self._count
        clamped = min(max(average, self._lower), self._upper)
        candidate = to_float32(clamped)
        if self._lower <= candidate <= self._upper:
            return candidate
        feasible = float32_within(self._lower, self._upper)
        if feasible is None:  # pragma: no cover - _extend guarantees it
            raise ModelError("no float32 representative exists")
        return feasible

    def parameters(self) -> bytes:
        return struct.pack(_FORMAT, self._representative())

    def size_bytes(self) -> int:
        return struct.calcsize(_FORMAT)


class FittedPMCMean(FittedModel):
    """A decoded constant model; all aggregates are O(1)."""

    def __init__(self, value: float, n_columns: int, length: int) -> None:
        super().__init__(n_columns, length)
        self.value = value

    column_independent = True

    @property
    def constant_time_aggregates(self) -> bool:
        return True

    def values(self) -> np.ndarray:
        return np.full((self.length, self.n_columns), self.value)

    def value_at(self, index: int, column: int) -> float:
        return self.value

    def values_block(self, first: int, last: int) -> np.ndarray:
        # Level fill: one constant for every (tick, column) of the slice.
        return np.full((last - first + 1, self.n_columns), self.value)

    def slice_sum(self, first: int, last: int, column: int) -> float:
        return self.value * (last - first + 1)

    def slice_min(self, first: int, last: int, column: int) -> float:
        return self.value

    def slice_max(self, first: int, last: int, column: int) -> float:
        return self.value


class PMCMean(ModelType):
    """Model-table entry for PMC-Mean (classpath ``"PMC"``)."""

    name = "PMC"
    column_independent = True

    def fitter(
        self, n_columns: int, error_bound: float, length_limit: int
    ) -> PMCMeanFitter:
        return PMCMeanFitter(n_columns, error_bound, length_limit)

    def decode(
        self, parameters: bytes, n_columns: int, length: int
    ) -> FittedPMCMean:
        if len(parameters) != struct.calcsize(_FORMAT):
            raise ModelError(
                f"PMC-Mean expects {struct.calcsize(_FORMAT)} parameter "
                f"bytes, got {len(parameters)}"
            )
        (value,) = struct.unpack(_FORMAT, parameters)
        return FittedPMCMean(value, n_columns, length)
