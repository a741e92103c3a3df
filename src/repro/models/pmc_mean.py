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

_FORMAT = "<f"


class PMCMeanFitter(ModelFitter):
    """Online constant-model fitter over a group of series."""

    def __init__(self, n_columns: int, error_bound: float, length_limit: int) -> None:
        super().__init__(n_columns, error_bound, length_limit)
        self._lower = -math.inf
        self._upper = math.inf
        #: The accepted rows, as the blocks they arrived in; summed only
        #: by :meth:`_representative`, so a fit that loses the flush
        #: never pays for the sum.
        self._rows: list[np.ndarray] = []

    def _extend(self, block: np.ndarray) -> int:
        return self._extend_many([self], [block])[0]

    @classmethod
    def _extend_many(
        cls, fitters: Sequence[PMCMeanFitter], blocks: Sequence[np.ndarray]
    ) -> list[int]:
        # Intersecting per-tick intervals is an associative min/max
        # reduction, so the running bounds after tick i are cumulative
        # intersections, seeded by the bounds so far (feasible_prefixes).
        # One row of the stacks per fitter.
        lowers, uppers, copies = stacked_intervals(
            blocks, [fitter.error_bound for fitter in fitters]
        )
        counts = feasible_prefixes(
            lowers,
            uppers,
            [(fitter._lower, fitter._upper) for fitter in fitters],
            [len(block) for block in blocks],
        )
        for row, (fitter, rows, count) in enumerate(zip(fitters, copies, counts)):
            if count:
                fitter._lower = float(lowers[row, count - 1])
                fitter._upper = float(uppers[row, count - 1])
                fitter._rows.append(rows[:count])
        return counts

    def _representative(self) -> float:
        """The stored constant: the running average clamped into the
        feasible interval, nudged to a float32 inside it."""
        if self.length == 0:
            raise ModelError("cannot encode an empty PMC-Mean model")
        # The average divides a sequentially-accumulated sum; numpy's
        # pairwise summation rounds differently (and would depend on how
        # the rows were cut into blocks), so add the accepted rows one
        # value at a time, in arrival order.
        total = 0.0
        for rows in self._rows:
            for row in rows.tolist():
                total += sum(row)
        average = total / (self.length * self.n_columns)
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
