"""The black-box model interface of Section 3.2.

ModelarDB treats models as black boxes behind a common interface so users
can plug in their own (Section 3.1). A model type provides two things:

* an online :class:`ModelFitter` used during ingestion — it receives, at
  each sampling interval, the vector of values from all series of a group
  and either accepts it (staying within the error bound for *every* value)
  or permanently rejects it, leaving its state unchanged; and
* a :class:`FittedModel` decoded from stored parameters — it reconstructs
  the represented values and, where the mathematics allow, answers
  aggregate queries in constant time (Section 6.1).

Error bounds are *relative* and expressed in percent (the uniform error
norm over ``|v - mest(t)| <= bound/100 * |v|``), matching the evaluation's
0/1/5/10 % settings; a bound of zero requests lossless representation.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np
import numpy.typing as npt

from ..core.errors import ModelError
from ..core.segment import SEGMENT_OVERHEAD_BYTES

_FloatArray = npt.NDArray[np.float64]

#: Raw cost of one uncompressed data point: int64 timestamp + float32 value.
RAW_POINT_BYTES = 12

#: Relative spacing of float32 values (2^-23); an interval wider than two
#: spacings is guaranteed to contain a float32 grid point.
_FLOAT32_RELATIVE_STEP = 2 ** -23

_FLOAT32_PACK = struct.Struct("<f")


def value_interval(
    values: Sequence[float], error_bound: float
) -> tuple[float, float]:
    """The representable interval shared by all values of one timestamp.

    With a relative bound of ``p`` percent, each value ``v`` accepts any
    estimate in ``[v - p|v|/100, v + p|v|/100]``; a single estimate for a
    whole group must lie in the intersection of those intervals (the
    min/max reduction of Section 5.2). Returns ``(lower, upper)`` with
    ``lower > upper`` when the intersection is empty.

    Implemented with plain Python arithmetic: group vectors are short
    (one value per series), where scalar loops beat numpy dispatch — this
    is the ingestion hot path.
    """
    scale = error_bound / 100.0
    lower = -float("inf")
    upper = float("inf")
    for value in values:
        deviation = abs(value) * scale
        low = value - deviation
        high = value + deviation
        if low > lower:
            lower = low
        if high < upper:
            upper = high
    return lower, upper


def value_intervals(
    block: _FloatArray, error_bound: float
) -> tuple[_FloatArray, _FloatArray]:
    """Per-tick representable intervals for a ``(ticks, n)`` block.

    The columnar counterpart of :func:`value_interval`: row ``i`` of the
    returned ``(lowers, uppers)`` pair is exactly what
    ``value_interval(block[i], error_bound)`` would produce, computed for
    the whole block at once. Requires finite inputs (the ingestion path
    strips gaps before fitting).
    """
    deviation = np.abs(block)
    deviation *= error_bound / 100.0
    bounds = block - deviation
    lowers = bounds.max(axis=1)
    np.add(block, deviation, out=bounds)
    uppers = bounds.min(axis=1)
    return lowers, uppers


def feasible_prefix(lowers: _FloatArray, uppers: _FloatArray) -> int:
    """Largest ``k`` such that ``[lowers[k-1], uppers[k-1]]`` admits a
    float32 representative.

    Requires *nested* intervals (``lowers`` non-decreasing, ``uppers``
    non-increasing — the cumulative intersections built by the PMC-Mean
    and Swing kernels), which makes feasibility a monotone prefix
    predicate: once an intersection loses its float32 grid point it never
    regains one. A vectorized sufficient-width test settles the easy
    prefix; a binary search over the remainder needs only
    ``O(log ticks)`` exact :func:`float32_within` calls.
    """
    n = len(lowers)
    if n == 0:
        return 0
    widths = uppers - lowers
    midpoints = (uppers + lowers) / 2.0
    np.abs(midpoints, out=midpoints)
    midpoints *= 4.0 * _FLOAT32_RELATIVE_STEP
    midpoints += 1e-37
    certain = widths > midpoints
    # A certainly-feasible row proves (by monotonicity) that the whole
    # prefix through it is feasible, so search only past the last one.
    if certain.any():
        low = n - int(certain[::-1].argmax())
    else:
        low = 0
    high = n
    while low < high:
        mid = (low + high + 1) // 2
        if float32_within(float(lowers[mid - 1]), float(uppers[mid - 1])) is not None:
            low = mid
        else:
            high = mid - 1
    return low


def to_float32(value: float) -> float:
    """Round one value to float32 precision (cheap struct round trip)."""
    return float(_FLOAT32_PACK.unpack(_FLOAT32_PACK.pack(value))[0])


def float32_within(lower: float, upper: float) -> float | None:
    """A float32-representable value inside ``[lower, upper]``, or None.

    Model parameters are stored as float32 (as in the paper's schema), so
    fitters must ensure a float32 representative exists before accepting a
    data point — otherwise a value accepted under float64 arithmetic could
    violate the bound after the round trip through storage.
    """
    if lower > upper:
        return None
    midpoint = (lower + upper) / 2.0
    # Fast path: an interval at least two float32 steps wide always
    # contains a float32, and the rounded midpoint stays inside it.
    width = upper - lower
    if width > 4.0 * _FLOAT32_RELATIVE_STEP * abs(midpoint) + 1e-37:
        return to_float32(midpoint)
    # Comparisons must happen in float64: NumPy's weak promotion would
    # otherwise round the float64 bounds to float32 first and accept
    # candidates that are actually outside the interval.
    candidate = float(np.float32(midpoint))
    if candidate < lower:
        candidate = float(
            np.nextafter(np.float32(candidate), np.float32(np.inf))
        )
    elif candidate > upper:
        candidate = float(
            np.nextafter(np.float32(candidate), np.float32(-np.inf))
        )
    if lower <= candidate <= upper:
        return candidate
    return None


class ModelFitter(ABC):
    """Online fitter for one model over an ``n_columns``-wide group.

    Subclasses must leave their state unchanged when :meth:`append`
    rejects a vector, so the ingestion loop can hand the same buffered
    values to the next model type in the cascade.
    """

    def __init__(self, n_columns: int, error_bound: float, length_limit: int) -> None:
        if n_columns < 1:
            raise ModelError("a model must represent at least one series")
        if error_bound < 0:
            raise ModelError("error bound must be >= 0")
        if length_limit < 1:
            raise ModelError("length limit must be >= 1")
        self.n_columns = n_columns
        self.error_bound = error_bound
        self.length_limit = length_limit
        self.length = 0

    def append(self, values: Sequence[float]) -> bool:
        """Try to extend the model with the group's next value vector.

        ``values`` is the group's value tuple for one timestamp (one
        float per series, in column order). Returns True when the model
        still represents every accepted value within the error bound;
        False when it cannot (state unchanged).
        """
        if self.length >= self.length_limit:
            return False
        if len(values) != self.n_columns:
            raise ModelError(
                f"expected {self.n_columns} values, got {len(values)}"
            )
        if not self._try_append(values):
            return False
        self.length += 1
        return True

    def extend(
        self,
        timestamps: npt.NDArray[np.int64] | None,
        matrix: npt.ArrayLike,
    ) -> int:
        """Batch counterpart of :meth:`append` over a columnar block.

        ``matrix`` is a ``(ticks, n_columns)`` float block (one row per
        timestamp, columns in group order, all values finite); the
        optional ``timestamps`` array is positional metadata that the
        bundled models ignore. Consumes the longest acceptable leading
        prefix and returns its tick count — by contract the resulting
        state is *bit-identical* to calling :meth:`append` row by row
        until the first rejection, so the block and scalar ingestion
        paths produce the same segments. A return short of ``len(matrix)``
        means the next row was rejected (or the length limit was hit);
        as with :meth:`append`, state is unchanged past the accepted
        prefix.
        """
        block = np.asarray(matrix, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != self.n_columns:
            raise ModelError(
                f"expected a (ticks, {self.n_columns}) block, "
                f"got shape {block.shape}"
            )
        capacity = self.length_limit - self.length
        if capacity <= 0 or block.shape[0] == 0:
            return 0
        accepted = self._extend(block[:capacity])
        self.length += accepted
        return accepted

    def _extend(self, block: _FloatArray) -> int:
        """Model-specific batch accept; returns the accepted tick count.

        The default falls back to the scalar kernel one row at a time.
        Vectorized overrides must accept exactly the prefix the scalar
        kernel would (bit-identical state included) and, like
        :meth:`_try_append`, must not mutate state past that prefix.
        ``block`` is already capacity-capped and shape-checked.
        """
        accepted = 0
        # This IS the documented scalar fallback, not a regression — the
        # vectorized kernels override it.
        for row in block.tolist():  # reprolint: disable=RPR006
            if not self._try_append(row):
                break
            accepted += 1
        return accepted

    @abstractmethod
    def _try_append(self, values: Sequence[float]) -> bool:
        """Model-specific accept/reject; must not mutate state on reject."""

    @abstractmethod
    def parameters(self) -> bytes:
        """Encode the fitted model (requires ``length >= 1``)."""

    def size_bytes(self) -> int:
        """Current encoded size; used for compression-ratio selection."""
        return len(self.parameters())

    def compression_ratio(self) -> float:
        """Raw bytes represented per stored byte if flushed now."""
        if self.length == 0:
            return 0.0
        raw = self.length * self.n_columns * RAW_POINT_BYTES
        return raw / (SEGMENT_OVERHEAD_BYTES + self.size_bytes())


class FittedModel(ABC):
    """A decoded model: reconstruction plus aggregate hooks.

    Index-based: row ``i`` corresponds to timestamp ``start + i * SI`` of
    the enclosing segment; columns follow the segment's member-Tid order.
    All slice bounds are inclusive, mirroring the paper's inclusive
    segment end times (disconnected segments, Fig. 12).
    """

    def __init__(self, n_columns: int, length: int) -> None:
        self.n_columns = n_columns
        self.length = length

    @abstractmethod
    def values(self) -> _FloatArray:
        """Reconstruct all values as a ``(length, n_columns)`` array."""

    def value_at(self, index: int, column: int) -> float:
        """Reconstruct a single value (defaults to full reconstruction)."""
        return float(self.values()[index, column])

    def column_values(self, column: int) -> _FloatArray:
        return self.values()[:, column]

    def values_block(self, first: int, last: int) -> _FloatArray:
        """Reconstruct rows ``first..last`` (inclusive) as a
        ``(last - first + 1, n_columns)`` block.

        The batch decode kernel of the columnar read path, the read-side
        mirror of :meth:`ModelFitter.extend`: by contract the result is
        bit-identical to ``values()[first:last + 1]``, so row-at-a-time
        and block execution reconstruct the same floats. Models with a
        closed form override it to generate only the requested slice
        instead of the whole segment.
        """
        return self.values()[first:last + 1]

    # ------------------------------------------------------------------
    # Aggregate hooks. The defaults reconstruct; models with closed forms
    # (constant, linear) override them with O(1) implementations, which is
    # what makes Segment View aggregates fast (Section 6.1).
    # ------------------------------------------------------------------
    @property
    def constant_time_aggregates(self) -> bool:
        """Whether sum/min/max over a slice avoid reconstruction."""
        return False

    #: Whether every column holds the same values (one group-wide
    #: constant or line), so a slice aggregate is one answer for all
    #: member series. ``Multi`` models are constant-time but fit each
    #: column on its own, so they are not.
    column_independent = False

    def slice_sum(self, first: int, last: int, column: int) -> float:
        return float(self.values()[first:last + 1, column].sum())

    def slice_min(self, first: int, last: int, column: int) -> float:
        return float(self.values()[first:last + 1, column].min())

    def slice_max(self, first: int, last: int, column: int) -> float:
        return float(self.values()[first:last + 1, column].max())


class ModelType(ABC):
    """A registered model implementation (one row of the Model table)."""

    #: Classpath-style unique name, e.g. ``"PMC"`` or ``"acme.MyModel"``.
    name: str = ""

    #: Whether the model can represent *any* value sequence (lossless
    #: fallbacks like Gorilla). The segment generator exploits this: an
    #: always-fitting model need not be fed during ingestion — only its
    #: size matters at flush time, so fitting is deferred (and skipped
    #: entirely when :meth:`minimum_size_bytes` proves it cannot win).
    always_fits: bool = False

    #: Whether decoded models are :attr:`FittedModel.column_independent`;
    #: lets the read path pick the rows it folds from parameters without
    #: decoding the others.
    column_independent: bool = False

    def minimum_size_bytes(self, n_values: int) -> int | None:
        """An exact lower bound on the encoded size for ``n_values``
        values, or None when no useful bound exists. Used to prune
        needless fitting of always-fitting models."""
        return None

    @abstractmethod
    def fitter(
        self, n_columns: int, error_bound: float, length_limit: int
    ) -> ModelFitter:
        """A fresh online fitter for a group of ``n_columns`` series."""

    @abstractmethod
    def decode(
        self, parameters: bytes, n_columns: int, length: int
    ) -> FittedModel:
        """Decode stored parameters back into a queryable model."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
