"""The black-box model interface of Section 3.2.

ModelarDB treats models as black boxes behind a common interface so users
can plug in their own (Section 3.1). A model type provides two things:

* an online :class:`ModelFitter` used during ingestion — it receives a
  block of value vectors, one row per sampling interval and one column
  per series of a group, and accepts the longest prefix it can represent
  within the error bound for *every* value, leaving its state unchanged
  past that prefix (:meth:`ModelFitter._extend` is the one method a
  model implements to fit; :meth:`ModelFitter.extend_many` fits one
  block per fitter in one kernel call); and
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
from typing import Sequence, TypeVar

import numpy as np
import numpy.typing as npt

from ..core.errors import ModelError
from ..core.segment import SEGMENT_OVERHEAD_BYTES

_FloatArray = npt.NDArray[np.float64]
_Fitter = TypeVar("_Fitter", bound="ModelFitter")

#: Raw cost of one uncompressed data point: int64 timestamp + float32 value.
RAW_POINT_BYTES = 12

#: Relative spacing of float32 values (2^-23); an interval wider than two
#: spacings is guaranteed to contain a float32 grid point.
_FLOAT32_RELATIVE_STEP = 2 ** -23

_FLOAT32_PACK = struct.Struct("<f")


def value_intervals(
    block: _FloatArray, error_bound: float
) -> tuple[_FloatArray, _FloatArray]:
    """Per-tick representable intervals for a ``(ticks, n)`` block.

    With a relative bound of ``p`` percent, each value ``v`` accepts any
    estimate in ``[v - p|v|/100, v + p|v|/100]``; a single estimate for a
    whole group must lie in the intersection of those intervals (the
    min/max reduction of Section 5.2). Row ``i`` of the returned
    ``(lowers, uppers)`` pair is that intersection for ``block[i]``, with
    ``lower > upper`` when it is empty. Requires finite inputs (the
    ingestion path strips gaps before fitting).
    """
    deviation = np.abs(block)
    deviation *= error_bound / 100.0
    bounds = block - deviation
    lowers = bounds.max(axis=1)
    np.add(block, deviation, out=bounds)
    uppers = bounds.min(axis=1)
    return lowers, uppers


def stacked_intervals(
    blocks: Sequence[_FloatArray], error_bounds: Sequence[float]
) -> tuple[_FloatArray, _FloatArray, list[_FloatArray]]:
    """:func:`value_intervals` of several blocks in one pass.

    Row ``i`` of the returned ``(len(blocks), longest block)`` pair is
    ``value_intervals(blocks[i], error_bounds[i])``, padded past the
    block's length with ``(-inf, +inf)``, which narrows nothing. Each
    run of blocks of one width and bound is reduced together by the row
    reductions :func:`value_intervals` runs, so every bound is
    bit-identical to it. The third element holds a private copy of each
    block.
    """
    if len(blocks) == 1:  # nothing to stack
        block = blocks[0].copy()
        lowers, uppers = value_intervals(block, error_bounds[0])
        return lowers[np.newaxis], uppers[np.newaxis], [block]
    lengths = [len(block) for block in blocks]
    lowers = np.full((len(blocks), max(lengths)), -np.inf)
    uppers = np.full(lowers.shape, np.inf)
    rank = np.arange(lowers.shape[1])
    copies: list[_FloatArray] = []
    first = 0
    while first < len(blocks):
        kind = blocks[first].shape[1], error_bounds[first]
        end = first + 1
        while end < len(blocks) and (blocks[end].shape[1], error_bounds[end]) == kind:
            end += 1
        rows = np.concatenate(blocks[first:end])
        counts = lengths[first:end]
        low, up = value_intervals(rows, kind[1])
        # In row-major order the filled entries of the run's stack rows
        # are the concatenated blocks' rows.
        filled = rank < np.array(counts)[:, np.newaxis]
        lowers[first:end][filled] = low
        uppers[first:end][filled] = up
        start = 0
        for count in counts:
            copies.append(rows[start:start + count])
            start += count
        first = end
    return lowers, uppers, copies


def feasible_prefixes(
    lowers: _FloatArray,
    uppers: _FloatArray,
    seeds: Sequence[tuple[float, float]],
    lengths: Sequence[int],
) -> list[int]:
    """Intersect the intervals of each row ``i`` of two ``(requests,
    rows)`` stacks cumulatively, in place, starting from its running
    bounds ``seeds[i]``; return per row the largest ``k <= lengths[i]``
    such that ``[lowers[i, k-1], uppers[i, k-1]]`` admits a float32
    representative.

    A seed bound replaces the first entry only when it is strictly
    tighter. The cumulative intersections are nested, which makes
    feasibility a monotone prefix predicate: once an intersection loses
    its float32 grid point it never regains one. ``(-inf, +inf)`` pads
    past a row's length repeat its last intersection. A vectorized
    sufficient-width test settles the easy prefix and the first empty
    intersection ends the hard one, so a binary search over what is left
    needs only ``O(log rows)`` exact :func:`float32_within` calls per row.
    """
    for row, (lower, upper) in enumerate(seeds):
        if lower > lowers[row, 0]:
            lowers[row, 0] = lower
        if upper < uppers[row, 0]:
            uppers[row, 0] = upper
    longest = lowers.shape[1]
    if longest > 1:
        np.maximum.accumulate(lowers, axis=1, out=lowers)
        np.minimum.accumulate(uppers, axis=1, out=uppers)
        widths = uppers - lowers
        midpoints = (uppers + lowers) / 2.0
        np.abs(midpoints, out=midpoints)
        midpoints *= 4.0 * _FLOAT32_RELATIVE_STEP
        midpoints += 1e-37
        certain = widths > midpoints
        # A certainly-feasible entry proves (by monotonicity) that the
        # whole prefix through it is feasible, so search only past the
        # last one, and only up to the first empty one.
        from_end = certain[:, ::-1].argmax(axis=1).tolist()
        lows = [
            longest - skip if certain[row, longest - 1 - skip] else 0
            for row, skip in enumerate(from_end)
        ]
        highs = lows  # nothing to search unless some row stops early
        if any(low < length for low, length in zip(lows, lengths)):
            empty = widths < 0
            highs = [
                first if empty[row, first] else longest
                for row, first in enumerate(empty.argmax(axis=1).tolist())
            ]
    else:  # one float32_within call per row settles it
        lows, highs = [0] * len(lengths), [1] * len(lengths)
    prefixes = []
    for row, (low, high, length) in enumerate(zip(lows, highs, lengths)):
        low, high = min(low, length), min(high, length)
        while low < high:
            mid = (low + high + 1) // 2
            lower, upper = float(lowers[row, mid - 1]), float(uppers[row, mid - 1])
            if float32_within(lower, upper) is not None:
                low = mid
            else:
                high = mid - 1
        prefixes.append(low)
    return prefixes


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

    A model implements one fitting method, :meth:`_extend`; it must
    leave its state unchanged past the prefix it accepts, so the
    ingestion loop can hand the same buffered values to the next model
    type in the cascade.
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
        """Offer the group's value vector for one timestamp (one float
        per series, in column order): :meth:`extend` over a one-row
        block. Returns whether it was accepted."""
        return self.extend(None, [values]) == 1

    def extend(
        self,
        timestamps: npt.NDArray[np.int64] | None,
        matrix: npt.ArrayLike,
    ) -> int:
        """Fit the longest acceptable leading prefix of a columnar block.

        ``matrix`` is a ``(ticks, n_columns)`` float block (one row per
        timestamp, columns in group order, all values finite); the
        optional ``timestamps`` array is positional metadata that the
        bundled models ignore. Returns the accepted tick count; a return
        short of ``len(matrix)`` means the next row was rejected (or the
        length limit was hit), and state is unchanged past the accepted
        prefix. Fitting a block in pieces must leave the same state as
        fitting it whole, so every chunking of ingestion produces the
        same segments.
        """
        block = self._admit(matrix)
        if block is None:
            return 0
        accepted = self._extend(block)
        self.length += accepted
        return accepted

    @classmethod
    def extend_many(
        cls: type[_Fitter],
        fitters: Sequence[_Fitter],
        blocks: Sequence[npt.ArrayLike],
    ) -> list[int]:
        """:meth:`extend` each fitter over its block, in one kernel call.

        ``fitters`` are instances of this class. Each ends in the state
        :meth:`extend` over its block alone leaves it in; returns the
        accepted tick counts in order. The lockstep ingestion driver
        offers one window of every group that wants this model this
        way. A model that only implements :meth:`_extend` is fitted one
        block after another; PMC-Mean and Swing override
        :meth:`_extend_many` with a kernel over all the blocks at once.
        """
        if len(fitters) == 1:  # a batch of one is one extend
            return [fitters[0].extend(None, blocks[0])]
        counts = [0] * len(fitters)
        admitted: list[tuple[int, _Fitter, _FloatArray]] = []
        for index, (fitter, matrix) in enumerate(zip(fitters, blocks)):
            block = fitter._admit(matrix)
            if block is not None:
                admitted.append((index, fitter, block))
        # Kernels stack blocks of one width and bound together.
        admitted.sort(key=lambda entry: (entry[1].n_columns, entry[1].error_bound))
        if admitted:
            accepted = cls._extend_many(
                [fitter for _, fitter, _ in admitted],
                [block for _, _, block in admitted],
            )
            for (index, fitter, _), count in zip(admitted, accepted):
                fitter.length += count
                counts[index] = count
        return counts

    def _admit(self, matrix: npt.ArrayLike) -> _FloatArray | None:
        """``matrix`` shape-checked and capped at the capacity left, or
        None when no row of it can be accepted."""
        block = np.asarray(matrix, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != self.n_columns:
            raise ModelError(
                f"expected a (ticks, {self.n_columns}) block, "
                f"got shape {block.shape}"
            )
        capacity = self.length_limit - self.length
        if capacity <= 0 or block.shape[0] == 0:
            return None
        return block[:capacity]

    @classmethod
    def _extend_many(
        cls: type[_Fitter],
        fitters: Sequence[_Fitter],
        blocks: Sequence[_FloatArray],
    ) -> list[int]:
        """:meth:`_extend` of each fitter over its admitted block, the
        fitters' lengths not yet advanced: the batched kernel hook.
        :meth:`extend_many` passes the fitters ordered by width and
        bound."""
        return [fitter._extend(block) for fitter, block in zip(fitters, blocks)]

    @abstractmethod
    def _extend(self, block: _FloatArray) -> int:
        """Accept the longest prefix of ``block`` the model represents
        within the bound and return its tick count.

        ``block`` is already capacity-capped, shape-checked and non-empty;
        ``self.length`` counts the rows accepted before it and is
        advanced by the caller afterwards. State must be unchanged past
        the accepted prefix.
        """

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
