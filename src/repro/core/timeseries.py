"""Time series primitives (Definitions 1-3, 5-6 of the paper).

A time series is a sequence of (timestamp, value) pairs ordered by time.
This module represents *regular time series, possibly with gaps*: the only
kind ModelarDB ingests (Section 2). Internally a series is a pair of numpy
arrays — int64 timestamps and float64 values — where a gap data point
(``v = ⊥`` in the paper) is stored as NaN. The public iteration API yields
``None`` for gap values so user code never has to reason about NaN.

Timestamps are integers in an arbitrary unit (the paper and our data sets
use milliseconds since an epoch).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
import numpy.typing as npt

from .errors import TimeSeriesError

_IntArray = npt.NDArray[np.int64]
_FloatArray = npt.NDArray[np.float64]

#: Sentinel used in the public API for a gap value (``⊥`` in the paper).
GAP = None


class DataPoint(NamedTuple):
    """A single reading from one time series.

    ``value`` is ``None`` inside a gap (Definition 6).
    """

    tid: int
    timestamp: int
    value: float | None


class Gap(NamedTuple):
    """A gap ``G = (ts, te)`` between two data points (Definition 5).

    ``start`` is the timestamp of the last data point before the gap and
    ``end`` the timestamp of the first data point after it, so
    ``end - start = m * SI`` with ``m >= 2``.
    """

    start: int
    end: int


class TimeSeries:
    """A bounded regular time series, possibly with gaps.

    Parameters
    ----------
    tid:
        Unique time series id (assigned from 1 as in the paper's schema).
    sampling_interval:
        The SI of Definition 3, in timestamp units.
    timestamps / values:
        Parallel sequences. Timestamps must be strictly increasing and
        congruent modulo SI; missing intermediate timestamps are filled in
        as gaps. Values may contain ``None``/NaN for explicit gap points.
    scaling:
        The scaling constant from the Time Series table (Fig. 6). Applied
        by ingestion so correlated series with different magnitudes can be
        compressed together, and divided back out during query processing.
    name:
        Optional human-readable source name (e.g. the input file).
    """

    __slots__ = ("tid", "sampling_interval", "scaling", "name",
                 "_timestamps", "_values")

    def __init__(
        self,
        tid: int,
        sampling_interval: int,
        timestamps: Sequence[int] | _IntArray,
        values: Sequence[float | None] | _FloatArray,
        scaling: float = 1.0,
        name: str = "",
    ) -> None:
        if sampling_interval <= 0:
            raise TimeSeriesError(
                f"sampling interval must be positive, got {sampling_interval}"
            )
        if len(timestamps) != len(values):
            raise TimeSeriesError(
                f"timestamps ({len(timestamps)}) and values ({len(values)}) "
                "must have the same length"
            )
        if scaling == 0.0:
            raise TimeSeriesError("scaling constant must be non-zero")

        self.tid = int(tid)
        self.sampling_interval = int(sampling_interval)
        self.scaling = float(scaling)
        self.name = name

        ts = np.asarray(timestamps, dtype=np.int64)
        vs = np.array(
            [math.nan if v is None else float(v) for v in values]
            if not isinstance(values, np.ndarray)
            else values,
            dtype=np.float64,
        )
        self._timestamps, self._values = _regularize(ts, vs, self.sampling_interval)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def timestamps(self) -> _IntArray:
        """Regularized int64 timestamps (read-only view)."""
        view = self._timestamps.view()
        view.flags.writeable = False
        return view

    @property
    def values(self) -> _FloatArray:
        """Regularized float64 values with NaN at gaps (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return len(self._timestamps)

    def __iter__(self) -> Iterator[DataPoint]:
        for ts, value in zip(self._timestamps, self._values):
            yield DataPoint(
                self.tid, int(ts), None if math.isnan(value) else float(value)
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimeSeries(tid={self.tid}, si={self.sampling_interval}, "
            f"n={len(self)}, gaps={self.gap_count()})"
        )

    @property
    def start_time(self) -> int:
        if len(self._timestamps) == 0:
            raise TimeSeriesError("empty time series has no start time")
        return int(self._timestamps[0])

    @property
    def end_time(self) -> int:
        if len(self._timestamps) == 0:
            raise TimeSeriesError("empty time series has no end time")
        return int(self._timestamps[-1])

    @property
    def alignment(self) -> int:
        """``t1 mod SI`` — the group-membership alignment of Definition 8."""
        return self.start_time % self.sampling_interval

    # ------------------------------------------------------------------
    # Gap inspection (Definitions 5-6)
    # ------------------------------------------------------------------
    def gap_count(self) -> int:
        """Number of gap data points (``⊥`` entries)."""
        return int(np.isnan(self._values).sum())

    def gaps(self) -> list[Gap]:
        """All gaps as (last-present, first-present-after) timestamp pairs."""
        is_gap = np.isnan(self._values)
        result: list[Gap] = []
        start_idx: int | None = None
        for i, missing in enumerate(is_gap):
            if missing and start_idx is None:
                start_idx = i
            elif not missing and start_idx is not None:
                result.append(
                    Gap(int(self._timestamps[start_idx - 1]),
                        int(self._timestamps[i]))
                )
                start_idx = None
        return result

    def value_at(self, timestamp: int) -> float | None:
        """The value recorded at ``timestamp`` (None in a gap).

        Raises
        ------
        TimeSeriesError
            If the timestamp is outside the series or misaligned.
        """
        if len(self) == 0:
            raise TimeSeriesError("empty time series")
        offset = timestamp - self.start_time
        if offset < 0 or offset % self.sampling_interval != 0:
            raise TimeSeriesError(
                f"timestamp {timestamp} is not on the series grid"
            )
        index = offset // self.sampling_interval
        if index >= len(self):
            raise TimeSeriesError(f"timestamp {timestamp} is after the series")
        value = self._values[index]
        return None if math.isnan(value) else float(value)

    # ------------------------------------------------------------------
    # Derived series
    # ------------------------------------------------------------------
    def bounded(self, start: int, end: int) -> "TimeSeries":
        """The bounded sub-series with ``start <= t <= end`` (Definition 1)."""
        mask = (self._timestamps >= start) & (self._timestamps <= end)
        return TimeSeries(
            self.tid,
            self.sampling_interval,
            self._timestamps[mask],
            self._values[mask],
            scaling=self.scaling,
            name=self.name,
        )


def _regularize(
    timestamps: _IntArray, values: _FloatArray, si: int
) -> tuple[_IntArray, _FloatArray]:
    """Convert an irregular series with implicit gaps to regular-with-gaps.

    Validates strict time ordering and SI congruence, then materialises
    ``⊥`` (NaN) data points for every missing grid timestamp, turning e.g.
    ``(500, v), (1100, v')`` with SI=100 into five NaN points in between
    (the ``TSg`` → ``TSrg`` example of Section 2).
    """
    if len(timestamps) == 0:
        return timestamps, values

    deltas = np.diff(timestamps)
    if np.any(deltas <= 0):
        bad = int(np.argmax(deltas <= 0))
        raise TimeSeriesError(
            "timestamps must be strictly increasing "
            f"(violated at index {bad + 1})"
        )
    if np.any((timestamps - timestamps[0]) % si != 0):
        bad = int(np.argmax((timestamps - timestamps[0]) % si != 0))
        raise TimeSeriesError(
            f"timestamp {int(timestamps[bad])} is not congruent with the "
            f"first timestamp modulo SI={si}"
        )

    if np.all(deltas == si):
        return timestamps, values

    full = np.arange(timestamps[0], timestamps[-1] + si, si, dtype=np.int64)
    full_values = np.full(len(full), math.nan, dtype=np.float64)
    indices = (timestamps - timestamps[0]) // si
    full_values[indices] = values
    return full, full_values


def from_data_points(
    tid: int,
    sampling_interval: int,
    points: Iterable[tuple[int, float | None]],
    scaling: float = 1.0,
    name: str = "",
) -> TimeSeries:
    """Build a :class:`TimeSeries` from an iterable of (ts, value) pairs."""
    pts = list(points)
    return TimeSeries(
        tid,
        sampling_interval,
        [ts for ts, _ in pts],
        [v for _, v in pts],
        scaling=scaling,
        name=name,
    )
