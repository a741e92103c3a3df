"""The generated data set and the numpy answers every oracle checks.

:class:`Truth` keeps the raw arrays the benchmark fed the program and
answers each statement class from them. The program stores models
within a relative error bound, so an answer is an interval, derived
from the bound point by point: a stored value ``v`` may read anywhere in
``v ± bound·|v|``, a SUM anywhere between the sums of those limits, a
MIN between their minima, and so on. COUNT and timestamps are exact.
"""

from __future__ import annotations

import numpy as np

from repro import TimeSeries
from repro.datasets import generate_ep

#: Relative slack on top of the bound for float32 parameter rounding and
#: float64 summation order; six orders of magnitude below the bound.
_SLACK = 1e-6
_DAY_MS = 86_400_000


def cut(series: TimeSeries, first: int, last: int) -> TimeSeries:
    """Ticks ``first..last-1`` of a series as a series of its own."""
    return TimeSeries(
        series.tid,
        series.sampling_interval,
        series.timestamps[first:last],
        series.values[first:last],
        scaling=series.scaling,
        name=series.name,
    )


class Truth:
    """Raw values (series × ticks, NaN in gaps) and their error limits."""

    def __init__(
        self, entities: int, ticks: int, seed: int, bound_percent: float
    ) -> None:
        self.dataset = generate_ep(
            n_entities=entities,
            measures_per_entity=4,
            n_points=ticks,
            seed=seed,
        )
        self.series = self.dataset.series
        self.tids = [series.tid for series in self.series]
        self._row = {tid: row for row, tid in enumerate(self.tids)}
        self.start = self.dataset.start_time
        self.si = self.dataset.sampling_interval
        self.values = np.vstack([series.values for series in self.series])
        self.ticks = self.values.shape[1]
        self.bound = bound_percent / 100.0
        #: Ticks handed to the program so far (all of them unless a
        #: workload ingests in slices).
        self.visible = self.ticks
        self.members = {
            tid: self.dataset.dimensions.row(tid) for tid in self.tids
        }

    # -- geometry ----------------------------------------------------------
    def rows(self, tids) -> np.ndarray:
        return np.array([self._row[tid] for tid in tids], dtype=np.intp)

    def timestamp(self, tick: int) -> int:
        return self.start + tick * self.si

    def tick_range(self, start: int | None, end: int | None) -> tuple[int, int]:
        """Visible ticks inside the closed timestamp interval."""
        first = 0 if start is None else max(-(-(start - self.start) // self.si), 0)
        last = self.visible - 1
        if end is not None:
            last = min((end - self.start) // self.si, last)
        return first, last

    def points(self, first: int = 0, last: int | None = None) -> int:
        """Non-gap points of all series in ticks ``first..last``."""
        last = self.visible - 1 if last is None else last
        return int(np.isfinite(self.values[:, first:last + 1]).sum())

    def slices(self, first: int, last: int) -> list[TimeSeries]:
        """Every series cut to ticks ``first..last-1`` for ``ingest``."""
        return [cut(series, first, last) for series in self.series]

    # -- limits ------------------------------------------------------------
    def limits(
        self, rows: np.ndarray, first: int, last: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, lowest, highest) the program may report, per point."""
        block = self.values[rows, first:last + 1]
        slack = np.abs(block) * (self.bound + _SLACK) + 1e-9
        return block, block - slack, block + slack

    def aggregate_limits(
        self, function: str, rows: np.ndarray, first: int, last: int
    ) -> tuple[float, float] | None:
        """Closed interval for one aggregate; None when no point matches."""
        block, low, high = self.limits(rows, first, last)
        count = int(np.isfinite(block).sum())
        if count == 0:
            return None
        function = function.upper()
        if function == "COUNT":
            return count, count
        if function == "SUM":
            return float(np.nansum(low)), float(np.nansum(high))
        if function == "AVG":
            return float(np.nansum(low)) / count, float(np.nansum(high)) / count
        if function == "MIN":
            return float(np.nanmin(low)), float(np.nanmin(high))
        if function == "MAX":
            return float(np.nanmax(low)), float(np.nanmax(high))
        raise ValueError(f"no oracle for aggregate {function!r}")

    def day_buckets(self, first: int, last: int) -> list[tuple[str, int, int]]:
        """(ISO date, first tick, last tick) per UTC day in the range."""
        days = (self.start + np.arange(first, last + 1) * self.si) // _DAY_MS
        buckets = []
        for day in np.unique(days).tolist():
            inside = np.flatnonzero(days == day)
            buckets.append(
                (
                    str(np.datetime64(int(day), "D")),
                    first + int(inside[0]),
                    first + int(inside[-1]),
                )
            )
        return buckets

    def correct(self, tid: int, tick: int, value: float) -> None:
        """Record a corrected value as the new truth."""
        self.values[self._row[tid], tick] = value


def inside(value: float, limits: tuple[float, float]) -> bool:
    low, high = limits
    margin = _SLACK * max(abs(low), abs(high), 1.0)
    return bool(low - margin <= value <= high + margin)
