"""The common interface of the evaluation's storage formats (Section 7.1).

Every system the paper compares against — InfluxDB, Cassandra, Parquet,
ORC, ModelarDB v1 — is reproduced behind :class:`StorageFormat` so the
benchmark harness can run identical workloads over all of them. Data
points are stored with the Data Point View's schema ``(Tid int, TS
timestamp, Value float, Dimensions)`` exactly as the paper configures the
existing formats.

Capability flags reproduce the qualitative outcomes of the evaluation:
``supports_calendar_rollup = False`` makes M-AGG raise
:class:`~repro.core.errors.UnsupportedQueryError` (InfluxDB, Figs. 25-28)
and ``supports_distribution = False`` marks the formats that cannot
scale out (InfluxDB's open-source version, Fig. 19).

Shared query execution lives here: formats expose how series are *read
back from their encoded form* (``_read_series``); aggregates, point,
range and rollup queries are computed from that with numpy, so query
speed differences between formats reflect their storage layouts (row vs
column, what must be decompressed, what can be pruned) rather than
incidental Python differences.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..core.dimensions import DimensionSet
from ..core.errors import UnsupportedQueryError
from ..core.timeseries import TimeSeries

_REDUCTIONS = {
    "COUNT": len,
    "SUM": np.sum,
    "MIN": np.min,
    "MAX": np.max,
    "AVG": np.mean,
}


class StorageFormat(ABC):
    """One system under evaluation."""

    name: str = ""
    supports_online_analytics: bool = True
    supports_distribution: bool = True
    supports_calendar_rollup: bool = True
    supports_error_bounds: bool = False

    def __init__(self) -> None:
        self._dimensions: DimensionSet | None = None
        self._dimension_rows: dict[int, dict[str, str]] = {}
        self._tids: list[int] = []

    # ------------------------------------------------------------------
    # Lifecycle (the same open/flush/close contract as repro.storage)
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str | None = None) -> "StorageFormat":
        """Open a format instance; path-less formats ignore ``path``."""
        return cls() if path is None else cls(path)

    def flush(self) -> None:
        """Make pending writes durable; default defers to the ingest-time
        :meth:`_finish_ingest` hook, so explicit flushes are no-ops."""

    def close(self) -> None:
        """Release resources; default is a no-op."""

    def __enter__(self) -> "StorageFormat":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(
        self,
        series: Sequence[TimeSeries],
        dimensions: DimensionSet | None = None,
    ) -> None:
        """Ingest time series with their denormalised dimensions."""
        self._dimensions = dimensions
        for ts in series:
            row = dimensions.row(ts.tid) if dimensions is not None else {}
            self._dimension_rows[ts.tid] = row
            self._tids.append(ts.tid)
            self._ingest_series(ts, row)
        self._finish_ingest()

    @abstractmethod
    def _ingest_series(self, ts: TimeSeries, dimensions: dict[str, str]) -> None:
        """Format-specific write path for one series."""

    def _finish_ingest(self) -> None:
        """Hook for final flushes (files, compactions); default no-op."""

    @abstractmethod
    def size_bytes(self) -> int:
        """Bytes used by the encoded representation."""

    # ------------------------------------------------------------------
    # Reading back (format-specific)
    # ------------------------------------------------------------------
    @abstractmethod
    def _read_series(self, tid: int) -> tuple[np.ndarray, np.ndarray]:
        """Decode one series: (int64 timestamps, float64 values).

        Gap points are not materialised (only stored data points return).
        """

    def _read_series_range(
        self, tid: int, start: int | None, end: int | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode one series restricted to [start, end].

        The default decodes everything and masks; formats with indexes
        (ORC stripes, Influx shards) override this to skip blocks.
        """
        timestamps, values = self._read_series(tid)
        return _mask_range(timestamps, values, start, end)

    def _read_values(self, tid: int) -> np.ndarray:
        """Decode only the value column of one series.

        Columnar formats (Parquet, ORC) override this to prune the
        timestamp column when an aggregate touches only ``Value``.
        """
        return self._read_series(tid)[1]

    # ------------------------------------------------------------------
    # Queries (shared execution over the format's read paths)
    # ------------------------------------------------------------------
    def simple_aggregate(
        self,
        function: str,
        tids: Sequence[int] | None = None,
        group_by_tid: bool = False,
        start: int | None = None,
        end: int | None = None,
    ) -> list[dict]:
        """S-AGG/L-AGG style aggregates, optionally grouped by Tid."""
        reduce = _reduction(function)
        targets = list(tids) if tids is not None else list(self._tids)
        unbounded = start is None and end is None

        def read(tid: int) -> np.ndarray:
            if unbounded:
                return self._read_values(tid)
            return self._read_series_range(tid, start, end)[1]

        if group_by_tid:
            rows = []
            for tid in targets:
                values = read(tid)
                if len(values):
                    rows.append({"Tid": tid, function: float(reduce(values))})
            return rows
        chunks = []
        for tid in targets:
            values = read(tid)
            if len(values):
                chunks.append(values)
        if not chunks:
            return []
        if function.upper() == "AVG":
            total = sum(float(chunk.sum()) for chunk in chunks)
            count = sum(len(chunk) for chunk in chunks)
            return [{function: total / count}]
        partials = np.array([float(reduce(chunk)) for chunk in chunks])
        outer = {"COUNT": np.sum, "SUM": np.sum, "MIN": np.min, "MAX": np.max}
        return [{function: float(outer[function.upper()](partials))}]

    def point_query(self, tid: int, timestamp: int) -> float | None:
        """P/R point lookup: the value of one series at one timestamp."""
        timestamps, values = self._read_series_range(tid, timestamp, timestamp)
        if len(values) == 0:
            return None
        return float(values[0])

    def range_query(
        self, tid: int, start: int, end: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """P/R range extraction: (timestamps, values) of a sub-sequence."""
        return self._read_series_range(tid, start, end)

    def rollup(
        self,
        function: str,
        level: str,
        member: tuple[str, str] | None = None,
        group_by: str | None = None,
        per_tid: bool = False,
        tids: Sequence[int] | None = None,
    ) -> list[dict]:
        """M-AGG style multi-dimensional aggregate in the time dimension.

        ``member`` filters series by a dimension column value; ``group_by``
        adds a dimension column to the grouping; ``per_tid`` additionally
        groups by Tid; buckets follow the calendar ``level``.
        """
        if not self.supports_calendar_rollup:
            raise UnsupportedQueryError(
                f"{self.name} cannot aggregate calendar intervals "
                "(fixed-duration windows only)"
            )
        reduce_name = function.upper()
        targets = list(tids) if tids is not None else list(self._tids)
        if member is not None:
            column, value = member
            targets = [
                tid
                for tid in targets
                if self._dimension_rows.get(tid, {}).get(column) == value
            ]
        from ..query import rollup

        name = level.upper()
        states: dict[tuple, tuple[float, float, int]] = {}
        for tid in targets:
            timestamps, values = self._read_series(tid)
            if len(values) == 0:
                continue
            if name not in rollup.TIME_LEVELS and not rollup.is_datepart(name):
                raise UnsupportedQueryError(f"unknown time level {level!r}")
            key_base: tuple = ()
            if group_by is not None:
                key_base += (self._dimension_rows.get(tid, {}).get(group_by),)
            if per_tid:
                key_base += (tid,)
            for bucket_key, mask in rollup.bucket_masks(timestamps, name):
                _fold_bucket(states, key_base + (bucket_key,), values[mask])
        return _format_rollup(states, reduce_name, level, group_by, per_tid)

    # ------------------------------------------------------------------
    def tids(self) -> list[int]:
        return list(self._tids)


# ----------------------------------------------------------------------
# Helpers shared by the formats
# ----------------------------------------------------------------------
def _reduction(function: str):
    try:
        return _REDUCTIONS[function.upper()]
    except KeyError:
        raise UnsupportedQueryError(
            f"unknown aggregate function {function!r}"
        ) from None


def _mask_range(
    timestamps: np.ndarray,
    values: np.ndarray,
    start: int | None,
    end: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    if start is None and end is None:
        return timestamps, values
    mask = np.ones(len(timestamps), dtype=bool)
    if start is not None:
        mask &= timestamps >= start
    if end is not None:
        mask &= timestamps <= end
    return timestamps[mask], values[mask]


def _fold_bucket(
    states: dict[tuple, tuple[float, float, float, int]],
    key: tuple,
    values: np.ndarray,
) -> None:
    total = float(values.sum())
    low = float(values.min())
    high = float(values.max())
    count = len(values)
    existing = states.get(key)
    if existing is None:
        states[key] = (total, low, high, count)
    else:
        states[key] = (
            existing[0] + total,
            min(existing[1], low),
            max(existing[2], high),
            existing[3] + count,
        )


def _format_rollup(
    states: dict,
    function: str,
    level: str,
    group_by: str | None,
    per_tid: bool,
) -> list[dict]:
    from ..query.rollup import format_bucket

    rows = []
    for key in sorted(states, key=lambda k: tuple(map(str, k))):
        total, low, high, count = states[key]
        if function == "SUM":
            value = total
        elif function == "MIN":
            value = low
        elif function == "MAX":
            value = high
        elif function == "COUNT":
            value = count
        else:  # AVG
            value = total / count
        row: dict = {}
        parts = list(key)
        if group_by is not None:
            row[group_by] = parts.pop(0)
        if per_tid:
            row["Tid"] = parts.pop(0)
        row[level.upper()] = format_bucket(parts.pop(0), level.upper())
        row[function] = value
        rows.append(row)
    return rows
