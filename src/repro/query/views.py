"""The Segment View and Data Point View (Section 6.1).

The Segment View exposes stored segments one row per (segment, Tid) with
schema (Tid, StartTime, EndTime, SI, Mid, Parameters, Gaps, Dimensions);
aggregates executed on it use the models directly. The Data Point View
reconstructs data points with schema (Tid, TS, Value, Dimensions) and is
the fallback for anything that needs actual points.

Both views attach denormalised dimension members from the metadata cache
and clip rows to the query's time interval, yielding the inclusive model
index range the aggregate framework consumes.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from ..core.segment import SegmentRow, explode
from ..models.base import FittedModel
from ..storage.interface import Storage
from ..storage.scan import Table
from .cache import SegmentCache
from .metadata import MetadataCache
from .rewriter import RewrittenQuery


class SegmentViewRow(NamedTuple):
    """One Segment View row plus its decoded model and clipped range."""

    row: SegmentRow
    model: FittedModel
    first: int  # first model index inside the query interval (inclusive)
    last: int  # last model index inside the query interval (inclusive)


class DataPointRow(NamedTuple):
    """One Data Point View row."""

    tid: int
    timestamp: int
    value: float
    dimensions: dict[str, str]


def clipped(
    storage: Storage, plan: RewrittenQuery
) -> Iterator[tuple[Table, np.ndarray, np.ndarray, np.ndarray]]:
    """Every planned partition table with the rows overlapping the query
    interval and their inclusive model index ranges, in Gid then append
    order: one :meth:`~repro.storage.scan.Table.clip` per table. A row
    whose range is empty (``first > last``) holds no tick inside."""
    for table in storage.tables(plan.scan_request()):
        yield (table, *table.clip(plan.start_time, plan.end_time))


class SegmentView:
    """Model-level access to stored segments."""

    def __init__(
        self,
        storage: Storage,
        cache: SegmentCache,
        metadata: MetadataCache,
    ) -> None:
        self._storage = storage
        self._cache = cache
        self._metadata = metadata

    def rows(self, plan: RewrittenQuery) -> Iterator[SegmentViewRow]:
        """Exploded, clipped view rows for a rewritten query."""
        scalings = self._metadata.scalings()
        dimension_rows = self._metadata.dimension_rows()
        tids = set(plan.tids)
        for table, rows, firsts, lasts in clipped(self._storage, plan):
            for index, first, last in zip(
                rows.tolist(), firsts.tolist(), lasts.tolist()
            ):
                if first > last:
                    continue
                segment, model = table.segments[index], None
                for row in explode(segment, scalings, dimension_rows, tids):
                    if model is None:
                        model = self._cache.model_of(segment)
                    yield SegmentViewRow(row, model, first, last)


class DataPointView:
    """Point-level access: reconstructs data points from segments."""

    def __init__(
        self,
        storage: Storage,
        cache: SegmentCache,
        metadata: MetadataCache,
    ) -> None:
        self._segment_view = SegmentView(storage, cache, metadata)

    def rows(self, plan: RewrittenQuery) -> Iterator[DataPointRow]:
        """Reconstructed data points, ordered per segment."""
        for view_row in self._segment_view.rows(plan):
            row = view_row.row
            values = view_row.model.column_values(row.column) / row.scaling
            base = row.start_time
            si = row.sampling_interval
            for index in range(view_row.first, view_row.last + 1):
                yield DataPointRow(
                    row.tid,
                    base + index * si,
                    float(values[index]),
                    row.dimensions,
                )

    def arrays(
        self, plan: RewrittenQuery
    ) -> Iterator[tuple[SegmentRow, np.ndarray, np.ndarray]]:
        """Vectorised access: (row, timestamps, values) per segment row.

        Used by aggregate execution on the Data Point View so the
        point-level path is a fair (numpy-speed) baseline rather than a
        strawman.
        """
        for view_row in self._segment_view.rows(plan):
            row = view_row.row
            values = view_row.model.column_values(row.column) / row.scaling
            first, last = view_row.first, view_row.last
            timestamps = row.start_time + np.arange(first, last + 1) * (
                row.sampling_interval
            )
            yield row, timestamps, values[first:last + 1]

