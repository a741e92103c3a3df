"""The Segment View (Section 6.1) and the Data Point View's row type.

The Segment View exposes stored segments one row per (segment, Tid) with
schema (Tid, StartTime, EndTime, SI, Mid, Parameters, Gaps, Dimensions),
attaches denormalised dimension members from the metadata cache and
clips rows to the query's time interval, yielding the inclusive model
index range each row's model is read over; analytics and segment
selections walk it row by row. The Data Point View, with schema (Tid,
TS, Value, Dimensions), is decoded a partition at a time
(:func:`repro.query.columnar.partition_points`); :class:`DataPointRow`
is its row as :meth:`repro.query.engine.QueryEngine.points` yields it.
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
