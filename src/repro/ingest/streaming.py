"""Streaming ingestion: the micro-batch model of the paper's architecture.

The batch :class:`~repro.ingest.ingestor.Ingestor` replays whole
pre-collected series; this module ingests *unbounded* streams the way
the deployed system does (Spark Streaming with micro-batches, Fig. 4):
data points arrive one at a time or in batches, are routed to their
group, and become queryable as soon as their segment flushes — which is
what makes online analytics (the O-6 scenario of Fig. 13) possible.
Both run on an :class:`~repro.ingest.ingestor.IngestSession`: here each
closed tick is a one-row block for its group, answered at once. Each
group buffers its own segments; the store sees a group's buffer once it
holds ``bulk_write_size`` segments, or on :meth:`StreamingIngestor.flush`.

Typical use::

    stream = StreamingIngestor(groups, config, registry, storage)
    for point in source:             # (tid, timestamp, value)
        stream.append(*point)
    ...                              # query any time: segments are live
    stream.flush()                   # end of stream
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.config import Configuration
from ..core.errors import IngestionError
from ..core.group import TimeSeriesGroup
from ..models.registry import ModelRegistry
from ..storage.interface import Storage
from .ingestor import Block, Ingestor, IngestSession
from .stats import IngestStats


class StreamingIngestor:
    """Online ingestion of data points for pre-partitioned groups.

    Data points may arrive interleaved across groups but must be
    in non-decreasing time order *per group* (the paper's setting:
    out-of-order readings are rare upstream and corrected before
    ingestion). A group's tick closes when a data point for a later
    timestamp arrives, so a missing series simply becomes a gap — no
    watermarks needed at a fixed sampling interval.
    """

    def __init__(
        self,
        groups: Iterable[TimeSeriesGroup],
        config: Configuration,
        registry: ModelRegistry,
        storage: Storage,
    ) -> None:
        groups = list(groups)
        #: The statistics of the stream, as of its last :meth:`flush`.
        self.stats = IngestStats()
        self._tids = [group.tids for group in groups]
        self._group_of: dict[int, int] = {}
        self._open_tick: list[tuple[int, dict[int, float]] | None] = [
            None
        ] * len(groups)
        for index, group in enumerate(groups):
            for tid in group.tids:
                if tid in self._group_of:
                    raise IngestionError(
                        f"tid {tid} appears in more than one group"
                    )
                self._group_of[tid] = index
        self._session = IngestSession(Ingestor(config, registry, storage), groups)

    # ------------------------------------------------------------------
    def append(self, tid: int, timestamp: int, value: float) -> None:
        """Ingest one data point."""
        index = self._group_of.get(tid)
        if index is None:
            raise IngestionError(f"unknown time series id {tid}")
        open_tick = self._open_tick[index]
        if open_tick is None:
            self._open_tick[index] = (timestamp, {tid: value})
            return
        tick_timestamp, values = open_tick
        if timestamp < tick_timestamp:
            raise IngestionError(
                f"data point for tid {tid} at {timestamp} arrived after "
                f"tick {tick_timestamp} was opened (streams must be in "
                "time order per group)"
            )
        if timestamp == tick_timestamp:
            values[tid] = value
            return
        self._session.advance({index: [self._closed_tick(index)]})
        self._open_tick[index] = (timestamp, {tid: value})

    def flush(self) -> IngestStats:
        """Close all open ticks and segments; returns the statistics.

        The stream may continue afterwards (flush is also how periodic
        checkpoints would be taken), but segments will restart.
        """
        self.stats.merge(self._session.close({
            index: [self._closed_tick(index)]
            for index, tick in enumerate(self._open_tick)
            if tick is not None
        }))
        return self.stats

    @property
    def pending_points(self) -> int:
        """Data points received but not yet part of a closed tick."""
        return sum(len(tick[1]) for tick in self._open_tick if tick is not None)

    # ------------------------------------------------------------------
    def _closed_tick(self, index: int) -> Block:
        """Close the group's open tick: it is a one-row block."""
        timestamp, values = self._open_tick[index]
        self._open_tick[index] = None
        # A missing value, or None, is NaN: a gap.
        row = np.array([[values.get(tid) for tid in self._tids[index]]], float)
        return np.array([timestamp], dtype=np.int64), row
