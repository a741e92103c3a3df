"""Streaming ingestion: the micro-batch model of the paper's architecture.

The batch :class:`~repro.ingest.ingestor.Ingestor` replays whole
pre-collected series; this module ingests *unbounded* streams the way
the deployed system does (Spark Streaming with micro-batches, Fig. 4):
data points arrive one at a time or in batches, are routed to their
group's ingestor, and become queryable as soon as their segment flushes —
which is what makes online analytics (the O-6 scenario of Fig. 13)
possible.

Typical use::

    stream = StreamingIngestor(groups, config, registry, storage)
    for point in source:             # (tid, timestamp, value)
        stream.append(*point)
    ...                              # query any time: segments are live
    stream.flush()                   # end of stream
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..core.config import Configuration
from ..core.errors import IngestionError
from ..core.group import TimeSeriesGroup
from ..core.segment import SegmentGroup
from ..ingest.splitter import GroupIngestor
from ..ingest.stats import IngestStats
from ..models.registry import ModelRegistry
from ..storage.interface import Storage


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
        self._storage = storage
        self._config = config
        self.stats = IngestStats()
        self._write_buffer: list[SegmentGroup] = []
        self._ingestors: dict[int, GroupIngestor] = {}
        self._group_of: dict[int, int] = {}
        self._open_tick: dict[int, tuple[int, dict[int, float]] | None] = {}
        for group in groups:
            ingestor = GroupIngestor(
                group, config, registry, self._buffer_write, self.stats
            )
            self._ingestors[group.gid] = ingestor
            self._open_tick[group.gid] = None
            for tid in group.tids:
                if tid in self._group_of:
                    raise IngestionError(
                        f"tid {tid} appears in more than one group"
                    )
                self._group_of[tid] = group.gid

    # ------------------------------------------------------------------
    def append(self, tid: int, timestamp: int, value: float) -> None:
        """Ingest one data point."""
        gid = self._group_of.get(tid)
        if gid is None:
            raise IngestionError(f"unknown time series id {tid}")
        open_tick = self._open_tick[gid]
        if open_tick is None:
            self._open_tick[gid] = (timestamp, {tid: value})
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
        self._close_tick(gid)
        self._open_tick[gid] = (timestamp, {tid: value})

    def flush(self) -> IngestStats:
        """Close all open ticks and segments; returns the statistics.

        The stream may continue afterwards (flush is also how periodic
        checkpoints would be taken), but segments will restart.
        """
        for gid in self._ingestors:
            self._close_tick(gid)
            self._ingestors[gid].finish()
        self._flush_writes()
        return self.stats

    @property
    def pending_points(self) -> int:
        """Data points received but not yet part of a closed tick."""
        return sum(
            len(tick[1])
            for tick in self._open_tick.values()
            if tick is not None
        )

    # ------------------------------------------------------------------
    def _close_tick(self, gid: int) -> None:
        open_tick = self._open_tick[gid]
        if open_tick is None:
            return
        timestamp, values = open_tick
        ingestor = self._ingestors[gid]
        # One closed tick is a one-row block. The segments it closes go
        # to the write buffer; the store sees them once it holds
        # bulk_write_size of them, or on flush().
        row = np.array(
            [[math.nan if values.get(tid) is None else values[tid]
              for tid in ingestor.group.tids]]
        )
        ingestor.tick_block(np.array([timestamp], dtype=np.int64), row)
        self._open_tick[gid] = None

    def _buffer_write(self, segment: SegmentGroup) -> None:
        self._write_buffer.append(segment)
        if len(self._write_buffer) >= self._config.bulk_write_size:
            self._flush_writes()

    def _flush_writes(self) -> None:
        if self._write_buffer:
            self._storage.insert_segments(self._write_buffer)
            self._write_buffer.clear()
