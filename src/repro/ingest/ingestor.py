"""Ingestion drivers: stream time series groups into a segment store.

The :class:`Ingestor` replays already-collected time series through the
group ingestion pipeline in timestamp order, mimicking the streaming
receiver of the paper's architecture (Fig. 4) with the bulk-write
buffering of Table 1. Online analytics work because segments become
visible in the store as each bulk write lands.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator

import numpy as np

from ..core.config import Configuration
from ..core.group import TimeSeriesGroup
from ..core.segment import SegmentGroup
from ..models.registry import ModelRegistry
from ..obs import get_registry
from ..storage.interface import Storage
from .splitter import GroupIngestor
from .stats import IngestStats


def record_ingest_stats(stats: IngestStats) -> None:
    """Fold one group's :class:`IngestStats` into the metrics registry.

    Called once per ingested group (not per tick) so the hot ingest loop
    never touches registry locks; the same batching makes the counters
    correct when worker stats are merged on the cluster master.
    """
    registry = get_registry()
    registry.counter("ingest.points_total").inc(stats.data_points)
    registry.counter("ingest.splits_total").inc(stats.splits)
    registry.counter("ingest.joins_total").inc(stats.joins)
    registry.counter("ingest.chunks_total").inc(stats.chunks)
    registry.counter("ingest.revisions_total").inc(stats.revisions)
    registry.counter("ingest.out_of_order_points_total").inc(
        stats.out_of_order_points
    )
    for name, usage in stats.usage.items():
        registry.counter(
            "ingest.segments_total", model=name
        ).inc(usage.segments)
        registry.counter(
            "ingest.segment_bytes_total", model=name
        ).inc(usage.bytes)
    for name, attempts in stats.fits.items():
        registry.counter(
            "ingest.model_fits_total", model=name
        ).inc(attempts)


def group_tick_blocks(
    group: TimeSeriesGroup, chunk_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(timestamps, matrix)`` columnar chunks over the group grid.

    Each chunk holds up to ``chunk_size`` consecutive ticks as an int64
    timestamp vector and a ``(ticks, n_series)`` float64 matrix in group
    column order, with NaN wherever a series has no value (in-series
    gap, not yet started, or already ended). A series that has not
    started or has already ended is a gap exactly like an in-series one,
    since from the generator's point of view both mean "no value at this
    SI". Built with slice copies, one chunk at a time.
    """
    si = group.sampling_interval
    start = min(ts.start_time for ts in group)
    end = max(ts.end_time for ts in group)
    total = (end - start) // si + 1
    columns = [
        ((ts.start_time - start) // si, ts.values) for ts in group
    ]
    n_series = len(columns)
    for block_start in range(0, total, chunk_size):
        block_len = min(chunk_size, total - block_start)
        matrix = np.full((block_len, n_series), np.nan)
        for column, (first, values) in enumerate(columns):
            lo = max(block_start, first)
            hi = min(block_start + block_len, first + len(values))
            if lo < hi:
                matrix[lo - block_start:hi - block_start, column] = (
                    values[lo - first:hi - first]
                )
        timestamps = start + si * np.arange(
            block_start, block_start + block_len, dtype=np.int64
        )
        yield timestamps, matrix


class Ingestor:
    """Ingest groups into a storage backend with bulk writes."""

    def __init__(
        self,
        config: Configuration,
        registry: ModelRegistry,
        storage: Storage,
        on_flush: Callable[[], None] | None = None,
    ) -> None:
        self._config = config
        self._registry = registry
        self._storage = storage
        self._write_buffer: list[SegmentGroup] = []
        #: Invoked after every bulk write lands in the store — the hook
        #: query-side caches use to invalidate (segments just became
        #: visible, so cached results/decodes may now be stale).
        self._on_flush = on_flush

    def ingest_group(self, group: TimeSeriesGroup) -> IngestStats:
        """Ingest one group end-to-end and return its statistics."""
        stats = IngestStats()
        ingestor = GroupIngestor(
            group, self._config, self._registry, self._buffer_write, stats
        )
        for timestamps, matrix in group_tick_blocks(
            group, self._config.ingest_chunk_size
        ):
            ingestor.tick_block(timestamps, matrix)
            stats.chunks += 1
        ingestor.finish()
        self._flush()
        record_ingest_stats(stats)
        return stats

    def ingest(self, groups: Iterable[TimeSeriesGroup]) -> IngestStats:
        """Ingest many groups; returns merged statistics."""
        return IngestStats.merged(
            self.ingest_group(group) for group in groups
        )

    def _buffer_write(self, segment: SegmentGroup) -> None:
        self._write_buffer.append(segment)
        if len(self._write_buffer) >= self._config.bulk_write_size:
            self._flush()

    def _flush(self) -> None:
        if self._write_buffer:
            started = time.perf_counter()
            self._storage.insert_segments(self._write_buffer)
            get_registry().histogram("ingest.flush_seconds").record(
                time.perf_counter() - started
            )
            self._write_buffer.clear()
            if self._on_flush is not None:
                self._on_flush()
