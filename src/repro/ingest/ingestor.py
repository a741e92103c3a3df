"""Ingestion drivers: stream time series groups into a segment store.

The :class:`Ingestor` replays already-collected time series through the
group ingestion pipeline in timestamp order, mimicking the streaming
receiver of the paper's architecture (Fig. 4) with the bulk-write
buffering of Table 1. It runs the groups of one :meth:`Ingestor.ingest`
call in lockstep, so PMC-Mean and Swing fit a window of every group in
one kernel call. Segments become visible as bulk writes land: each group
buffers its own, and its writes land when that group ends, in group
order (group k's after group k-1's), so during one call a group's
segments are visible only once it and every group before it have ended.
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
from .generator import FitRequest
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
    for name, calls in stats.kernel_calls.items():
        registry.counter(
            "ingest.kernel_calls_total", model=name
        ).inc(calls)
    for name, fits in stats.deferred_fits.items():
        registry.counter("ingest.deferred_fits_total", model=name).inc(fits)


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


class _Load:
    """One group's part of an :meth:`Ingestor.ingest` call: its fit
    requests, its statistics, and its bulk writes until it ends."""

    def __init__(
        self,
        group: TimeSeriesGroup,
        config: Configuration,
        registry: ModelRegistry,
    ) -> None:
        self.stats = IngestStats()
        self.done = False
        #: The group's segments, cut into bulk writes as they arrive.
        self.writes: list[list[SegmentGroup]] = [[]]
        self._bulk = config.bulk_write_size
        group_ingestor = GroupIngestor(
            group, config, registry, self._buffer, self.stats
        )
        self.steps = self._steps(
            group_ingestor, group_tick_blocks(group, config.ingest_chunk_size)
        )

    def _steps(
        self,
        group_ingestor: GroupIngestor,
        blocks: Iterator[tuple[np.ndarray, np.ndarray]],
    ) -> Iterator[FitRequest]:
        for timestamps, matrix in blocks:
            yield from group_ingestor.run(timestamps, matrix)
            self.stats.chunks += 1
        yield from group_ingestor.finish_steps()

    def _buffer(self, segment: SegmentGroup) -> None:
        if len(self.writes[-1]) >= self._bulk:
            self.writes.append([])
        self.writes[-1].append(segment)


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
        #: Invoked after every bulk write lands in the store — the hook
        #: query-side caches use to invalidate (segments just became
        #: visible, so cached results/decodes may now be stale).
        self._on_flush = on_flush

    def ingest_group(self, group: TimeSeriesGroup) -> IngestStats:
        """Ingest one group end-to-end and return its statistics."""
        return self.ingest([group])

    def ingest(self, groups: Iterable[TimeSeriesGroup]) -> IngestStats:
        """Ingest many groups in lockstep; returns merged statistics.

        Every group's cascade runs as fit requests
        (:meth:`GroupIngestor.run` over its chunks in order, then its
        end-of-stream flush). A round takes the next request of every
        group that has one and answers them with one
        :meth:`~repro.models.base.ModelFitter.extend_many` call per
        fitter class, so PMC-Mean and Swing each fit one window of every
        group in a single kernel call.
        """
        loads = [
            _Load(group, self._config, self._registry) for group in groups
        ]
        kernels = IngestStats()
        active = loads
        landed = 0
        while active:
            # Per fitter class: the fitters, their rows, the model names.
            batches: dict[type, tuple[list, list, set[str]]] = {}
            waiting = []
            for load in active:
                request = next(load.steps, None)
                if request is None:
                    load.done = True
                    continue
                waiting.append(load)
                name, fitter, rows = request
                batch = batches.get(type(fitter))
                if batch is None:
                    batch = batches[type(fitter)] = ([], [], set())
                batch[0].append(fitter)
                batch[1].append(rows)
                batch[2].add(name)
            active = waiting
            while landed < len(loads) and loads[landed].done:
                self._land(loads[landed])
                landed += 1
            for kind, (fitters, blocks, names) in batches.items():
                kind.extend_many(fitters, blocks)
                for name in names:
                    kernels.record_kernel_call(name)
        record_ingest_stats(kernels)
        return IngestStats.merged([*(load.stats for load in loads), kernels])

    def _land(self, load: _Load) -> None:
        """Write one ended group's segments and fold its statistics.

        The load lets go of the segments it wrote, which would otherwise
        live until the whole call returns.
        """
        writes, load.writes = load.writes, []
        for segments in writes:
            if segments:
                self._write(segments)
        record_ingest_stats(load.stats)

    def _write(self, segments: list[SegmentGroup]) -> None:
        started = time.perf_counter()
        self._storage.insert_segments(segments)
        get_registry().histogram("ingest.flush_seconds").record(
            time.perf_counter() - started
        )
        if self._on_flush is not None:
            self._on_flush()
