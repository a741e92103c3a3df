"""Ingestion drivers: stream time series groups into a segment store.

An :class:`IngestSession` ingests a set of groups block by block, the
micro-batches of the paper's streaming receiver (Fig. 4) with the
bulk-write buffering of Table 1. Every write entry point runs on one:
:meth:`Ingestor.ingest` closes a session with every chunk of its groups,
and :class:`~repro.ingest.streaming.StreamingIngestor` advances its
session with each closed tick. The groups of a session advance in
lockstep (:func:`~repro.ingest.generator.fit_rounds`), so PMC-Mean and
Swing fit a window of every group in one kernel call. Each group
buffers its own segments, and its bulk writes land only after the last
round of the call that made them, in group order (group k's after group
k-1's). So a group that raises while fitting lands nothing of that
call, and a reader on another thread sees the segments of an
:meth:`Ingestor.ingest` call only when the call ends.
"""

from __future__ import annotations

import copy
import time
from itertools import chain, starmap
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from ..core.config import Configuration
from ..core.group import TimeSeriesGroup
from ..core.segment import SegmentGroup
from ..models.registry import ModelRegistry
from ..obs import get_registry
from ..storage.interface import Storage
from .generator import fit_rounds
from .splitter import GroupIngestor
from .stats import IngestStats


def record_ingest_stats(stats: IngestStats) -> None:
    """Fold :class:`IngestStats` into the metrics registry.

    Called once per session close or correction (not per tick) so the hot ingest loop
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


#: A ``(timestamps, matrix)`` block of consecutive ticks of one group.
Block = tuple[np.ndarray, np.ndarray]


def group_tick_blocks(group: TimeSeriesGroup, chunk_size: int) -> Iterator[Block]:
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


class IngestSession:
    """A set of groups ingested together, block by block.

    :meth:`advance` and :meth:`close` take new blocks per group and
    answer their fit requests by
    :func:`~repro.ingest.generator.fit_rounds` over all those groups at
    once, so PMC-Mean and Swing each fit one window of every group in a
    single kernel call. Each group keeps its own write buffer, cut into
    bulk writes of ``bulk_write_size`` segments; they land only after
    the last round, in group order, so a group that raises while fitting
    lands nothing of that call.
    """

    def __init__(
        self, ingestor: Ingestor, groups: Iterable[TimeSeriesGroup]
    ) -> None:
        self._write = ingestor._write
        self._bulk = ingestor._config.bulk_write_size
        #: Counted since the last :meth:`close`, kernel calls included.
        self._stats = IngestStats()
        #: Per group, its segments not yet landed. A group's sink is its
        #: list's own append, so nothing refers back to the session.
        self._segments: list[list[SegmentGroup]] = []
        self._ingestors: list[GroupIngestor] = []
        for group in groups:
            self._segments.append([])
            self._ingestors.append(GroupIngestor(
                group, ingestor._config, ingestor._registry,
                self._segments[-1].append, self._stats,
            ))

    def advance(self, blocks: Mapping[int, Iterable[Block]]) -> None:
        """Ingest ``{group index: blocks}``, then land those groups' full
        bulk writes, in group order."""
        self._run(blocks, end=False)

    def close(self, blocks: Mapping[int, Iterable[Block]]) -> IngestStats:
        """Ingest ``{group index: blocks}`` and end every group's
        segments, then land everything buffered, in group order. The
        session may go on afterwards.

        Returns the statistics since the last close, which are also
        folded into the metrics registry.
        """
        self._run({i: blocks.get(i, ()) for i in range(len(self._ingestors))}, end=True)
        stats = copy.copy(self._stats)
        # The groups' generators count into this object: reset in place.
        self._stats.__init__()
        record_ingest_stats(stats)
        return stats

    def _run(self, blocks: Mapping[int, Iterable[Block]], end: bool) -> None:
        """Answer the steps of each group's ``blocks`` (read lazily), then
        of its end (:meth:`GroupIngestor.finish_steps`) if ``end``, in
        rounds; then land its full bulk writes, or all if ``end``, in
        group order."""
        indices = sorted(blocks)
        streams = []
        for index in indices:
            ingestor = self._ingestors[index]
            steps = chain.from_iterable(starmap(ingestor.run, blocks[index]))
            streams.append(chain(steps, ingestor.finish_steps()) if end else steps)
        fit_rounds(streams, self._stats)
        bulk = self._bulk
        for index in indices:
            segments = self._segments[index]
            landing = len(segments) if end else len(segments) // bulk * bulk
            if landing:
                for first in range(0, landing, bulk):
                    self._write(segments[first:first + bulk])
                del segments[:landing]  # let go of what landed


class Ingestor:
    """Ingest groups into a storage backend with bulk writes."""

    def __init__(
        self,
        config: Configuration,
        registry: ModelRegistry,
        storage: Storage,
        on_flush: Callable[[], None] | None = None,
        before_writes: Callable[[], None] | None = None,
    ) -> None:
        self._config = config
        self._registry = registry
        self._storage = storage
        #: Invoked after every bulk write lands in the store — the hook
        #: query-side caches use to invalidate (segments just became
        #: visible, so cached results/decodes may now be stale).
        self._on_flush = on_flush
        #: Invoked once, just before the first bulk write lands (or as
        #: the call ends when none does): a new group's Time Series
        #: record, which a write needs, is stored only by a call that
        #: fitted every group.
        self._before_writes = before_writes

    def ingest(self, groups: Iterable[TimeSeriesGroup]) -> IngestStats:
        """Ingest many groups in lockstep; returns merged statistics.

        One :class:`IngestSession` over the groups, closed with every
        chunk of every group (read lazily).
        """
        groups = list(groups)
        chunk = self._config.ingest_chunk_size
        stats = IngestSession(self, groups).close({
            index: group_tick_blocks(group, chunk)
            for index, group in enumerate(groups)
        })
        self._prepare_writes()
        return stats

    def _prepare_writes(self) -> None:
        hook, self._before_writes = self._before_writes, None
        if hook is not None:
            hook()

    def _write(self, segments: list[SegmentGroup]) -> None:
        self._prepare_writes()
        started = time.perf_counter()
        self._storage.insert_segments(segments)
        get_registry().histogram("ingest.flush_seconds").record(
            time.perf_counter() - started
        )
        if self._on_flush is not None:
            self._on_flush()
