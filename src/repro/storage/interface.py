"""The uniform storage interface with predicate push-down (Fig. 4).

The engine is storage-agnostic: any backend implementing
:class:`Storage` can hold the three tables of Fig. 6. Predicate
push-down happens at :meth:`Storage.tables` and
:meth:`~repro.storage.scan.Table.clip`: the query processor hands down a
typed :class:`~repro.storage.scan.SegmentScan` request — Gids (after
Tid/member rewriting), the time interval, and the ``AS OF``
knowledge-time bound — so backends skip irrelevant partitions instead of
filtering in the engine, and every reader clips each partition's table
to the time interval in one vectorised call. Both shipped backends keep
one resident :class:`~repro.storage.scan.Partition` per Gid, so
:meth:`Storage.tables` is written once here; a backend supplies its Gids
and partitions. :meth:`Storage.scan` is a segment-at-a-time convenience
over the two for tests and tools.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Mapping

from ..core.errors import StorageError
from ..core.segment import SegmentGroup
from .scan import Partition, SegmentScan, Table
from .schema import TimeSeriesRecord


class Storage(ABC):
    """Abstract segment group store (Time Series + Model + Segment).

    Besides the three tables, every backend shares one lifecycle
    contract: :meth:`open` constructs an instance (path-backed or not),
    :meth:`flush` makes pending writes durable, :meth:`close` releases
    resources, and instances are context managers closing on scope exit.
    """

    # -- Lifecycle ---------------------------------------------------------
    @classmethod
    def open(cls, path: str | os.PathLike | None = None) -> "Storage":
        """Open a backend instance.

        Path-backed stores receive ``path`` as their location;
        memory-backed stores are opened without one.
        """
        return cls() if path is None else cls(path)

    # -- Time Series table -------------------------------------------------
    @abstractmethod
    def insert_time_series(self, records: Iterable[TimeSeriesRecord]) -> None:
        """Store (or replace) Time Series table rows."""

    @abstractmethod
    def time_series(self) -> list[TimeSeriesRecord]:
        """All Time Series table rows, ordered by Tid."""

    # -- Model table -------------------------------------------------------
    @abstractmethod
    def insert_model_table(self, models: Mapping[int, str]) -> None:
        """Store the Mid -> classpath mapping."""

    @abstractmethod
    def model_table(self) -> dict[int, str]:
        """The stored Mid -> classpath mapping."""

    # -- Segment table -----------------------------------------------------
    @abstractmethod
    def insert_segments(self, segments: Iterable[SegmentGroup]) -> None:
        """Append segment rows (bulk write).

        Revision segments (``revision > 0``) that are not yet stamped
        receive the store's next knowledge-time tick; already-stamped
        segments keep their stamp (see
        :func:`~repro.storage.scan.stamp_revisions`).
        """

    def scan(self, request: SegmentScan) -> Iterator[SegmentGroup]:
        """The segments matching a typed read request, in Gid then
        append order: each partition's :meth:`tables` entry clipped to
        the request's closed time interval. A convenience for tests and
        tools; the engine reads :meth:`tables`.
        """
        for table in self.tables(request):
            rows, _, _ = table.clip(request.start_time, request.end_time)
            yield from (table.segments[row] for row in rows.tolist())

    def tables(self, request: SegmentScan) -> Iterator[Table]:
        """Each requested partition's :class:`~repro.storage.scan.Table`
        of survivors in Gid order, before the time interval is applied.

        The read seam of every reader: latest-wins revision resolution
        is applied per partition (see
        :func:`~repro.storage.scan.resolve_visible`) unless
        ``request.all_revisions`` is set, and the reader applies the
        time interval with :meth:`~repro.storage.scan.Table.clip`. A
        table is the resident one (with its fold memo), or a transient
        one for an ``AS OF`` read of a revised partition.
        """
        for gid in request.partitions(self._gids()):
            partition = self._partition(gid)
            if partition is not None:
                yield partition.table(request)

    @abstractmethod
    def _gids(self) -> Iterable[int]:
        """The Gids an unrestricted request scans."""

    @abstractmethod
    def _partition(self, gid: int) -> Partition | None:
        """The resident table of ``gid``, current with the store (None:
        no rows)."""

    @abstractmethod
    def segment_count(self) -> int:
        """Total number of stored segments."""

    def knowledge_time(self) -> int:
        """The store's current knowledge-time counter.

        Advances one tick per segment flush; ``AS OF`` queries compare
        against the values stamped on revisions. Backends without
        revision support may keep the default of ``0``.
        """
        return 0

    @abstractmethod
    def size_bytes(self) -> int:
        """Bytes used by the Segment table (the storage experiments'
        measurement; metadata tables are negligible and excluded, as the
        paper's `du` of the data directory is dominated by segments)."""

    def flush(self) -> None:
        """Make pending writes durable; default is a no-op.

        Cluster workers call this before acknowledging a ``flush`` RPC so
        the master knows the worker's state would survive a crash."""

    def close(self) -> None:
        """Release resources; default is a no-op."""

    def __enter__(self) -> "Storage":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Deterministic hand-back of file handles/locks on scope exit —
        the server's shutdown path and the CLI rely on this so a stopped
        server can immediately reopen its directory."""
        self.close()

    # -- Shared helpers ----------------------------------------------------
    def group_metadata(self) -> dict[int, tuple[tuple[int, ...], int]]:
        """Gid -> (group tids in column order, sampling interval).

        Derived from the Time Series table; used to decode segment rows.
        """
        groups: dict[int, list[int]] = {}
        intervals: dict[int, int] = {}
        for record in self.time_series():
            groups.setdefault(record.gid, []).append(record.tid)
            existing = intervals.setdefault(record.gid, record.sampling_interval)
            if existing != record.sampling_interval:
                raise StorageError(
                    f"group {record.gid} mixes sampling intervals"
                )
        return {
            gid: (tuple(sorted(tids)), intervals[gid])
            for gid, tids in groups.items()
        }
