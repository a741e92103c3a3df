"""In-memory segment store.

Used by tests, as the main-memory segment cache tier of the architecture
(Fig. 4), and wherever persistence is not needed. Sizes are accounted with
the same binary codec as the file store so storage experiments can run
against either backend.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

from ..core.segment import SegmentGroup
from ..obs import get_registry
from .interface import Storage
from .scan import Partition, stamp_revisions
from .schema import TimeSeriesRecord
from .serialization import encoded_size


class MemoryStorage(Storage):
    """Segment store keeping everything in process memory."""

    def __init__(self) -> None:
        self._time_series: dict[int, TimeSeriesRecord] = {}
        self._models: dict[int, str] = {}
        self._partitions: dict[int, Partition] = {}
        self._lock = threading.Lock()
        self._bytes = 0
        self._count = 0
        self._knowledge = 0
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        self._closed = True

    def insert_time_series(self, records: Iterable[TimeSeriesRecord]) -> None:
        for record in records:
            self._time_series[record.tid] = record

    def time_series(self) -> list[TimeSeriesRecord]:
        return [self._time_series[tid] for tid in sorted(self._time_series)]

    def insert_model_table(self, models: Mapping[int, str]) -> None:
        self._models.update(models)

    def model_table(self) -> dict[int, str]:
        return dict(self._models)

    def insert_segments(self, segments: Iterable[SegmentGroup]) -> None:
        with self._lock:
            stamped, self._knowledge = stamp_revisions(
                list(segments), self._knowledge
            )
            by_gid: dict[int, list[SegmentGroup]] = {}
            for segment in stamped:
                by_gid.setdefault(segment.gid, []).append(segment)
            for gid, rows in by_gid.items():
                self._partitions.setdefault(gid, Partition()).extend(rows)
            written_bytes = sum(map(encoded_size, stamped))
            self._bytes += written_bytes
            self._count += len(stamped)
        registry = get_registry()
        registry.counter("storage.segments_written_total").inc(len(stamped))
        registry.counter("storage.bytes_written_total").inc(written_bytes)

    def _gids(self) -> Iterable[int]:
        return self._partitions

    def _partition(self, gid: int) -> Partition | None:
        return self._partitions.get(gid)

    def segment_count(self) -> int:
        return self._count

    def size_bytes(self) -> int:
        return self._bytes

    def knowledge_time(self) -> int:
        return self._knowledge
