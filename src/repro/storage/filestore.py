"""Persistent log-structured segment store (the Cassandra substitute).

Reproduces the storage properties the paper relies on:

* segments are partitioned by Gid — one append-only log per group — so a
  Gid predicate prunes whole partitions (the primary-key layout
  ``(Gid, EndTime, Gaps)`` of Section 3.3);
* rows carry the paper's 24-byte header with StartTime stored as the
  segment size (see :mod:`repro.storage.serialization`);
* metadata (Time Series and Model tables) lives in a small JSON sidecar,
  loaded into the in-memory metadata cache on open and written when a
  registration changes it and on ``flush()``/``close()`` — never per
  segment insert, so a bulk write costs only its appends.

Within a partition, segments are appended in ingestion order, which for
streaming ingestion means non-decreasing end time.

Reads go through one resident :class:`~repro.storage.scan.Partition`
table per Gid, built by the first scan that touches the partition.
Segments are immutable and partition files append-only, so a stored row
is decoded at most once per handle: a scan validates the table against
the file with one ``stat`` — a grown file (this handle's own writes
extend the table directly; a second handle or process appending shows
up here) has only its tail decoded, a shrunk one is decoded afresh —
and time-interval predicates are a vectorised mask over the table.

Durability: segment rows are durable when ``insert_segments`` returns
(each partition append is write-through). The sidecar's per-Gid counts
and knowledge counter are not rewritten per insert, so between flushes
they trail the files — the normal state, not a fault. The store is
crash-safe to re-open: on open, per-partition counts are re-derived
from the files, a torn trailing row (a process killed mid-append) is
truncated away, and the knowledge counter is moved past every tick the
dead handle could have handed out, so a replacement worker (or the
master inspecting a dead worker's directory) sees a consistent prefix
of the ingested segments and never re-issues an observed tick.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
from pathlib import Path
from typing import Iterable, Mapping

from ..core.errors import StorageError
from ..core.segment import REVISION_EXTENSION_BYTES, SegmentGroup
from ..obs import get_registry
from .interface import Storage
from .scan import Partition, stamp_revisions
from .schema import TimeSeriesRecord
from .serialization import HEADER_BYTES, decode_segment, encode_segment

_METADATA_FILE = "metadata.json"
_PARTITION_PREFIX = "segments_gid_"
_PARTITION_SUFFIX = ".bin"

#: Offsets of the 1-byte Flags and 2-byte ParamLen fields inside the
#: 24-byte row header (Gid 4 + EndTime 8 + Size 4 + Mid 1;
#: see serialization.py). Flags bit 0 marks rows carrying the 12-byte
#: revision extension between header and parameters.
_FLAGS_OFFSET = 17
_PARAM_LEN_OFFSET = 18
_PARAM_LEN = struct.Struct("<H")
_KNOWLEDGE = struct.Struct("<Q")


def _valid_prefix(data: bytes) -> tuple[int, int, int]:
    """(row count, byte length, max knowledge) of the valid row prefix.

    Walks row headers only — a torn trailing row (crash mid-append) is
    excluded from both counts so it can be truncated away on re-open.
    The highest knowledge stamp seen lets recovery restore the store's
    knowledge counter when the metadata sidecar is stale.
    """
    offset = 0
    count = 0
    knowledge = 0
    while offset + HEADER_BYTES <= len(data):
        flags = data[offset + _FLAGS_OFFSET]
        (param_len,) = _PARAM_LEN.unpack_from(data, offset + _PARAM_LEN_OFFSET)
        row_bytes = HEADER_BYTES + param_len
        if flags & 0x01:
            row_bytes += REVISION_EXTENSION_BYTES
        end = offset + row_bytes
        if end > len(data):
            break
        if flags & 0x01:
            (stamp,) = _KNOWLEDGE.unpack_from(data, offset + HEADER_BYTES + 4)
            knowledge = max(knowledge, stamp)
        offset = end
        count += 1
    return count, offset, knowledge


class FileStorage(Storage):
    """Durable segment store rooted at a directory."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self._root = Path(directory)
        self._root.mkdir(parents=True, exist_ok=True)
        self._closed = False
        self._time_series: dict[int, TimeSeriesRecord] = {}
        self._models: dict[int, str] = {}
        self._groups: dict[int, tuple[tuple[int, ...], int]] = {}
        self._counts: dict[int, int] = {}
        self._knowledge = 0
        #: Resident tables by Gid. The lock serialises everything that
        #: moves a table or the file under it (appends, tail loads), so
        #: a table always equals a prefix of its file; scans of a table
        #: that is current take no lock.
        self._tables: dict[int, Partition] = {}
        self._tables_lock = threading.Lock()
        #: Each partition file's path, made once: a scan ``stat``s it.
        self._paths: dict[int, str] = {}
        self._load_metadata()
        self._recover_partitions()

    # ------------------------------------------------------------------
    # Metadata tables
    # ------------------------------------------------------------------
    def insert_time_series(self, records: Iterable[TimeSeriesRecord]) -> None:
        self._ensure_open()
        incoming = {record.tid: record for record in records}
        # Re-registering what is stored (every ingest() does) is free.
        if all(
            self._time_series.get(tid) == record
            for tid, record in incoming.items()
        ):
            return
        self._time_series.update(incoming)
        self._rebuild_group_cache()
        self._save_metadata()

    def time_series(self) -> list[TimeSeriesRecord]:
        return [self._time_series[tid] for tid in sorted(self._time_series)]

    def insert_model_table(self, models: Mapping[int, str]) -> None:
        self._ensure_open()
        if all(self._models.get(mid) == name for mid, name in models.items()):
            return
        self._models.update(models)
        self._save_metadata()

    def model_table(self) -> dict[int, str]:
        return dict(self._models)

    # ------------------------------------------------------------------
    # Segment table
    # ------------------------------------------------------------------
    def insert_segments(self, segments: Iterable[SegmentGroup]) -> None:
        self._ensure_open()
        started = time.perf_counter()
        stamped, knowledge = stamp_revisions(list(segments), self._knowledge)
        by_gid: dict[int, list[SegmentGroup]] = {}
        for segment in stamped:
            if segment.gid not in self._groups:
                raise StorageError(
                    f"segment references unknown group {segment.gid}; insert "
                    "the Time Series table rows first"
                )
            by_gid.setdefault(segment.gid, []).append(segment)
        # Only an insert that appends rows moves the counter: recovery
        # bounds the ticks handed out by the rows it finds.
        self._knowledge = knowledge
        encoded = {
            gid: b"".join(map(encode_segment, rows))
            for gid, rows in by_gid.items()
        }
        for gid, data in encoded.items():
            with open(self._partition_path(gid), "ab") as handle:
                handle.write(data)
                handle.flush()
                end = handle.tell()
            self._extend_resident(gid, by_gid[gid], end - len(data), end)
            self._counts[gid] = self._counts.get(gid, 0) + len(by_gid[gid])
        registry = get_registry()
        registry.counter("storage.segments_written_total").inc(len(stamped))
        registry.counter("storage.bytes_written_total").inc(
            sum(map(len, encoded.values()))
        )
        registry.histogram("storage.write_seconds").record(
            time.perf_counter() - started
        )

    def segment_count(self) -> int:
        return sum(self._counts.values())

    def knowledge_time(self) -> int:
        return self._knowledge

    def size_bytes(self) -> int:
        total = 0
        for path in self._root.glob(f"{_PARTITION_PREFIX}*{_PARTITION_SUFFIX}"):
            total += path.stat().st_size
        return total

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write the metadata sidecar: per-Gid counts and the knowledge
        counter as of now.

        Segment rows need no flush — every append is write-through, so
        they are durable once ``insert_segments`` returns. Between
        flushes the sidecar's counts and counter trail the files; an
        open after a kill re-derives both (see ``_recover_partitions``),
        and a flush only makes that open find nothing to re-derive.
        """
        self._ensure_open()
        self._save_metadata()

    def close(self) -> None:
        """Flush and mark the store closed; further writes raise."""
        if self._closed:
            return
        self._save_metadata()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise StorageError(f"storage at {self._root} is closed")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _gids(self) -> Iterable[int]:
        return self._groups

    def _partition(self, gid: int) -> Partition | None:
        """The partition's table, current with its file (None: no rows).

        A table that matches the file's size is returned as is. Anything
        else is decoded outside the lock and published under it only if
        neither the table nor the group metadata moved meanwhile; a
        loader that lost that race looks again.
        """
        path = self._paths.get(gid)
        if path is None:
            path = self._paths[gid] = str(self._partition_path(gid))
        while True:
            metadata = self._groups.get(gid)
            if metadata is None:
                return None
            try:
                size = os.stat(path).st_size
            except FileNotFoundError:
                return None
            known = self._tables.get(gid)
            if known is not None and known.offset == size:
                return known
            # First touch, or the file shrank under the table (a re-open
            # truncated a torn tail): decode from the start.
            table = (
                known
                if known is not None and known.offset < size
                else Partition()
            )
            start = table.offset
            started = time.perf_counter()
            with open(path, "rb") as handle:
                handle.seek(start)
                data = handle.read()
            # A row still being appended is not there yet: decode what
            # re-open recovery would keep.
            _, valid_bytes, _ = _valid_prefix(data)
            group_tids, sampling_interval = metadata
            rows: list[SegmentGroup] = []
            offset = 0
            while offset < valid_bytes:
                segment, offset = decode_segment(
                    data, offset, sampling_interval, group_tids
                )
                rows.append(segment)
            with self._tables_lock:
                published = (
                    self._tables.get(gid) is known
                    and table.offset == start
                    and self._groups.get(gid) is metadata
                )
                if published:
                    table.extend(rows)
                    table.offset = start + valid_bytes
                    self._tables[gid] = table
            if published:
                registry = get_registry()
                registry.counter("storage.bytes_read_total").inc(valid_bytes)
                registry.counter("storage.segments_read_total").inc(len(rows))
                registry.histogram("storage.read_seconds").record(
                    time.perf_counter() - started
                )
                return table

    def _extend_resident(
        self, gid: int, rows: list[SegmentGroup], start: int, end: int
    ) -> None:
        """Carry rows just appended at ``[start, end)`` into a resident
        table; a partition nobody has read stays unread.

        The written objects stand in for their decoded rows only when
        they directly follow what the table holds (no other handle
        appended in between, no scan loaded them already) and carry the
        stored group metadata, which is all a decode would add;
        otherwise the next scan's tail load decodes them from the file.
        """
        group_tids, sampling_interval = self._groups[gid]
        if not all(
            row.group_tids == group_tids
            and row.sampling_interval == sampling_interval
            for row in rows
        ):
            return
        with self._tables_lock:
            table = self._tables.get(gid)
            if table is not None and table.offset == start:
                table.extend(rows)
                table.offset = end

    def _partition_path(self, gid: int) -> Path:
        return self._root / f"{_PARTITION_PREFIX}{gid}{_PARTITION_SUFFIX}"

    def _rebuild_group_cache(self) -> None:
        previous, self._groups = self._groups, self.group_metadata()
        # Rows are decoded with their group's metadata: a table whose
        # group changed is dropped and rebuilt by the next scan.
        with self._tables_lock:
            for gid in list(self._tables):
                if self._groups.get(gid) != previous.get(gid):
                    del self._tables[gid]

    def _metadata_path(self) -> Path:
        return self._root / _METADATA_FILE

    def _save_metadata(self) -> None:
        payload = {
            "time_series": [
                {
                    "tid": record.tid,
                    "si": record.sampling_interval,
                    "gid": record.gid,
                    "scaling": record.scaling,
                    "name": record.name,
                    "dimensions": record.dimensions,
                }
                for record in self.time_series()
            ],
            "models": {str(mid): name for mid, name in self._models.items()},
            "counts": {str(gid): count for gid, count in self._counts.items()},
            "knowledge": self._knowledge,
        }
        self._metadata_path().write_text(json.dumps(payload))

    def _load_metadata(self) -> None:
        path = self._metadata_path()
        if not path.exists():
            return
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise StorageError(f"corrupt metadata file: {exc}") from exc
        for row in payload.get("time_series", []):
            record = TimeSeriesRecord(
                tid=row["tid"],
                sampling_interval=row["si"],
                gid=row["gid"],
                scaling=row.get("scaling", 1.0),
                name=row.get("name", ""),
                dimensions=row.get("dimensions", {}),
            )
            self._time_series[record.tid] = record
        self._models = {
            int(mid): name for mid, name in payload.get("models", {}).items()
        }
        self._counts = {
            int(gid): count for gid, count in payload.get("counts", {}).items()
        }
        self._knowledge = int(payload.get("knowledge", 0))
        self._rebuild_group_cache()

    def _recover_partitions(self) -> None:
        """Reconcile the sidecar with the partition files.

        The sidecar is written on registration, ``flush()`` and
        ``close()``, not per insert, so after a kill its counts and
        knowledge counter trail the files; a process killed mid-append
        also leaves a torn trailing row. Recount every partition from
        its file, truncate torn tails so scans never hit a truncated
        row, and move the counter past every tick the dead handle could
        have handed out.
        """
        recovered: dict[int, int] = {}
        dirty = False
        max_knowledge = 0
        for path in sorted(
            self._root.glob(f"{_PARTITION_PREFIX}*{_PARTITION_SUFFIX}")
        ):
            stem = path.name[len(_PARTITION_PREFIX):-len(_PARTITION_SUFFIX)]
            try:
                gid = int(stem)
            except ValueError:
                continue
            data = path.read_bytes()
            count, valid_bytes, knowledge = _valid_prefix(data)
            max_knowledge = max(max_knowledge, knowledge)
            if valid_bytes < len(data):
                with open(path, "r+b") as handle:
                    handle.truncate(valid_bytes)
                dirty = True
            if count:
                recovered[gid] = count
        unsaved = sum(
            max(0, count - self._counts.get(gid, 0))
            for gid, count in recovered.items()
        )
        if recovered != self._counts:
            dirty = True
        self._counts = recovered
        # Each insert since the last save appended at least one row and
        # moved the counter at most one tick past the larger of the
        # counter and the stamps it carried, so this is never below a
        # tick already handed out; overshooting only skips ticks, which
        # no AS OF answer can observe. After a clean close it is exact.
        knowledge = max(self._knowledge, max_knowledge) + unsaved
        if knowledge != self._knowledge:
            self._knowledge = knowledge
            dirty = True
        if dirty:
            self._save_metadata()
