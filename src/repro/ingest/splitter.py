"""Dynamic splitting and joining of time series groups (Section 4.2).

External events (a turbine shutting down, a damaged sensor) can make the
series of a group temporarily uncorrelated, ruining compression. The
:class:`GroupIngestor` therefore watches the compression ratio of every
emitted segment and, when a segment falls below a configurable fraction
of the group's average ratio while unflushed data points remain, runs
Algorithm 3 to split the group into sub-groups whose buffered points are
pairwise within *twice* the error bound (two points outside the double
bound can never be approximated together). Series currently in a gap are
grouped together.

Split groups are rejoined by Algorithm 4: a sub-group becomes a join
candidate after emitting a number of segments, compares the reverse
buffered points of one representative series against the other
sub-groups, and merges when the overlap stays within the double bound.
The required segment count doubles after every failed attempt, since each
failure is further evidence the split is the right structure.

Deviations from the paper, both documented in DESIGN.md:

* when splitting, the pending (unflushed) window is *replayed* into the
  new sub-generators rather than handled by a retained SG0, which keeps
  sub-generators synchronised because this driver ticks them all from a
  single loop; and
* when joining, both sub-generators are flushed before the merged
  generator starts, instead of aligning their pending buffers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..core.config import Configuration
from ..core.group import TimeSeriesGroup
from ..models.registry import ModelRegistry
from .generator import SegmentGenerator, SegmentSink
from .stats import IngestStats

#: Segments a fresh split must emit before its first join attempt.
INITIAL_JOIN_THRESHOLD = 1


def within_double_bound(
    value_a: float, value_b: float, error_bound: float
) -> bool:
    """Whether two values could share one model under the error bound.

    True when the relative-error intervals of the two values overlap,
    i.e. some estimate is within the bound of both (the double-bound test
    of Algorithms 3 and 4).
    """
    percent = error_bound / 100.0
    lower_a = value_a - abs(value_a) * percent
    upper_a = value_a + abs(value_a) * percent
    lower_b = value_b - abs(value_b) * percent
    upper_b = value_b + abs(value_b) * percent
    return max(lower_a, lower_b) <= min(upper_a, upper_b)


class _BlockRow:
    """Mapping-like view of one columnar block row (Tid -> value).

    Stands in for the scalar path's per-tick dict inside the split/join
    window: ``get`` returns ``None`` where the row holds NaN (a gap),
    matching ``group_ticks`` semantics, without materializing a dict per
    tick on the block path.
    """

    __slots__ = ("_index", "_row")

    def __init__(self, index: dict[int, int], row: np.ndarray) -> None:
        self._index = index
        self._row = row

    def get(self, tid: int, default=None):
        column = self._index.get(tid)
        if column is None:
            return default
        value = float(self._row[column])
        return default if value != value else value

    def __getitem__(self, tid: int) -> float:
        value = self.get(tid)
        if value is None:
            raise KeyError(tid)
        return value


@dataclass
class _SubGroup:
    """One active sub-group and its join bookkeeping."""

    tids: tuple[int, ...]
    generator: SegmentGenerator
    emitted_since_split: int = 0
    join_threshold: int = INITIAL_JOIN_THRESHOLD
    is_split: bool = False
    split_pending: bool = field(default=False, repr=False)


class GroupIngestor:
    """Ingestion driver for one time series group with dynamic split/join."""

    def __init__(
        self,
        group: TimeSeriesGroup,
        config: Configuration,
        registry: ModelRegistry,
        sink: SegmentSink,
        stats: IngestStats | None = None,
    ) -> None:
        self.group = group
        self._config = config
        self._registry = registry
        self._sink = sink
        self.stats = stats if stats is not None else IngestStats()

        self._scalings = group.scalings()
        self._column_index = {tid: i for i, tid in enumerate(group.tids)}
        self._recent: deque[tuple[int, Mapping[int, float | None]]] = deque(
            maxlen=config.model_length_limit + 2
        )
        # Block-path tail of the window, kept as (timestamps, matrix,
        # first, end) slice references and only materialized into
        # ``_recent`` when a split/join decision actually reads it.
        self._recent_pending: list[tuple[np.ndarray, np.ndarray, int, int]] = []
        self._recent_pending_rows = 0
        self._ratio_sum = 0.0
        self._ratio_count = 0
        self._subgroups: list[_SubGroup] = [
            _SubGroup(group.tids, self._make_generator(group.tids))
        ]

    # ------------------------------------------------------------------
    @property
    def subgroup_tids(self) -> list[tuple[int, ...]]:
        """Current partition of the group (diagnostics and tests)."""
        return [subgroup.tids for subgroup in self._subgroups]

    def tick(self, timestamp: int, values: Mapping[int, float | None]) -> None:
        """Ingest one sampling interval's values for the whole group.

        ``values`` maps Tid to value (``None`` or absent inside a gap).
        The mapping is kept by reference for the split/join window, so
        callers must pass a fresh mapping per tick.
        """
        if self._recent_pending:
            self._sync_recent()
        self._recent.append((timestamp, values))
        for subgroup in self._subgroups:
            subgroup.generator.tick(timestamp, values)
        if self._config.splitting_enabled:
            self._maybe_split()
            if len(self._subgroups) > 1:
                self._maybe_join()

    def tick_block(self, timestamps: np.ndarray, matrix: np.ndarray) -> None:
        """Columnar ingestion of a ``(ticks, len(group.tids))`` block.

        While the group is unsplit (the overwhelmingly common state) the
        block flows straight into the sub-generator's windowed batch
        path, which calls back once per tick that emitted a segment —
        exactly where the scalar loop would run its split check. The
        callback records the window and runs the check; once a dynamic
        split is active the generator stops and the ingestor falls back
        to per-tick scalar processing — sub-generators then cover
        different column subsets and each tick can reshape the partition
        — counting the fallback in ``stats.fallback_ticks``. Emitted
        segments are bit-identical to ticking row by row.
        """
        n = len(timestamps)
        finite = np.isfinite(matrix)
        # Presence-run boundaries: segments close whenever the set of
        # present series changes (gap method 2, Fig. 5).
        if n > 1:
            boundaries = (
                np.flatnonzero((finite[1:] != finite[:-1]).any(axis=1)) + 1
            )
        else:
            boundaries = np.empty(0, dtype=np.intp)
        group_tids = self.group.tids
        # A 1-member group never splits (and a disabled splitter never
        # consumes ratios), so emissions need no check in those cases.
        check = self._config.splitting_enabled and len(group_tids) >= 2
        index = self._column_index
        offset = recorded = 0

        def on_emit(consumed: int) -> bool:
            """The scalar loop's split check; True if the group changed."""
            nonlocal recorded
            self._remember(timestamps, matrix, recorded, offset + consumed)
            recorded = offset + consumed
            self._maybe_split()
            if len(self._subgroups) > 1:
                self._maybe_join()
            return len(self._subgroups) != 1 or self._subgroups[0] is not subgroup

        while offset < n:
            subgroups = self._subgroups
            if len(subgroups) != 1 or subgroups[0].tids != group_tids:
                self.stats.fallback_ticks += 1
                self.tick(
                    int(timestamps[offset]),
                    _BlockRow(index, matrix[offset]),
                )
                offset += 1
                continue
            subgroup = subgroups[0]
            recorded = offset
            cursor = int(np.searchsorted(boundaries, offset, side="right"))
            consumed = subgroup.generator.tick_block(
                timestamps[offset:],
                matrix[offset:],
                finite[offset:],
                boundaries[cursor:] - offset,
                on_emit if check else None,
            )
            if check:
                self._remember(timestamps, matrix, recorded, offset + consumed)
            offset += consumed

    def _remember(
        self, timestamps: np.ndarray, matrix: np.ndarray, first: int, end: int
    ) -> None:
        """Queue block rows ``first..end-1`` for the split/join window.

        Only the deque's window survives, so keep a slice reference to
        the tail and materialize rows lazily (:meth:`_sync_recent`).
        """
        window = self._recent.maxlen or end
        first = max(first, end - window)
        if first >= end:
            return
        pending = self._recent_pending
        pending.append((timestamps, matrix, first, end))
        self._recent_pending_rows += end - first
        while (
            self._recent_pending_rows - (pending[0][3] - pending[0][2])
            >= window
        ):
            _, _, f0, e0 = pending.pop(0)
            self._recent_pending_rows -= e0 - f0

    def finish(self) -> None:
        """Flush every sub-group at end of stream."""
        for subgroup in self._subgroups:
            subgroup.generator.close()

    # ------------------------------------------------------------------
    # Splitting (Algorithm 3)
    # ------------------------------------------------------------------
    def _maybe_split(self) -> None:
        for subgroup in list(self._subgroups):
            if len(subgroup.tids) < 2:
                continue
            generator = subgroup.generator
            ratio = generator.last_emitted_ratio
            if ratio is None:
                continue
            generator.last_emitted_ratio = None
            self._ratio_sum += ratio
            self._ratio_count += 1
            average = self._ratio_sum / self._ratio_count
            threshold = average / self._config.dynamic_split_fraction
            if ratio < threshold and generator.buffered_length > 0:
                self._split(subgroup)

    def _split(self, subgroup: _SubGroup) -> None:
        window = self._pending_window(subgroup.generator)
        if not window:
            return
        partitions = self._partition_by_double_bound(subgroup.tids, window)
        if len(partitions) < 2:
            return

        subgroup.generator.abandon()
        self._subgroups.remove(subgroup)
        self.stats.splits += 1
        for tids in partitions:
            new = _SubGroup(
                tids, self._make_generator(tids), is_split=True
            )
            for timestamp, values in window:
                new.generator.tick(timestamp, values)
            self._subgroups.append(new)

    def _partition_by_double_bound(
        self,
        tids: tuple[int, ...],
        window: list[tuple[int, dict[int, float | None]]],
    ) -> list[tuple[int, ...]]:
        """Algorithm 3's grouping of buffered points.

        Greedily seeds a sub-group with the first remaining series and
        absorbs every series whose buffered values are all within the
        double error bound of the seed's. Series currently in a gap
        (no buffered values) are grouped together.
        """
        series_values: dict[int, list[float]] = {}
        for tid in tids:
            values = [
                values[tid] for _, values in window if values.get(tid) is not None
            ]
            series_values[tid] = values

        in_gap = tuple(tid for tid in tids if not series_values[tid])
        remaining = [tid for tid in tids if series_values[tid]]
        partitions: list[tuple[int, ...]] = []
        while remaining:
            seed = remaining.pop(0)
            members = [seed]
            for tid in list(remaining):
                if len(series_values[tid]) != len(series_values[seed]):
                    continue
                compatible = all(
                    within_double_bound(a, b, self._config.error_bound)
                    for a, b in zip(series_values[seed], series_values[tid])
                )
                if compatible:
                    members.append(tid)
                    remaining.remove(tid)
            partitions.append(tuple(members))
        if in_gap:
            partitions.append(in_gap)
        return partitions

    # ------------------------------------------------------------------
    # Joining (Algorithm 4)
    # ------------------------------------------------------------------
    def _maybe_join(self) -> None:
        candidates = [
            subgroup
            for subgroup in self._subgroups
            if subgroup.is_split
            and subgroup.emitted_since_split >= subgroup.join_threshold
        ]
        for candidate in candidates:
            if candidate not in self._subgroups:
                continue  # already merged into another candidate
            partner = self._find_join_partner(candidate)
            if partner is None:
                # Failed attempt: double the threshold (Algorithm 4).
                candidate.join_threshold *= 2
                candidate.emitted_since_split = 0
                continue
            self._join(candidate, partner)

    def _find_join_partner(self, candidate: _SubGroup) -> _SubGroup | None:
        representative = candidate.tids[0]
        for other in self._subgroups:
            if other is candidate:
                continue
            other_representative = other.tids[0]
            overlap = self._reverse_overlap(representative, other_representative)
            if overlap is None:
                continue
            shortest, within = overlap
            if shortest > 0 and within:
                return other
        return None

    def _reverse_overlap(
        self, tid_a: int, tid_b: int
    ) -> tuple[int, bool] | None:
        """Compare the most recent buffered points of two series.

        Returns (overlap length, all-within-double-bound) over the shared
        suffix of the recent window where both series have values.
        """
        if self._recent_pending:
            self._sync_recent()
        pairs = []
        for _, values in reversed(self._recent):
            value_a = values.get(tid_a)
            value_b = values.get(tid_b)
            if value_a is None or value_b is None:
                break
            pairs.append((value_a, value_b))
        if not pairs:
            return None
        within = all(
            within_double_bound(a, b, self._config.error_bound)
            for a, b in pairs
        )
        return len(pairs), within

    def _join(self, first: _SubGroup, second: _SubGroup) -> None:
        first.generator.close()
        second.generator.close()
        self._subgroups.remove(first)
        self._subgroups.remove(second)
        merged_tids = tuple(sorted(first.tids + second.tids))
        merged = _SubGroup(
            merged_tids,
            self._make_generator(merged_tids),
            is_split=merged_tids != self.group.tids,
        )
        self._subgroups.append(merged)
        self.stats.joins += 1

    # ------------------------------------------------------------------
    def _pending_window(
        self, generator: SegmentGenerator
    ) -> list[tuple[int, dict[int, float | None]]]:
        start = generator.buffer_start_time
        if start is None:
            return []
        if self._recent_pending:
            self._sync_recent()
        return [
            (timestamp, values)
            for timestamp, values in self._recent
            if timestamp >= start
        ]

    def _sync_recent(self) -> None:
        """Materialize pending block-path rows into the recent window."""
        index = self._column_index
        append = self._recent.append
        for timestamps, matrix, first, end in self._recent_pending:
            for j, timestamp in enumerate(timestamps[first:end].tolist()):
                append((timestamp, _BlockRow(index, matrix[first + j])))
        self._recent_pending.clear()
        self._recent_pending_rows = 0

    def _make_generator(self, tids: tuple[int, ...]) -> SegmentGenerator:
        return SegmentGenerator(
            gid=self.group.gid,
            group_tids=self.group.tids,
            subset_tids=tids,
            sampling_interval=self.group.sampling_interval,
            config=self._config,
            registry=self._registry,
            sink=self._emit,
            scalings=self._scalings,
            stats=self.stats,
        )

    def _emit(self, segment) -> None:
        self._sink(segment)
        # Attribute the emission to the owning sub-group for join pacing.
        represented = frozenset(segment.group_tids) - segment.gaps
        for subgroup in self._subgroups:
            if represented <= set(subgroup.tids):
                subgroup.emitted_since_split += 1
                break
