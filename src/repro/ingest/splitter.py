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

The group ingestor takes blocks, and passes its sub-generators' fit
requests up to its caller (:meth:`GroupIngestor.run`). The checks change
state only at a tick where some sub-generator emitted, and between two
such ticks the sub-generators are independent, so each runs a whole
block on its columns until it pauses before a flush; the checks run at
the earliest pause (see :meth:`GroupIngestor.run`). The result is the
per-tick loop's, which is the test oracle (``tests/write_oracle.py``).

Deviations from the paper, both documented in DESIGN.md:

* when splitting, the pending (unflushed) window is *replayed* into the
  new sub-generators, one block each, rather than handled by a retained
  SG0, so every sub-generator starts at the split tick; and
* when joining, both sub-generators are flushed before the merged
  generator starts, instead of aligning their pending buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..core.config import Configuration
from ..core.group import TimeSeriesGroup
from ..models.registry import ModelRegistry
from .generator import (
    FitRequest,
    SegmentGenerator,
    SegmentSink,
    answer,
    until_pause,
)
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


@dataclass(eq=False)
class _SubGroup:
    """One active sub-group, its join bookkeeping and its block cursor."""

    tids: tuple[int, ...]
    generator: SegmentGenerator
    emitted_since_split: int = 0
    join_threshold: int = INITIAL_JOIN_THRESHOLD
    is_split: bool = False
    #: Rows ``[0, fed)`` of the current block went to ``run``; None for
    #: a sub-group made by the current check (fed from its next row).
    fed: int | None = field(default=None, repr=False)
    run: Iterator[int | FitRequest] | None = field(default=None, repr=False)
    #: The row ``run`` paused at, if it is paused.
    stop: int | None = field(default=None, repr=False)


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
        # A 1-member group never splits (and a disabled splitter never
        # consumes ratios), so emissions need no check in those cases.
        self._checking = config.splitting_enabled and len(group.tids) >= 2
        #: The split/join window: ``(timestamps, matrix, first, end)``
        #: block slices holding at most the last ``_window_rows`` rows.
        self._recent: list[tuple[np.ndarray, np.ndarray, int, int]] = []
        self._recent_rows = 0
        self._window_rows = config.model_length_limit + 2
        #: The block row where a check is due although nothing may emit
        #: there (a split's replay left a ratio to consume), if any.
        self._due: int | None = None
        #: The timestamp of the tick the checks are running at.
        self._now = 0
        self._ratio_sum = 0.0
        self._ratio_count = 0
        self._subgroups: list[_SubGroup] = [
            _SubGroup(group.tids, self._make_generator(group.tids))
        ]

    # ------------------------------------------------------------------
    def tick_block(self, timestamps: np.ndarray, matrix: np.ndarray) -> None:
        """Ingest a ``(ticks, len(group.tids))`` block; NaN or +-inf is a gap."""
        answer(self.run(timestamps, matrix))

    def run(
        self, timestamps: np.ndarray, matrix: np.ndarray
    ) -> Iterator[FitRequest]:
        """:meth:`tick_block` as the fit requests of its sub-generators
        (:meth:`SegmentGenerator.run`), for the caller to answer.

        The split and join checks change state only at a tick where a
        sub-generator emitted, and between two such ticks the
        sub-generators are independent. So every sub-generator runs on
        its column subset of the block to its first pause, just before
        a flush (:meth:`SegmentGenerator.run`); let E be the earliest
        pause. The generators paused at E finish tick E, the checks run
        at E, and the round repeats. A generator paused beyond E has
        flushed nothing past E: if a join at E closes it, it is first
        rewound to E. Segments and stats are those of the per-tick loop.
        A split's replay and a join's rewind and close answer their own
        fit requests.
        """
        if not self._checking:  # one generator, nothing to pause for
            for step in self._subgroups[0].generator.run(timestamps, matrix):
                if type(step) is tuple:
                    yield step
            return
        n = len(timestamps)
        for subgroup in self._subgroups:
            subgroup.fed, subgroup.run, subgroup.stop = 0, None, None
        recorded = 0
        while True:
            # Rows past a due check wait for it.
            limit = n if self._due is None else min(n, self._due + 1)
            for subgroup in self._subgroups:
                while subgroup.stop is None:
                    if subgroup.run is None:
                        if subgroup.fed >= limit:
                            break
                        self._feed(subgroup, timestamps, matrix, limit)
                    subgroup.stop = yield from until_pause(subgroup.run)
                    if subgroup.stop is None:
                        subgroup.run = None
            stops = [s.stop for s in self._subgroups if s.stop is not None]
            if self._due is not None and self._due < n:
                stops.append(self._due)
            if not stops:
                break
            row = min(stops)
            for subgroup in self._subgroups:
                if subgroup.stop == row:
                    yield from until_pause(subgroup.run)  # tick ``row``'s flushes
                    subgroup.stop = None
            self._remember(timestamps, matrix, recorded, row + 1)
            recorded = row + 1
            self._check(int(timestamps[row]))
            # A split's replay that emitted leaves a ratio the per-tick
            # loop consumes on the next tick.
            self._due = row + 1 if any(
                len(s.tids) >= 2 and s.generator.last_emitted_ratio is not None
                for s in self._subgroups
            ) else None
            for subgroup in self._subgroups:
                if subgroup.fed is None:
                    subgroup.fed = row + 1
        self._remember(timestamps, matrix, recorded, n)
        if self._due is not None:
            self._due -= n

    def _feed(
        self,
        subgroup: _SubGroup,
        timestamps: np.ndarray,
        matrix: np.ndarray,
        end: int,
    ) -> None:
        """Start ``subgroup``'s run on its columns of rows ``fed..end-1``."""
        first = subgroup.fed
        block = matrix[first:end]
        if len(subgroup.tids) != block.shape[1]:
            block = block[:, [self._column_index[tid] for tid in subgroup.tids]]
        subgroup.run = subgroup.generator.run(timestamps[first:end], block, first)
        subgroup.fed = end

    def _check(self, timestamp: int) -> None:
        """The split and join checks the per-tick loop runs after a tick."""
        self._now = timestamp
        self._maybe_split()
        if len(self._subgroups) > 1:
            self._maybe_join()

    def _remember(
        self, timestamps: np.ndarray, matrix: np.ndarray, first: int, end: int
    ) -> None:
        """Append block rows ``first..end-1`` to the split/join window,
        keeping slice references and only the last ``_window_rows``."""
        first = max(first, end - self._window_rows)
        if first >= end:
            return
        recent = self._recent
        recent.append((timestamps, matrix, first, end))
        self._recent_rows += end - first
        while self._recent_rows - (recent[0][3] - recent[0][2]) >= self._window_rows:
            _, _, f0, e0 = recent.pop(0)
            self._recent_rows -= e0 - f0

    def _window(self) -> tuple[np.ndarray, np.ndarray]:
        """The split/join window as ``(timestamps, matrix)``, oldest first."""
        timestamps = np.concatenate([t[f:e] for t, _, f, e in self._recent])
        matrix = np.concatenate([m[f:e] for _, m, f, e in self._recent])
        return timestamps[-self._window_rows:], matrix[-self._window_rows:]

    def finish(self) -> None:
        """Flush every sub-group at end of stream."""
        answer(self.finish_steps())

    def finish_steps(self) -> Iterator[FitRequest]:
        """:meth:`finish` as fit requests (see :meth:`run`)."""
        for subgroup in self._subgroups:
            yield from subgroup.generator.close_steps()

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
        timestamps, window = self._pending_window(subgroup.generator)
        if not len(timestamps):
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
            columns = [self._column_index[tid] for tid in tids]
            new.generator.tick_block(timestamps, window[:, columns])
            self._subgroups.append(new)

    def _partition_by_double_bound(
        self,
        tids: tuple[int, ...],
        window: np.ndarray,
    ) -> list[tuple[int, ...]]:
        """Algorithm 3's grouping of buffered points.

        ``window`` holds the buffered rows in group column order.
        Greedily seeds a sub-group with the first remaining series and
        absorbs every series whose buffered values are all within the
        double error bound of the seed's. Series currently in a gap
        (no buffered values) are grouped together.
        """
        series_values: dict[int, list[float]] = {}
        for tid in tids:
            column = window[:, self._column_index[tid]]
            series_values[tid] = column[np.isfinite(column)].tolist()

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
        _, window = self._window()
        pairs = window[:, [self._column_index[tid_a], self._column_index[tid_b]]]
        gaps = np.flatnonzero(~np.isfinite(pairs).all(axis=1))
        if len(gaps):
            pairs = pairs[gaps[-1] + 1:]
        if not len(pairs):
            return None
        within = all(
            within_double_bound(a, b, self._config.error_bound)
            for a, b in pairs.tolist()
        )
        return len(pairs), within

    def _join(self, first: _SubGroup, second: _SubGroup) -> None:
        # Either may have paused beyond this tick: rewind it first.
        for subgroup in (first, second):
            subgroup.generator.rewind(self._now)
            subgroup.generator.close()
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
    ) -> tuple[np.ndarray, np.ndarray]:
        """The window rows from the generator's buffer start on."""
        timestamps, window = self._window()
        start = generator.buffer_start_time
        first = len(timestamps) if start is None else int(
            np.searchsorted(timestamps, start)
        )
        return timestamps[first:], window[first:]

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
