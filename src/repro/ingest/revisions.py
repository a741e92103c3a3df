"""The correction path: late and corrected data as segment revisions.

In-order ingestion produces base-generation segments (``revision == 0``).
When data points arrive *after* their group window was already flushed —
a late sensor reading, or an operator correcting a bad value — the
affected window is re-fitted and superseding segments are emitted with a
strictly higher revision, keyed ``(gid, end_time, revision)``. The store
stamps each revision with its knowledge-time counter at flush, so
``AS OF`` queries can reproduce what was known before the correction
while default reads resolve latest-wins (see
:func:`repro.storage.scan.resolve_visible`).

Re-fitting reconstructs the affected window from the *visible* segments
(decoded model values — already scaled and float32-quantized), overlays
the correction values, and replays the whole group through a fresh
:class:`~repro.ingest.generator.SegmentGenerator`. The affected set is
closed under overlap: a dynamic split can leave two same-gid segments
covering complementary member series over overlapping time ranges, so the
window grows to the hull of every overlapping visible segment until a
fixpoint is reached — a revision never half-shadows a base segment.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..core.config import Configuration
from ..core.errors import IngestionError
from ..core.segment import SegmentGroup
from ..models.registry import ModelRegistry
from ..storage.interface import Storage
from ..storage.scan import SegmentScan
from .generator import SegmentGenerator
from .ingestor import record_ingest_stats
from .stats import IngestStats

#: One correction: (tid, grid timestamp, new raw value). ``None`` as the
#: value erases the point (the series enters a gap at that timestamp).
CorrectionPoint = tuple[int, int, float | None]


def apply_corrections(
    storage: Storage,
    config: Configuration,
    registry: ModelRegistry,
    points: Iterable[CorrectionPoint],
    stats: IngestStats | None = None,
) -> IngestStats:
    """Apply correction points, emitting superseding segment revisions.

    ``points`` may span several groups; each affected group window is
    re-fitted independently. Returns the accumulated statistics
    (``revisions`` and ``out_of_order_points`` included), which are also
    folded into the metrics registry.
    """
    stats = stats if stats is not None else IngestStats()
    groups = storage.group_metadata()
    tid_to_gid = {
        tid: gid for gid, (tids, _) in groups.items() for tid in tids
    }
    scalings = {
        record.tid: record.scaling for record in storage.time_series()
    }
    by_gid: dict[int, list[CorrectionPoint]] = {}
    for tid, timestamp, value in points:
        gid = tid_to_gid.get(tid)
        if gid is None:
            raise IngestionError(f"correction references unknown tid {tid}")
        by_gid.setdefault(gid, []).append((tid, timestamp, value))
    revisions: list[SegmentGroup] = []
    for gid in sorted(by_gid):
        group_tids, sampling_interval = groups[gid]
        revisions.extend(
            _revise_group(
                storage,
                config,
                registry,
                gid,
                group_tids,
                sampling_interval,
                by_gid[gid],
                scalings,
                stats,
            )
        )
        stats.out_of_order_points += len(by_gid[gid])
    if revisions:
        storage.insert_segments(revisions)
        stats.revisions += len(revisions)
    record_ingest_stats(stats)
    return stats


def _revise_group(
    storage: Storage,
    config: Configuration,
    registry: ModelRegistry,
    gid: int,
    group_tids: tuple[int, ...],
    sampling_interval: int,
    corrections: Sequence[CorrectionPoint],
    scalings: Mapping[int, float],
    stats: IngestStats,
) -> list[SegmentGroup]:
    """Re-fit one group's affected window; returns unstamped revisions."""
    si = sampling_interval
    visible = [s for t in storage.tables(SegmentScan(gids=(gid,))) for s in t.segments]
    start = min(timestamp for _, timestamp, _ in corrections)
    end = max(timestamp for _, timestamp, _ in corrections)
    affected = _affected_fixpoint(visible, start, end)
    if affected:
        start = min(start, min(s.start_time for s in affected))
        end = max(end, max(s.end_time for s in affected))
    anchor = affected[0].start_time if affected else start
    for tid, timestamp, _ in corrections:
        if (timestamp - anchor) % si != 0:
            raise IngestionError(
                f"correction timestamp {timestamp} for tid {tid} is off "
                f"the group's {si}ms sampling grid"
            )
    start = anchor + ((start - anchor) // si) * si
    ticks = (end - start) // si + 1
    columns = {tid: column for column, tid in enumerate(group_tids)}
    matrix = _reconstruct(
        registry, affected, group_tids, columns, start, ticks, si
    )
    for tid, timestamp, value in corrections:
        row = (timestamp - start) // si
        if value is None:
            matrix[row, columns[tid]] = math.nan
        else:
            # Pre-scale like in-order ingestion would; the generator
            # below runs with unity scalings, so scaling is applied
            # exactly once, followed by the same float32 round trip.
            matrix[row, columns[tid]] = value * scalings.get(tid, 1.0)
    new_revision = max((s.revision for s in affected), default=0) + 1
    revisions: list[SegmentGroup] = []

    def sink(segment: SegmentGroup) -> None:
        revisions.append(replace(segment, revision=new_revision))

    generator = SegmentGenerator(
        gid=gid,
        group_tids=group_tids,
        subset_tids=group_tids,
        sampling_interval=si,
        config=config,
        registry=registry,
        sink=sink,
        scalings=None,  # values are already scaled (decoded or pre-scaled)
        stats=stats,
    )
    generator.tick_block(start + si * np.arange(ticks, dtype=np.int64), matrix)
    generator.close()
    return revisions


def _affected_fixpoint(
    visible: list[SegmentGroup], start: int, end: int
) -> list[SegmentGroup]:
    """Visible segments overlapping the window, closed under overlap.

    Growing the window to a newly included segment's hull can pull in
    further segments (split sub-groups overlap in time), so iterate
    until the affected set stops growing.
    """
    affected: list[SegmentGroup] = []
    included: set[int] = set()
    while True:
        grew = False
        for index, segment in enumerate(visible):
            if index in included:
                continue
            if segment.overlaps(start, end):
                affected.append(segment)
                included.add(index)
                start = min(start, segment.start_time)
                end = max(end, segment.end_time)
                grew = True
        if not grew:
            return affected


def _reconstruct(
    registry: ModelRegistry,
    affected: Sequence[SegmentGroup],
    group_tids: tuple[int, ...],
    columns: Mapping[int, int],
    start: int,
    ticks: int,
    si: int,
) -> np.ndarray:
    """Decode the affected segments into a (ticks, group) value matrix.

    Values are the stored (scaled, float32-quantized) reconstruction;
    NaN marks gaps — timestamps no affected segment covers for a series.
    """
    matrix = np.full((ticks, len(group_tids)), np.nan)
    for segment in affected:
        model = registry.decode(
            segment.mid,
            segment.parameters,
            segment.n_columns,
            segment.length,
        )
        block = model.values_block(0, segment.length - 1)
        first_row = (segment.start_time - start) // si
        for column, tid in enumerate(segment.member_tids):
            matrix[
                first_row:first_row + segment.length, columns[tid]
            ] = block[:, column]
    return matrix
