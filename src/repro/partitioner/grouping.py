"""Grouping of correlated time series (Algorithm 1, Section 4.1).

Starting from one group per series, groups are merged until a fixpoint:
two groups merge when any configured clause declares them correlated.
Merging is transitive by construction — once two groups combine, later
comparisons treat their union as one candidate — which matches the
algorithm's iterate-until-no-change structure.

A series is partitioned once, at its first ingest (Section 4 groups
before ingestion). :func:`assign_groups` routes every Tid the store
already records back to its stored group and runs the grouping only
over the Tids it has never seen.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.dimensions import DimensionSet
from ..core.errors import GroupError, IngestionError
from ..core.group import TimeSeriesGroup, singleton_groups
from ..core.timeseries import TimeSeries
from ..storage.schema import TimeSeriesRecord
from .parser import parse_correlation
from .primitives import CorrelationSpec, GroupingContext


def group_time_series(
    series: Sequence[TimeSeries],
    spec: CorrelationSpec,
    dimensions: DimensionSet,
) -> list[TimeSeriesGroup]:
    """Partition time series into groups of correlated series.

    Implements Algorithm 1. Series that cannot share a group under
    Definition 8 (different SI or misaligned start) are never merged even
    when the user hints say they correlate, since one model cannot
    represent them at a shared sequence of timestamps.
    """
    context = GroupingContext(
        dimensions=dimensions,
        names={ts.tid: ts.name for ts in series},
    )
    spec.apply_scalings(series, context)

    by_tid = {ts.tid: ts for ts in series}
    groups: list[list[int]] = [[ts.tid] for ts in series]

    modified = True
    while modified:
        modified = False
        merged: list[list[int]] = []
        while groups:
            current = groups.pop()
            absorbed = []
            for other in groups:
                if not _compatible(current, other, by_tid):
                    continue
                if spec.correlated(current, other, context):
                    absorbed.append(other)
            for other in absorbed:
                groups.remove(other)
                current = current + other
                modified = True
            merged.append(sorted(current))
        groups = merged

    groups.sort(key=lambda tids: tids[0])
    return [
        TimeSeriesGroup(gid, [by_tid[tid] for tid in tids])
        for gid, tids in enumerate(groups, start=1)
    ]


def group_from_config(
    series: Sequence[TimeSeries],
    correlation_clauses: Sequence[str],
    dimensions: DimensionSet,
) -> list[TimeSeriesGroup]:
    """Parse clause strings and group (the configuration entry point)."""
    spec = parse_correlation(correlation_clauses, dimensions)
    return group_time_series(series, spec, dimensions)


def assign_groups(
    series: Sequence[TimeSeries],
    stored: Iterable[TimeSeriesRecord],
    correlation_clauses: Sequence[str],
    dimensions: DimensionSet,
    *,
    append: bool = True,
) -> list[TimeSeriesGroup]:
    """Groups for one ingest batch against the stored Time Series table.

    A Tid in ``stored`` joins its stored Gid with its stored scaling and
    is never regrouped; the batch must bring every member of that
    group. The other Tids are grouped by ``correlation_clauses`` (one
    group each when there are none) and numbered after the largest
    stored Gid. With ``append=False`` a stored Tid is an
    :class:`IngestionError` instead: the sharded tier cannot add a time
    slice to a group its workers already hold.
    """
    records = {record.tid: record for record in stored}
    known = [ts for ts in series if ts.tid in records]
    new = [ts for ts in series if ts.tid not in records]
    if known and not append:
        raise IngestionError(
            f"this Tid is already placed: {sorted(ts.tid for ts in known)}; "
            "the tier cannot append a time slice to a placed group"
        )
    routed: dict[int, list[TimeSeries]] = {}
    for ts in known:
        ts.scaling = records[ts.tid].scaling
        routed.setdefault(records[ts.tid].gid, []).append(ts)
    groups = [TimeSeriesGroup(gid, routed[gid]) for gid in sorted(routed)]
    check_against_store(groups, records.values())
    if new:
        fresh = (
            group_from_config(new, correlation_clauses, dimensions)
            if correlation_clauses
            else singleton_groups(new)
        )
        placed = max((record.gid for record in records.values()), default=0)
        for group in fresh:
            group.gid += placed
        groups += fresh
    return groups


def check_against_store(
    groups: Sequence[TimeSeriesGroup], stored: Iterable[TimeSeriesRecord]
) -> None:
    """Raise :class:`GroupError` unless appending ``groups`` leaves the
    stored Time Series table as it is: a stored Gid comes back with
    exactly its stored members, and a stored Tid with its stored Gid,
    sampling interval and scaling."""
    records = {record.tid: record for record in stored}
    members: dict[int, set[int]] = {}
    for record in records.values():
        members.setdefault(record.gid, set()).add(record.tid)
    for group in groups:
        expected = members.get(group.gid)
        if expected is not None and expected != set(group.tids):
            raise GroupError(
                f"group {group.gid} is stored with tids {sorted(expected)}; "
                f"an ingest must bring exactly those, got {list(group.tids)}"
            )
        for ts in group:
            record = records.get(ts.tid)
            if record is None:
                continue
            stored_as = (record.gid, record.sampling_interval, record.scaling)
            given = (group.gid, ts.sampling_interval, ts.scaling)
            if given != stored_as:
                raise GroupError(
                    f"tid {ts.tid} is stored as (Gid, SI, scaling) "
                    f"{stored_as}, got {given}"
                )


def _compatible(
    group_a: Sequence[int],
    group_b: Sequence[int],
    by_tid: dict[int, TimeSeries],
) -> bool:
    """Definition 8 guard: same SI, aligned start timestamps."""
    first = by_tid[group_a[0]]
    second = by_tid[group_b[0]]
    if first.sampling_interval != second.sampling_interval:
        return False
    if len(first) == 0 or len(second) == 0:
        return True
    return first.alignment == second.alignment
