"""Columnar read-path kernels: partition decode and vectorized WHERE.

The read-side mirror of the columnar ingestion path's batch kernels:
instead of restoring segments to data points row at a time, a partition
table's points are decoded at once — one numpy pass fills its PMC-Mean
levels and Swing ramps, Gorilla and ``Multi`` rows unpack array at once
(:meth:`~repro.models.base.FittedModel.values_block`) — and WHERE
predicates evaluate as vectorized masks over them.

Everything here is bit-identical to decoding one segment row at a time
by construction: a level is repeated as stored, a ramp is
``values_block``'s own expression, exact rows slice the model's own
reconstruction, grid restoration uses ``start + index * SI`` on int64,
and scaling divides elementwise exactly as ``column_values(column) /
scaling`` does. ``tests/test_partition_decode.py`` and its neighbours
lock this down against the row-at-a-time oracle in ``tests/oracle.py``. Selections gather
their masked arrays into one :class:`ResultColumns`, which stays
columns until a boundary needs rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ..core.errors import QueryError
from ..obs import annotate, get_registry
from ..storage.interface import Storage
from .cache import CONSTANT, EXACT, FOREIGN, LINE, FoldColumns, SegmentCache
from .rewriter import RewrittenQuery
from .views import clipped

#: Row kinds as int8 scalars: comparing the int8 kinds with one skips a
#: Python int's conversion on every call.
_LINE, _EXACT, _FOREIGN = np.int8(LINE), np.int8(EXACT), np.int8(FOREIGN)


class PartitionPoints(NamedTuple):
    """One partition table's points that meet the WHERE conditions, in
    view-row order: segment, member series, tick. ``tids`` and
    ``counts`` run per decoded (segment, series) pair, a count zero when
    the mask left none of its points; the rest run per point."""

    tids: np.ndarray  # int64, one per pair
    counts: np.ndarray  # int64, points per pair
    timestamps: np.ndarray  # int64, one per point
    values: np.ndarray  # float64, scaled, one per point


@dataclass(frozen=True, eq=False)
class ResultColumns:
    """A Data Point View selection's result as columns.

    ``names`` are the selected columns in query order, each once;
    ``columns`` holds one equal-length column per name: int64 arrays
    for ``Tid``/``TS``, a float64 array for ``Value`` and a list of
    members for a dimension. The engine builds it with one concatenate
    per column; row dicts are filled only at the public boundaries
    (:func:`as_rows`), and the columnar wire writes the arrays as they
    are.
    """

    names: tuple[str, ...]
    columns: tuple[np.ndarray | list, ...]

    def __len__(self) -> int:
        return len(self.columns[0])


def fill_rows(names: Sequence[str], columns: Sequence, length: int) -> list[dict]:
    """``length`` row dicts from equal-length columns, filled a column
    at a time: the first column builds the dicts, each further one is
    one ``zip`` over them (about a third of the time of
    ``dict(zip(names, row))`` per row). A repeated name keeps its first
    position and its last column's value, as filling each row key by
    key does."""
    if not names:
        return [{} for _ in range(length)]
    first = names[0]
    rows = [{first: value} for value in columns[0]]
    for name, values in zip(names[1:], columns[1:]):
        for row, value in zip(rows, values):
            row[name] = value
    return rows


def as_rows(result: ResultColumns | list[dict]) -> list[dict]:
    """A statement's result as row dicts of Python scalars, in row and
    key order (a row list is returned as is)."""
    if not isinstance(result, ResultColumns):
        return result
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in result.columns]
    return fill_rows(result.names, columns, len(result))


def partition_points(
    storage: Storage,
    cache: SegmentCache,
    plan: RewrittenQuery,
    scalings: Mapping[int, float],
    conditions: Sequence[tuple[str, str, float]],
) -> Iterator[PartitionPoints]:
    """Decode and filter every planned partition table's points in one
    pass each.

    Rows and their index ranges come from
    :func:`~repro.query.views.clipped`; the (row, series) pairs the plan
    keeps come from the table's fold columns (built on first use). A
    PMC-Mean row is a level fill of its value and a Swing row the ramp
    ``intercept + slope * index`` — the float expressions of their
    ``values_block`` — computed for all of a table's pairs at once.
    Gorilla and ``Multi`` rows, and rows stored under another group
    layout, are decoded once per row through
    :meth:`~repro.models.base.FittedModel.values_block`, each series
    read from its rank among the row's members. Timestamps are
    ``start + index * SI`` on int64 and values are divided by each
    series' scaling, so every point is bit-identical to a row-at-a-time
    ``column_values(column) / scaling`` decode. ``query.columnar_blocks_total`` counts the rows
    decoded and ``query.block_decode_seconds`` the time spent decoding.

    ``conditions`` are the statement's parsed ``TS`` and ``Value``
    conditions (see :func:`point_mask`). The clip already holds the
    ``TS`` ones, as the plan's interval is their intersection, so only
    the ``Value`` ones are masked, once per table. Before decode, a pair
    whose model bounds cannot meet them (:func:`unmeetable`) is dropped:
    its mask would select nothing, so answers do not change. Rows left
    without a pair count in ``query.segments_pruned_total``. Like the
    Segment View fold, each row read counts one cache lookup: a PMC-Mean
    or Swing row a miss if the fold columns' build decoded it and a
    pinned hit otherwise.
    """
    value_conditions = [c for c in conditions if c[0] == "value"]
    tids = plan.tids
    blocks = pruned = hits = 0
    decode_seconds = 0.0
    for table, rows, first, last in clipped(storage, plan):
        if not len(rows):
            continue
        columns, decoded = cache.fold_columns(table)
        started = time.perf_counter()
        kinds = columns.kinds[rows]
        selected = columns.members[rows]
        selected &= np.array([tid in tids for tid in columns.tids])
        selected &= (first <= last)[:, None]
        foreign = kinds == _FOREIGN
        if has_foreign := np.count_nonzero(foreign):
            selected[foreign] = False
        # One lookup per row read: a row the fold columns just decoded
        # counted its miss there, an exact row counts in model_of below.
        read = selected.any(axis=1)
        hits += (count := int(np.count_nonzero(read)))
        if decoded is not None:
            hits -= int(np.count_nonzero(read & decoded[rows]))
        if value_conditions:
            selected &= ~unmeetable(
                columns, rows, first, last, scalings, value_conditions
            )
            kept = int(np.count_nonzero(selected.any(axis=1)))
            pruned, count = pruned + count - kept, kept
        blocks += count
        pair_row, pair_column = selected.nonzero()
        scaling = [scalings.get(tid, 1.0) for tid in columns.tids]
        pairs = [
            pair_row,
            np.array(columns.tids, np.int64)[pair_column],
            pair_column,
            np.array(scaling)[pair_column],
        ]
        pair_kinds = kinds[pair_row]
        exact = (pair_kinds == _EXACT).nonzero()[0]
        if len(exact):
            # A row's model columns hold its members only: a series'
            # model column is its rank among them.
            ranks = columns.members[rows].cumsum(axis=1) - 1
            pairs[2] = ranks[pair_row, pair_column]
        if has_foreign:
            # A row of another group layout adds its own member series,
            # model columns their ranks there, merged in row order.
            extra = np.array(
                [
                    (row, tid, rank, scalings.get(tid, 1.0))
                    for row in (foreign & (first <= last)).nonzero()[0].tolist()
                    for rank, tid in enumerate(table.segments[rows[row]].member_tids)
                    if tid in tids
                ]
            ).reshape(-1, 4)
            merged = [
                np.concatenate([part, more.astype(part.dtype)])
                for part, more in zip(pairs, extra.T)
            ]
            order = np.argsort(merged[0], kind="stable")
            pairs = [part[order] for part in merged]
            pair_kinds = kinds[pairs[0]]
            exact = (pair_kinds >= _EXACT).nonzero()[0]
        pair_row, pair_tids, ranks, scaling = pairs
        if not len(pair_row):
            continue
        pair_first = first[pair_row]
        counts = last[pair_row] - pair_first + 1
        ends = counts.cumsum()
        offsets = ends - counts
        index = np.arange(ends[-1]) - np.repeat(offsets - pair_first, counts)
        pair_rows = rows[pair_row]
        interval = columns.sampling_interval
        if has_foreign:
            interval = np.repeat(table.intervals[pair_rows], counts)
        timestamps = np.repeat(table.starts[pair_rows], counts) + index * interval
        intercept, slope = columns.parameters[pair_rows].T
        raw = np.repeat(intercept, counts)
        line = pair_kinds == _LINE
        if np.count_nonzero(line):
            ramp = np.repeat(slope, counts) * index
            np.add(raw, ramp, out=raw, where=np.repeat(line, counts))
        if len(exact):
            spans = (part[exact].tolist() for part in (pair_row, ranks, offsets, ends))
            current, block = -1, raw
            for row, rank, start, end in zip(*spans):
                if row != current:
                    current, segment = row, table.segments[rows[row]]
                    block = cache.model_of(segment).values_block(
                        int(first[row]), int(last[row])
                    )
                    blocks += bool(foreign[row])
                    hits -= not foreign[row]
                raw[start:end] = block[:, rank]
        values = raw / np.repeat(scaling, counts)
        decode_seconds += time.perf_counter() - started
        mask = point_mask(timestamps, values, value_conditions)
        if mask is not None:
            timestamps, values = timestamps[mask], values[mask]
            counts = np.add.reduceat(mask, offsets, dtype=np.int64)
        yield PartitionPoints(pair_tids, counts, timestamps, values)
    registry = get_registry()
    registry.counter("query.columnar_blocks_total").inc(blocks)
    registry.histogram("query.block_decode_seconds").record(decode_seconds)
    cache.count_pinned_hits(hits)
    if value_conditions:
        registry.counter("query.segments_pruned_total").inc(pruned)
        annotate(pruned=pruned)


def unmeetable(
    columns: FoldColumns,
    rows: np.ndarray,
    first: np.ndarray,
    last: np.ndarray,
    scalings: Mapping[int, float],
    conditions: Sequence[tuple[str, str, float]],
) -> np.ndarray:
    """A (clipped rows × ``columns.tids``) mask, True where no value the
    series can decode from the row's index range meets every condition.

    A PMC-Mean row decodes to its level (slope 0 here) and a Swing row
    to ``intercept + slope * index``, monotone in the index, so the
    decode's own float expression at ``first`` and at ``last`` bounds
    every value exactly. Dividing by a series' scaling keeps them
    bounds, swapped when the scaling is negative. ``EXACT`` and
    ``FOREIGN`` rows, and bounds that are not finite, are never pruned.
    """
    intercept, slope = columns.parameters[rows].T
    scaling = np.array([scalings.get(tid, 1.0) for tid in columns.tids], float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ends = (
            (intercept + slope * first)[:, None] / scaling,
            (intercept + slope * last)[:, None] / scaling,
        )
    low, high = np.minimum(*ends), np.maximum(*ends)
    cannot = np.zeros(low.shape, bool)
    for _, operator, literal in conditions:
        if operator == "=":
            meets = (low <= literal) & (high >= literal)
        else:
            meets = compare(high if ">" in operator else low, operator, literal)
        cannot |= ~meets
    kinds = columns.kinds[rows]
    cannot &= ((kinds == CONSTANT) | (kinds == LINE))[:, None]
    return cannot & np.isfinite(low) & np.isfinite(high)


# ----------------------------------------------------------------------
# Vectorized WHERE filtering
# ----------------------------------------------------------------------
def compare(array: np.ndarray, operator: str, literal) -> np.ndarray:
    """Vectorized comparison of one array against one literal."""
    if operator == "=":
        return array == literal
    if operator == "<":
        return array < literal
    if operator == "<=":
        return array <= literal
    if operator == ">":
        return array > literal
    if operator == ">=":
        return array >= literal
    raise QueryError(f"unsupported operator {operator!r}")


def point_mask(
    timestamps: np.ndarray,
    values: np.ndarray,
    conditions: Sequence[tuple[str, str, float]],
) -> np.ndarray | None:
    """AND-combined boolean mask for parsed ``(column, operator,
    literal)`` conditions, column ``"ts"`` or ``"value"``; None when
    unconditioned (callers skip the indexing entirely)."""
    mask = None
    for column, operator, literal in conditions:
        target = values if column == "value" else timestamps
        current = compare(target, operator, literal)
        mask = current if mask is None else (mask & current)
    return mask
