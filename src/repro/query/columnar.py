"""Columnar read-path kernels: block decode and vectorized WHERE.

The read-side mirror of the columnar ingestion path (PR 4's batch
kernels): instead of restoring segments to data points row at a time,
each stored segment is decoded once into a ``(ticks × series)`` numpy
block — PMC-Mean level fill, Swing linear ramp, Gorilla array-at-once
unpack (:meth:`~repro.models.base.FittedModel.values_block`) — and WHERE
predicates evaluate as vectorized masks over whole blocks.

Everything here is bit-identical to the row path by construction: blocks
slice the same reconstruction the row path produces, grid restoration
uses the same ``start + index * SI`` arithmetic on int64, and scaling
divides elementwise exactly as ``column_values(column) / scaling`` does.
The equivalence suite (``tests/test_columnar_equivalence.py``) locks
this down. Selections gather their masked arrays into one
:class:`ResultColumns`, which stays columns until a boundary needs rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ..core.errors import QueryError
from ..core.segment import SegmentGroup
from ..obs import annotate, get_registry
from ..storage.interface import Storage
from .cache import CONSTANT, LINE, FoldColumns, SegmentCache
from .rewriter import RewrittenQuery
from .views import clipped


class SegmentBlock(NamedTuple):
    """One stored segment decoded to a ``(ticks × series)`` block.

    ``values`` holds the *raw* (unscaled) reconstruction for every model
    column over the clipped tick range; ``series`` lists the
    ``(model column, Tid)`` pairs the plan's Tid filter kept, in member
    order — the same order :func:`repro.core.segment.explode` yields
    rows. Per-series scaling is applied when a column is read
    (:meth:`column`), mirroring the row path's divide-then-use order.
    """

    segment: SegmentGroup
    first: int  # first model index inside the query interval (inclusive)
    last: int  # last model index inside the query interval (inclusive)
    series: tuple[tuple[int, int], ...]  # (model column, tid), member order
    timestamps: np.ndarray  # int64 grid timestamps, one per tick
    values: np.ndarray  # (ticks, n_columns) float64, unscaled

    def column(self, column: int, scaling: float) -> np.ndarray:
        """One series' scaled values over the block's tick range.

        Elementwise this is exactly the row path's
        ``model.column_values(column) / scaling`` restricted to the
        clipped range, so the floats are bit-identical.
        """
        return self.values[:, column] / scaling


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


def iter_blocks(
    storage: Storage,
    cache: SegmentCache,
    plan: RewrittenQuery,
    scalings: Mapping[int, float],
    conditions: Sequence[tuple[str, str, float]],
) -> Iterator[SegmentBlock]:
    """Decode every planned segment into a block, one storage pass.

    Segments and their index ranges come from
    :func:`~repro.query.views.clipped`: one vectorised clip per
    partition table, blocks in Gid, then append order.
    Grid restoration happens here: each block carries the int64
    timestamps ``start + index * SI`` for its clipped index range —
    the same arithmetic the row path applies per point. Decode count
    and time land in the ``query.columnar_blocks_total`` /
    ``query.block_decode_seconds`` instruments, batched per scan.

    ``conditions`` are the statement's parsed ``TS`` and ``Value``
    conditions (see :func:`point_mask`). With a ``Value`` one, a
    segment none of whose selected series' model bounds can meet them
    (:func:`unmeetable`) is dropped before decode: exactly the segments
    whose masks would select nothing, so answers do not change. Such
    segments count in ``query.segments_pruned_total``. The bounds come
    from the table's fold columns, whose build decodes and pins every
    PMC-Mean and Swing row of the table once; like the Segment View
    fold, each segment read counts one lookup, a miss if that build
    decoded it and a pinned hit otherwise.
    """
    value_conditions = [
        (operator, literal)
        for column, operator, literal in conditions
        if column == "value"
    ]
    tids = set(plan.tids)
    blocks = pruned = hits = 0
    decode_seconds = 0.0
    for table, rows, first, last in clipped(storage, plan):
        if value_conditions and len(rows):
            columns, decoded = cache.fold_columns(table)
            cannot = unmeetable(
                columns, rows, first, last, scalings, value_conditions
            )
            selected = columns.members[rows] & [tid in tids for tid in columns.tids]
            read = (first <= last) & selected.any(axis=1)
            gone = read & ~(selected & ~cannot).any(axis=1)
            pruned += int(np.count_nonzero(gone))
            # A pruned row's lookup is the fold columns' pinned model; a
            # kept row's is model_of's pinned hit, taken back when the
            # fold columns just decoded it and counted its miss.
            hits += int(np.count_nonzero(gone))
            if decoded is not None:
                hits -= int(np.count_nonzero(read & decoded[rows]))
            keep = ~gone
            rows, first, last = rows[keep], first[keep], last[keep]
        for row, lo, hi in zip(rows.tolist(), first.tolist(), last.tolist()):
            if lo > hi:
                continue
            segment = table.segments[row]
            series = tuple(
                (column, tid)
                for column, tid in enumerate(segment.member_tids)
                if tid in tids
            )
            if not series:
                continue
            started = time.perf_counter()
            values = cache.model_of(segment).values_block(lo, hi)
            decode_seconds += time.perf_counter() - started
            timestamps = segment.start_time + (
                np.arange(lo, hi + 1, dtype=np.int64)
                * segment.sampling_interval
            )
            blocks += 1
            yield SegmentBlock(segment, lo, hi, series, timestamps, values)
    registry = get_registry()
    registry.counter("query.columnar_blocks_total").inc(blocks)
    registry.histogram("query.block_decode_seconds").record(decode_seconds)
    if value_conditions:
        cache.count_pinned_hits(hits)
        registry.counter("query.segments_pruned_total").inc(pruned)
        annotate(pruned=pruned)


def unmeetable(
    columns: FoldColumns,
    rows: np.ndarray,
    first: np.ndarray,
    last: np.ndarray,
    scalings: Mapping[int, float],
    conditions: Sequence[tuple[str, float]],
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
    for operator, literal in conditions:
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
