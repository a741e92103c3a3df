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
this down.
"""

from __future__ import annotations

import time
from typing import Iterator, NamedTuple

import numpy as np

from ..core.errors import QueryError
from ..core.segment import SegmentGroup
from ..obs import get_registry
from ..storage.interface import Storage
from .cache import SegmentCache
from .rewriter import RewrittenQuery
from .sql import Condition, parse_timestamp
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


def iter_blocks(
    storage: Storage,
    cache: SegmentCache,
    plan: RewrittenQuery,
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
    """
    tids = set(plan.tids)
    blocks = 0
    decode_seconds = 0.0
    for segment, first, last in clipped(storage, plan):
        series = tuple(
            (column, tid)
            for column, tid in enumerate(segment.member_tids)
            if tid in tids
        )
        if not series:
            continue
        started = time.perf_counter()
        values = cache.model_of(segment).values_block(first, last)
        decode_seconds += time.perf_counter() - started
        timestamps = segment.start_time + (
            np.arange(first, last + 1, dtype=np.int64)
            * segment.sampling_interval
        )
        blocks += 1
        yield SegmentBlock(segment, first, last, series, timestamps, values)
    registry = get_registry()
    registry.counter("query.columnar_blocks_total").inc(blocks)
    registry.histogram("query.block_decode_seconds").record(decode_seconds)


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
    conditions: list[Condition],
) -> np.ndarray | None:
    """AND-combined boolean mask for TS/Value conditions; None when
    unconditioned (callers skip the indexing entirely)."""
    mask = None
    for condition in conditions:
        name = condition.column.lower()
        if name in ("ts", "timestamp"):
            target = timestamps
            literal = parse_timestamp(condition.value)
        else:
            target = values
            literal = float(condition.value)
        current = compare(target, condition.operator, literal)
        mask = current if mask is None else (mask & current)
    return mask
