"""The reference the query engine is held to, one view row at a time.

The engine folds and decodes a partition table at a time. This module
walks the Segment View (:meth:`~repro.query.views.SegmentView.rows`) in
view-row order (segment, member series, tick) and shares only parsing,
planning (the engine's :func:`~repro.query.engine.plan`) and result
shaping with the engine. A segment-answerable aggregate adds each row's
``model.slice_sum/min/max(first, last, column) / scaling`` with Python
``+``, ``min`` and ``max``, a CUBE call after walking the row's calendar
buckets boundary by boundary (:func:`walk`, Algorithm 6). A materialised
aggregate or selection decodes ``model.column_values(column) / scaling``,
masks it with plain numpy comparisons and sums each slice with
``.sum()``. Analytics (``FORECAST``, ``SIMILAR TO``, ``Anomaly``) and
``EXPLAIN ANALYZE`` are not covered: they have one code path, checked
against brute force where they are tested.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.query.engine import PartialResult, _group_key, plan
from repro.query.rollup import DATEPART_LEVELS, datepart_of, floor_to_level
from repro.query.rollup import next_boundary
from repro.query.sql import apply_as_of, parse

_COMPARE = {"=": operator.eq, "<": operator.lt, "<=": operator.le}
_COMPARE.update({">": operator.gt, ">=": operator.ge})


def query(db, sql: str, as_of: int | None = None) -> list[dict]:
    """The rows ``sql`` must return from ``db`` (a ``ModelarDB`` or a
    ``QueryEngine``), read at ``as_of``."""
    engine = getattr(db, "engine", db)
    statement = apply_as_of(parse(sql), as_of)
    planned = plan(statement, engine.metadata)
    names = [c.column for c in statement.where] + list(planned.columns)
    if planned.route == "analytics" or "anomaly" in map(str.lower, names):
        raise NotImplementedError("the oracle does not compute analytics")
    view_rows = engine._segment_view().rows(planned.scan)
    columns, conditions = planned.columns, planned.conditions
    if planned.route == "segment_selection":
        return [
            _shape(columns, r.dimensions, tid=r.tid, starttime=r.start_time,
                   endtime=r.end_time, si=r.sampling_interval, mid=r.mid)
            for r in (view_row.row for view_row in view_rows)
        ]
    if planned.route == "point_selection":
        return [
            _shape(columns, view_row.row.dimensions, tid=view_row.row.tid,
                   ts=ts, value=value)
            for view_row in view_rows
            for ts, value in zip(*_decode(view_row, conditions, tolist=True))
        ]
    specs, group_columns = planned.specs, planned.group_columns
    simple: dict[tuple, list] = {}
    cubes: dict[tuple, list] = {}
    for view_row in view_rows:
        row = view_row.row
        key = _group_key(row.tid, row.dimensions, group_columns)
        if planned.route == "segment_fold":
            _fold_slices(simple, cubes, key, specs, view_row)
        else:
            _fold_points(simple, cubes, key, specs, view_row, conditions)
    return PartialResult(specs, group_columns, simple, cubes).finalize()


def iterate(name, state, model, first, last, column, scaling):
    """``state`` after the ``name`` aggregate reads the model's column
    over the inclusive index range ``first..last``, divided by the
    series' scaling (Algorithm 5's iterate, Section 6.1)."""
    if name == "COUNT":
        return state + (last - first + 1)
    if name == "AVG":
        total = state[0] + model.slice_sum(first, last, column) / scaling
        return total, state[1] + (last - first + 1)
    if name == "SUM":
        return state + model.slice_sum(first, last, column) / scaling
    extreme = model.slice_min if name == "MIN" else model.slice_max
    value = extreme(first, last, column) / scaling
    if state is None:
        return value
    return min(state, value) if name == "MIN" else max(state, value)


def walk(start: int, si: int, first: int, last: int, level: str) -> list:
    """A segment's calendar pieces at ``level``: ``(first, last, key)``
    per non-empty bucket, in time order. Each piece runs from its first
    index to the next level boundary of that index's bucket, and the
    last one ends at the segment's inclusive last index (segments are
    stored disconnected, Fig. 12); empty buckets are never visited. A
    DatePart level walks its interval level and keys each piece by the
    calendar component."""
    part = DATEPART_LEVELS.get(level)
    walked = level if part is None else part
    pieces = []
    while first <= last:
        bucket = floor_to_level(start + first * si, walked)
        end = min((next_boundary(bucket, walked) - 1 - start) // si, last)
        key = bucket if part is None else datepart_of(bucket, level)
        pieces.append((first, end, key))
        first = end + 1
    return pieces


def rollup(states, aggregate, model, start, si, first, last, column, scaling, level):
    """Fold one segment's clipped range into per-bucket ``states``."""
    for lo, hi, key in walk(start, si, first, last, level):
        state = states.get(key)
        if state is None:
            state = aggregate.initialize()
        states[key] = iterate(aggregate.name, state, model, lo, hi, column, scaling)


def _fold_slices(simple, cubes, key, specs, view_row) -> None:
    row, model, first, last = view_row
    for index, spec in enumerate(specs):
        if spec.level is None:
            states = simple.setdefault(key, [s.aggregate.initialize() for s in specs])
            states[index] = iterate(
                spec.aggregate.name, states[index], model, first, last,
                row.column, row.scaling,
            )
        else:
            buckets = cubes.setdefault(key, [{} for _ in specs])[index]
            rollup(
                buckets, spec.aggregate, model, row.start_time,
                row.sampling_interval, first, last, row.column, row.scaling,
                spec.level,
            )


def _fold_points(simple, cubes, key, specs, view_row, conditions) -> None:
    row, _, first, last = view_row
    values, mask = _decode(view_row, conditions)
    if not mask.any():
        return
    for index, spec in enumerate(specs):
        aggregate = spec.aggregate
        if spec.level is None:
            states = simple.setdefault(key, [s.aggregate.initialize() for s in specs])
            state = _state(aggregate, values[mask])
            states[index] = aggregate.merge(states[index], state)
            continue
        buckets = cubes.setdefault(key, [{} for _ in specs])[index]
        pieces = walk(row.start_time, row.sampling_interval, first, last, spec.level)
        for lo, hi, bucket in pieces:
            piece = slice(lo - first, hi - first + 1)
            chosen = values[piece][mask[piece]]
            if len(chosen):
                state = _state(aggregate, chosen)
                old = buckets.get(bucket)
                buckets[bucket] = state if old is None else aggregate.merge(old, state)


def _decode(view_row, conditions, tolist=False):
    """A view row's scaled values over its clipped range and the mask of
    those meeting every ``TS`` and ``Value`` condition; with ``tolist``,
    the kept timestamps and values as Python lists instead."""
    row, model, first, last = view_row
    values = (model.column_values(row.column) / row.scaling)[first:last + 1]
    timestamps = row.start_time + np.arange(first, last + 1) * row.sampling_interval
    mask = np.ones(len(values), bool)
    for column, op, literal in conditions:
        mask &= _COMPARE[op](values if column == "value" else timestamps, literal)
    if tolist:
        return timestamps[mask].tolist(), values[mask].tolist()
    return values, mask


def _state(aggregate, values: np.ndarray):
    name = aggregate.name
    if name == "COUNT":
        return len(values)
    if name == "AVG":
        return float(values.sum()), len(values)
    return float(getattr(values, name.lower())())


def _shape(columns, dimensions: dict, **built) -> dict:
    return {c: built.get(c.lower(), dimensions.get(c)) for c in columns}
