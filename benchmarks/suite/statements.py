"""Seeded statement pools and the oracle of each statement class.

Statements are rendered from :mod:`repro.workloads` specs wherever a
spec exists (S-AGG, L-AGG, M-AGG, P/R); the Data Point View scans the
specs do not cover are written out here. Every :class:`Statement`
carries a ``check`` that verifies a result against :class:`Truth`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.workloads import QuerySpec, l_agg, m_agg, p_r, s_agg

from .truth import Truth, inside

Rows = list[dict]

#: The member the M-AGG workloads restrict to (Section 7.2).
_PRODUCTION = ("Category", "ProductionMWh")


@dataclass(frozen=True)
class Statement:
    """One SQL statement, its class label and its oracle."""

    label: str
    sql: str
    check: Callable[[Truth, Rows], bool]


def from_spec(label: str, spec: QuerySpec) -> Statement:
    """A statement rendered from a :class:`repro.workloads.QuerySpec`."""
    checks = {
        "simple": _check_simple,
        "rollup": _check_rollup,
        "point": _check_points,
        "range": _check_points,
    }
    check = checks[spec.kind]
    return Statement(
        label, spec.to_sql(), lambda truth, rows: check(truth, spec, rows)
    )


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def _check_simple(truth: Truth, spec: QuerySpec, rows: Rows) -> bool:
    first, last = truth.tick_range(spec.start, spec.end)
    tids = list(spec.tids) if spec.tids else truth.tids
    column = f"{spec.function.upper()}_S(*)"
    if not spec.group_by_tid:
        limits = truth.aggregate_limits(
            spec.function, truth.rows(tids), first, last
        )
        if limits is None:
            return rows == []
        return len(rows) == 1 and inside(rows[0][column], limits)
    seen = set()
    for row in rows:
        limits = truth.aggregate_limits(
            spec.function, truth.rows([row["Tid"]]), first, last
        )
        if limits is None or not inside(row[column], limits):
            return False
        seen.add(row["Tid"])
    expected = {
        tid
        for tid in tids
        if truth.aggregate_limits("COUNT", truth.rows([tid]), first, last)
    }
    return len(rows) == len(seen) and seen == expected


def _check_rollup(truth: Truth, spec: QuerySpec, rows: Rows) -> bool:
    column = f"CUBE_{spec.function.upper()}_{spec.level.upper()}(*)"
    member_column, member = spec.member
    tids = [
        tid
        for tid in truth.tids
        if truth.members[tid].get(member_column) == member
    ]
    groups: dict[tuple, list[int]] = {}
    for tid in tids:
        key = (truth.members[tid][spec.group_by],)
        if spec.group_by_tid:
            key += (tid,)
        groups.setdefault(key, []).append(tid)
    buckets = truth.day_buckets(0, truth.visible - 1)
    expected = {}
    for key, members in groups.items():
        for day, first, last in buckets:
            limits = truth.aggregate_limits(
                spec.function, truth.rows(members), first, last
            )
            if limits is not None:
                expected[key + (day,)] = limits
    got = {}
    for row in rows:
        key = (row[spec.group_by],)
        if spec.group_by_tid:
            key += (row["Tid"],)
        got[key + (row[spec.level.upper()],)] = row[column]
    return (
        len(got) == len(rows)
        and set(got) == set(expected)
        and all(inside(got[key], expected[key]) for key in expected)
    )


def _check_points(truth: Truth, spec: QuerySpec, rows: Rows) -> bool:
    """P/R: the non-gap points of one series in a timestamp interval."""
    if spec.kind == "point":
        start = end = spec.timestamp
    else:
        start, end = spec.start, spec.end
    return _points_match(truth, rows, [spec.tids[0]], start, end, tid=spec.tids[0])


def _located(
    truth: Truth,
    rows: Rows,
    tids: list[int],
    first: int,
    width: int,
    tid: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(series index, tick offset from ``first``, value) of every row, or
    None when a row names a series, timestamp or grid the data lacks.
    ``tid`` names the series when the rows carry no Tid column."""
    count = len(rows)
    stamps = np.fromiter((row["TS"] for row in rows), np.int64, count)
    values = np.fromiter((row["Value"] for row in rows), float, count)
    if tid is None:
        position = {known: index for index, known in enumerate(tids)}
        series = np.fromiter(
            (position.get(row["Tid"], -1) for row in rows), np.intp, count
        )
    else:
        series = np.zeros(count, dtype=np.intp)
    ticks, remainder = np.divmod(stamps - truth.timestamp(first), truth.si)
    if (
        np.any(series < 0)
        or np.any(remainder)
        or np.any((ticks < 0) | (ticks >= width))
    ):
        return None
    return series, ticks, values


def _points_match(
    truth: Truth,
    rows: Rows,
    tids: list[int],
    start: int,
    end: int,
    tid: int | None = None,
) -> bool:
    """Rows are exactly the non-gap points of ``tids`` in the interval,
    each value within its limits."""
    first, last = truth.tick_range(start, end)
    if first > last:
        return rows == []
    block, low, high = truth.limits(truth.rows(tids), first, last)
    located = _located(truth, rows, tids, first, block.shape[1], tid)
    if located is None:
        return False
    series, ticks, values = located
    got = np.full(block.shape, np.nan)
    got[series, ticks] = values
    present = np.isfinite(block)
    if int(np.isfinite(got).sum()) != len(rows):
        return False  # the same point twice
    if not np.array_equal(np.isfinite(got), present):
        return False
    return bool(
        np.all(got[present] >= low[present])
        and np.all(got[present] <= high[present])
    )


def tid_scan(truth: Truth, tids: list[int], first: int, last: int) -> Statement:
    """``Tid IN (...)`` range scan on the Data Point View."""
    start, end = truth.timestamp(first), truth.timestamp(last)
    sql = (
        "SELECT Tid, TS, Value FROM DataPoint WHERE Tid IN "
        f"({', '.join(str(tid) for tid in tids)}) "
        f"AND TS >= {start} AND TS <= {end}"
    )
    return Statement(
        "TID-IN",
        sql,
        lambda truth, rows: _points_match(truth, rows, tids, start, end),
    )


def _threshold_masks(truth: Truth, threshold: float):
    """Points certainly above, possibly above, and their limits."""
    block, low, high = truth.limits(
        truth.rows(truth.tids), 0, truth.visible - 1
    )
    finite = np.isfinite(block)
    certain = finite & (np.where(finite, low, 0.0) > threshold)
    possible = finite & (np.where(finite, high, 0.0) > threshold)
    return certain, possible, low, high


def value_scan(threshold: float) -> Statement:
    """Value-predicate scan: every point whose stored value exceeds x.

    The predicate runs on stored values, so a point whose raw value is
    within the bound of the threshold may or may not qualify: the result
    must contain every certain point and only possible ones.
    """

    def check(truth: Truth, rows: Rows) -> bool:
        certain, possible, low, high = _threshold_masks(truth, threshold)
        located = _located(truth, rows, truth.tids, 0, truth.visible)
        if located is None:
            return False
        series, ticks, values = located
        returned = np.zeros(certain.shape, dtype=bool)
        returned[series, ticks] = True
        if int(returned.sum()) != len(rows):
            return False  # the same point twice
        if np.any(certain & ~returned) or np.any(returned & ~possible):
            return False
        return bool(
            np.all(values > threshold)
            and np.all(values >= low[series, ticks])
            and np.all(values <= high[series, ticks])
        )

    return Statement(
        "V-SCAN",
        f"SELECT Tid, TS, Value FROM DataPoint WHERE Value > {threshold!r}",
        check,
    )


def value_aggregate(threshold: float) -> Statement:
    """Value-filtered aggregate on the Data Point View."""

    def check(truth: Truth, rows: Rows) -> bool:
        certain, possible, low, high = _threshold_masks(truth, threshold)
        if len(rows) != 1:
            return False
        count = rows[0]["COUNT(*)"]
        lowest = float(np.maximum(low[certain], threshold).sum())
        highest = float(high[possible].sum())
        return int(certain.sum()) <= count <= int(possible.sum()) and inside(
            rows[0]["SUM(*)"], (lowest, highest)
        )

    return Statement(
        "V-AGG",
        f"SELECT SUM(*), COUNT(*) FROM DataPoint WHERE Value > {threshold!r}",
        check,
    )


# ----------------------------------------------------------------------
# Pools
# ----------------------------------------------------------------------
def aggregate_pool(truth: Truth, seed: int) -> list[Statement]:
    """One ``query_agg`` round: 40 S-AGG, 4 L-AGG, 6 M-AGG."""
    pool = [
        from_spec("S-AGG", spec)
        for spec in s_agg(truth.tids, seed=seed, count=40).queries
    ]
    pool += [from_spec("L-AGG", spec) for spec in l_agg(4).queries]
    for per_tid in (False, True):
        label = "M-AGG-Two" if per_tid else "M-AGG-One"
        specs = m_agg(_PRODUCTION, "Type", per_tid, count=2, level="DAY")
        specs.queries += m_agg(
            _PRODUCTION, "Entity", per_tid, count=1, level="DAY"
        ).queries
        pool += [from_spec(label, spec) for spec in specs.queries]
    return pool


def point_pool(truth: Truth, seed: int) -> list[Statement]:
    """One ``query_points`` round: 100 P/R, 10 Tid-IN scans, one
    value-predicate scan and one value-filtered aggregate."""
    rng = np.random.default_rng(seed)
    pool = [
        from_spec("P/R", spec)
        for spec in p_r(
            truth.tids,
            truth.start,
            truth.timestamp(truth.ticks - 1),
            truth.si,
            seed=seed,
            count=100,
        ).queries
    ]
    width = max(truth.ticks // 25, 2)
    for _ in range(10):
        tids = sorted(int(tid) for tid in rng.choice(truth.tids, 3, replace=False))
        first = int(rng.integers(0, truth.ticks - width))
        pool.append(tid_scan(truth, tids, first, first + width - 1))
    # The top tenth of all values: a scan that returns ~10 % of the store.
    threshold = float(np.nanquantile(truth.values, 0.9))
    pool += [value_scan(threshold), value_aggregate(threshold)]
    return pool


def serving_pool(truth: Truth, seed: int) -> list[Statement]:
    """The 24-statement S-AGG/L-AGG/P-R mix the load generator serves."""
    pool = [
        from_spec("S-AGG", spec)
        for spec in s_agg(truth.tids, seed=seed).queries
    ]
    pool += [from_spec("L-AGG", spec) for spec in l_agg().queries]
    pool += [
        from_spec("P/R", spec)
        for spec in p_r(
            truth.tids,
            truth.start,
            truth.timestamp(truth.ticks - 1),
            truth.si,
            seed=seed,
        ).queries
    ]
    return pool


def window_aggregate(
    function: str,
    tids: tuple[int, ...],
    truth: Truth,
    first: int,
    last: int,
    as_of: int | None = None,
    label: str = "DASH",
) -> Statement:
    """A Segment View aggregate over a tick window (dashboards, fresh
    reads and the ``AS OF`` reads of ``online_mixed``)."""
    spec = QuerySpec(
        "simple",
        function=function,
        tids=tids or None,
        group_by_tid=len(tids) > 1,
        start=truth.timestamp(first),
        end=truth.timestamp(last),
        as_of=as_of,
    )
    return from_spec(label, spec)
