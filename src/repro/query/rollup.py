"""Aggregation in the time dimension (Algorithm 6, Section 6.3).

Because every segment stores its start and end time, aggregates per
calendar interval (``CUBE_SUM_HOUR``, ``CUBE_AVG_MONTH``, ...) are
computed directly on segments — no join with a time dimension table. A
segment splits at the level's boundaries: the first partial interval
runs from the segment start to the next level boundary, whole intervals
follow, and the final interval includes the segment's inclusive end
time (segments are stored disconnected, Fig. 12). The engine splits a
whole partition's rows at once (:func:`split_at_boundaries`), from
:func:`bucket_numbers` and :func:`bucket_bounds`; Data Point View
rollups and the baselines bucket points with them (:func:`bucket_masks`).
:func:`floor_to_level` and :func:`next_boundary` are the scalar calendar
these vectorised kernels are checked against.

Timestamps are milliseconds since the Unix epoch, interpreted in UTC.
"""

from __future__ import annotations

import calendar
import datetime as dt
from functools import lru_cache
from typing import Iterator

import numpy as np

from ..core.errors import QueryError

_EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)

#: Supported levels of the time hierarchy, finest to coarsest.
TIME_LEVELS = ("MINUTE", "HOUR", "DAY", "MONTH", "YEAR")

#: DatePart levels: aggregate over a calendar *component* across the
#: whole range (e.g. totals per day-of-week). The paper highlights these
#: as queries ModelarDB supports and InfluxDB does not (Section 7.3,
#: citing InfluxDB issue #6723). Each maps to the interval level that is
#: walked and the component extracted from each interval's start.
DATEPART_LEVELS = {
    "HOUROFDAY": "HOUR",
    "DAYOFWEEK": "DAY",
    "DAYOFMONTH": "DAY",
    "MONTHOFYEAR": "MONTH",
}

_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

#: The numpy ``datetime64`` unit each level counts its buckets in; a
#: DatePart level counts in its walked interval level's.
_NUMPY_LEVEL_UNIT = {
    "MINUTE": "datetime64[m]",
    "HOUR": "datetime64[h]",
    "DAY": "datetime64[D]",
    "MONTH": "datetime64[M]",
    "YEAR": "datetime64[Y]",
}
_NUMPY_LEVEL_UNIT.update(
    (part, _NUMPY_LEVEL_UNIT[walk]) for part, walk in DATEPART_LEVELS.items()
)


def is_datepart(level: str) -> bool:
    """Whether ``level`` is a calendar component rather than an interval."""
    return level in DATEPART_LEVELS


def datepart_of(timestamp_ms: int, level: str) -> int:
    """The calendar component of a timestamp for a DatePart level."""
    moment = _to_datetime(timestamp_ms)
    if level == "HOUROFDAY":
        return moment.hour
    if level == "DAYOFWEEK":
        return moment.weekday()
    if level == "DAYOFMONTH":
        return moment.day
    if level == "MONTHOFYEAR":
        return moment.month
    raise QueryError(f"unknown DatePart level {level!r}")


def _to_datetime(timestamp_ms: int) -> dt.datetime:
    return _EPOCH + dt.timedelta(milliseconds=timestamp_ms)


def _to_ms(moment: dt.datetime) -> int:
    return int((moment - _EPOCH).total_seconds() * 1000)


@lru_cache(maxsize=16384)
def floor_to_level(timestamp_ms: int, level: str) -> int:
    """The start of the ``level`` interval containing the timestamp."""
    moment = _to_datetime(timestamp_ms)
    if level == "MINUTE":
        floored = moment.replace(second=0, microsecond=0)
    elif level == "HOUR":
        floored = moment.replace(minute=0, second=0, microsecond=0)
    elif level == "DAY":
        floored = moment.replace(hour=0, minute=0, second=0, microsecond=0)
    elif level == "MONTH":
        floored = moment.replace(
            day=1, hour=0, minute=0, second=0, microsecond=0
        )
    elif level == "YEAR":
        floored = moment.replace(
            month=1, day=1, hour=0, minute=0, second=0, microsecond=0
        )
    else:
        raise QueryError(f"unknown time level {level!r}")
    return _to_ms(floored)


@lru_cache(maxsize=16384)
def next_boundary(bucket_start_ms: int, level: str) -> int:
    """The start of the interval following the one starting here
    (Algorithm 6's ``updateForLevel``)."""
    moment = _to_datetime(bucket_start_ms)
    if level == "MINUTE":
        return bucket_start_ms + 60_000
    if level == "HOUR":
        return bucket_start_ms + 3_600_000
    if level == "DAY":
        return bucket_start_ms + 86_400_000
    if level == "MONTH":
        days = calendar.monthrange(moment.year, moment.month)[1]
        return bucket_start_ms + days * 86_400_000
    if level == "YEAR":
        days = 366 if calendar.isleap(moment.year) else 365
        return bucket_start_ms + days * 86_400_000
    raise QueryError(f"unknown time level {level!r}")


def bucket_numbers(timestamps: np.ndarray, level: str) -> np.ndarray:
    """Per timestamp, the number of the interval containing it, counted
    from the epoch in the level's unit (a DatePart level's walked
    interval level): :func:`floor_to_level` for every timestamp at once.
    numpy floors pre-1970 timestamps as ``floor_to_level`` does."""
    moments = timestamps.astype("datetime64[ms]")
    return moments.astype(_NUMPY_LEVEL_UNIT[level]).astype(np.int64)


def bucket_bounds(
    numbers: np.ndarray, level: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per bucket number: the bucket's start, the next boundary
    (:func:`next_boundary`) and the bucket key — its start, or for a
    DatePart level its calendar component (:func:`datepart_of`)."""
    moments = numbers.astype(_NUMPY_LEVEL_UNIT[level])
    starts = moments.astype("datetime64[ms]").astype(np.int64)
    ends = (moments + 1).astype("datetime64[ms]").astype(np.int64)
    if level == "HOUROFDAY":
        keys = numbers % 24
    elif level == "DAYOFWEEK":
        keys = (numbers + 3) % 7  # 1970-01-01 was a Thursday
    elif level == "DAYOFMONTH":
        month_starts = moments.astype("datetime64[M]").astype(moments.dtype)
        keys = numbers - month_starts.astype(np.int64) + 1
    elif level == "MONTHOFYEAR":
        keys = numbers % 12 + 1
    else:
        keys = starts
    return starts, ends, keys


def bucket_masks(
    timestamps: np.ndarray, level: str
) -> Iterator[tuple[int, np.ndarray]]:
    """Each bucket the timestamps fall into, in time order: its key and
    the mask of its timestamps."""
    unique, inverse = np.unique(bucket_numbers(timestamps, level), return_inverse=True)
    for position, key in enumerate(bucket_bounds(unique, level)[2].tolist()):
        yield key, inverse == position


def split_at_boundaries(
    starts: np.ndarray,
    first: np.ndarray,
    last: np.ndarray,
    sampling_interval: int,
    level: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split many rows at a level's boundaries at once.

    Row ``i`` starts at ``starts[i]`` and is clipped to the inclusive
    indices ``first[i]..last[i]``. Returns one entry per non-empty
    (row, bucket) piece, in row order and time order within a row: the
    row, the piece's inclusive first and last index, and its bucket key.
    A row's ``k``-th candidate is its ``k``-th bucket, or the bucket of
    its ``k``-th tick when that is later; with min(buckets spanned,
    ticks) candidates a row reaches every bucket holding a tick, and
    never enumerates the empty buckets between sparse ticks.
    """
    step = sampling_interval
    head = bucket_numbers(starts + first * step, level)
    spanned = bucket_numbers(starts + last * step, level) - head + 1
    pieces = np.minimum(spanned, last - first + 1)
    row = np.repeat(np.arange(len(starts)), pieces)
    offset = np.arange(len(row)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    origin, first, last = starts[row], first[row], last[row]
    numbers = np.maximum(
        head[row] + offset,
        bucket_numbers(origin + (first + offset) * step, level),
    )
    bucket_starts, bucket_ends, keys = bucket_bounds(numbers, level)
    first = np.maximum(first, -((origin - bucket_starts) // step))
    last = np.minimum(last, (bucket_ends - 1 - origin) // step)
    # Empty buckets go, and so do repeats (several ticks of one bucket).
    keep = first <= last
    keep[1:] &= (numbers[1:] != numbers[:-1]) | (row[1:] != row[:-1])
    return row[keep], first[keep], last[keep], keys[keep]


def parse_cube_function(name: str) -> tuple[str, str]:
    """Split ``CUBE_SUM_HOUR`` into (aggregate name, time level)."""
    parts = name.upper().split("_")
    if len(parts) != 3 or parts[0] != "CUBE":
        raise QueryError(
            f"malformed time-rollup function {name!r}; expected "
            "CUBE_<AGG>_<LEVEL>"
        )
    _, aggregate_name, level = parts
    if level not in TIME_LEVELS and level not in DATEPART_LEVELS:
        supported = ", ".join((*TIME_LEVELS, *DATEPART_LEVELS))
        raise QueryError(
            f"unknown time level {level!r}; supported: {supported}"
        )
    return aggregate_name, level


def format_bucket(bucket_key: int, level: str) -> str:
    """Human-readable bucket label (e.g. ``2016-04`` for MONTH).

    For DatePart levels the key is the calendar component itself.
    """
    if level in DATEPART_LEVELS:
        if level == "DAYOFWEEK":
            return _WEEKDAYS[bucket_key]
        return str(bucket_key)
    bucket_start_ms = bucket_key
    moment = _to_datetime(bucket_start_ms)
    if level == "YEAR":
        return f"{moment.year:04d}"
    if level == "MONTH":
        return f"{moment.year:04d}-{moment.month:02d}"
    if level == "DAY":
        return moment.strftime("%Y-%m-%d")
    if level == "HOUR":
        return moment.strftime("%Y-%m-%d %H:00")
    return moment.strftime("%Y-%m-%d %H:%M")
