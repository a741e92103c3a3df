"""Model-native analytics: FORECAST, SIMILAR TO, and anomaly flags.

ModelarDB+ stores segments as mathematical models — PMC-Mean level
holds and Swing linear trends — which makes three analytic workloads
answerable from model *parameters* instead of reconstructed points
(tspDB's thesis that prediction belongs in the database, applied to a
model-based store):

``FORECAST(TS, horizon)``
    Extrapolates every selected series ``horizon`` steps past its last
    stored segment: a Swing segment continues its fitted slope, a
    PMC-Mean segment holds its level, a lossless segment holds its last
    value. The per-model error bound propagates into the result as a
    ``[Lo, Hi]`` interval per forecast point: the bound guarantees each
    stored endpoint is within ``error_bound`` percent of the true
    value, so the interval starts at that tolerance and, for trend
    models, widens linearly with the horizon by the slope uncertainty
    the two endpoint tolerances admit.

``SIMILAR TO (v1, v2, ...)``
    Whole-matching sub-sequence search under Euclidean distance over a
    *parameter-space index*: one Segment View pass builds a
    :class:`SignatureIndex` of per-segment level envelopes
    (``slice_min``/``slice_max`` are O(1) for constant/linear models),
    a vectorised per-window lower bound prunes from the envelopes
    alone, and only windows whose bound beats the current k-th best
    distance are verified against reconstructed values.

``Anomaly``
    A per-segment flag from residual-vs-error-bound drift at segment
    boundaries: the fitter starts a new segment exactly when the next
    point leaves the current model's feasible region, so a boundary
    where the next segment's first value sits far outside what the
    previous model extrapolates — beyond the error-bound tolerance and
    the model's own per-step movement — marks a structural break
    rather than in-bound noise.

Every entry point works from the Segment View: forecasts and envelopes
never materialise stored points, and similarity reconstructs only the
candidate windows that survive pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..core.errors import QueryError
from .sql import Query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .views import SegmentViewRow

__all__ = [
    "DEFAULT_SIMILARITY_K",
    "Match",
    "SearchStats",
    "SignatureIndex",
    "forecast_block",
    "forecast_halfwidths",
    "window_lower_bounds",
    "forecast_rows",
    "similarity_rows",
    "anomaly_starts",
    "merge_analytics_rows",
]

#: ``SIMILAR TO`` result count when the statement has no ``LIMIT``.
DEFAULT_SIMILARITY_K = 10

#: Boundary drift beyond this multiple of the error-bound tolerance
#: (and of the previous model's own per-step movement) flags an anomaly.
ANOMALY_SCALE = 3.0

#: Result schemas (fixed, documented in docs/QUERYING.md).
FORECAST_COLUMNS = ("Tid", "TS", "Value", "Lo", "Hi")
SIMILARITY_COLUMNS = ("Tid", "StartTime", "Distance")


@dataclass(frozen=True)
class Match:
    """One similarity-search result."""

    tid: int
    start_time: int
    distance: float


@dataclass
class SearchStats:
    """Pruning effectiveness counters (metrics, tests and curiosity)."""

    windows: int = 0
    verified: int = 0

    @property
    def pruned_fraction(self) -> float:
        if self.windows == 0:
            return 0.0
        return 1.0 - self.verified / self.windows


# ----------------------------------------------------------------------
# Vectorised kernels (RPR006-checked: no per-tick scalar loops)
# ----------------------------------------------------------------------
def forecast_block(
    last_values: np.ndarray, steps: np.ndarray, horizon: int
) -> np.ndarray:
    """(series × horizon) forecast matrix from per-series parameters.

    Row ``i`` is ``last_values[i] + steps[i] * (1..horizon)`` — the
    model's own extrapolation rule (slope continuation for Swing, zero
    step for level holds), evaluated for all series and all horizon
    offsets in one broadcast.
    """
    offsets = np.arange(1, horizon + 1, dtype=np.float64)
    return last_values[:, None] + steps[:, None] * offsets[None, :]


def forecast_halfwidths(
    end_tolerances: np.ndarray, growths: np.ndarray, horizon: int
) -> np.ndarray:
    """(series × horizon) error half-widths for :func:`forecast_block`.

    The half-width at offset ``h`` is the endpoint tolerance plus
    ``h`` times the per-step growth the model's fitted parameters
    admit (zero for level holds and lossless models).
    """
    offsets = np.arange(1, horizon + 1, dtype=np.float64)
    return end_tolerances[:, None] + growths[:, None] * offsets[None, :]


def window_lower_bounds(
    pattern: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """Per-window lower bound on the distance, from the envelope alone.

    A pattern value contributes at least its squared distance to the
    ``[lower, upper]`` interval it aligns with; a window crossing a gap
    (NaN envelope) is invalid and bounds to infinity. Vectorised over
    all windows at once, offset by offset (pattern lengths are small
    compared to series lengths).
    """
    length = len(pattern)
    n_windows = len(lower) - length + 1
    if n_windows < 1:
        return np.empty(0)
    bounds = np.zeros(n_windows)
    for offset, value in enumerate(pattern):
        below = np.maximum(lower[offset:offset + n_windows] - value, 0.0)
        above = np.maximum(value - upper[offset:offset + n_windows], 0.0)
        bounds += np.maximum(below, above) ** 2
    invalid = np.isnan(lower) | np.isnan(upper)
    if invalid.any():
        bad = np.convolve(
            invalid.astype(np.int64), np.ones(length, dtype=np.int64)
        )
        bounds[bad[length - 1:length - 1 + n_windows] > 0] = np.inf
    return bounds


# ----------------------------------------------------------------------
# The parameter-space index
# ----------------------------------------------------------------------
class SignatureIndex:
    """Per-series segment signatures from one Segment View pass.

    Generalises the per-Tid envelope scan of the original
    ``query/similarity.py`` seed: every restricted segment row is
    visited exactly once, grouped by Tid, and summarised by its model
    parameters (start, length, level envelope via ``slice_min``/
    ``slice_max`` — O(1) for constant and linear models). Envelopes
    power window pruning; reconstruction happens lazily and only for
    series with surviving candidate windows.
    """

    def __init__(self, rows: Iterable["SegmentViewRow"]) -> None:
        self._series: dict[int, list] = {}
        for view_row in rows:
            self._series.setdefault(view_row.row.tid, []).append(view_row)
        for segment_rows in self._series.values():
            segment_rows.sort(key=lambda view_row: view_row.row.start_time)

    @property
    def tids(self) -> list[int]:
        return sorted(self._series)

    def segments(self, tid: int) -> list:
        """The series' segment rows, sorted by start time."""
        return self._series.get(tid, [])

    def envelope(
        self, tid: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(timestamps, lower, upper) per grid point; NaN marks gaps."""
        rows = self._series.get(tid)
        if not rows:
            return None
        si = rows[0].row.sampling_interval
        start = rows[0].row.start_time
        end = max(view_row.row.end_time for view_row in rows)
        n_points = (end - start) // si + 1
        timestamps = start + np.arange(n_points, dtype=np.int64) * si
        lower = np.full(n_points, np.nan)
        upper = np.full(n_points, np.nan)
        for view_row in rows:
            row = view_row.row
            first_index = (row.start_time - start) // si
            last_index = (row.end_time - start) // si
            low = view_row.model.slice_min(0, row.length - 1, row.column)
            high = view_row.model.slice_max(0, row.length - 1, row.column)
            lower[first_index:last_index + 1] = low / row.scaling
            upper[first_index:last_index + 1] = high / row.scaling
        return timestamps, lower, upper

    def reconstruct(self, tid: int, n_points: int) -> np.ndarray:
        """Full series reconstruction (verified candidates only)."""
        rows = self._series[tid]
        si = rows[0].row.sampling_interval
        start = rows[0].row.start_time
        values = np.full(n_points, np.nan)
        for view_row in rows:
            row = view_row.row
            first_index = (row.start_time - start) // si
            column = view_row.model.column_values(row.column) / row.scaling
            values[first_index:first_index + row.length] = column
        return values


# ----------------------------------------------------------------------
# FORECAST
# ----------------------------------------------------------------------
def forecast_rows(
    index: SignatureIndex, horizon: int, error_bound: float
) -> list[dict]:
    """``FORECAST(TS, horizon)`` result rows, sorted by (Tid, TS).

    Each series is extrapolated from its *last* stored segment's model
    parameters; no stored point is reconstructed. ``error_bound`` is
    the ingestion-time relative bound in percent; it propagates into
    per-point ``[Lo, Hi]`` intervals via :func:`forecast_halfwidths`.
    """
    tids: list[int] = []
    ends: list[int] = []
    intervals: list[int] = []
    last_values: list[float] = []
    steps: list[float] = []
    tolerances: list[float] = []
    growths: list[float] = []
    for tid in index.tids:
        view_row = index.segments(tid)[-1]
        row = view_row.row
        model = view_row.model
        # The clipped index range makes `WHERE TS <= t` mean "forecast
        # as of t": extrapolation starts at the last in-interval point.
        last_index = view_row.last
        last = model.value_at(last_index, row.column) / row.scaling
        if model.constant_time_aggregates and last_index >= 1:
            step = (
                last
                - model.value_at(last_index - 1, row.column) / row.scaling
            )
        else:
            # Lossless models carry no trend parameter; single-point
            # spans constrain no slope. Both hold the last value.
            step = 0.0
        first = model.value_at(0, row.column) / row.scaling
        end_tolerance = _tolerance(last, error_bound)
        if step != 0.0 and last_index >= 1:
            # A fitted slope can differ from the true one by at most
            # the two endpoint tolerances spread over the fitted span.
            growth = (
                _tolerance(first, error_bound) + end_tolerance
            ) / last_index
        else:
            growth = 0.0
        tids.append(tid)
        ends.append(row.start_time + last_index * row.sampling_interval)
        intervals.append(row.sampling_interval)
        last_values.append(last)
        steps.append(step)
        tolerances.append(end_tolerance)
        growths.append(growth)
    if not tids:
        return []
    values = forecast_block(
        np.array(last_values), np.array(steps), horizon
    )
    halfwidths = forecast_halfwidths(
        np.array(tolerances), np.array(growths), horizon
    )
    lows = (values - halfwidths).tolist()
    highs = (values + halfwidths).tolist()
    value_lists = values.tolist()
    results: list[dict] = []
    for position, tid in enumerate(tids):
        si = intervals[position]
        end = ends[position]
        for offset in range(horizon):
            results.append(
                {
                    "Tid": tid,
                    "TS": end + (offset + 1) * si,
                    "Value": value_lists[position][offset],
                    "Lo": lows[position][offset],
                    "Hi": highs[position][offset],
                }
            )
    return results


def _tolerance(value: float, error_bound: float) -> float:
    """Absolute tolerance of one stored value under a relative bound.

    The bound guarantees ``|stored - true| <= bound% * |true|``; solved
    for the unknown true value this is ``bound% * |stored| / (1 -
    bound%)`` — the widest absolute deviation any admissible true value
    can have from the stored one.
    """
    if error_bound <= 0.0:
        return 0.0
    fraction = min(error_bound, 99.0) / 100.0
    return fraction * abs(value) / (1.0 - fraction)


# ----------------------------------------------------------------------
# SIMILAR TO
# ----------------------------------------------------------------------
def similarity_rows(
    index: SignatureIndex,
    pattern: Sequence[float],
    k: int,
    stats: SearchStats | None = None,
) -> list[dict]:
    """``SIMILAR TO`` result rows: the k closest windows, globally.

    Sorted by (Distance, Tid, StartTime) — a total order, so the
    master-side scatter-gather merge (:func:`merge_analytics_rows`)
    reproduces the single-node result exactly.
    """
    matches = search(index, pattern, k, stats)
    return [
        {
            "Tid": match.tid,
            "StartTime": match.start_time,
            "Distance": match.distance,
        }
        for match in matches
    ]


def search(
    index: SignatureIndex,
    pattern: Sequence[float],
    k: int,
    stats: SearchStats | None = None,
) -> list[Match]:
    """Top-k sub-sequence search over the signature index."""
    query = np.asarray(pattern, dtype=np.float64)
    if query.ndim != 1 or len(query) < 1:
        raise QueryError("the search pattern must be a non-empty sequence")
    if k < 1:
        raise QueryError("k must be at least 1")
    counters = stats if stats is not None else SearchStats()
    best: list[Match] = []
    for tid in index.tids:
        _search_series(index, tid, query, k, best, counters)
    best.sort(key=_match_order)
    return best[:k]


def _match_order(match: Match) -> tuple[float, int, int]:
    return (match.distance, match.tid, match.start_time)


def _search_series(
    index: SignatureIndex,
    tid: int,
    query: np.ndarray,
    k: int,
    best: list[Match],
    stats: SearchStats,
) -> None:
    envelope = index.envelope(tid)
    if envelope is None:
        return
    timestamps, lower, upper = envelope
    length = len(query)
    bounds = window_lower_bounds(query, lower, upper)
    if len(bounds) == 0:
        return
    stats.windows += len(bounds)
    order = np.argsort(bounds)
    values_cache: np.ndarray | None = None
    for position in order:
        bound = bounds[position]
        threshold = best[k - 1].distance ** 2 if len(best) >= k else np.inf
        # The bound accumulates offset by offset while the verified
        # distance uses numpy's pairwise sum, so on a tight envelope the
        # bound can land a few ulps above the true squared distance. The
        # relative slack (far above any accumulation error for realistic
        # pattern lengths) keeps tied windows verifiable; verification
        # computes exact distances, so results stay exact.
        if bound > threshold * (1.0 + 1e-9):
            break  # sorted by bound: nothing later can qualify
        if not np.isfinite(bound):
            break
        if values_cache is None:
            values_cache = index.reconstruct(tid, len(timestamps))
        stats.verified += 1
        window = values_cache[position:position + length]
        if np.isnan(window).any():
            continue
        distance = float(np.sqrt(((window - query) ** 2).sum()))
        candidate = Match(tid, int(timestamps[position]), distance)
        # Compare under the full (Distance, Tid, StartTime) order, not
        # distance alone: flat regions produce runs of equal-distance
        # windows and the total order decides which of them are top-k.
        if len(best) < k or _match_order(candidate) < _match_order(
            best[k - 1]
        ):
            best.append(candidate)
            best.sort(key=_match_order)
            del best[k:]


# ----------------------------------------------------------------------
# Anomaly flags
# ----------------------------------------------------------------------
def anomaly_starts(
    index: SignatureIndex, error_bound: float
) -> set[tuple[int, int]]:
    """(tid, segment start time) of every anomalous segment boundary.

    The fitter closes a segment exactly when the next point leaves the
    model's feasible region, so every boundary is *some* change; the
    flag separates structural breaks from in-bound noise. A boundary is
    anomalous when the next segment's first value drifts from the
    previous model's one-step extrapolation by more than
    :data:`ANOMALY_SCALE` times the larger of the error-bound
    tolerances and the previous model's own per-step movement. Gaps
    (non-contiguous segments) are not scored — absence is not drift.
    """
    flagged: set[tuple[int, int]] = set()
    for tid in index.tids:
        rows = index.segments(tid)
        for previous, current in zip(rows, rows[1:]):
            prev_row = previous.row
            cur_row = current.row
            si = prev_row.sampling_interval
            if cur_row.start_time - prev_row.end_time != si:
                continue
            length = prev_row.length
            prev_model = previous.model
            last = (
                prev_model.value_at(length - 1, prev_row.column)
                / prev_row.scaling
            )
            if prev_model.constant_time_aggregates and length > 1:
                step = (
                    last
                    - prev_model.value_at(length - 2, prev_row.column)
                    / prev_row.scaling
                )
            else:
                step = 0.0
            expected = last + step
            first = (
                current.model.value_at(0, cur_row.column) / cur_row.scaling
            )
            drift = abs(first - expected)
            tolerance = ANOMALY_SCALE * max(
                _tolerance(last, error_bound),
                _tolerance(first, error_bound),
                abs(step),
            )
            if drift > max(tolerance, 1e-12):
                flagged.add((cur_row.tid, cur_row.start_time))
    return flagged


# ----------------------------------------------------------------------
# Scatter-gather merge (master side)
# ----------------------------------------------------------------------
def merge_analytics_rows(query: Query, rows: list[dict]) -> list[dict]:
    """Merge per-shard analytics rows into the single-node result.

    Similarity keeps the global top-k by the same total order every
    worker sorts with; forecasts re-sort by (Tid, TS) because shards
    return disjoint Tids in shard — not Tid — order. Anything else
    passes through unchanged.
    """
    if query.similar_to is not None:
        k = query.limit if query.limit is not None else DEFAULT_SIMILARITY_K
        return sorted(
            rows,
            key=lambda row: (row["Distance"], row["Tid"], row["StartTime"]),
        )[:k]
    if query.has_forecast:
        return sorted(rows, key=lambda row: (row["Tid"], row["TS"]))
    return rows

