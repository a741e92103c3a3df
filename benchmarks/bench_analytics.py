"""Analytics benchmark: model-native SIMILAR TO vs point-decode search.

Not a paper figure — the paper lists similarity search on models as
future work (Section 9) — but the claim behind ``repro.query.analytics``
is measurable: a ``SIMILAR TO`` search answered from the parameter-space
:class:`~repro.query.analytics.SignatureIndex` (segment envelopes prune
windows before any value is reconstructed) should beat a brute-force
baseline that decodes every series and scores every window, and the gap
should widen with the number of series. Both sides share the decode
kernels and the distance formula, so the top-k results are verified
identical before anything is timed.

A second section measures ``FORECAST(TS, horizon)``: statement latency
on the same store, plus accuracy on held-out points of deterministic
trend series — the model's slope continuation against the naive
hold-last-value forecast — and the fraction of true values inside the
propagated ``[Lo, Hi]`` interval. ``--output`` writes a JSON artifact
(nothing is written without it)::

    python benchmarks/bench_analytics.py --output BENCH_analytics.json  # ~2 min
    python benchmarks/bench_analytics.py --smoke    # seconds (CI)
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Configuration, ModelarDB  # noqa: E402
from repro.core.group import TimeSeriesGroup  # noqa: E402
from repro.core.timeseries import TimeSeries  # noqa: E402
from repro.query.analytics import (  # noqa: E402
    Match,
    SearchStats,
    SignatureIndex,
)
from repro.query.engine import QueryEngine  # noqa: E402
from repro.query.rewriter import Predicates, rewrite  # noqa: E402

SAMPLING_INTERVAL = 100
SERIES_PER_GROUP = 8
ERROR_BOUND = 1.0
PATTERN_LENGTH = 32
K = 10
HORIZON = 16


def regime_group(
    gid: int, first_tid: int, n_points: int, seed: int
) -> TimeSeriesGroup:
    """Correlated holds and ramps with jitter — the same regime the
    ingestion and query benchmarks use, so segments look like
    production ones (PMC-Mean holds and Swing trends dominate)."""
    rng = np.random.default_rng(seed)
    shared = np.empty(n_points)
    level = 100.0
    i = 0
    while i < n_points:
        if rng.random() < 0.5:
            run = min(int(rng.integers(100, 300)), n_points - i)
            shared[i:i + run] = level
        else:
            run = min(int(rng.integers(50, 150)), n_points - i)
            slope = rng.uniform(-0.02, 0.02)
            shared[i:i + run] = level + slope * np.arange(run)
            level = shared[i + run - 1]
        i += run
    timestamps = np.arange(n_points, dtype=np.int64) * SAMPLING_INTERVAL
    series = []
    for offset in range(SERIES_PER_GROUP):
        tid = first_tid + offset
        base = rng.uniform(-0.05, 0.05)
        jitter = rng.normal(0.0, 0.002, n_points)
        values = np.float32(shared + base + jitter)
        series.append(TimeSeries(tid, SAMPLING_INTERVAL, timestamps, values))
    return TimeSeriesGroup(gid, series)


def build_db(n_groups: int, n_points: int) -> tuple[ModelarDB, np.ndarray]:
    """Ingest the workload; returns (db, search pattern).

    The pattern is a window cut from the first series' raw values —
    query-by-example, so the search has a meaningful nearest match.
    """
    groups = [
        regime_group(gid, 1 + (gid - 1) * SERIES_PER_GROUP, n_points, seed=gid)
        for gid in range(1, n_groups + 1)
    ]
    pattern = np.asarray(
        groups[0].series[0].values[
            n_points // 2:n_points // 2 + PATTERN_LENGTH
        ],
        dtype=np.float64,
    )
    db = ModelarDB.open(config=Configuration(error_bound=ERROR_BOUND))
    db.ingest(groups)
    return db, pattern


# ----------------------------------------------------------------------
# The point-decode baseline
# ----------------------------------------------------------------------
def brute_force_search(
    engine: QueryEngine, pattern: np.ndarray, k: int
) -> list[Match]:
    """Decode every series, score every window, keep the global top-k.

    The honest non-indexed competitor: it pays one full reconstruction
    per series (the decode the envelope index avoids) and a vectorised
    distance evaluation over all windows (the work the lower bound
    prunes). Ordering matches the analytics path: (Distance, Tid,
    StartTime).
    """
    plan = rewrite(Predicates(), engine.metadata)
    index = SignatureIndex(engine._segment_view().rows(plan))
    length = len(pattern)
    matches: list[Match] = []
    for tid in index.tids:
        rows = index.segments(tid)
        si = rows[0].row.sampling_interval
        start = rows[0].row.start_time
        end = max(view_row.row.end_time for view_row in rows)
        n_points = (end - start) // si + 1
        values = index.reconstruct(tid, n_points)
        n_windows = n_points - length + 1
        if n_windows < 1:
            continue
        windows = np.lib.stride_tricks.sliding_window_view(values, length)
        squared = ((windows - pattern) ** 2).sum(axis=1)
        for position in np.flatnonzero(np.isfinite(squared)):
            window = values[position:position + length]
            # The exact per-window expression the verified path uses,
            # so distances are bit-identical, not merely close.
            distance = float(np.sqrt(((window - pattern) ** 2).sum()))
            matches.append(Match(tid, int(start + position * si), distance))
    matches.sort(key=lambda m: (m.distance, m.tid, m.start_time))
    return matches[:k]


def row_bits(rows: list[dict]):
    return [
        {
            key: struct.pack("<d", value) if isinstance(value, float) else value
            for key, value in row.items()
        }
        for row in rows
    ]


def time_call(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def measure_similarity(
    engine: QueryEngine, pattern: np.ndarray, repeats: int
) -> dict:
    literals = ", ".join(repr(float(value)) for value in pattern)
    sql = f"SELECT * FROM DataPoint SIMILAR TO ({literals}) LIMIT {K}"

    # Verify before timing: the pruned search and the brute-force decode
    # must return bit-identical top-k rows.
    rows = engine.sql(sql)
    brute = [
        {"Tid": m.tid, "StartTime": m.start_time, "Distance": m.distance}
        for m in brute_force_search(engine, pattern, K)
    ]
    assert row_bits(brute) == row_bits(rows), (
        "SIMILAR TO: pruned search disagrees with the brute-force decode"
    )

    stats = SearchStats()
    plan = rewrite(Predicates(), engine.metadata)
    index = SignatureIndex(engine._segment_view().rows(plan))
    from repro.query.analytics import search

    search(index, pattern, K, stats)

    model_best = brute_best = float("inf")
    for _ in range(repeats):
        model_best = min(model_best, time_call(lambda: engine.sql(sql)))
        brute_best = min(
            brute_best,
            time_call(lambda: brute_force_search(engine, pattern, K)),
        )
    return {
        "sql": f"SELECT * FROM DataPoint SIMILAR TO (...) LIMIT {K}",
        "pattern_length": PATTERN_LENGTH,
        "k": K,
        "windows": stats.windows,
        "verified": stats.verified,
        "pruned_fraction": round(stats.pruned_fraction, 6),
        "model_native_seconds": round(model_best, 6),
        "point_decode_seconds": round(brute_best, 6),
        "speedup": round(brute_best / model_best, 3),
        "top_distance": rows[0]["Distance"] if rows else None,
    }


def measure_forecast(engine: QueryEngine, repeats: int) -> dict:
    sql = f"SELECT FORECAST(TS, {HORIZON}) FROM DataPoint"
    rows = engine.sql(sql)
    best = float("inf")
    for _ in range(repeats):
        best = min(best, time_call(lambda: engine.sql(sql)))
    return {
        "sql": sql,
        "horizon": HORIZON,
        "rows": len(rows),
        "seconds": round(best, 6),
    }


def forecast_accuracy() -> dict:
    """Held-out accuracy on deterministic trend series.

    Ingest the prefix of linear ramps, forecast ``HORIZON`` steps, and
    compare against the held-out true values: the model forecast
    continues the fitted slope while the naive baseline repeats the
    last observed value. Also reports how often the true value falls
    inside the propagated ``[Lo, Hi]`` interval.
    """
    n_points, n_series = 512, 8
    timestamps = np.arange(n_points, dtype=np.int64) * SAMPLING_INTERVAL
    groups, truth, naive = [], {}, {}
    for tid in range(1, n_series + 1):
        # Steep enough that a constant hold leaves the 1% bound within
        # one segment, so every segment fits Swing, not PMC-Mean.
        slope = 0.05 * tid
        values = np.float32(50.0 + slope * np.arange(n_points))
        prefix = n_points - HORIZON
        # One group per series: the slopes diverge, so joint fitting
        # would push every segment to the lossless model and turn the
        # forecast into a hold — Swing needs per-series segments here.
        groups.append(
            TimeSeriesGroup(
                tid,
                [
                    TimeSeries(
                        tid,
                        SAMPLING_INTERVAL,
                        timestamps[:prefix],
                        values[:prefix],
                    )
                ],
            )
        )
        truth[tid] = values[prefix:].astype(np.float64)
        naive[tid] = float(values[prefix - 1])
    with ModelarDB.open(config=Configuration(error_bound=ERROR_BOUND)) as db:
        db.ingest(groups)
        rows = db.sql(f"SELECT FORECAST(TS, {HORIZON}) FROM DataPoint")
    last_ingested = int(timestamps[n_points - HORIZON - 1])
    model_errors, naive_errors, contained = [], [], 0
    for row in rows:
        tid = row["Tid"]
        step = (row["TS"] - last_ingested) // SAMPLING_INTERVAL - 1
        true = float(truth[tid][step])
        model_errors.append(abs(row["Value"] - true))
        naive_errors.append(abs(naive[tid] - true))
        if row["Lo"] <= true <= row["Hi"]:
            contained += 1
    return {
        "series": n_series,
        "horizon": HORIZON,
        "model_mae": round(float(np.mean(model_errors)), 6),
        "naive_mae": round(float(np.mean(naive_errors)), 6),
        "interval_containment": round(contained / len(rows), 6),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--groups", type=int, default=128,
        help=f"correlated groups of {SERIES_PER_GROUP} series each",
    )
    parser.add_argument(
        "--points", type=int, default=1_000,
        help="ticks per series",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="interleaved repetitions; best of N is reported",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="short CI run: 16 groups, 256 points, two repetitions",
    )
    parser.add_argument(
        "--output", default=None,
        help="path of the JSON artifact (written only when given)",
    )
    arguments = parser.parse_args(argv)
    n_groups = 16 if arguments.smoke else arguments.groups
    n_points = 256 if arguments.smoke else arguments.points
    repeats = 2 if arguments.smoke else arguments.repeats
    n_series = n_groups * SERIES_PER_GROUP

    print(f"ingesting {n_series} series × {n_points:,} points ...")
    db, pattern = build_db(n_groups, n_points)
    engine = QueryEngine(db.storage, db.registry, error_bound=ERROR_BOUND)

    similarity = measure_similarity(engine, pattern, repeats)
    print(
        f"  SIMILAR TO      model-native "
        f"{similarity['model_native_seconds'] * 1000:9.2f} ms   "
        f"point-decode {similarity['point_decode_seconds'] * 1000:9.2f} ms   "
        f"speedup {similarity['speedup']:.2f}x   "
        f"pruned {similarity['pruned_fraction']:.1%}"
    )
    forecast = measure_forecast(engine, repeats)
    print(
        f"  FORECAST        {forecast['rows']} rows in "
        f"{forecast['seconds'] * 1000:9.2f} ms"
    )
    accuracy = forecast_accuracy()
    print(
        f"  accuracy        model MAE {accuracy['model_mae']:.4f}   "
        f"naive MAE {accuracy['naive_mae']:.4f}   "
        f"containment {accuracy['interval_containment']:.1%}"
    )

    artifact = {
        "benchmark": "model-native analytics (SIMILAR TO, FORECAST)",
        "generated_unix": int(time.time()),
        "smoke": arguments.smoke,
        "workload": "correlated holds+ramps, 1% error bound",
        "series": n_series,
        "points_per_series": n_points,
        "repeats": repeats,
        "similarity": similarity,
        "forecast": forecast,
        "forecast_accuracy": accuracy,
    }
    if arguments.output:
        output = Path(arguments.output)
        output.write_text(json.dumps(artifact, indent=2) + "\n")
        print(f"\nwrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
