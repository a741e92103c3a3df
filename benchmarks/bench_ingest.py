"""Ingestion benchmark: one-row blocks vs columnar batch throughput.

Not a paper figure — the paper reports ingestion rate per node
(Fig. 13) but never isolates the ingestion loop's own overhead — yet the
columnar batch path (``ModelFitter.extend`` over ``(ticks, series)``
blocks, chunked group buffers) exists purely for this axis, so it needs
a measured baseline. The workload is the regime the paper's correlated
dimensional series live in: long holds and slow ramps shared across the
group with small per-series jitter, which yields length-limit segments
(the shape group compression targets) rather than pathological
one-tick splits.

Measures points/sec at 1-, 8- and 32-series groups, one-row blocks
(``ingest_chunk_size=1``, reported as ``scalar``) vs batch (default
1024), interleaved best-of-N so machine noise cancels out of the ratio,
and verifies the two chunkings land byte-identical segments before
timing anything. ``--output`` names the JSON artifact to write
(nothing is written without it, so a smoke run never replaces the
committed full-run ``BENCH_ingest.json``)::

    python benchmarks/bench_ingest.py --output BENCH_ingest.json  # ~1 min
    python benchmarks/bench_ingest.py --smoke    # seconds (CI)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import Configuration, ModelarDB  # noqa: E402
from repro.core.group import TimeSeriesGroup  # noqa: E402
from repro.core.timeseries import TimeSeries  # noqa: E402
from repro.storage import SegmentScan  # noqa: E402

GROUP_SIZES = (1, 8, 32)
SAMPLING_INTERVAL = 100


def regime_group(n_series: int, n_points: int, seed: int) -> TimeSeriesGroup:
    """A correlated group of holds and ramps with per-series jitter.

    The shared signal alternates constant regimes (PMC territory) and
    slow linear drifts (Swing territory); each member sees it through a
    small offset plus jitter well inside a 1% error bound, so the group
    compresses exactly as the paper's correlated series do.
    """
    rng = np.random.default_rng(seed)
    shared = np.empty(n_points)
    level = 100.0
    i = 0
    while i < n_points:
        if rng.random() < 0.5:
            run = int(rng.integers(100, 300))
            run = min(run, n_points - i)
            shared[i:i + run] = level
        else:
            run = int(rng.integers(50, 150))
            run = min(run, n_points - i)
            slope = rng.uniform(-0.02, 0.02)
            shared[i:i + run] = level + slope * np.arange(run)
            level = shared[i + run - 1]
        i += run
    timestamps = np.arange(n_points, dtype=np.int64) * SAMPLING_INTERVAL
    series = []
    for tid in range(1, n_series + 1):
        offset = rng.uniform(-0.05, 0.05)
        jitter = rng.normal(0.0, 0.002, n_points)
        values = np.float32(shared + offset + jitter)
        series.append(TimeSeries(tid, SAMPLING_INTERVAL, timestamps, values))
    return TimeSeriesGroup(1, series)


def build_db(chunk_size: int) -> ModelarDB:
    config = Configuration(error_bound=1.0, ingest_chunk_size=chunk_size)
    return ModelarDB.open(config=config)


def ingest_once(group: TimeSeriesGroup, chunk_size: int) -> tuple[float, ModelarDB]:
    db = build_db(chunk_size)
    started = time.perf_counter()
    db.ingest([group])
    return time.perf_counter() - started, db


def store_signature(db: ModelarDB):
    return sorted(
        (s.gid, s.start_time, s.end_time, s.mid, bytes(s.parameters),
         tuple(sorted(s.gaps)))
        for s in db.storage.scan(SegmentScan())
    )


def measure(group: TimeSeriesGroup, chunk_size: int, repeats: int) -> dict:
    """Interleaved best-of-N scalar vs batch over one group."""
    n_points = len(group.series[0].values) * len(group.series)
    scalar_best = batch_best = float("inf")
    scalar_db = batch_db = None
    for _ in range(repeats):
        elapsed, scalar_db = ingest_once(group, chunk_size=1)
        scalar_best = min(scalar_best, elapsed)
        elapsed, batch_db = ingest_once(group, chunk_size=chunk_size)
        batch_best = min(batch_best, elapsed)
    assert store_signature(batch_db) == store_signature(scalar_db), (
        "batch path is not byte-identical to one-row blocks"
    )
    scalar_rate = n_points / scalar_best
    batch_rate = n_points / batch_best
    return {
        "series": len(group.series),
        "points": n_points,
        "segments": batch_db.segment_count(),
        "scalar_seconds": round(scalar_best, 6),
        "batch_seconds": round(batch_best, 6),
        "scalar_points_per_second": round(scalar_rate),
        "batch_points_per_second": round(batch_rate),
        "speedup": round(batch_rate / scalar_rate, 3),
        "fallback_ticks": batch_db.stats.fallback_ticks,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--points", type=int, default=60_000,
        help="ticks per series at each group size",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="interleaved repetitions; best of N is reported",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=1024,
        help="columnar buffer size of the batch path",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="short CI run: 4k points, one repetition",
    )
    parser.add_argument(
        "--output", default=None,
        help="path of the JSON artifact (written only when given)",
    )
    arguments = parser.parse_args(argv)
    n_points = 4_000 if arguments.smoke else arguments.points
    repeats = 1 if arguments.smoke else arguments.repeats

    runs = []
    for n_series in GROUP_SIZES:
        group = regime_group(n_series, n_points, seed=17 + n_series)
        print(f"group of {n_series} series × {n_points} points ...")
        run = measure(group, arguments.chunk_size, repeats)
        print(
            f"  scalar {run['scalar_points_per_second']:>10,} pts/s   "
            f"batch {run['batch_points_per_second']:>10,} pts/s   "
            f"speedup {run['speedup']:.2f}x"
        )
        runs.append(run)

    artifact = {
        "benchmark": "ingestion (scalar vs columnar batch)",
        "generated_unix": int(time.time()),
        "smoke": arguments.smoke,
        "workload": "correlated holds+ramps, 1% error bound",
        "points_per_series": n_points,
        "repeats": repeats,
        "chunk_size": arguments.chunk_size,
        "runs": runs,
    }
    if arguments.output:
        output = Path(arguments.output)
        output.write_text(json.dumps(artifact, indent=2) + "\n")
        print(f"\nwrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
