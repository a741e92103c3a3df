"""Bookkeeping shared by the workloads: samples, metrics, scratch space.

**Reference speed.** The sandbox this benchmark has to be steady on is a
shared virtual machine whose processor speed drifts by tens of percent
from minute to minute (the same fixed work measured 112 to 223
statements a second in ten back-to-back runs). A regression bound of
10–25 % is meaningless against that, so every timed figure is reported
*at reference speed*: a fixed routine (:func:`reference`) is timed in
short bursts between rounds and set-ups, and each section's times are
divided — its rates multiplied — by how much slower than
:data:`REFERENCE_S` the routine ran around that section. Counts, bytes
and memory are never scaled, and the raw figures stay in the detailed
record beside the machine speed that was seen.
"""

from __future__ import annotations

import math
import resource
import shutil
import statistics
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator

import numpy as np

#: The checkout the suite runs in (the driver's checkout is not
#: ``/root/repo`` and the benchmark may write nowhere else).
ROOT = Path(__file__).resolve().parents[2]
#: Scratch space for stores, server logs and span files.
WORK = ROOT / ".bench_work"

#: (name, unit) of the end-to-end metrics, in report order. Bounds and
#: directions live in ``BENCHMARK.json``. ``failed_share`` is reported by
#: the suite's own output only: the driver reads ``failed``/``attempted``.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ingest_points_per_s", "points/s"),
    ("bytes_per_point", "B"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("fresh_read_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

#: What :func:`reference` takes on the reference sandbox in its usual
#: state; slowness 1.0 means the machine ran the routine this fast.
REFERENCE_S = 0.0006
_BURST_S = 0.02
_BLOCK = np.arange(4096, dtype=float)
_PACK = struct.Struct("<24f")


def reference() -> float:
    """Seconds one pass of the fixed reference routine took.

    The routine does what the program under test does most — builds row
    dicts, walks them, runs short numpy kernels, unpacks binary records —
    so that whatever slows the interpreter slows it alike.
    """
    started = perf_counter()
    rows = [{"Tid": i, "TS": i * 60_000, "Value": i * 0.5} for i in range(1500)]
    total = 0.0
    for row in rows:
        total += row["Value"]
    for _ in range(15):
        running = np.cumsum(_BLOCK)
        np.abs(running[running > total]).sum()
    record = _PACK.pack(*range(24))
    for _ in range(300):
        _PACK.unpack(record)
    return perf_counter() - started


class Clock:
    """Machine speed around each timed section.

    ``start()`` before a section and ``stop()`` after it each time a
    burst of the reference routine; ``stop()`` returns the section's
    slowness — the mean of the two bursts over :data:`REFERENCE_S`.
    Back-to-back sections share the burst between them.
    """

    #: A burst this fresh still describes the machine when a section starts.
    _FRESH_S = 0.005

    def __init__(self) -> None:
        self._last = REFERENCE_S
        self._last_at = -math.inf

    def _burst(self) -> None:
        samples = []
        deadline = perf_counter() + _BURST_S
        while perf_counter() < deadline:
            samples.append(reference())
        self._last = statistics.median(samples)
        self._last_at = perf_counter()

    def start(self) -> None:
        if perf_counter() - self._last_at > self._FRESH_S:
            self._burst()

    def stop(self) -> float:
        before = self._last
        self._burst()
        return (before + self._last) / 2.0 / REFERENCE_S


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (0 of nothing)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(math.ceil(fraction * len(ordered)) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


@contextmanager
def scratch(prefix: str) -> Iterator[Path]:
    """A directory under :data:`WORK`, removed on every path out."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix + "-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Sample series that are durations (divided by slowness) and rates
#: (multiplied by it) when reported at reference speed.
_TIMES = ("setup_s", "latencies_ms", "fresh_reads_ms", "round_walls")
_RATES = ("ingest_rates", "query_rates")


class Outcome:
    """Everything one workload run measured.

    Throughput samples are one per round (the reported value is the
    median round); latencies pool every verified query of every round.
    A failed operation contributes to ``failed`` and to no sample.
    Samples are added raw; :meth:`commit` closes a timed section and
    pins its samples to the slowness the machine showed around it.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None
        self.bytes_per_point = 0.0
        self.peak_rss_mb = 0.0
        self.forced_kills = 0
        self._values: dict[str, list[float]] = {
            key: [] for key in _TIMES + _RATES
        }
        self._slowness: dict[str, list[float]] = {
            key: [] for key in _TIMES + _RATES
        }

    def record(self, ok: bool, what: str) -> bool:
        """Count one operation; remember the first that failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = what
        return ok

    def add(self, series: str, value: float) -> None:
        self._values[series].append(value)

    def commit(self, slowness: float) -> None:
        """Close a timed section: its samples ran at this slowness."""
        for series, values in self._values.items():
            known = self._slowness[series]
            known.extend([slowness] * (len(values) - len(known)))

    def series(self, name: str, raw: bool = False) -> list[float]:
        """A sample series, at reference speed unless ``raw``."""
        values = self._values[name]
        if raw:
            return list(values)
        slowness = self._slowness[name]
        if name in _RATES:
            return [value * slow for value, slow in zip(values, slowness)]
        return [value / slow for value, slow in zip(values, slowness)]

    def machine_slowness(self) -> float:
        """Median slowness over every committed sample's section."""
        seen = self._slowness["round_walls"] + self._slowness["setup_s"]
        return statistics.median(seen) if seen else 1.0

    def end_to_end(self, raw: bool = False) -> dict[str, float]:
        """Every end-to-end metric; 0 where no operation succeeded."""

        def median(name: str) -> float:
            values = self.series(name, raw)
            return statistics.median(values) if values else 0.0

        latencies = self.series("latencies_ms", raw)
        return {
            "setup_s": median("setup_s"),
            "ingest_points_per_s": median("ingest_rates"),
            "bytes_per_point": self.bytes_per_point,
            "queries_per_s": median("query_rates"),
            "query_p50_ms": percentile(latencies, 0.50),
            "query_p95_ms": percentile(latencies, 0.95),
            "fresh_read_p50_ms": percentile(self.series("fresh_reads_ms", raw), 0.50),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def samples(self) -> dict[str, int]:
        """How many samples stand behind each figure."""
        return {
            "setups": len(self._values["setup_s"]),
            "ingest_rounds": len(self._values["ingest_rates"]),
            "query_rounds": len(self._values["query_rates"]),
            "latencies": len(self._values["latencies_ms"]),
            "fresh_reads": len(self._values["fresh_reads_ms"]),
        }
