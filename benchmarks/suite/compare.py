"""The comparator: two result files against the bounds of BENCHMARK.json.

One row per (workload, metric). A side's spread is the distance between
the first and third quartile of its runs over their median; when either
spread is wider than the metric's bound the pair is ``unresolved`` — the
runs cannot tell a regression of that size from noise — otherwise ``B``
is ``worse`` when its median is worse than ``A``'s by more than the
bound, and ``ok`` if not. ``failed_share`` has an absolute bound of 0,
and ``bytes_per_point`` is also compared exactly seed by seed: it is
deterministic per seed, so any change is a format change.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

#: Deterministic per seed: compared exactly when both sides ran a seed.
EXACT = ("bytes_per_point",)


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    verdict: str
    a: tuple[float, float, float]
    b: tuple[float, float, float]
    bound: float

    def line(self) -> str:
        def side(values: tuple[float, float, float]) -> str:
            median, low, high = values
            return f"{median:>13.5g} [{low:.5g}, {high:.5g}]"

        return (
            f"{self.workload:<14} {self.metric:<20} {self.verdict:<10} "
            f"A {side(self.a)}  B {side(self.b)}  {self.unit} "
            f"(bound {self.bound:g})"
        )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    first, _, third = statistics.quantiles(values, n=4)
    return median, first, third


def _spread(summary: tuple[float, float, float]) -> float:
    median, first, third = summary
    return (third - first) / abs(median) if median else 0.0


def _series(result: dict, workload: str, metric: str) -> dict[int, float]:
    """seed -> value of one metric over a result file's runs."""
    values = {}
    for run in result["runs"]:
        detail = run["workloads"].get(workload)
        if detail is not None:
            values[run["seed"]] = detail["end_to_end"][metric]
    return values


def compare(a: dict, b: dict, benchmark: dict) -> list[Row]:
    """Every (workload, metric) pair of two result files, judged."""
    rows = []
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    metrics = list(benchmark["end_to_end"]) + [
        {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0}
    ]
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            in_a = _series(a, workload, name)
            in_b = _series(b, workload, name)
            if not in_a or not in_b:
                continue
            side_a = quartiles(list(in_a.values()))
            side_b = quartiles(list(in_b.values()))
            if metric["better"] == "lower":
                change = side_b[0] - side_a[0]
            else:
                change = side_a[0] - side_b[0]
            relative = change / abs(side_a[0]) if side_a[0] else change
            if name == "failed_share":
                verdict = "worse" if side_b[0] > 0 else "ok"
            elif max(_spread(side_a), _spread(side_b)) > bound:
                verdict = "unresolved"
            elif relative > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            if name in EXACT and verdict == "ok":
                shared = set(in_a) & set(in_b)
                if any(in_a[seed] != in_b[seed] for seed in shared):
                    verdict = "changed"
            rows.append(
                Row(workload, name, metric["unit"], verdict, side_a, side_b, bound)
            )
    return rows


def regressions(rows: list[Row]) -> list[Row]:
    """The rows that are not ``ok``."""
    return [row for row in rows if row.verdict != "ok"]
