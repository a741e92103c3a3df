"""Comparator verdicts on synthetic result files."""

from benchmarks.suite.compare import compare, quartiles, regressions

BENCHMARK = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
        {"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
        {"name": "bytes_per_point", "unit": "B", "better": "lower", "bound": 0.25},
    ],
}


def result(qps, p50, size=None, failed=0.0):
    size = size or [0.5] * len(qps)
    return {
        "runs": [
            {
                "seed": seed,
                "workloads": {
                    "w": {
                        "end_to_end": {
                            "queries_per_s": qps[seed],
                            "query_p50_ms": p50[seed],
                            "bytes_per_point": size[seed],
                            "failed_share": failed,
                        }
                    }
                },
            }
            for seed in range(len(qps))
        ]
    }


def verdicts(a, b):
    return {row.metric: row.verdict for row in compare(a, b, BENCHMARK)}


def test_identical_runs_are_ok():
    a = result([100, 101, 102, 103, 104], [10, 10.1, 10.2, 10.3, 10.4])
    assert set(verdicts(a, a).values()) == {"ok"}
    assert regressions(compare(a, a, BENCHMARK)) == []


def test_direction_decides_what_worse_means():
    a = result([100, 101, 102, 103, 104], [10, 10.1, 10.2, 10.3, 10.4])
    slower = result([80, 81, 82, 83, 84], [12, 12.1, 12.2, 12.3, 12.4])
    found = verdicts(a, slower)
    assert found["queries_per_s"] == "worse"
    assert found["query_p50_ms"] == "worse"
    # The same change the other way round is an improvement, not a regression.
    assert set(verdicts(slower, a).values()) == {"ok"}


def test_within_bound_is_ok():
    a = result([100, 101, 102, 103, 104], [10, 10.1, 10.2, 10.3, 10.4])
    b = result([95, 96, 97, 98, 99], [10.5, 10.6, 10.7, 10.8, 10.9])
    assert set(verdicts(a, b).values()) == {"ok"}


def test_spread_wider_than_bound_is_unresolved():
    noisy = result([60, 80, 100, 120, 140], [10, 10.1, 10.2, 10.3, 10.4])
    found = verdicts(noisy, noisy)
    assert found["queries_per_s"] == "unresolved"
    assert found["query_p50_ms"] == "ok"


def test_bytes_per_point_is_exact_seed_by_seed():
    a = result([100] * 3, [10] * 3, size=[0.50, 0.51, 0.52])
    b = result([100] * 3, [10] * 3, size=[0.50, 0.51, 0.5201])
    assert verdicts(a, b)["bytes_per_point"] == "changed"
    assert verdicts(a, a)["bytes_per_point"] == "ok"


def test_any_failure_is_worse():
    a = result([100] * 3, [10] * 3)
    b = result([100] * 3, [10] * 3, failed=0.01)
    assert verdicts(a, b)["failed_share"] == "worse"


def test_quartiles_of_one_run_collapse():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    median, first, third = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (median, first, third) == (3.0, 1.5, 4.5)
