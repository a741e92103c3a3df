"""Command line of the benchmark suite.

``--workload NAME --seed N --seconds S --trace 0|1`` runs one workload
in this process and prints one JSON object as the last line of standard
output — the form ``BENCHMARK.json`` names and the driver calls. Without
``--workload`` the suite runs all seven, each in a process of its own
through that same form, prints every metric by name, unit and sample
count, and writes one JSON result. ``--compare A B`` and ``--aa`` judge
result files against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from .compare import compare, regressions
from .harness import END_TO_END, ROOT, WORK
from .layers import PER_LAYER
from .workloads import WORKLOADS, Plan, Report

SCHEMA = 1
SMOKE_SCALE = 0.05
SMOKE_SECONDS = 1.0
#: The driver allows one run 180 s; a child that takes longer is hung.
_CHILD_TIMEOUT_S = 180.0


def benchmark_definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="ModelarDB+ benchmark: seven workloads, one harness",
    )
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        help="measured seconds per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: also run with spans recorded and report per-layer metrics",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="one constant scaling every data set's length",
    )
    parser.add_argument(
        "--setups", type=int, default=3,
        help="set-ups per run; setup_s is their median",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="all workloads and the tracer at 1/20 scale, oracles on, bounds off",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="suite runs per result file, seeds seed, seed+1, ...",
    )
    parser.add_argument("--out", help="where the suite writes its JSON result")
    parser.add_argument(
        "--detail", help="with --workload: also write the full record here"
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument(
        "--aa", action="store_true",
        help="run the suite twice on this commit and compare the two",
    )
    return parser


# ----------------------------------------------------------------------
# One workload (the driver's form)
# ----------------------------------------------------------------------
def detail_record(name: str, plan: Plan, report: Report) -> dict:
    outcome = report.outcome
    end_to_end = outcome.end_to_end()
    end_to_end["failed_share"] = (
        outcome.failed / outcome.attempted if outcome.attempted else 1.0
    )
    return {
        "workload": name,
        "seed": plan.seed,
        "seconds": plan.seconds,
        "scale": plan.scale,
        "traced": plan.trace,
        "rounds": report.rounds,
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "first_failure": outcome.first_failure,
        "end_to_end": end_to_end,
        # As the clock read them, before scaling to reference speed.
        "raw": outcome.end_to_end(raw=True),
        "machine_slowness": outcome.machine_slowness(),
        "samples": outcome.samples(),
        "forced_kills": outcome.forced_kills,
        "layers": report.layers,
        "missing_targets": report.missing_targets,
        "spans": report.spans,
    }


def driver_line(detail: dict) -> str:
    """The one JSON object the driver reads."""
    if detail["traced"]:
        metrics = {
            name: {"value": detail["layers"][name], "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": detail["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END
        }
    return json.dumps(
        {
            "correct": detail["correct"],
            "attempted": max(detail["attempted"], 1),
            "failed": detail["failed"],
            "metrics": metrics,
        }
    )


def print_detail(detail: dict, out=sys.stdout) -> None:
    samples = detail["samples"]
    counts = {
        "setup_s": samples["setups"],
        "ingest_points_per_s": samples["ingest_rounds"],
        "queries_per_s": samples["query_rounds"],
        "query_p50_ms": samples["latencies"],
        "query_p95_ms": samples["latencies"],
        "fresh_read_p50_ms": samples["fresh_reads"],
        "failed_share": detail["attempted"],
    }
    print(
        f"{detail['workload']}  seed {detail['seed']}  rounds {detail['rounds']}  "
        f"attempted {detail['attempted']}  failed {detail['failed']}  "
        f"forced kills {detail['forced_kills']}  "
        f"machine slowness {detail['machine_slowness']:.3f}",
        file=out,
    )
    if detail["first_failure"]:
        print(f"  first failure: {detail['first_failure']}", file=out)
    for name, unit in END_TO_END + (("failed_share", "ratio"),):
        count = counts.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(
            f"  {name:<28} {detail['end_to_end'][name]:>16.6g} {unit}{suffix}",
            file=out,
        )
    if detail["layers"] is not None:
        print(f"  per layer ({detail['spans']} spans):", file=out)
        for name, unit, _ in PER_LAYER:
            print(f"    {name:<32} {detail['layers'][name]:>14.6g} {unit}", file=out)
    for path in detail["missing_targets"]:
        print(f"  unresolved trace target: {path}", file=out)


def run_workload(arguments, seconds: float) -> int:
    plan = Plan(
        seed=arguments.seed,
        seconds=seconds,
        scale=arguments.scale,
        trace=bool(arguments.trace),
        setups=arguments.setups,
    )
    report = WORKLOADS[arguments.workload]().run(plan)
    detail = detail_record(arguments.workload, plan, report)
    if arguments.detail:
        Path(arguments.detail).write_text(json.dumps(detail, indent=1))
    print_detail(detail)
    print(driver_line(detail), flush=True)
    return 0 if detail["correct"] else 1


# ----------------------------------------------------------------------
# The whole suite
# ----------------------------------------------------------------------
def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "git_commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _child(name: str, seed: int, seconds: float, trace: int, arguments) -> dict | None:
    """Run one workload in a process of its own; its full record."""
    WORK.mkdir(exist_ok=True)
    detail_path = WORK / f"detail-{name}-{os.getpid()}.json"
    command = [
        sys.executable,
        *(f"-W{option}" for option in sys.warnoptions),
        str(Path(__file__).with_name("__main__.py")),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--scale", str(arguments.scale),
        "--setups", str(arguments.setups),
        "--detail", str(detail_path),
    ]
    try:
        subprocess.run(
            command,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            timeout=_CHILD_TIMEOUT_S,
            check=False,
        )
        if not detail_path.exists():
            return None
        return json.loads(detail_path.read_text())
    except subprocess.TimeoutExpired:
        return None
    finally:
        detail_path.unlink(missing_ok=True)


def run_suite(arguments, seconds: float, out=sys.stdout) -> tuple[dict, bool]:
    """All workloads, ``--repeat`` times; (result, everything correct)."""
    result = {
        "schema": SCHEMA,
        "suite": "benchmarks.suite",
        "environment": environment(),
        "scale": arguments.scale,
        "seconds": seconds,
        "runs": [],
    }
    correct = True
    for repeat in range(arguments.repeat):
        seed = arguments.seed + repeat
        run = {"seed": seed, "workloads": {}}
        for name in WORKLOADS:
            passes = [1] if arguments.smoke else [0] + ([1] if arguments.trace else [])
            detail = None
            for trace in passes:
                record = _child(name, seed, seconds, trace, arguments)
                if record is None:
                    print(f"{name}: the run crashed or hung", file=out)
                    correct = False
                    break
                if detail is None:
                    detail = record
                else:
                    # End-to-end numbers stay those taken with tracing off.
                    for key in ("layers", "missing_targets", "spans"):
                        detail[key] = record[key]
                    detail["correct"] = detail["correct"] and record["correct"]
                    detail["first_failure"] = (
                        detail["first_failure"] or record["first_failure"]
                    )
            if detail is not None:
                print_detail(detail, out)
                correct = correct and detail["correct"]
                run["workloads"][name] = detail
        result["runs"].append(run)
    return result, correct


def _write(result: dict, path: str | None, default: str) -> Path:
    WORK.mkdir(exist_ok=True)
    target = Path(path) if path else WORK / default
    target.write_text(json.dumps(result, indent=1))
    return target


def _report_comparison(a: dict, b: dict, out=sys.stdout) -> int:
    rows = compare(a, b, benchmark_definition())
    for row in rows:
        print(row.line(), file=out)
    flagged = regressions(rows)
    print(f"{len(rows)} pairs, {len(flagged)} not ok", file=out)
    return 1 if flagged else 0


def main(argv: list[str] | None = None) -> int:
    arguments = build_parser().parse_args(argv)
    if arguments.compare:
        first, second = (
            json.loads(Path(path).read_text()) for path in arguments.compare
        )
        return _report_comparison(first, second)
    seconds = arguments.seconds
    if arguments.smoke:
        arguments.scale = SMOKE_SCALE
        arguments.setups = 1
        seconds = SMOKE_SECONDS if seconds is None else seconds
    if seconds is None:
        seconds = float(benchmark_definition()["run_seconds"])
    if arguments.workload:
        return run_workload(arguments, seconds)
    if arguments.aa:
        first, first_ok = run_suite(arguments, seconds)
        second, second_ok = run_suite(arguments, seconds)
        print(f"wrote {_write(first, None, 'aa-first.json')}")
        print(f"wrote {_write(second, arguments.out, 'aa-second.json')}")
        status = _report_comparison(first, second)
        return status if first_ok and second_ok else 1
    result, correct = run_suite(arguments, seconds)
    print(f"wrote {_write(result, arguments.out, 'result.json')}")
    return 0 if correct else 1
