"""The suite end to end: definition file, smoke run, oracle failure."""

import json
import shutil
import subprocess
import sys
import warnings

from benchmarks.suite import cli, layers
from benchmarks.suite.harness import END_TO_END, ROOT
from benchmarks.suite.trace import Spans, Tracer
from benchmarks.suite.truth import Truth
from benchmarks.suite.workloads import WORKLOADS

DRIVER = [sys.executable, str(ROOT / "benchmarks" / "suite" / "__main__.py")]


def last_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_suite_reports():
    definition = cli.benchmark_definition()
    assert definition["paths"] == ["benchmarks/suite"]
    assert [entry["name"] for entry in definition["workloads"]] == list(WORKLOADS)
    assert [
        (entry["name"], entry["unit"]) for entry in definition["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (entry["name"], entry["unit"], entry["better"])
        for entry in definition["per_layer"]
    ] == list(layers.PER_LAYER)
    assert all(0 < entry["bound"] <= 0.25 for entry in definition["end_to_end"])


def test_every_trace_target_resolves_on_this_tree():
    tracer = Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracer.install(layers.targets())
    tracer.uninstall()
    assert tracer.missing == []


def test_derive_reports_every_per_layer_metric():
    empty = Tracer().collect()
    assert isinstance(empty, Spans)
    metrics = layers.derive(empty, {})
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    assert set(metrics.values()) == {0.0}


def test_smoke_runs_every_workload_and_the_tracer(tmp_path):
    out = tmp_path / "smoke.json"
    # Deprecated entry points (sql(), ingest_groups(), Storage.segments())
    # are scheduled for deletion: the suite must not depend on them.
    finished = subprocess.run(
        [
            sys.executable, "-W", "error::DeprecationWarning",
            "-m", "benchmarks.suite", "--smoke", "--out", str(out),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert finished.returncode == 0, finished.stdout + finished.stderr
    (run,) = json.loads(out.read_text())["runs"]
    assert list(run["workloads"]) == list(WORKLOADS)
    for name, detail in run["workloads"].items():
        assert detail["correct"] and detail["failed"] == 0, name
        assert detail["missing_targets"] == [], name
        assert all(detail["end_to_end"][metric] > 0 for metric, _ in END_TO_END), name
        assert detail["layers"]["obs.trace_overhead_ratio"] > 0, name
    agg = run["workloads"]["query_agg"]["layers"]
    assert agg["models.values_block_s"] == 0.0 and agg["storage.scan_s"] > 0
    assert run["workloads"]["serve_hot"]["layers"]["query.execute_self_s"] == 0.0
    assert run["workloads"]["online_mixed"]["layers"]["ingest.revisions"] > 0
    assert run["workloads"]["serve_sharded"]["layers"]["shard.sql_s"] > 0


def test_driver_form_prints_one_json_object_last():
    command = DRIVER + ["--workload", "serve_hot", "--seed", "3", "--smoke"]
    plain = subprocess.run(
        command + ["--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert plain.returncode == 0, plain.stdout + plain.stderr
    line = last_line(plain.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [name for name, _ in END_TO_END]
    traced = subprocess.run(
        command + ["--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert traced.returncode == 0, traced.stdout + traced.stderr
    assert list(last_line(traced.stdout)["metrics"]) == [
        name for name, _, _ in layers.PER_LAYER
    ]


def test_a_failing_oracle_fails_the_command(monkeypatch, capsys):
    honest = Truth.aggregate_limits

    def corrupted(self, function, rows, first, last):
        limits = honest(self, function, rows, first, last)
        if limits is None or function.upper() != "MAX":
            return limits
        return limits[0] + 1000.0, limits[1] + 1000.0

    monkeypatch.setattr(Truth, "aggregate_limits", corrupted)
    status = cli.main(["--workload", "query_agg", "--seed", "5", "--smoke"])
    line = last_line(capsys.readouterr().out)
    assert status == 1
    assert line["correct"] is False and line["failed"] > 0


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "suite",
        tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    finished = subprocess.run(
        [
            sys.executable, "benchmarks/suite/__main__.py",
            "--workload", "query_agg", "--seed", "1", "--seconds", "1",
            "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert finished.returncode != 0
    assert "{" not in finished.stdout
