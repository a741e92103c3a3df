"""Tests for the reprolint invariant linter (:mod:`repro.analysis`).

Each rule gets the four-quadrant treatment — a positive hit, a clean
pass, a suppressed hit, and an unused suppression — on fixture trees
written under ``tmp_path`` (path-scoped rules need files at the right
relative locations, e.g. ``src/repro/models/``). The end-to-end tests
run the real CLI: the actual repository tree must be clean, and each
rule's fixture violation must make ``python -m repro.analysis`` exit
non-zero.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Config, Report, run_analysis
from repro.analysis.rules import (
    ALL_RULE_SPECS,
    RULES,
    BroadExceptRule,
    DeadMetricRule,
    DeterminismTaintRule,
    LockDisciplineRule,
    MetricCatalogRule,
    NoWallClockRule,
    PickleSafetyRule,
    ResourceLifecycleRule,
    ScalarLoopRule,
    WireContractRule,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A real catalog metric name, so RPR002 clean fixtures stay clean even
#: as the catalog evolves (the test fails loudly if it disappears).
KNOWN_METRIC = "ingest.points_total"


def analyze(
    tmp_path: Path, files: dict[str, str], rule: type | None = None
) -> Report:
    """Write dedented fixture files under tmp_path and lint them."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    config = Config()
    rules = None if rule is None else [rule(config)]
    return run_analysis(tmp_path, ["."], config, rules=rules)


def rule_ids(report: Report) -> list[str]:
    return [finding.rule for finding in report.findings]


class TestEngine:
    def test_clean_report(self, tmp_path):
        report = analyze(tmp_path, {"src/ok.py": "x = 1\n"})
        assert report.clean
        assert report.files_checked == 1
        assert report.to_dict()["counts_by_rule"] == {}

    def test_unused_suppression_is_reported(self, tmp_path):
        report = analyze(
            tmp_path, {"src/ok.py": "x = 1  # reprolint: disable=RPR001\n"}
        )
        assert rule_ids(report) == ["RPR000"]
        assert "unused suppression" in report.findings[0].message

    def test_unparsable_file_is_reported(self, tmp_path):
        report = analyze(tmp_path, {"src/bad.py": "def broken(:\n"})
        assert rule_ids(report) == ["RPR000"]
        assert "does not parse" in report.findings[0].message

    def test_multi_rule_suppression_comment(self, tmp_path):
        source = """
            import time

            def f():
                time.time()  # reprolint: disable=RPR001, RPR002
        """
        report = analyze(
            tmp_path, {"src/repro/models/x.py": source}, NoWallClockRule
        )
        # RPR001 is suppressed; the RPR002 half suppressed nothing.
        assert rule_ids(report) == ["RPR000"]
        assert "RPR002" in report.findings[0].message

    def test_pycache_is_skipped(self, tmp_path):
        report = analyze(
            tmp_path,
            {
                "src/__pycache__/junk.py": "import time\ntime.time()\n",
                "src/ok.py": "x = 1\n",
            },
        )
        assert report.clean
        assert report.files_checked == 1

    def test_json_report_shape(self, tmp_path):
        report = analyze(
            tmp_path,
            {"src/repro/models/x.py": "import time\ntime.time()\n"},
            NoWallClockRule,
        )
        data = json.loads(report.to_json())
        assert data["tool"] == "reprolint"
        assert data["counts_by_rule"] == {"RPR001": 1}
        (finding,) = data["findings"]
        assert finding["path"] == "src/repro/models/x.py"
        assert finding["rule"] == "RPR001"
        assert finding["line"] == 2

    def test_rule_registry_is_complete(self):
        ids = [spec.id for spec in ALL_RULE_SPECS]
        assert ids == sorted(ids)
        assert ids[0] == "RPR000"
        assert len(ids) == len(RULES) + 1


class TestRPR001WallClock:
    def test_wall_clock_in_models_is_flagged(self, tmp_path):
        source = """
            import time

            def fit():
                return time.time()
        """
        report = analyze(
            tmp_path, {"src/repro/models/x.py": source}, NoWallClockRule
        )
        assert rule_ids(report) == ["RPR001"]

    def test_datetime_now_via_from_import(self, tmp_path):
        source = """
            from datetime import datetime

            def stamp():
                return datetime.now()
        """
        report = analyze(
            tmp_path, {"src/repro/ingest/x.py": source}, NoWallClockRule
        )
        assert rule_ids(report) == ["RPR001"]

    def test_unseeded_default_rng_is_flagged(self, tmp_path):
        source = """
            import numpy as np

            def jitter():
                return np.random.default_rng()
        """
        report = analyze(
            tmp_path, {"src/repro/models/x.py": source}, NoWallClockRule
        )
        assert rule_ids(report) == ["RPR001"]

    def test_seeded_rng_and_perf_counter_are_clean(self, tmp_path):
        source = """
            import time

            import numpy as np

            def fit():
                rng = np.random.default_rng(42)
                started = time.perf_counter()
                return rng, started
        """
        report = analyze(
            tmp_path, {"src/repro/models/x.py": source}, NoWallClockRule
        )
        assert report.clean

    def test_wall_clock_outside_scope_is_clean(self, tmp_path):
        source = "import time\n\n\ndef now():\n    return time.time()\n"
        report = analyze(
            tmp_path, {"src/repro/server/x.py": source}, NoWallClockRule
        )
        assert report.clean

    def test_suppressed(self, tmp_path):
        source = """
            import time

            def fit():
                return time.time()  # reprolint: disable=RPR001
        """
        report = analyze(
            tmp_path, {"src/repro/models/x.py": source}, NoWallClockRule
        )
        assert report.clean


class TestRPR002MetricNames:
    def test_undeclared_literal_is_flagged(self, tmp_path):
        source = """
            def instrument(registry):
                return registry.counter("definitely.not.in.catalog_total")
        """
        report = analyze(tmp_path, {"src/x.py": source}, MetricCatalogRule)
        assert rule_ids(report) == ["RPR002"]

    def test_catalog_name_is_clean(self, tmp_path):
        source = f"""
            def instrument(registry):
                return registry.counter("{KNOWN_METRIC}")
        """
        report = analyze(tmp_path, {"src/x.py": source}, MetricCatalogRule)
        assert report.clean

    def test_literal_declare_makes_name_known(self, tmp_path):
        source = """
            def setup(registry):
                registry.declare("adhoc.test_total", "counter", "doc")
                return registry.counter("adhoc.test_total")
        """
        report = analyze(tmp_path, {"src/x.py": source}, MetricCatalogRule)
        assert report.clean

    def test_non_literal_name_is_skipped(self, tmp_path):
        source = """
            def instrument(registry, name):
                return registry.counter(f"server.{name}_total")
        """
        report = analyze(tmp_path, {"src/x.py": source}, MetricCatalogRule)
        assert report.clean

    def test_suppressed(self, tmp_path):
        source = """
            def instrument(registry):
                return registry.counter("nope.nope_total")  # reprolint: disable=RPR002
        """
        report = analyze(tmp_path, {"src/x.py": source}, MetricCatalogRule)
        assert report.clean


class TestRPR003LockDiscipline:
    def test_blocking_call_under_lock(self, tmp_path):
        source = """
            import threading
            import time

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()

                def get(self):
                    with self._lock:
                        time.sleep(0.1)
        """
        report = analyze(tmp_path, {"src/x.py": source}, LockDisciplineRule)
        assert rule_ids(report) == ["RPR003"]
        assert "time.sleep" in report.findings[0].message

    def test_metric_inc_under_lock(self, tmp_path):
        source = """
            class Cache:
                def get(self):
                    with self._lock:
                        self._hits_total.inc()
        """
        report = analyze(tmp_path, {"src/x.py": source}, LockDisciplineRule)
        assert rule_ids(report) == ["RPR003"]

    def test_inc_outside_lock_is_clean(self, tmp_path):
        source = """
            class Cache:
                def get(self):
                    with self._lock:
                        hit = True
                    self._hits_total.inc()
                    return hit
        """
        report = analyze(tmp_path, {"src/x.py": source}, LockDisciplineRule)
        assert report.clean

    def test_open_in_with_under_lock(self, tmp_path):
        source = """
            class Store:
                def dump(self, path):
                    with self._lock:
                        with open(path) as handle:
                            return handle.read()
        """
        report = analyze(tmp_path, {"src/x.py": source}, LockDisciplineRule)
        assert "RPR003" in rule_ids(report)

    def test_string_join_under_lock_is_clean(self, tmp_path):
        source = """
            class Cache:
                def keys(self):
                    with self._lock:
                        return ", ".join(self._entries)
        """
        report = analyze(tmp_path, {"src/x.py": source}, LockDisciplineRule)
        assert report.clean

    def test_self_deadlock_via_nested_with(self, tmp_path):
        source = """
            class Cache:
                def get(self):
                    with self._lock:
                        with self._lock:
                            return 1
        """
        report = analyze(tmp_path, {"src/x.py": source}, LockDisciplineRule)
        assert rule_ids(report) == ["RPR003"]
        assert "re-acquires" in report.findings[0].message

    def test_self_deadlock_via_method_indirection(self, tmp_path):
        source = """
            class Cache:
                def size(self):
                    with self._lock:
                        return len(self._entries)

                def stats(self):
                    with self._lock:
                        return {"size": self.size()}
        """
        report = analyze(tmp_path, {"src/x.py": source}, LockDisciplineRule)
        assert rule_ids(report) == ["RPR003"]
        assert "self.size()" in report.findings[0].message

    def test_nested_def_escapes_lock_region(self, tmp_path):
        source = """
            import time

            class Cache:
                def schedule(self):
                    with self._lock:
                        def later():
                            time.sleep(1.0)
                        return later
        """
        report = analyze(tmp_path, {"src/x.py": source}, LockDisciplineRule)
        assert report.clean

    def test_cross_file_lock_order_cycle(self, tmp_path):
        shared = """
            import threading

            lock_a = threading.Lock()
            lock_b = threading.Lock()
        """
        forward = """
            import shared

            def f():
                with shared.lock_a:
                    with shared.lock_b:
                        pass
        """
        backward = """
            import shared

            def g():
                with shared.lock_b:
                    with shared.lock_a:
                        pass
        """
        report = analyze(
            tmp_path,
            {
                "src/shared.py": shared,
                "src/forward.py": forward,
                "src/backward.py": backward,
            },
            LockDisciplineRule,
        )
        assert rule_ids(report) == ["RPR003"]
        assert "cycle" in report.findings[0].message
        assert "shared.lock_a" in report.findings[0].message

    def test_consistent_lock_order_is_clean(self, tmp_path):
        source = """
            import shared

            def f():
                with shared.lock_a:
                    with shared.lock_b:
                        pass

            def g():
                with shared.lock_a:
                    with shared.lock_b:
                        pass
        """
        report = analyze(tmp_path, {"src/x.py": source}, LockDisciplineRule)
        assert report.clean

    def test_suppressed(self, tmp_path):
        source = """
            class Cache:
                def get(self):
                    with self._lock:
                        self._hits_total.inc()  # reprolint: disable=RPR003
        """
        report = analyze(tmp_path, {"src/x.py": source}, LockDisciplineRule)
        assert report.clean


class TestRPR004PickleSafety:
    def test_lock_in_init_of_rpc_type(self, tmp_path):
        source = """
            import threading

            class FaultPlan:
                def __init__(self):
                    self._lock = threading.Lock()
        """
        report = analyze(tmp_path, {"src/x.py": source}, PickleSafetyRule)
        assert rule_ids(report) == ["RPR004"]

    def test_lambda_field_in_rpc_type(self, tmp_path):
        source = """
            class IngestStats:
                def __init__(self):
                    self.key = lambda row: row[0]
        """
        report = analyze(tmp_path, {"src/x.py": source}, PickleSafetyRule)
        assert rule_ids(report) == ["RPR004"]

    def test_threading_annotation_in_rpc_type(self, tmp_path):
        source = """
            from dataclasses import dataclass
            from threading import Lock

            @dataclass
            class PartialResult:
                guard: Lock
        """
        report = analyze(tmp_path, {"src/x.py": source}, PickleSafetyRule)
        assert rule_ids(report) == ["RPR004"]

    def test_project_local_condition_class_is_clean(self, tmp_path):
        # The SQL layer's own Condition dataclass must not be confused
        # with threading.Condition (alias-resolved, not name-matched).
        source = """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Condition:
                column: str

            @dataclass(frozen=True)
            class Query:
                where: tuple[Condition, ...] = ()
        """
        report = analyze(tmp_path, {"src/x.py": source}, PickleSafetyRule)
        assert report.clean

    def test_non_rpc_type_with_lock_is_clean(self, tmp_path):
        source = """
            import threading

            class LocalCache:
                def __init__(self):
                    self._lock = threading.Lock()
        """
        report = analyze(tmp_path, {"src/x.py": source}, PickleSafetyRule)
        assert report.clean

    def test_suppressed(self, tmp_path):
        source = """
            import threading

            class FaultPlan:
                def __init__(self):
                    self._lock = threading.Lock()  # reprolint: disable=RPR004
        """
        report = analyze(tmp_path, {"src/x.py": source}, PickleSafetyRule)
        assert report.clean


class TestRPR005BroadExcept:
    def test_bare_except_is_flagged(self, tmp_path):
        source = """
            def f():
                try:
                    return 1
                except:
                    return 0
        """
        report = analyze(tmp_path, {"src/x.py": source}, BroadExceptRule)
        assert rule_ids(report) == ["RPR005"]

    def test_broad_except_is_flagged(self, tmp_path):
        source = """
            def f():
                try:
                    return 1
                except Exception:
                    return 0
        """
        report = analyze(tmp_path, {"src/x.py": source}, BroadExceptRule)
        assert rule_ids(report) == ["RPR005"]

    def test_specific_except_is_clean(self, tmp_path):
        source = """
            def f():
                try:
                    return 1
                except ValueError:
                    return 0
        """
        report = analyze(tmp_path, {"src/x.py": source}, BroadExceptRule)
        assert report.clean

    def test_broad_ok_tag_is_clean(self, tmp_path):
        source = """
            def f():
                try:
                    return 1
                except Exception:  # broad-ok: errors recorded upstream
                    return 0
        """
        report = analyze(tmp_path, {"src/x.py": source}, BroadExceptRule)
        assert report.clean

    def test_noqa_tag_is_clean(self, tmp_path):
        source = """
            def f():
                try:
                    return 1
                except Exception:  # noqa: BLE001 - reported, not raised
                    return 0
        """
        report = analyze(tmp_path, {"src/x.py": source}, BroadExceptRule)
        assert report.clean

    def test_suppressed(self, tmp_path):
        source = """
            def f():
                try:
                    return 1
                except Exception:  # reprolint: disable=RPR005
                    return 0
        """
        report = analyze(tmp_path, {"src/x.py": source}, BroadExceptRule)
        assert report.clean


class TestRPR006ScalarLoops:
    def test_scalar_loop_in_extend_is_flagged(self, tmp_path):
        source = """
            class Fitter:
                def _extend(self, block):
                    accepted = 0
                    for row in block.tolist():
                        if not self._try_append(row):
                            break
                        accepted += 1
                    return accepted
        """
        report = analyze(
            tmp_path, {"src/repro/models/x.py": source}, ScalarLoopRule
        )
        assert rule_ids(report) == ["RPR006"]

    def test_vectorized_extend_is_clean(self, tmp_path):
        source = """
            import numpy as np

            class Fitter:
                def _extend(self, block):
                    lowers = block.max(axis=1)
                    np.maximum.accumulate(lowers, out=lowers)
                    return int(len(lowers))
        """
        report = analyze(
            tmp_path, {"src/repro/models/x.py": source}, ScalarLoopRule
        )
        assert report.clean

    def test_loop_outside_kernel_function_is_clean(self, tmp_path):
        source = """
            class Fitter:
                def replay(self, rows):
                    for row in rows:
                        self._try_append(row)
        """
        report = analyze(
            tmp_path, {"src/repro/models/x.py": source}, ScalarLoopRule
        )
        assert report.clean

    def test_loop_outside_models_path_is_clean(self, tmp_path):
        source = """
            class Buffer:
                def _extend(self, block):
                    for row in block:
                        self._try_append(row)
        """
        report = analyze(
            tmp_path, {"src/repro/server/x.py": source}, ScalarLoopRule
        )
        assert report.clean

    def test_suppressed(self, tmp_path):
        source = """
            class Fitter:
                def _extend(self, block):
                    for row in block.tolist():  # reprolint: disable=RPR006
                        self._try_append(row)
        """
        report = analyze(
            tmp_path, {"src/repro/models/x.py": source}, ScalarLoopRule
        )
        assert report.clean


class TestRPR007DeterminismTaint:
    #: A deterministic-scope kernel calling an out-of-scope helper that
    #: reads the clock — RPR001 is blind to this, RPR007 is not.
    TAINTED = {
        "src/repro/util/clock.py": """
            import time

            def stamp():
                return time.time()
        """,
        "src/repro/models/kernel.py": """
            from repro.util.clock import stamp

            def fit(values):
                return stamp()
        """,
    }

    def test_cross_file_chain_is_flagged(self, tmp_path):
        report = analyze(tmp_path, dict(self.TAINTED), DeterminismTaintRule)
        assert rule_ids(report) == ["RPR007"]
        finding = report.findings[0]
        assert finding.path == "src/repro/models/kernel.py"
        assert "time.time" in finding.message
        assert "path:" in finding.message

    def test_monotonic_clock_is_clean(self, tmp_path):
        files = {
            "src/repro/util/clock.py": """
                import time

                def stamp():
                    return time.monotonic()
            """,
            "src/repro/models/kernel.py": self.TAINTED[
                "src/repro/models/kernel.py"
            ],
        }
        report = analyze(tmp_path, files, DeterminismTaintRule)
        assert report.clean

    def test_direct_in_scope_source_is_rpr001_territory(self, tmp_path):
        files = {
            "src/repro/models/a.py": """
                import time

                def leaky():
                    return time.time()
            """,
            "src/repro/models/b.py": """
                from repro.models.a import leaky

                def kernel():
                    return leaky()
            """,
        }
        report = analyze(tmp_path, files, DeterminismTaintRule)
        assert report.clean  # one defect, one finding — RPR001's

    def test_two_hop_chain_is_flagged(self, tmp_path):
        files = {
            "src/repro/util/clock.py": """
                import time

                def stamp():
                    return time.time()

                def relay():
                    return stamp()
            """,
            "src/repro/models/kernel.py": """
                from repro.util.clock import relay

                def fit(values):
                    return relay()
            """,
        }
        report = analyze(tmp_path, files, DeterminismTaintRule)
        assert rule_ids(report) == ["RPR007"]
        assert "relay" in report.findings[0].message

    def test_suppressed(self, tmp_path):
        files = dict(self.TAINTED)
        files["src/repro/models/kernel.py"] = """
            from repro.util.clock import stamp

            def fit(values):
                return stamp()  # reprolint: disable=RPR007
        """
        report = analyze(tmp_path, files, DeterminismTaintRule)
        assert report.clean


class TestRPR008WireContract:
    SERVER = "src/repro/server/server.py"
    CLIENT = "src/repro/server/client.py"
    DISPATCHER = "src/repro/server/dispatcher.py"
    DOCS = "docs/OPERATIONS.md"

    def test_undocumented_op_is_flagged(self, tmp_path):
        files = {
            self.SERVER: """
                class Server:
                    async def _handle_request(self, request):
                        op = request.get("op")
                        if op == "ping":
                            return {"ok": True}
                        return {"ok": False}
            """,
            self.CLIENT: """
                class ServerClient:
                    def ping(self):
                        return self.request({"op": "ping"})
            """,
            self.DOCS: "Nothing documented here.\n",
        }
        report = analyze(tmp_path, files, WireContractRule)
        assert rule_ids(report) == ["RPR008"]
        assert "not documented" in report.findings[0].message

    def test_client_server_op_mismatch(self, tmp_path):
        files = {
            self.SERVER: """
                class Server:
                    async def _handle_request(self, request):
                        op = request.get("op")
                        if op == "ping":
                            return {"ok": True}
                        return {"ok": False}
            """,
            self.CLIENT: """
                class ServerClient:
                    def zap(self):
                        return self.request({"op": "zap"})
            """,
            self.DOCS: "The ping op is documented.\n",
        }
        report = analyze(tmp_path, files, WireContractRule)
        messages = sorted(f.message for f in report.findings)
        assert len(messages) == 2
        assert any("no handler branch" in m for m in messages)
        assert any("no ServerClient payload" in m for m in messages)

    def test_missing_dispatcher_route(self, tmp_path):
        files = {
            self.SERVER: """
                class Server:
                    def _run(self, sql):
                        return self.dispatcher.execute(sql)
            """,
            self.DISPATCHER: """
                class Dispatcher:
                    def metrics(self):
                        return {}
            """,
        }
        report = analyze(tmp_path, files, WireContractRule)
        assert rule_ids(report) == ["RPR008"]
        assert "defines no execute()" in report.findings[0].message

    def test_validated_field_dropped_is_flagged(self, tmp_path):
        files = {
            self.SERVER: """
                class Server:
                    async def _handle_query(self, request):
                        sql = request.get("sql")
                        if not isinstance(sql, str):
                            return {"ok": False}
                        return {"ok": True}
            """,
        }
        report = analyze(tmp_path, files, WireContractRule)
        assert rule_ids(report) == ["RPR008"]
        assert 'field "sql"' in report.findings[0].message

    def test_threaded_field_is_clean(self, tmp_path):
        files = {
            self.SERVER: """
                class Server:
                    async def _handle_query(self, request):
                        sql = request.get("sql")
                        if not isinstance(sql, str):
                            return {"ok": False}
                        return self.engine.execute(sql)
            """,
        }
        report = analyze(tmp_path, files, WireContractRule)
        assert report.clean

    def test_suppressed(self, tmp_path):
        files = {
            self.SERVER: """
                class Server:
                    async def _handle_request(self, request):
                        op = request.get("op")
                        if op == "ping":  # reprolint: disable=RPR008
                            return {"ok": True}
                        return {"ok": False}
            """,
            self.DOCS: "Nothing documented here.\n",
        }
        report = analyze(tmp_path, files, WireContractRule)
        assert report.clean


class TestRPR009ResourceLifecycle:
    def test_unclosed_handle_is_flagged(self, tmp_path):
        source = """
            def leak():
                client = ServerClient()
                client.ping()
        """
        report = analyze(tmp_path, {"src/v.py": source}, ResourceLifecycleRule)
        assert rule_ids(report) == ["RPR009"]
        assert "never closed" in report.findings[0].message

    def test_conditional_close_is_flagged(self, tmp_path):
        source = """
            def maybe(flag):
                db = ModelarDB()
                if flag:
                    db.close()
        """
        report = analyze(tmp_path, {"src/v.py": source}, ResourceLifecycleRule)
        assert rule_ids(report) == ["RPR009"]
        assert "conditionally closed" in report.findings[0].message

    def test_with_block_is_clean(self, tmp_path):
        source = """
            def scoped():
                with ModelarDB() as db:
                    return db.size_bytes()
        """
        report = analyze(tmp_path, {"src/v.py": source}, ResourceLifecycleRule)
        assert report.clean

    def test_close_in_finally_is_clean(self, tmp_path):
        source = """
            def guarded(simulated):
                cluster = ShardedCluster()
                try:
                    cluster.ingest([])
                finally:
                    if not simulated:
                        cluster.close()
        """
        report = analyze(tmp_path, {"src/v.py": source}, ResourceLifecycleRule)
        assert report.clean

    def test_returned_handle_escapes(self, tmp_path):
        source = """
            def factory():
                db = ModelarDB.open()
                return db
        """
        report = analyze(tmp_path, {"src/v.py": source}, ResourceLifecycleRule)
        assert report.clean

    def test_handle_passed_to_call_escapes(self, tmp_path):
        source = """
            def wire(registry):
                tier = ShardedCluster()
                return registry.adopt(tier)
        """
        report = analyze(tmp_path, {"src/v.py": source}, ResourceLifecycleRule)
        assert report.clean

    def test_method_call_on_handle_is_not_an_escape(self, tmp_path):
        source = """
            def leak():
                db = ModelarDB.open()
                rows = db.sql("SELECT * FROM DataPoint")
                return rows
        """
        report = analyze(tmp_path, {"src/v.py": source}, ResourceLifecycleRule)
        assert rule_ids(report) == ["RPR009"]

    def test_internal_shim_call_is_flagged(self, tmp_path):
        files = {
            "src/store.py": """
                import warnings

                class Storage:
                    def segments(self):
                        warnings.warn(
                            "use scan()", DeprecationWarning, stacklevel=2
                        )
                        return []
            """,
            "src/use.py": """
                def consume(storage):
                    return storage.segments()
            """,
        }
        report = analyze(tmp_path, files, ResourceLifecycleRule)
        assert rule_ids(report) == ["RPR009"]
        assert "Storage.segments" in report.findings[0].message

    def test_suppressed(self, tmp_path):
        source = """
            def leak():
                client = ServerClient()  # reprolint: disable=RPR009
                client.ping()
        """
        report = analyze(tmp_path, {"src/v.py": source}, ResourceLifecycleRule)
        assert report.clean


class TestRPR010DeadMetrics:
    CATALOG = "src/repro/obs/catalog.py"
    ENTRY = 'DEAD = MetricSpec("zz.dead_total", "counter", (), "unused")\n'

    def test_unrecorded_entry_is_flagged(self, tmp_path):
        report = analyze(tmp_path, {self.CATALOG: self.ENTRY}, DeadMetricRule)
        assert rule_ids(report) == ["RPR010"]
        assert "zz.dead_total" in report.findings[0].message
        assert report.findings[0].path == self.CATALOG

    def test_literal_use_is_clean(self, tmp_path):
        files = {
            self.CATALOG: self.ENTRY,
            "src/site.py": (
                "def f(registry):\n"
                '    return registry.counter("zz.dead_total")\n'
            ),
        }
        report = analyze(tmp_path, files, DeadMetricRule)
        assert report.clean

    def test_fstring_template_covers_entry(self, tmp_path):
        files = {
            self.CATALOG: self.ENTRY,
            "src/site.py": (
                "def f(registry, name):\n"
                '    return registry.counter(f"zz.{name}_total")\n'
            ),
        }
        report = analyze(tmp_path, files, DeadMetricRule)
        assert report.clean

    def test_no_catalog_in_tree_is_a_noop(self, tmp_path):
        report = analyze(tmp_path, {"src/ok.py": "x = 1\n"}, DeadMetricRule)
        assert report.clean

    def test_suppressed(self, tmp_path):
        catalog = (
            "DEAD = MetricSpec("
            '"zz.dead_total", "counter", (), "unused"'
            ")  # reprolint: disable=RPR010\n"
        )
        report = analyze(tmp_path, {self.CATALOG: catalog}, DeadMetricRule)
        assert report.clean


class TestIncrementalCache:
    FILES = {
        "src/repro/models/v.py": (
            "import time\n\n\ndef f():\n    return time.time()\n"
        ),
        "src/ok.py": "x = 1\n",
    }

    @staticmethod
    def write(tmp_path, files):
        for rel, source in files.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source, encoding="utf-8")

    def test_second_run_reuses_every_file(self, tmp_path):
        self.write(tmp_path, self.FILES)
        config = Config()
        first = run_analysis(tmp_path, ["."], config)
        second = run_analysis(tmp_path, ["."], config)
        assert first.files_reused == 0
        assert second.files_reused == len(self.FILES)
        assert [f.to_dict() for f in first.findings] == [
            f.to_dict() for f in second.findings
        ]
        assert (tmp_path / ".reprolint-cache.json").is_file()

    def test_edited_file_is_reanalyzed(self, tmp_path):
        self.write(tmp_path, self.FILES)
        config = Config()
        run_analysis(tmp_path, ["."], config)
        (tmp_path / "src/ok.py").write_text(
            "import time\ny = time.monotonic()\n", encoding="utf-8"
        )
        report = run_analysis(tmp_path, ["."], config)
        assert report.files_reused == len(self.FILES) - 1

    def test_config_change_invalidates_cache(self, tmp_path):
        self.write(tmp_path, self.FILES)
        run_analysis(tmp_path, ["."], Config())
        report = run_analysis(
            tmp_path, ["."], Config(deterministic_paths=("src",))
        )
        assert report.files_reused == 0

    def test_explicit_rule_subset_skips_the_cache(self, tmp_path):
        self.write(tmp_path, self.FILES)
        config = Config()
        run_analysis(tmp_path, ["."], config)
        report = run_analysis(
            tmp_path, ["."], config, rules=[NoWallClockRule(config)]
        )
        assert report.files_reused == 0

    def test_cached_findings_identical_to_fresh(self, tmp_path):
        self.write(tmp_path, self.FILES)
        config = Config()
        fresh = run_analysis(tmp_path, ["."], config, use_cache=False)
        run_analysis(tmp_path, ["."], config)
        warm = run_analysis(tmp_path, ["."], config)
        assert [f.to_dict() for f in warm.findings] == [
            f.to_dict() for f in fresh.findings
        ]


class TestDisabledRules:
    def test_disabled_rule_does_not_run(self, tmp_path):
        config = Config(disabled_rules=("RPR001",))
        for rel, source in {
            "src/repro/models/v.py": (
                "import time\n\n\ndef f():\n    return time.time()\n"
            )
        }.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source, encoding="utf-8")
        report = run_analysis(tmp_path, ["."], config)
        assert report.clean

    def test_suppression_of_disabled_rule_is_not_audited(self, tmp_path):
        config = Config(disabled_rules=("RPR001",))
        target = tmp_path / "src/repro/models/v.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            "import time\n\n\ndef f():\n"
            "    return time.time()  # reprolint: disable=RPR001\n",
            encoding="utf-8",
        )
        report = run_analysis(tmp_path, ["."], config)
        assert report.clean  # dormant, not stale

    def test_suppression_of_active_rule_is_still_audited(self, tmp_path):
        config = Config(disabled_rules=("RPR001",))
        target = tmp_path / "src/ok.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            "x = 1  # reprolint: disable=RPR005\n", encoding="utf-8"
        )
        report = run_analysis(tmp_path, ["."], config)
        assert rule_ids(report) == ["RPR000"]

    def test_from_pyproject_reads_new_keys(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            textwrap.dedent(
                """
                [tool.reprolint]
                paths = ["src"]
                disabled-rules = ["RPR006"]
                wire-server = "src/srv.py"
                wire-client = "src/cli.py"
                wire-dispatcher = "src/disp.py"
                wire-docs = "docs/OPS.md"
                resource-types = ["Widget"]
                """
            ),
            encoding="utf-8",
        )
        config = Config.from_pyproject(tmp_path)
        assert config.disabled_rules == ("RPR006",)
        assert config.wire_server == "src/srv.py"
        assert config.wire_client == "src/cli.py"
        assert config.wire_dispatcher == "src/disp.py"
        assert config.wire_docs == "docs/OPS.md"
        assert config.resource_types == ("Widget",)


class TestSarifOutput:
    def test_sarif_shape(self, tmp_path):
        report = analyze(
            tmp_path,
            {"src/repro/models/x.py": "import time\ntime.time()\n"},
            NoWallClockRule,
        )
        sarif = json.loads(report.to_sarif_json())
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        assert {rule["id"] for rule in driver["rules"]} == {
            spec.id for spec in ALL_RULE_SPECS
        }
        (result,) = run["results"]
        assert result["ruleId"] == "RPR001"
        assert result["level"] == "error"
        (location,) = result["locations"]
        physical = location["physicalLocation"]
        assert (
            physical["artifactLocation"]["uri"]
            == "src/repro/models/x.py"
        )
        assert physical["region"]["startLine"] == 2

    def test_clean_report_has_empty_results(self, tmp_path):
        report = analyze(tmp_path, {"src/ok.py": "x = 1\n"})
        sarif = json.loads(report.to_sarif_json())
        assert sarif["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# End-to-end: the CLI on fixture trees and on the real repository
# ---------------------------------------------------------------------------

#: One violating fixture per rule, used to prove the CLI gate actually
#: blocks: each must make `python -m repro.analysis` exit non-zero.
VIOLATIONS: dict[str, tuple[str, str]] = {
    "RPR001": (
        "src/repro/models/v.py",
        "import time\n\n\ndef f():\n    return time.time()\n",
    ),
    "RPR002": (
        "src/v.py",
        'def f(registry):\n    return registry.counter("no.such_total")\n',
    ),
    "RPR003": (
        "src/v.py",
        "class C:\n    def f(self):\n        with self._lock:\n"
        "            self._hits_total.inc()\n",
    ),
    "RPR004": (
        "src/v.py",
        "import threading\n\n\nclass FaultPlan:\n    def __init__(self):\n"
        "        self._lock = threading.Lock()\n",
    ),
    "RPR005": (
        "src/v.py",
        "def f():\n    try:\n        return 1\n    except Exception:\n"
        "        return 0\n",
    ),
    "RPR006": (
        "src/repro/models/v.py",
        "class C:\n    def _extend(self, block):\n        for row in block:\n"
        "            self._try_append(row)\n",
    ),
    # A kernel reaching the clock through two in-scope hops: RPR001
    # flags the direct read, RPR007 the transitive call chain.
    "RPR007": (
        "src/repro/models/v.py",
        "import time\n\n\ndef helper_a():\n    return time.time()\n\n\n"
        "def helper_b():\n    return helper_a()\n\n\n"
        "def kernel():\n    return helper_b()\n",
    ),
    "RPR008": (
        "src/repro/server/server.py",
        "class Server:\n    async def _handle_query(self, request):\n"
        '        sql = request.get("sql")\n'
        "        if not isinstance(sql, str):\n"
        '            return {"ok": False}\n'
        '        return {"ok": True}\n',
    ),
    "RPR009": (
        "src/v.py",
        "def leak():\n    client = ServerClient()\n    client.ping()\n",
    ),
    "RPR010": (
        "src/repro/obs/catalog.py",
        'DEAD = MetricSpec("zz.dead_total", "counter", (), "unused")\n',
    ),
}


def run_cli(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestCLI:
    @pytest.mark.parametrize("rule_id", sorted(VIOLATIONS))
    def test_each_rule_fixture_fails_the_gate(self, tmp_path, rule_id):
        rel, source = VIOLATIONS[rule_id]
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
        result = run_cli("src", "--root", str(tmp_path), cwd=tmp_path)
        assert result.returncode == 1, result.stdout + result.stderr
        assert rule_id in result.stdout

    def test_clean_tree_exits_zero_and_writes_report(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "ok.py").write_text("x = 1\n", encoding="utf-8")
        out = tmp_path / "report.json"
        result = run_cli(
            "src",
            "--root",
            str(tmp_path),
            "--format",
            "json",
            "--output",
            str(out),
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data == json.loads(result.stdout)
        assert data["files_checked"] == 1
        assert data["findings"] == []

    def test_sarif_artifact_and_format(self, tmp_path):
        rel, source = VIOLATIONS["RPR001"]
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
        sarif_path = tmp_path / "report.sarif"
        result = run_cli(
            "src",
            "--root",
            str(tmp_path),
            "--format",
            "sarif",
            "--sarif",
            str(sarif_path),
            "--no-cache",
            cwd=tmp_path,
        )
        assert result.returncode == 1, result.stdout + result.stderr
        data = json.loads(sarif_path.read_text(encoding="utf-8"))
        assert data == json.loads(result.stdout)
        assert data["version"] == "2.1.0"
        assert data["runs"][0]["results"][0]["ruleId"] == "RPR001"
        assert not (tmp_path / ".reprolint-cache.json").exists()

    def test_missing_path_is_a_usage_error(self, tmp_path):
        result = run_cli(
            "no/such/dir", "--root", str(tmp_path), cwd=tmp_path
        )
        assert result.returncode == 2

    def test_real_tree_is_clean(self):
        result = run_cli(
            "src", "benchmarks", "scripts", "--root", str(REPO_ROOT),
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 findings" in result.stdout
