"""The seven workloads.

Embedded workloads run single-threaded inside the process the command
line started (the suite starts one process per workload, so caches, the
``obs`` registry and peak RSS are fresh); served workloads start
``python -m repro serve`` as a process of its own and drive it through
``ServerClient`` with at most ``nproc`` closed-loop clients. Work is
fixed: the number of rounds follows from ``--seconds`` and a per-workload
round time measured on the reference sandbox, every round executes the
same seeded operations, throughput is the median round and latencies
pool all rounds. Every timed section sits between two bursts of the
reference routine (see :mod:`benchmarks.suite.harness`). The suite
touches the program only through
``ModelarDB.open/ingest/query/correct/knowledge_time/size_bytes/close``,
``ServerClient``, the ``serve`` command line and ``repro.datasets`` /
``repro.workloads``.
"""

from __future__ import annotations

import copy
import math
import shutil
import statistics
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

from repro import Configuration, ModelarDB, ModelarError
from repro.datasets import EP_CORRELATION

from . import layers
from .harness import Clock, Outcome, own_peak_rss_mb, scratch
from .serving import ServerProcess
from .statements import (
    Statement,
    aggregate_pool,
    point_pool,
    serving_pool,
    tid_scan,
    window_aggregate,
)
from .trace import Spans, Tracer
from .truth import Truth

#: Relative error bound of every store, in percent.
ERROR_BOUND = 1.0
MIN_ROUNDS = 5
#: Rounds per phase of a traced run (an untraced and a traced half); four
#: so that ``online_mixed`` reaches its first correction.
MIN_TRACED_ROUNDS = 4
#: Results up to this many rows are kept to compare repeats bit for bit;
#: larger ones are checked against numpy every time instead.
_REMEMBER_ROWS = 2_000


def _config() -> Configuration:
    return Configuration(
        error_bound=ERROR_BOUND, correlation=list(EP_CORRELATION)
    )


@dataclass(frozen=True)
class Plan:
    """What the command line asks of one workload run."""

    seed: int
    seconds: float
    scale: float = 1.0
    trace: bool = False
    #: Set-ups per run; the reported ``setup_s`` is their median.
    setups: int = 3


@dataclass
class Report:
    """One workload run: end-to-end samples and, if traced, the layers."""

    outcome: Outcome
    rounds: int
    layers: dict[str, float] | None = None
    missing_targets: list[str] = field(default_factory=list)
    spans: int = 0


@dataclass
class SetupTime:
    """One set-up's sections, summed as measured and at reference speed."""

    raw: float = 0.0
    reference: float = 0.0


class Verifier:
    """First execution against numpy, repeats bit-identical to it."""

    def __init__(self, truth: Truth) -> None:
        self._truth = truth
        self._first: dict[str, list[dict]] = {}

    def __call__(self, statement: Statement, rows: list[dict]) -> bool:
        first = self._first.get(statement.sql)
        if first is not None:
            return rows == first
        ok = statement.check(self._truth, rows)
        if ok and len(rows) <= _REMEMBER_ROWS:
            self._first[statement.sql] = rows
        return ok


class Workload:
    """Shared shape: sizes, rounds, timed sections, the traced repeat."""

    name = ""
    why = ""
    #: Twelve entities (48 correlated production measures + 12 random-walk
    #: temperatures): ten seeds' data sets then differ by a few percent in
    #: bytes per point and ingest cost instead of ten or more with six.
    entities = 12
    ticks = 5_000
    #: ``ingest()`` calls the set-up store is built with.
    load_slices = 8
    #: Seconds one round takes at scale 1 on the reference sandbox.
    round_s = 1.0

    def __init__(self) -> None:
        self.clock = Clock()
        self._tracer: Tracer | None = None
        self._operations = 0
        self._facts = {
            "ingest_segments": 0.0,
            "ingest_fallback_ticks": 0.0,
            "ingest_points": 0.0,
        }

    # -- sizes -------------------------------------------------------------
    def rounds(self, plan: Plan) -> int:
        wanted = int(plan.seconds / self.round_s)
        if plan.trace:
            return max(MIN_TRACED_ROUNDS, wanted // 2)
        return max(MIN_ROUNDS, wanted)

    def scaled_ticks(self, plan: Plan) -> int:
        return max(int(self.ticks * plan.scale), 200)

    def truth(self, plan: Plan) -> Truth:
        return Truth(self.entities, self.scaled_ticks(plan), plan.seed, ERROR_BOUND)

    # -- the run -----------------------------------------------------------
    def run(self, plan: Plan) -> Report:
        """The untraced phase, then — when tracing — a traced repeat.

        End-to-end numbers always come from the untraced phase; a failed
        operation in either phase fails the run.
        """
        rounds = self.rounds(plan)
        outcome = Outcome()
        report = Report(outcome, rounds)
        with scratch(self.name) as work:
            setups = 1 if plan.trace else plan.setups
            self.phase(plan, work / "plain", outcome, setups, rounds, None)
            if plan.trace:
                traced = Outcome()
                tracer = Tracer()
                spans, facts = self.phase(
                    plan, work / "traced", traced, 1, rounds, tracer
                )
                facts["untraced_round_s"] = statistics.median(
                    outcome.series("round_walls")
                )
                facts["traced_round_s"] = statistics.median(
                    traced.series("round_walls")
                )
                report.layers = layers.derive(spans, facts)
                report.missing_targets = tracer.missing
                report.spans = len(spans)
                (work.parent / "spans").mkdir(exist_ok=True)
                spans.save(work.parent / "spans" / f"{self.name}.npz")
                outcome.attempted += traced.attempted
                outcome.failed += traced.failed
                outcome.first_failure = outcome.first_failure or traced.first_failure
                outcome.forced_kills += traced.forced_kills
        return report

    def phase(
        self,
        plan: Plan,
        work: Path,
        outcome: Outcome,
        setups: int,
        rounds: int,
        tracer: Tracer | None,
    ) -> tuple[Spans, dict[str, float]] | None:
        raise NotImplementedError

    # -- timing ------------------------------------------------------------
    @contextmanager
    def section(
        self, outcome: Outcome, setup: SetupTime | None = None
    ) -> Iterator[None]:
        """A timed section between two bursts of the reference routine.

        The samples added inside are pinned to the slowness seen around
        it; a set-up's sections also add up to its ``setup_s``.
        """
        self.clock.start()
        started = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - started
            slowness = self.clock.stop()
            outcome.commit(slowness)
            if setup is not None:
                setup.raw += elapsed
                setup.reference += elapsed / slowness

    def close_setup(self, outcome: Outcome, setup: SetupTime) -> None:
        outcome.add("setup_s", setup.raw)
        outcome.commit(setup.raw / setup.reference)

    def timed(
        self, outcome: Outcome, what: str, function: Callable, *args
    ) -> tuple[Any, float | None]:
        """Run one operation; (result, seconds), or (None, None) and a
        counted failure when the program raises."""
        self._operations += 1
        try:
            if self._tracer is None:
                started = perf_counter()
                result = function(*args)
                return result, perf_counter() - started
            with self._tracer.span(layers.OPERATION_SPAN, self._operations):
                started = perf_counter()
                result = function(*args)
                return result, perf_counter() - started
        except ModelarError as error:
            outcome.record(False, f"{what}: {type(error).__name__}: {error}")
            return None, None

    def note_ingest(self, stats, points: int) -> None:
        """Counts ``ingest()`` returned, and the points it was handed
        (``IngestStats.data_points`` counts a replayed tick twice when a
        group splits, so the raw arrays are the exact count)."""
        self._facts["ingest_segments"] += stats.segments
        self._facts["ingest_fallback_ticks"] += stats.fallback_ticks
        self._facts["ingest_points"] += points

    # -- shared steps ------------------------------------------------------
    def open(self, truth: Truth, directory: Path) -> ModelarDB:
        return ModelarDB.open(
            directory, config=_config(), dimensions=truth.dataset.dimensions
        )

    def load_in_slices(
        self, db: ModelarDB, truth: Truth, outcome: Outcome, setup: SetupTime
    ) -> None:
        """Build a set-up store the way data arrives: one ``ingest()``
        per time slice, each followed by the ``COUNT_S`` that must see
        it. Every slice is a timed section of its own, so a read-only
        workload still reports a write cost and a fresh-read latency
        from dozens of samples."""
        edges = np.linspace(0, truth.ticks, self.load_slices + 1).astype(int)
        truth.visible = 0
        for first, last in zip(edges[:-1].tolist(), edges[1:].tolist()):
            series = truth.slices(first, last)
            with self.section(outcome, setup):
                _, ingested = self.timed(outcome, "slice ingest", db.ingest, series)
                truth.visible = last
                fresh = window_aggregate(
                    "COUNT", (), truth, first, last - 1, label="FRESH"
                )
                rows, elapsed = self.timed(outcome, fresh.sql, db.query, fresh.sql)
                if (
                    ingested is not None
                    and elapsed is not None
                    and outcome.record(
                        fresh.check(truth, rows), f"oracle: {fresh.sql}"
                    )
                ):
                    points = truth.points(first, last - 1)
                    outcome.add("ingest_rates", points / ingested)
                    outcome.add("fresh_reads_ms", (ingested + elapsed) * 1000.0)
        outcome.bytes_per_point = db.size_bytes() / truth.points()


# ----------------------------------------------------------------------
# Embedded workloads
# ----------------------------------------------------------------------
class Embedded(Workload):
    """A workload that calls the engine in this process."""

    def phase(self, plan, work, outcome, setups, rounds, tracer):
        work.mkdir()
        self._tracer = tracer
        if tracer is not None:
            tracer.install(layers.targets())
        try:
            state = None
            for attempt in range(setups):
                if state is not None:
                    self.release(state)
                setup = SetupTime()
                with self.section(outcome, setup):
                    truth = self.truth(plan)
                state = self.build(truth, work / f"store-{attempt}", outcome, setup)
                self.close_setup(outcome, setup)
            try:
                since, cache_before = self.measure(
                    state, truth, plan, rounds, work, outcome
                )
                cache_after = self._segment_cache_counts()
            finally:
                self.release(state)
            outcome.peak_rss_mb = own_peak_rss_mb()
            if tracer is None:
                return None
            facts = dict(self._facts)
            facts["segment_cache_hits"] = cache_after[0] - cache_before[0]
            facts["segment_cache_misses"] = cache_after[1] - cache_before[1]
            return tracer.collect().window(since), facts
        finally:
            if tracer is not None:
                tracer.uninstall()

    # -- hooks -------------------------------------------------------------
    def build(
        self, truth: Truth, directory: Path, outcome: Outcome, setup: SetupTime
    ) -> Any:
        """The set-up after data generation; returns what is measured."""
        return None

    def measure(self, state, truth, plan, rounds, work, outcome):
        """Warm up, then run the rounds; returns (instant the measured
        rounds began, segment-cache counts at that instant)."""
        raise NotImplementedError

    def release(self, state: Any) -> None:
        if state is not None:
            state.close()

    # -- helpers -----------------------------------------------------------
    def begin(self) -> tuple[float, tuple[float, float]]:
        """Mark where warm-up ends and the measured rounds begin."""
        self._facts = dict.fromkeys(self._facts, 0.0)
        return perf_counter(), self._segment_cache_counts()

    def _segment_cache_counts(self) -> tuple[float, float]:
        if self._tracer is None:
            return 0.0, 0.0
        stats = [
            cache.stats()
            for cache in self._tracer.live_instances(layers.SEGMENT_CACHE)
        ]
        return (
            float(sum(entry["hits"] for entry in stats)),
            float(sum(entry["misses"] for entry in stats)),
        )

    def query_round(
        self,
        db: ModelarDB,
        statements: list[Statement],
        verify: Callable[[Statement, list[dict]], bool],
        outcome: Outcome,
        measured: bool,
    ) -> float:
        """Execute the statements in order; one throughput sample.
        Returns the seconds spent inside the queries."""
        spent = 0.0
        verified = 0
        for statement in statements:
            rows, elapsed = self.timed(outcome, statement.sql, db.query, statement.sql)
            if elapsed is None:
                continue
            spent += elapsed
            if outcome.record(verify(statement, rows), f"oracle: {statement.sql}"):
                verified += 1
                if measured:
                    outcome.add("latencies_ms", elapsed * 1000.0)
        if measured and spent:
            outcome.add("query_rates", verified / spent)
        return spent


class IngestBulk(Embedded):
    name = "ingest_bulk"
    why = (
        "the write path end to end (partition, chunk, model cascade, "
        "serialize, flush) into a fresh FileStorage, then a cold read-back "
        "of every point; query and server layers idle"
    )
    ticks = 4_000
    round_s = 0.9

    def _bulk_load(self, truth: Truth, directory: Path, series) -> Any:
        """``open → ingest → close`` of a fresh FileStorage directory."""
        with self.open(truth, directory) as db:
            return db.ingest(series)

    def measure(self, state, truth, plan, rounds, work, outcome):
        series = truth.slices(0, truth.ticks)
        points = truth.points()
        count = window_aggregate("COUNT", (), truth, 0, truth.ticks - 1, label="FRESH")
        # One read-back per entity (its four production measures and its
        # temperature), so every statement does the same kind of work.
        scans = [
            tid_scan(truth, truth.tids[first:first + 5], 0, truth.ticks - 1)
            for first in range(0, len(truth.tids), 5)
        ]

        def check(statement: Statement, rows: list[dict]) -> bool:
            return statement.check(truth, rows)

        def one_round(index: int, measured: bool) -> None:
            directory = work / f"bulk-{index}"
            try:
                stats, loaded = self.timed(
                    outcome, "bulk load", self._bulk_load, truth, directory, series
                )
                if loaded is None:
                    return
                self.note_ingest(stats, points)
                db = self.open(truth, directory)
                try:
                    rows, elapsed = self.timed(outcome, count.sql, db.query, count.sql)
                    fresh = elapsed is not None and outcome.record(
                        check(count, rows), f"oracle: {count.sql}"
                    )
                    size = db.size_bytes()
                    stored = outcome.record(
                        outcome.bytes_per_point in (0.0, size / points),
                        "stored bytes differ from the first round",
                    )
                    if measured and fresh and stored:
                        outcome.add("ingest_rates", points / loaded)
                        outcome.add("fresh_reads_ms", (loaded + elapsed) * 1000.0)
                        outcome.add("latencies_ms", elapsed * 1000.0)
                    outcome.bytes_per_point = size / points
                    spent = self.query_round(db, scans, check, outcome, measured)
                    if measured:
                        outcome.add("round_walls", loaded + spent)
                finally:
                    db.close()
            finally:
                shutil.rmtree(directory, ignore_errors=True)

        one_round(-1, measured=False)
        mark = self.begin()
        for index in range(rounds):
            with self.section(outcome):
                one_round(index, measured=True)
        return mark


class QueryWorkload(Embedded):
    """Reads over one reopened store larger than the SegmentCache."""

    ticks = 10_000

    def pool(self, truth: Truth, seed: int) -> list[Statement]:
        raise NotImplementedError

    def build(self, truth, directory, outcome, setup):
        with self.open(truth, directory) as db:
            self.load_in_slices(db, truth, outcome, setup)
        with self.section(outcome, setup):
            return self.open(truth, directory)

    def measure(self, db, truth, plan, rounds, work, outcome):
        pool = self.pool(truth, plan.seed)
        verify = Verifier(truth)
        rng = np.random.default_rng(plan.seed)
        self.query_round(db, pool, verify, outcome, measured=False)
        mark = self.begin()
        for _ in range(rounds):
            order = [pool[index] for index in rng.permutation(len(pool))]
            with self.section(outcome):
                spent = self.query_round(db, order, verify, outcome, measured=True)
                outcome.add("round_walls", spent)
        return mark


class QueryAgg(QueryWorkload):
    name = "query_agg"
    why = (
        "model-level aggregate pushdown on the Segment View over a store "
        "larger than the 4096-entry SegmentCache: scan, resolve_visible "
        "and fold dominate, no point is reconstructed, no wire"
    )
    round_s = 1.3

    def pool(self, truth, seed):
        return aggregate_pool(truth, seed)


class QueryPoints(QueryWorkload):
    name = "query_points"
    why = (
        "the same store through the Data Point View: full model decode, "
        "masks and row shaping; pushdown does little, so a change that "
        "helps one read route and costs the other shows here"
    )
    round_s = 0.65

    def pool(self, truth, seed):
        return point_pool(truth, seed)


class OnlineMixed(Embedded):
    name = "online_mixed"
    why = (
        "writes beside reads: small flushes, caches under invalidation, "
        "and the only place correct(), revision depth and AS OF cost show"
    )
    round_s = 0.25
    #: Ticks per ingested slice, at scale 1 (60 series: 15 k points).
    slice_ticks = 250
    #: Dashboard statements per cycle; half repeat the previous cycle's.
    dashboard = 8
    #: A correction lands on every this-many-th cycle.
    correct_every = 4

    def _slice(self, plan: Plan) -> int:
        return max(int(self.slice_ticks * plan.scale), 20)

    def truth(self, plan: Plan) -> Truth:
        base = self.scaled_ticks(plan)
        total = base + self.rounds(plan) * self._slice(plan)
        truth = Truth(self.entities, total, plan.seed, ERROR_BOUND)
        truth.visible = base
        return truth

    def build(self, truth, directory, outcome, setup):
        db = self.open(truth, directory)
        with self.section(outcome, setup):
            self.timed(
                outcome, "base ingest", db.ingest, truth.slices(0, truth.visible)
            )
        return db

    def measure(self, db, truth, plan, rounds, work, outcome):
        rng = np.random.default_rng(plan.seed)
        width = self._slice(plan)
        base = truth.visible
        corrections = max(rounds // self.correct_every, 1)
        carried: list[Statement] = []
        mark = self.begin()
        for cycle in range(rounds):
            # Every fourth new statement groups five series, the others
            # read one: each cycle serves the same mix of the two kinds.
            fresh_statements = [
                self._dashboard_statement(rng, truth, width, many=index % 4 == 3)
                for index in range(self.dashboard - len(carried))
            ]
            correction = None
            if cycle % self.correct_every == self.correct_every - 1:
                correction = (cycle // self.correct_every, corrections)
            with self.section(outcome):
                self._cycle(
                    db, truth, outcome, width, base,
                    carried + fresh_statements, correction,
                )
            carried = fresh_statements[: self.dashboard // 2]
        outcome.bytes_per_point = db.size_bytes() / truth.points()
        return mark

    def _cycle(self, db, truth, outcome, width, base, statements, correction):
        """Ingest a slice, read it fresh, serve the dashboard."""
        first, last = truth.visible, truth.visible + width
        stats, ingested = self.timed(
            outcome, "slice ingest", db.ingest, truth.slices(first, last)
        )
        if ingested is None:
            return
        truth.visible = last
        points = truth.points(first, last - 1)
        self.note_ingest(stats, points)
        fresh = window_aggregate(
            "COUNT", (), truth, max(last - 4 * width, 0), last - 1, label="FRESH"
        )
        rows, elapsed = self.timed(outcome, fresh.sql, db.query, fresh.sql)
        if elapsed is not None and outcome.record(
            fresh.check(truth, rows), f"oracle: {fresh.sql}"
        ):
            outcome.add("ingest_rates", points / ingested)
            outcome.add("fresh_reads_ms", (ingested + elapsed) * 1000.0)
            outcome.add("latencies_ms", elapsed * 1000.0)
        if correction is not None:
            statements = statements + self._correct(
                db, truth, outcome, base, *correction
            )
        spent = self.query_round(
            db,
            statements,
            lambda statement, rows: statement.check(truth, rows),
            outcome,
            measured=True,
        )
        outcome.add("round_walls", ingested + (elapsed or 0.0) + spent)

    def _dashboard_statement(
        self, rng: np.random.Generator, truth: Truth, width: int, many: bool
    ) -> Statement:
        function = ("SUM", "MIN", "MAX", "AVG", "COUNT")[int(rng.integers(5))]
        tids = tuple(
            sorted(
                int(tid)
                for tid in rng.choice(truth.tids, 5 if many else 1, replace=False)
            )
        )
        span = int(rng.integers(2 * width, 6 * width))
        last = int(rng.integers(span, truth.visible))
        return window_aggregate(function, tids, truth, last - span, last)

    def _correct(
        self,
        db: ModelarDB,
        truth: Truth,
        outcome: Outcome,
        base: int,
        index: int,
        corrections: int,
    ) -> list[Statement]:
        """``correct()`` five late points in an old window of their own;
        returns the ``AS OF`` read of the state before and the latest
        read after."""
        tid = truth.tids[(index % self.entities) * 5]
        # Each correction gets its own stretch of the base data, so no
        # window is re-fitted twice and the error compounds once.
        stretch = 0.9 * base / corrections
        tick = int(base * 0.04 + stretch * index)
        before = copy.copy(truth)
        before.values = truth.values.copy()
        knowledge = db.knowledge_time()
        points = []
        for offset in range(5):
            old = truth.values[truth.rows([tid])[0], tick + offset]
            new = float(np.float32((100.0 if np.isnan(old) else old) * 1.05 + 1.0))
            points.append((tid, truth.timestamp(tick + offset), new))
            truth.correct(tid, tick + offset, new)
        stats, elapsed = self.timed(outcome, "correct", db.correct, points)
        if elapsed is not None:
            outcome.record(stats.revisions > 0, "correct() emitted no revision")
        # A re-fitted window approximates the stored models, which
        # approximate the data: the bound compounds once.
        truth.bound = (1.0 + ERROR_BOUND / 100.0) ** 2 - 1.0
        reach = int(stretch / 4)
        window = (max(tick - reach, 0), min(tick + reach, base - 1))
        as_of = window_aggregate(
            "SUM", (tid,), truth, *window, as_of=knowledge, label="AS-OF"
        )
        pinned = Statement(
            as_of.label,
            as_of.sql,
            lambda _, rows, check=as_of.check: check(before, rows),
        )
        latest = window_aggregate("SUM", (tid,), truth, *window, label="LATEST")
        return [pinned, latest]


# ----------------------------------------------------------------------
# Served workloads
# ----------------------------------------------------------------------
class Served(Workload):
    """A workload that drives ``python -m repro serve`` over the wire."""

    flags: list[str] = []
    clients = 2
    #: Times each client runs the statement mix per round, at scale 1.
    passes = 1

    def phase(self, plan, work, outcome, setups, rounds, tracer):
        work.mkdir()
        spans_path = work / "server-spans.npz" if tracer is not None else None
        server = None
        try:
            for attempt in range(setups):
                if server is not None:
                    server.stop()
                    outcome.forced_kills += server.forced_kills
                    server = None
                directory = work / f"store-{attempt}"
                setup = SetupTime()
                with self.section(outcome, setup):
                    truth = self.truth(plan)
                with self.open(truth, directory) as db:
                    self.load_in_slices(db, truth, outcome, setup)
                if attempt == setups - 1:
                    pool = serving_pool(truth, plan.seed)
                    expected = self._expected(directory, pool, truth, outcome)
                count = window_aggregate(
                    "COUNT", (), truth, 0, truth.ticks - 1, label="FRESH"
                )
                with self.section(outcome, setup):
                    server = ServerProcess(directory, self.flags, work, spans_path)
                    server.wait_ready()
                    with server.connect() as client:
                        rows = client.query(count.sql)
                outcome.record(count.check(truth, rows), f"oracle: {count.sql}")
                self.close_setup(outcome, setup)
            since, facts = self._drive(server, pool, expected, plan, rounds, outcome)
            outcome.peak_rss_mb = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
                outcome.forced_kills += server.forced_kills
        if tracer is None:
            return None
        return Spans.load(spans_path).window(since), facts

    def same_rows(self, rows: list[dict], expected: list[dict]) -> bool:
        """The served answer equals the embedded engine's."""
        return rows == expected

    def _expected(
        self, directory: Path, pool: list[Statement], truth: Truth, outcome: Outcome
    ) -> dict[str, list[dict]]:
        """The embedded engine's rows for every statement of the mix —
        what the server must return — themselves checked against numpy."""
        expected = {}
        with ModelarDB.open(directory) as db:
            for statement in pool:
                rows = db.query(statement.sql)
                outcome.record(
                    statement.check(truth, rows), f"oracle: {statement.sql}"
                )
                expected[statement.sql] = rows
        return expected

    def _drive(self, server, pool, expected, plan, rounds, outcome):
        rng = np.random.default_rng(plan.seed)
        passes = max(1, round(self.passes * plan.scale))

        def client_round(client, order: list[int]) -> list[tuple[str, float | None]]:
            results = []
            for index in order:
                sql = pool[index].sql
                started = perf_counter()
                try:
                    rows = client.query(sql)
                except ModelarError as error:
                    results.append((f"{sql}: {type(error).__name__}: {error}", None))
                    continue
                elapsed = perf_counter() - started
                if self.same_rows(rows, expected[sql]):
                    results.append((sql, elapsed))
                else:
                    results.append((f"rows differ from embedded: {sql}", None))
            return results

        def one_round(orders: list[list[int]], measured: bool) -> None:
            started = perf_counter()
            futures = [
                executor.submit(client_round, client, order)
                for client, order in zip(clients, orders)
            ]
            results = [future.result() for future in futures]
            wall = perf_counter() - started
            verified = 0
            for what, elapsed in (entry for result in results for entry in result):
                if outcome.record(elapsed is not None, what):
                    verified += 1
                    if measured:
                        outcome.add("latencies_ms", elapsed * 1000.0)
            if measured:
                outcome.add("query_rates", verified / wall)
                outcome.add("round_walls", wall)

        clients = [server.connect() for _ in range(self.clients)]
        try:
            with ThreadPoolExecutor(max_workers=self.clients) as executor:
                one_round([list(range(len(pool)))] * self.clients, measured=False)
                before = clients[0].stats()
                since = perf_counter()
                for _ in range(rounds):
                    orders = [
                        [
                            int(index)
                            for _ in range(passes)
                            for index in rng.permutation(len(pool))
                        ]
                        for _ in clients
                    ]
                    with self.section(outcome):
                        one_round(orders, measured=True)
                after = clients[0].stats()
        finally:
            for client in clients:
                client.close()
        latency = sum(outcome.series("latencies_ms", raw=True)) / 1000.0
        return since, _server_facts(before, after, latency)


def _server_facts(
    before: dict, after: dict, client_latency_s: float
) -> dict[str, float]:
    """What the ``stats`` wire op counted between two readings."""

    def moved(*path: str) -> float:
        old: Any = before
        new: Any = after
        for key in path:
            old = old.get(key, {}) if isinstance(old, dict) else {}
            new = new.get(key, {}) if isinstance(new, dict) else {}
        if isinstance(new, (int, float)) and isinstance(old, (int, float)):
            return float(new - old)
        return 0.0

    return {
        "client_latency_s": client_latency_s,
        "queued": moved("counters", "queued"),
        "rejected_busy": moved("counters", "rejected_busy"),
        "result_cache_hits": moved("dispatcher", "result_cache", "hits"),
        "result_cache_misses": moved("dispatcher", "result_cache", "misses"),
        "segment_cache_hits": moved("dispatcher", "segment_cache", "hits"),
        "segment_cache_misses": moved("dispatcher", "segment_cache", "misses"),
    }


class ServeCold(Served):
    name = "serve_cold"
    why = (
        "the honest serving number: wire decode, admission, executor "
        "hand-off, engine and wire encode with the result cache off; the "
        "store fits the SegmentCache"
    )
    flags = ["--cache-capacity", "0", "--max-inflight", "2"]
    round_s = 0.5


class ServeHot(Served):
    name = "serve_hot"
    why = (
        "result cache, wire and event loop only (~100 % hits): an engine "
        "speed-up predicts no change here, a loop or codec change shows "
        "here first"
    )
    flags = ["--cache-capacity", "256", "--max-inflight", "2"]
    passes = 25
    round_s = 0.45


class ServeSharded(Served):
    name = "serve_sharded"
    why = (
        "scatter-gather, RPC and merge overhead of repro.shard with one "
        "client against the same store and statements as serve_cold"
    )
    flags = ["--shards", "2", "--replicas", "1", "--cache-capacity", "0"]
    clients = 1
    passes = 3
    round_s = 0.4

    def same_rows(self, rows, expected):
        """Equal up to float summation order: each shard folds its own
        partial sum and the master adds the partials, so a SUM or AVG
        over several shards may differ from the embedded engine's in the
        last bits."""
        if len(rows) != len(expected):
            return False
        for row, wanted in zip(rows, expected):
            if list(row) != list(wanted):
                return False
            for key, value in wanted.items():
                got = row[key]
                if isinstance(value, float) and isinstance(got, float):
                    if not math.isclose(got, value, rel_tol=1e-9):
                        return False
                elif got != value:
                    return False
        return True


#: Workload classes by name, in report order; one instance per run.
WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (
        IngestBulk,
        QueryAgg,
        QueryPoints,
        ServeCold,
        ServeHot,
        ServeSharded,
        OnlineMixed,
    )
}
