"""The query engine (Algorithms 5 and 6).

Executes the supported SQL subset — or the equivalent programmatic calls —
against a segment store:

1. *Rewriting*: Tid and dimension-member predicates become Gids
   (Section 6.2) so the store scans only relevant partitions. This and
   every other planning decision is made once, by :func:`plan`.
2. *Initialize/iterate*: aggregates fold model parameters over the
   clipped index ranges of a partition table's rows at a time; time
   rollups first split the rows at calendar boundaries (Algorithm 6);
   Data Point View queries decode a partition's values first.
3. *Finalize*: algebraic functions compute their final value, results are
   shaped into rows.

All aggregate results are divided by each series' scaling constant
during iterate, as the paper specifies.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..core.errors import QueryError
from ..models.registry import ModelRegistry
from ..obs import SpanRecorder, annotate, get_registry, span
from ..storage.interface import Storage
from ..storage.scan import Table
from . import analytics, rollup
from .aggregates import Aggregate, aggregate_by_name
from .cache import EXACT, FOREIGN, FoldColumns, SegmentCache, line_cells
from .cache import piece_cells, slices, split
from .columnar import PartitionPoints, ResultColumns, as_rows, partition_points
from .metadata import MetadataCache
from .rewriter import (
    Predicates,
    PushdownDecision,
    RewrittenQuery,
    decide_pushdown,
    rewrite,
)
from .rollup import format_bucket, parse_cube_function
from .sql import (
    Call,
    Column,
    Condition,
    Forecast,
    Query,
    Star,
    apply_as_of,
    parse,
    parse_timestamp,
    tid_values,
)
from .views import DataPointRow, SegmentView

#: A statement's parsed ``TS`` and ``Value`` conditions (see ``plan``).
_PointConditions = tuple[tuple[str, str, float], ...]
#: An empty selection's columns.
_NO_POINTS = PartitionPoints(
    np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
)

__all__ = [
    "QueryEngine",
    "Plan",
    "plan",
    "PartialResult",
    "merge_partial_results",
    "parse_timestamp",
    "EXPLAIN_ANALYZE_RE",
]

#: ``EXPLAIN ANALYZE <statement>`` prefix (the profiled execution mode).
EXPLAIN_ANALYZE_RE = re.compile(
    r"^\s*EXPLAIN\s+ANALYZE\s+(?P<statement>.+)$", re.IGNORECASE | re.DOTALL
)


class QueryEngine:
    """SQL and programmatic query execution over one segment store."""

    def __init__(
        self,
        storage: Storage,
        registry: ModelRegistry,
        cache_capacity: int = 4096,
        error_bound: float = 0.0,
    ) -> None:
        self._storage = storage
        self._registry = registry
        self._segment_cache = SegmentCache(registry, cache_capacity)
        self._metadata: MetadataCache | None = None
        self._metadata_lock = threading.Lock()
        # The ingestion-time relative error bound (percent). Analytics
        # propagates it into forecast intervals and anomaly tolerances;
        # the bound is not persisted per segment, so the opener passes
        # its configuration's value down.
        self._error_bound = error_bound

    @property
    def error_bound(self) -> float:
        """The relative error bound (percent) analytics assumes."""
        return self._error_bound

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def sql(self, text: str, *, as_of: int | None = None) -> list[dict]:
        """Parse and execute one SQL statement, returning its rows.

        ``as_of`` bounds the read at a knowledge time, equivalent to an
        ``AS OF`` clause in the statement (both may be given if they
        agree). ``EXPLAIN ANALYZE <statement>`` executes the statement
        and returns its per-stage time/row breakdown instead of its rows
        (see :meth:`explain_analyze`).
        """
        return as_rows(self.run(text, as_of=as_of))

    def run(
        self, text: str, *, as_of: int | None = None
    ) -> list[dict] | ResultColumns:
        """:meth:`sql` without filling rows: a Data Point View selection
        stays :class:`~repro.query.columnar.ResultColumns` (what the
        server caches and writes to the columnar wire)."""
        explain = EXPLAIN_ANALYZE_RE.match(text)
        if explain is not None:
            return self.explain_analyze(explain.group("statement"), as_of=as_of)
        with span("parse"):
            query = apply_as_of(parse(text), as_of)
        return self.execute(query)

    def explain_analyze(
        self, text: str, *, as_of: int | None = None
    ) -> list[dict]:
        """Execute ``text`` and report where the time and rows went.

        Returns one row per engine stage — ``parse``, ``plan``, ``scan``,
        ``finalize`` — with elapsed milliseconds, the row/segment counts
        the stage handled, and push-down details (partitions scanned vs
        pruned, segment-cache hits vs decodes), followed by a ``total``
        row. The statement really runs: timings are measurements, not
        estimates.
        """
        hits_before, misses_before = self.cache_stats
        recorder = SpanRecorder("query")
        with recorder:
            with span("parse"):
                query = apply_as_of(parse(text), as_of)
            rows = self.execute(query)
        hits_after, misses_after = self.cache_stats
        report = []
        for depth, stage in recorder.root.walk():
            if depth == 0:
                continue  # the root is reported as the "total" row below
            meta = dict(stage.meta)
            if stage.name == "scan":
                meta.setdefault("cache_hits", hits_after - hits_before)
                meta.setdefault("decoded", misses_after - misses_before)
            report.append(
                {
                    "stage": ("  " * (depth - 1)) + stage.name,
                    "ms": round(stage.elapsed * 1000.0, 3),
                    "rows": meta.pop("rows", None),
                    "detail": " ".join(
                        f"{key}={value}" for key, value in meta.items()
                    ),
                }
            )
        report.append(
            {
                "stage": "total",
                "ms": round(recorder.root.elapsed * 1000.0, 3),
                "rows": len(rows),
                "detail": "",
            }
        )
        return report

    def refresh_metadata(self) -> None:
        """Reload the metadata cache after new time series were added."""
        with self._metadata_lock:
            self._metadata = MetadataCache(self._storage)

    def invalidate_caches(self) -> None:
        """Drop the metadata cache.

        Wired to the ingestion flush hook (see
        :meth:`repro.modelardb.ModelarDB.add_flush_listener`) so an
        engine shared by concurrent server threads never serves series
        metadata that predates a bulk write. Decoded models are pure
        functions of their stored row and stay (see
        :mod:`repro.query.cache`).
        """
        with self._metadata_lock:
            self._metadata = None

    def aggregate(
        self,
        function: str,
        tids: Iterable[int] | None = None,
        members: Sequence[tuple[str, str]] = (),
        start_time: int | None = None,
        end_time: int | None = None,
        group_by: Sequence[str] = (),
        view: str = "segment",
        as_of: int | None = None,
    ) -> list[dict]:
        """Programmatic aggregate, e.g. ``aggregate("SUM_S", tids=[1])``."""
        select = (*map(Column, group_by), Call(function.upper(), "*"))
        where = _conditions_for(tids, members, start_time, end_time)
        return self.execute(Query(view, select, where, tuple(group_by), as_of=as_of))

    def points(
        self,
        tids: Iterable[int] | None = None,
        members: Sequence[tuple[str, str]] = (),
        start_time: int | None = None,
        end_time: int | None = None,
        as_of: int | None = None,
    ) -> Iterator[DataPointRow]:
        """Programmatic Data Point View scan: the points of each
        segment's member series in turn, tick ascending."""
        where = _conditions_for(tids, members, start_time, end_time)
        query = Query("datapoint", (Star(),), where, as_of=as_of)
        return (
            DataPointRow(tid, timestamp, value, dimensions)
            for tid, dimensions, timestamps, values in self._series_arrays(
                plan(query, self.metadata)
            )
            for timestamp, value in zip(timestamps.tolist(), values.tolist())
        )

    @property
    def metadata(self) -> MetadataCache:
        metadata = self._metadata
        if metadata is None:
            # Built under a lock so concurrent server threads share one
            # rebuild instead of racing on partially-initialised state.
            with self._metadata_lock:
                metadata = self._metadata
                if metadata is None:
                    metadata = MetadataCache(self._storage)
                    self._metadata = metadata
        return metadata

    @property
    def segment_cache(self) -> SegmentCache:
        return self._segment_cache

    @property
    def cache_stats(self) -> tuple[int, int]:
        """(hits, misses) of the segment cache."""
        return self._segment_cache.hits, self._segment_cache.misses

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: Query) -> list[dict] | ResultColumns:
        registry = get_registry()
        registry.counter("query.statements_total").inc()
        started = time.perf_counter()
        try:
            with span("plan"):
                planned = plan(query, self.metadata)
                self._observe_plan(planned, registry)
            with span("scan"):
                rows = self._run_route(planned)
                if not planned.aggregate:
                    annotate(rows=len(rows))
            if planned.aggregate:
                with span("finalize"):
                    rows = rows.finalize()
                    annotate(rows=len(rows))
            registry.counter("query.rows_returned_total").inc(len(rows))
            return rows
        finally:
            registry.histogram("query.execute_seconds").record(
                time.perf_counter() - started
            )

    def _observe_plan(self, planned: Plan, registry) -> None:
        """Record the push-down outcome of one planned statement."""
        total_gids = len(self.metadata.all_gids())
        scanned = len(planned.scan.gids)
        registry.counter("query.partitions_scanned_total").inc(scanned)
        registry.counter("query.partitions_pruned_total").inc(
            max(total_gids - scanned, 0)
        )
        for decision in planned.decisions:
            registry.counter(
                "query.pushdown_subtrees_total", decision=decision.route
            ).inc()
        annotate(
            partitions=f"{scanned}/{total_gids}",
            tids=len(planned.scan.tids),
            pushdown=",".join(
                f"{decision.subtree}:{decision.route}"
                for decision in planned.decisions
            ),
        )

    def execute_partial(self, query: Query) -> "PartialResult | list[dict]":
        """Worker-side execution on :meth:`execute`'s plan and route:
        aggregates return mergeable partial states (the distributed step
        of Algorithm 5), everything else its rows (analytics rows the
        master's merge_analytics_rows puts back in single-node order)."""
        return as_rows(self._run_route(plan(query, self.metadata)))

    def _run_route(self, planned: Plan) -> "PartialResult | list[dict] | ResultColumns":
        """Run the method of the plan's route (see :data:`_ROUTES`)."""
        return getattr(self, _ROUTES[planned.route])(planned)

    # -- Model-native analytics (FORECAST / SIMILAR TO) --------------------
    def _execute_analytics(self, planned: Plan) -> list[dict]:
        """One Segment View pass into a signature index, then forecast
        extrapolation or pruned similarity search from model parameters.
        """
        query = planned.query
        registry = get_registry()
        started = time.perf_counter()
        try:
            index = analytics.SignatureIndex(
                self._segment_view().rows(planned.scan)
            )
            if query.has_forecast:
                (item,) = [
                    item
                    for item in query.select
                    if isinstance(item, Forecast)
                ]
                rows = analytics.forecast_rows(
                    index, item.horizon, self._error_bound
                )
                registry.counter("query.analytics_forecasts_total").inc(
                    len(rows)
                )
                annotate(series=len(index.tids), horizon=item.horizon)
                return rows
            k = (
                query.limit
                if query.limit is not None
                else analytics.DEFAULT_SIMILARITY_K
            )
            stats = analytics.SearchStats()
            rows = analytics.similarity_rows(
                index, query.similar_to, k, stats
            )
            registry.counter("query.analytics_similarity_total").inc()
            registry.counter("query.analytics_windows_total").inc(
                stats.windows
            )
            registry.counter("query.analytics_windows_pruned_total").inc(
                stats.windows - stats.verified
            )
            annotate(windows=stats.windows, verified=stats.verified, k=k)
            return rows
        finally:
            registry.histogram("query.analytics_seconds").record(
                time.perf_counter() - started
            )

    # -- Segment View aggregates ------------------------------------------
    def _accumulate_segment(self, planned: Plan) -> "PartialResult":
        """Algorithm 5/6 over stored segments, without materialising
        per-series view rows.

        One partition table at a time (:meth:`_SegmentFold.table`), from
        the memos pinned on the partition's resident table when the
        interval holds it whole, else clipped once and folded with numpy
        passes over its fold columns (CUBE calls split the rows at
        calendar boundaries first); then one ordered accumulate per group
        key, and one for every (key, bucket) of a CUBE level at once
        (:func:`_fold_groups`). A column-independent group model is one row of
        the fold columns for all its member series, so its slice
        aggregates are computed once per segment, not once per series —
        the benefit of executing queries on models representing multiple
        time series.
        """
        fold = _SegmentFold(self, planned)
        for table in self._storage.tables(planned.scan.scan_request()):
            fold.table(table)
        registry = get_registry()
        registry.counter("query.segments_scanned_total").inc(fold.scanned)
        registry.counter("query.rows_skipped_materialization_total").inc(
            fold.skipped
        )
        annotate(
            segments=fold.scanned,
            rows_skipped_materialization=fold.skipped,
        )
        return PartialResult(
            fold.specs, fold.group_columns, fold.simple, fold.cubes
        )

    # -- Data Point View aggregates ----------------------------------------
    def _accumulate_point(self, planned: Plan) -> "PartialResult":
        specs, group_columns = planned.specs, planned.group_columns
        simple: dict[tuple, list] = {}
        cubes: dict[tuple, list] = {}

        for tid, dimensions, timestamps, values in self._series_arrays(planned):
            key = _group_key(tid, dimensions, group_columns)
            for index, spec in enumerate(specs):
                if spec.level is None:
                    states = simple.setdefault(
                        key, [spec.aggregate.initialize() for spec in specs]
                    )
                    states[index] = spec.aggregate.merge(
                        states[index], _numpy_state(spec.aggregate, values)
                    )
                else:
                    buckets = cubes.setdefault(key, [{} for _ in specs])
                    _numpy_rollup(
                        buckets[index], spec, timestamps, values
                    )
        return PartialResult(specs, group_columns, simple, cubes)

    def _series_arrays(
        self, planned: Plan
    ) -> Iterator[tuple[int, dict[str, str], np.ndarray, np.ndarray]]:
        """(tid, dimensions, timestamps, scaled values) per (segment,
        series) slice the plan's WHERE mask keeps, in segment then member
        order, empty slices skipped: views of the arrays a partition at
        a time decodes and masks
        (:func:`~repro.query.columnar.partition_points`, which skips the
        pairs whose model bounds cannot meet a ``Value`` condition).
        """
        scalings = self.metadata.scalings()
        dimension_rows = self.metadata.dimension_rows()
        for points in partition_points(
            self._storage, self._segment_cache, planned.scan, scalings,
            planned.conditions,
        ):
            end = 0
            for tid, count in zip(points.tids.tolist(), points.counts.tolist()):
                if count:
                    start, end = end, end + count
                    yield (
                        tid,
                        dimension_rows.get(tid, {}),
                        points.timestamps[start:end],
                        points.values[start:end],
                    )

    # -- Selections ---------------------------------------------------------
    def _execute_point_selection(self, planned: Plan) -> ResultColumns:
        """Partition-at-a-time point selection, gathered into columns.

        WHERE evaluates as one boolean mask per partition table instead
        of one comparison per point
        (:func:`~repro.query.columnar.partition_points`, which also
        skips the series whose model bounds cannot meet a ``Value``
        condition before decode). The surviving arrays are concatenated
        once per column at the end, so rows come out segment by
        segment, member series by member series, tick ascending. A
        dimension column is looked up once per Tid.
        """
        scalings = self.metadata.scalings()
        partitions = list(
            partition_points(
                self._storage, self._segment_cache, planned.scan, scalings,
                planned.conditions,
            )
        )
        tids, counts, timestamps, values = map(
            np.concatenate, zip(*partitions or [_NO_POINTS])
        )
        built_in = {
            "tid": np.repeat(tids, counts),
            "ts": timestamps,
            "value": values,
        }
        dimension_rows = self.metadata.dimension_rows()
        names = tuple(dict.fromkeys(planned.columns))
        gathered = []
        for name in names:
            if name.lower() in built_in:
                gathered.append(built_in[name.lower()])
                continue
            pairs = tids.tolist()
            member = {t: dimension_rows.get(t, {}).get(name) for t in set(pairs)}
            runs = map(repeat, map(member.get, pairs), counts.tolist())
            gathered.append(list(chain.from_iterable(runs)))
        return ResultColumns(names, tuple(gathered))

    def _execute_segment_selection(self, planned: Plan) -> list[dict]:
        columns = planned.columns
        anomaly_conditions = [
            condition
            for condition in planned.query.where
            if condition.column.lower() == "anomaly"
        ]
        wants_flags = anomaly_conditions or any(
            column.lower() == "anomaly" for column in columns
        )
        view_rows = list(self._segment_view().rows(planned.scan))
        flagged: set[tuple[int, int]] = set()
        if wants_flags:
            index = analytics.SignatureIndex(view_rows)
            flagged = analytics.anomaly_starts(index, self._error_bound)
            get_registry().counter(
                "query.analytics_anomalies_total"
            ).inc(len(flagged))
            annotate(anomalies=len(flagged))
        results = []
        for view_row in view_rows:
            row = view_row.row
            values = {
                "tid": row.tid,
                "starttime": row.start_time,
                "endtime": row.end_time,
                "si": row.sampling_interval,
                "mid": row.mid,
                "anomaly": int((row.tid, row.start_time) in flagged),
            }
            if any(
                values["anomaly"] != condition.value
                for condition in anomaly_conditions
            ):
                continue
            shaped = {}
            for column in columns:
                name = column.lower()
                if name in values:
                    shaped[column] = values[name]
                else:
                    shaped[column] = row.dimensions.get(column)
            results.append(shaped)
        return results

    # ------------------------------------------------------------------
    def _segment_view(self) -> SegmentView:
        return SegmentView(self._storage, self._segment_cache, self.metadata)


class _SegmentFold:
    """The fold stage of one Segment View aggregate (Algorithm 5's
    iterate): per group key states, fed one partition table at a
    time."""

    def __init__(self, engine: QueryEngine, planned: Plan) -> None:
        metadata = engine.metadata
        self.specs = planned.specs
        # Spec positions per CUBE level; None holds the simple calls.
        self.levels: dict[str | None, list[int]] = {}
        for index, spec in enumerate(self.specs):
            self.levels.setdefault(spec.level, []).append(index)
        # The planes each level's calls read: COUNT alone reads none.
        self.planes = {
            level: sorted({_PLANES[self.specs[i].aggregate.name] for i in at} - {None})
            for level, at in self.levels.items()
        }
        self.group_columns = planned.group_columns
        self.plan = planned.scan
        self.scalings = metadata.scalings()
        self.dimension_rows = metadata.dimension_rows()
        self.cache = engine.segment_cache
        self.simple: dict[tuple, list] = {}
        self.cubes: dict[tuple, list] = {}
        self.scanned = 0
        self.skipped = 0

    def _key(self, tid: int) -> tuple:
        return _group_key(
            tid, self.dimension_rows.get(tid, {}), self.group_columns
        )

    def _keys(self, tids: Sequence[int], wanted: list[bool]) -> dict:
        """The wanted column positions of each group key, in order."""
        keys: dict[tuple, list[int]] = {}
        for position, tid in enumerate(tids):
            if wanted[position]:
                keys.setdefault(self._key(tid), []).append(position)
        return keys

    def _states(self, key: tuple) -> list:
        states = self.simple.get(key)
        if states is None:
            states = [spec.aggregate.initialize() for spec in self.specs]
            self.simple[key] = states
        return states

    def _whole(self, table: Table, columns: FoldColumns | None) -> bool:
        """Whether fold columns over every row of ``table`` show that the
        interval holds each row whole."""
        if columns is None or len(columns.kinds) < len(table.segments):
            return False
        span, plan = columns.span, self.plan
        return (
            span is not None
            and (plan.start_time is None or plan.start_time <= span[0])
            and (plan.end_time is None or span[1] <= plan.end_time)
        )

    def table(self, table: Table) -> None:
        """Fold one partition from its fold columns.

        A table the interval holds whole folds from its memos
        (:meth:`_fold_whole`); any other is clipped once
        (:meth:`~repro.storage.scan.Table.clip`) first (:meth:`_fold_rows`).

        A partition holding a ``FOREIGN`` row (stored under another
        group layout) is folded one layout run at a time: each maximal
        run of consecutive rows sharing ``(group_tids,
        sampling_interval)`` as a table of its own, in append order, so
        each key still folds in (segment, column[, piece]) order.
        """
        columns, decoded, plan = table.fold, None, self.plan
        whole = self._whole(table, columns)
        if not whole:
            rows, first, last = table.clip(plan.start_time, plan.end_time)
            if not len(rows):
                return
            columns, decoded = self.cache.fold_columns(table)
            whole = self._whole(table, columns)
        if whole:
            self.scanned += len(table.segments)
            self._fold_whole(table, columns, decoded)
            return
        self.scanned += len(rows)
        if (columns.kinds[rows] == FOREIGN).any():
            segments = table.segments
            layouts = [(s.group_tids, s.sampling_interval) for s in segments]
            cuts = [
                row
                for row in range(1, len(layouts))
                if layouts[row] != layouts[row - 1]
            ]
            for begin, end in zip([0, *cuts], [*cuts, len(segments)]):
                inside = (rows >= begin) & (rows < end)
                if inside.any():
                    run = Table.of(segments[begin:end])
                    self._fold_rows(
                        run, rows[inside] - begin, first[inside], last[inside],
                        *self.cache.fold_columns(run),
                    )
            return
        self._fold_rows(table, rows, first, last, columns, decoded)

    def _fold_whole(self, table: Table, columns: FoldColumns, decoded) -> None:
        """Fold a whole table from the memos the first read that needs
        them builds: simple calls from its ``Cells``, a CUBE level from
        its ``Pieces``. COUNT alone builds no cells and looks no model
        up; each read row whose model this call did not look up counts
        one pinned hit."""
        tids, members = columns.tids, columns.members
        wanted = [tid in self.plan.tids for tid in tids]
        selected = members & wanted
        model_of, looked = _lookups(self.cache)
        points = columns.ticks
        if any(self.planes.values()):
            memo = self.cache.cells(table, model_of)
            points = memo.points
        keys, scalings = self._keys(tids, wanted), self._scalings(tids)
        for level, planes in self.planes.items():
            if level is None:
                scaled = memo.cells / scalings if planes else None
                self._fold_simple(keys, scaled, members, columns.ticks.tolist())
            else:
                pieces = self.cache.pieces(table, level, planes, wanted, model_of)
                self._fold_level(level, keys, selected, pieces, scalings)
        read = columns.occupied
        if not all(wanted):
            read = np.count_nonzero(selected.any(axis=1))
        done = [decoded]
        if looked:
            ids = (id(segment) in looked for segment in table.segments)
            done.append(np.fromiter(ids, bool, len(table.segments)))
        for rows in done:
            if rows is not None:
                read -= np.count_nonzero(selected[rows].any(axis=1))
        self.cache.count_pinned_hits(int(read))
        self.skipped += int(points[wanted].sum())

    def _scalings(self, tids: Sequence[int]) -> np.ndarray:
        return np.array([self.scalings.get(tid, 1.0) for tid in tids])

    def _fold_simple(self, keys, scaled, mask, ticks) -> None:
        """Fold each key's simple calls from its columns' ``ticks`` and the
        ``scaled`` cells ``mask`` selects, in (segment, column) order."""
        for key, positions in keys.items():
            count = sum(ticks[position] for position in positions)
            if not count:
                continue
            # A view, not a gather, for one column or all of them.
            at = positions[0] if len(positions) == 1 else positions
            if len(positions) == mask.shape[1]:
                at = slice(None)
            cells = None if scaled is None else scaled[:, :, at][:, mask[:, at]]
            states = self._states(key)
            for index in self.levels[None]:
                aggregate = self.specs[index].aggregate
                states[index] = _fold(aggregate, states[index], count, cells)

    def _fold_rows(
        self,
        table: Table,
        rows: np.ndarray,
        first: np.ndarray,
        last: np.ndarray,
        columns: FoldColumns,
        decoded: np.ndarray | None,
    ) -> None:
        """Fold the clipped ``rows`` of a table of one group layout: one
        vectorised slice aggregate (:func:`~repro.query.cache.line_cells`)
        over the rows, exact rows slicing their own model, looked up once
        for the row and all its pieces. A CUBE level first splits the
        rows at calendar boundaries (:func:`~repro.query.cache.split`)."""
        plan = self.plan
        tids = columns.tids
        wanted = [tid in plan.tids for tid in tids]
        selected = columns.members[rows] & wanted & (first <= last)[:, None]
        used = selected.any(axis=1)
        if not used.all():
            rows, selected, first, last = (
                rows[used], selected[used], first[used], last[used]
            )
        starts, step = table.starts[rows], columns.sampling_interval
        full = (first == 0) & (last == (table.ends[rows] - starts) // step)
        kinds = columns.kinds[rows]
        counts = last - first + 1
        folded = kinds != EXACT
        hits = np.count_nonzero(
            folded if decoded is None else folded & ~decoded[rows]
        )
        # Exact rows slice the planes and columns this statement reads,
        # or read a whole row's cells where a whole read built them (an
        # extended table's prefix holds its rows' cells). COUNT alone
        # looks no model up; with a CUBE call every exact row is looked
        # up, once for its simple calls and all its pieces.
        simple = self.levels.get(None, [])
        cube = len(simple) < len(self.specs)
        planes = self.planes.get(None, [])
        exact, memo = np.flatnonzero(~folded), columns.cells
        built = len(memo.constant) if memo is not None and planes and not cube else 0
        whole = full[exact] & (rows[exact] < built)
        memoised, looked = exact[whole], exact[~whole]
        constant_time = np.ones_like(folded)
        model_of = _lookups(self.cache)[0]
        blocks = []
        if not any(self.planes.values()):
            hits += len(exact)
        elif len(exact):
            constant_time = folded.copy()
            hits += len(memoised)
            if len(memoised):
                constant_time[memoised] = memo.constant[rows[memoised]]
            for row in looked.tolist():
                segment = table.segments[rows[row]]
                span = [(int(first[row]), int(last[row]))]
                block, constant_time[row] = slices(
                    model_of(segment), segment, span, wanted, planes
                )
                blocks.append(block)
        self.cache.count_pinned_hits(int(hits))
        self.skipped += int(
            (selected.sum(axis=1) * counts)[constant_time].sum()
        )

        parameters = columns.parameters[rows]
        scalings = self._scalings(tids)
        keys = self._keys(tids, wanted)
        if simple:
            scaled = None
            if planes:
                scaled = line_cells(planes, kinds, parameters, first, last) / scalings
                if blocks:
                    scaled[:, looked] = np.concatenate(blocks, axis=1) / scalings
                if len(memoised):
                    scaled[:, memoised] = memo.cells[:, rows[memoised]] / scalings
            ticks = (counts @ selected).tolist()
            self._fold_simple(keys, scaled, selected, ticks)
        for level, planes in self.planes.items():
            if level is not None:
                pieces = split(table, columns, rows, first, last, level)
                if planes:
                    pieces = piece_cells(
                        table, columns, rows, pieces, planes, wanted, model_of
                    )
                self._fold_level(level, keys, selected, pieces, scalings)

    def _fold_level(self, level, keys, selected, pieces, scalings) -> None:
        """Fold the ``selected`` columns of one CUBE level's ``pieces``
        into every (key, bucket) state at once: sorted by (key, bucket,
        segment, column, piece), the order a segment-at-a-time walk
        reaches each bucket, each run of one (key, bucket) folds through
        :func:`_fold_groups`."""
        owner = np.full(selected.shape[1], -1)
        for index, positions in enumerate(keys.values()):
            owner[positions] = index
        at, column = np.nonzero(selected[pieces.rows])
        if not len(at):
            return
        buckets, rank = np.unique(pieces.buckets, return_inverse=True)
        group = owner[column] * len(buckets) + rank[at]
        # Stable, so a row's pieces in one bucket keep their order.
        order = np.lexsort((pieces.rows[at] * len(owner) + column, group))
        at, column, group = at[order], column[order], group[order]
        begins = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
        ticks = np.add.reduceat((pieces.last - pieces.first + 1)[at], begins)
        cells = pieces.cells
        if cells is not None:
            cells = cells[:, at, column] / scalings[column]
        key, bucket = np.divmod(group[begins], len(buckets))
        key, bucket, heads = key.tolist(), buckets[bucket].tolist(), list(keys)
        states = {
            k: self.cubes.setdefault(heads[k], [{} for _ in self.specs])
            for k in set(key)
        }
        cubes = [states[k] for k in key]
        for index in self.levels[level]:
            aggregate = self.specs[index].aggregate
            initial = aggregate.initialize()
            states = [c[index].get(b, initial) for c, b in zip(cubes, bucket)]
            folded = _fold_groups(aggregate.name, states, ticks, cells, begins)
            for c, b, state in zip(cubes, bucket, folded):
                c[index][b] = state


def _lookups(cache: SegmentCache):
    """``cache.model_of`` looking each segment up once, and the models it
    looked up by segment id."""
    models: dict[int, object] = {}

    def model_of(segment):
        if id(segment) not in models:
            models[id(segment)] = cache.model_of(segment)
        return models[id(segment)]

    return model_of, models


def _fold(aggregate: Aggregate, state, ticks: int, cells: np.ndarray | None):
    """``state`` after ``ticks`` points whose slice sums, minima and
    maxima are ``cells``, added one cell at a time in order."""
    name = aggregate.name
    if name == "COUNT":
        return state + ticks
    if name == "SUM":
        return _ordered_sum(state, cells[0])
    if name == "AVG":
        return _ordered_sum(state[0], cells[0]), state[1] + ticks
    # Python's own min/max over the cells in order: the first of equal
    # extremes wins (the sign of a zero).
    extremes = cells[1 if name == "MIN" else 2].tolist()
    if state is not None:
        extremes.insert(0, state)
    return (min if name == "MIN" else max)(extremes)


#: The slice-aggregate plane each Segment View aggregate folds.
_PLANES = {"SUM": 0, "AVG": 0, "MIN": 1, "MAX": 2, "COUNT": None}


def _ordered_sum(state: float, values: np.ndarray) -> float:
    """``state + values[0] + values[1] + ...`` left to right, as Python
    ``+`` adds them: a sequential accumulate, never numpy's pairwise
    ``sum``."""
    return float(np.add.accumulate(np.concatenate(([state], values)))[-1])


def _fold_groups(name: str, states: list, ticks, cells, begins) -> list:
    """Each group's state after ``ticks`` points whose slice sums, minima
    and maxima are its run of ``cells``, ``begins[g]`` up to the next
    group's, for every group at once.

    SUM and AVG add along a grid of the runs, state in column 0, padded
    with ``-0.0`` (the exact additive identity), in one sequential
    ``np.add.accumulate``: the cells in order, never numpy's pairwise
    ``sum``. MIN and MAX keep the first of equal extremes over
    ``[state, *cells]``, as Python's ``min``/``max`` do, which decides
    the sign of a zero (cells hold no NaN: a NaN point is a gap).
    """
    if name == "COUNT":
        return [state + count for state, count in zip(states, ticks.tolist())]
    values = cells[_PLANES[name]]
    sizes = np.append(begins[1:], len(values)) - begins
    group = np.repeat(np.arange(len(sizes)), sizes)
    pad = {"MIN": np.inf, "MAX": -np.inf}.get(name, -0.0)
    grid = np.full((len(sizes), int(sizes.max()) + 1), pad)
    grid[group, np.arange(len(values)) - begins[group] + 1] = values
    if name in ("MIN", "MAX"):
        grid[:, 0] = [pad if state is None else state for state in states]
        at = grid.argmin(axis=1) if name == "MIN" else grid.argmax(axis=1)
        return grid[np.arange(len(grid)), at].tolist()
    grid[:, 0] = [state[0] for state in states] if name == "AVG" else states
    totals = np.add.accumulate(grid, axis=1)[:, -1].tolist()
    if name == "SUM":
        return totals
    return [
        (total, state[1] + count)
        for total, state, count in zip(totals, states, ticks.tolist())
    ]


# ----------------------------------------------------------------------
# Planning (the rewrite of Section 6.2, done once per statement)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Plan:
    """Every planning decision for one statement, made by :func:`plan`.

    ``scan`` is the rewritten storage read, ``conditions`` the parsed
    ``TS`` and ``Value`` conditions and ``decisions`` the per-subtree
    pushdown routes. An aggregate holds its validated calls (``specs``)
    and ``group_columns``, a selection its validated output
    ``columns``. ``route`` is the one execution strategy, a key of
    :data:`_ROUTES`.
    """

    query: Query
    scan: RewrittenQuery
    conditions: _PointConditions
    decisions: tuple[PushdownDecision, ...]
    route: str
    specs: tuple[_CallSpec, ...] = ()
    group_columns: tuple[str, ...] = ()
    columns: tuple[str, ...] = ()

    @property
    def aggregate(self) -> bool:
        """Whether the route folds partial states (finalized after)."""
        return self.route.endswith("_fold")


#: The :class:`QueryEngine` method each plan route runs.
_ROUTES = {
    "analytics": "_execute_analytics",
    "segment_fold": "_accumulate_segment",
    "point_fold": "_accumulate_point",
    "point_selection": "_execute_point_selection",
    "segment_selection": "_execute_segment_selection",
}


def plan(query: Query, metadata: MetadataCache) -> Plan:
    """Validate ``query`` against ``metadata`` and decide how it runs.

    The one place a statement is planned: the engine, its worker-side
    :meth:`QueryEngine.execute_partial`, the sharded master (before it
    scatters) and the test oracle all run this. Checks run in a fixed
    order, so every entry point raises the same first error: analytics
    shape, then each WHERE condition and the Tid/member rewrite, then an
    aggregate's select list, calls and GROUP BY, or a selection's
    columns.
    """
    _validate_analytics(query)
    scan, conditions = _rewritten(query, metadata)
    decisions = decide_pushdown(query)
    head = (query, scan, conditions, decisions)
    if query.has_forecast or query.similar_to is not None:
        return Plan(*head, "analytics")
    if query.is_aggregate:
        _validate_aggregate_select(query)
        calls = [item for item in query.select if isinstance(item, Call)]
        specs = tuple(map(_CallSpec.from_call, calls))
        segment_only = all(d.segment_only for d in decisions)
        route = "segment_fold" if segment_only else "point_fold"
        return Plan(*head, route, specs, _validated_group_by(query, metadata))
    if query.view == "datapoint":
        columns = _selection_columns(query, ["Tid", "TS", "Value"], metadata)
        return Plan(*head, "point_selection", columns=tuple(columns))
    columns = _selection_columns(
        query, ["Tid", "StartTime", "EndTime", "SI", "Mid"], metadata, ("Anomaly",)
    )
    return Plan(*head, "segment_selection", columns=tuple(columns))


def _rewritten(
    query: Query, metadata: MetadataCache
) -> tuple[RewrittenQuery, _PointConditions]:
    """The rewritten scan and the statement's ``TS`` and ``Value``
    conditions, each literal parsed once: ``(column, operator,
    literal)`` with column ``"ts"`` or ``"value"``."""
    tids: frozenset[int] | None = None
    members: list[tuple[str, str]] = []
    start: int | None = None
    end: int | None = None
    point_conditions: list[tuple[str, str, float]] = []
    for condition in query.where:
        column = condition.column
        name = column.lower()
        if name == "tid":
            values = tid_values(condition)
            tids = values if tids is None else tids & values
        elif name in ("ts", "timestamp"):
            start, end = _narrow_interval(start, end, condition)
            point_conditions.append(
                ("ts", condition.operator, parse_timestamp(condition.value))
            )
        elif name in ("starttime", "endtime"):
            start, end = _narrow_interval(start, end, condition)
        elif name == "value":
            point_conditions.append(
                ("value", condition.operator, _value_literal(condition))
            )
        elif name == "anomaly":
            if query.view != "segment":
                raise QueryError(
                    "Anomaly is a Segment view column; query "
                    "'FROM Segment' to filter on it"
                )
            if condition.operator != "=" or condition.value not in (0, 1):
                raise QueryError(
                    "Anomaly predicates support '= 0' and '= 1' only"
                )
            # Applied during segment selection, after flags are
            # computed; not a storage-level predicate.
        else:
            if condition.operator != "=":
                raise QueryError(
                    "dimension predicates support '=' only, got "
                    f"{condition.operator!r} on {column!r}"
                )
            members.append((column, str(condition.value)))
    predicates = Predicates(tids, tuple(members), start, end)
    return rewrite(predicates, metadata, query.as_of), tuple(point_conditions)


# ----------------------------------------------------------------------
# Partial results (distributed merge step of Algorithm 5)
# ----------------------------------------------------------------------
class PartialResult:
    """Mergeable per-worker aggregate state.

    Instances hold only plain data (tuples, dicts, numbers) plus
    :class:`_CallSpec`, which pickles by aggregate name — so a partial
    can be returned from a worker process over the cluster RPC layer.
    """

    def __init__(
        self,
        specs: Sequence["_CallSpec"],
        group_columns: tuple[str, ...],
        simple: dict[tuple, list],
        cubes: dict[tuple, list],
    ) -> None:
        self.specs = specs
        self.group_columns = group_columns
        self.simple = simple
        self.cubes = cubes

    def merge(self, other: "PartialResult") -> None:
        """Fold another worker's partial state into this one in place."""
        if [s.label for s in other.specs] != [s.label for s in self.specs]:
            raise QueryError("cannot merge partials of different queries")
        for key, states in other.simple.items():
            mine = self.simple.get(key)
            if mine is None:
                self.simple[key] = list(states)
                continue
            for index, spec in enumerate(self.specs):
                mine[index] = spec.aggregate.merge(mine[index], states[index])
        for key, buckets_per_spec in other.cubes.items():
            mine = self.cubes.setdefault(key, [{} for _ in self.specs])
            for index, spec in enumerate(self.specs):
                if spec.level is None:
                    continue
                for bucket, state in buckets_per_spec[index].items():
                    existing = mine[index].get(bucket)
                    if existing is None:
                        mine[index][bucket] = state
                    else:
                        mine[index][bucket] = spec.aggregate.merge(
                            existing, state
                        )

    def finalize(self) -> list[dict]:
        return _shape_results(
            self.specs, self.group_columns, self.simple, self.cubes
        )


def merge_partial_results(partials: list[PartialResult]) -> list[dict]:
    """The master's mergeResults + finalize over worker partials."""
    if not partials:
        return []
    combined = partials[0]
    for partial in partials[1:]:
        combined.merge(partial)
    return combined.finalize()


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
class _CallSpec:
    """A resolved select-list aggregate call.

    Pickles by aggregate *name* rather than by aggregate object, so
    :class:`PartialResult` instances can cross process boundaries (the
    cluster RPC layer) without serialising engine internals — the
    receiving side re-resolves the aggregate from its own registry.
    """

    def __init__(self, label: str, aggregate: Aggregate, level: str | None):
        self.label = label
        self.aggregate = aggregate
        self.level = level

    @classmethod
    def from_call(cls, call: Call) -> "_CallSpec":
        label = f"{call.function}({call.argument})"
        if call.function.startswith("CUBE_"):
            aggregate_name, level = parse_cube_function(call.function)
            return cls(label, aggregate_by_name(aggregate_name), level)
        return cls(label, aggregate_by_name(call.function), None)

    def __getstate__(self) -> dict:
        return {
            "label": self.label,
            "aggregate": self.aggregate.name,
            "level": self.level,
        }

    def __setstate__(self, state: dict) -> None:
        self.label = state["label"]
        self.aggregate = aggregate_by_name(state["aggregate"])
        self.level = state["level"]


def _conditions_for(
    tids: Iterable[int] | None,
    members: Sequence[tuple[str, str]],
    start_time: int | None,
    end_time: int | None,
) -> tuple[Condition, ...]:
    conditions: list[Condition] = []
    if tids is not None:
        conditions.append(Condition("Tid", "IN", tuple(tids)))
    for column, member in members:
        conditions.append(Condition(column, "=", member))
    if start_time is not None:
        conditions.append(Condition("TS", ">=", start_time))
    if end_time is not None:
        conditions.append(Condition("TS", "<=", end_time))
    return tuple(conditions)


def _narrow_interval(
    start: int | None, end: int | None, condition: Condition
) -> tuple[int | None, int | None]:
    value = parse_timestamp(condition.value)
    operator = condition.operator
    if operator == ">=":
        start = value if start is None else max(start, value)
    elif operator == ">":
        start = value + 1 if start is None else max(start, value + 1)
    elif operator == "<=":
        end = value if end is None else min(end, value)
    elif operator == "<":
        end = value - 1 if end is None else min(end, value - 1)
    elif operator == "=":
        start = value if start is None else max(start, value)
        end = value if end is None else min(end, value)
    else:
        raise QueryError(f"unsupported TS operator {operator!r}")
    return start, end


def _validate_analytics(query: Query) -> None:
    """Shape rules of the analytics surface, enforced before planning.

    FORECAST stands alone in its select list (its result schema is
    fixed), SIMILAR TO selects ``*`` (its result schema is fixed too),
    and LIMIT is similarity's k — nothing else is ordered, so nothing
    else may be truncated.
    """
    if query.has_forecast:
        if len(query.select) != 1:
            raise QueryError(
                "FORECAST cannot be combined with other select items; "
                f"its result schema is fixed to {analytics.FORECAST_COLUMNS}"
            )
        if query.view != "datapoint":
            raise QueryError(
                "FORECAST extrapolates data points; query 'FROM DataPoint'"
            )
        if query.group_by:
            raise QueryError("FORECAST does not support GROUP BY")
        if query.similar_to is not None:
            raise QueryError("FORECAST and SIMILAR TO cannot be combined")
    if query.similar_to is not None:
        if len(query.similar_to) < 1:
            raise QueryError(
                "the search pattern must be a non-empty sequence"
            )
        if query.select != (Star(),):
            raise QueryError(
                "SIMILAR TO returns rows "
                f"{analytics.SIMILARITY_COLUMNS}; select '*'"
            )
        if query.group_by:
            raise QueryError("SIMILAR TO does not support GROUP BY")
    if query.has_forecast or query.similar_to is not None:
        for condition in query.where:
            if condition.column.lower() == "value":
                raise QueryError(
                    "Value predicates filter reconstructed points; "
                    "analytics queries never materialize them — "
                    "restrict by Tid, TS or dimension members instead"
                )
        if query.similar_to is not None:
            for condition in query.where:
                if condition.column.lower() in (
                    "ts", "timestamp", "starttime", "endtime",
                ):
                    raise QueryError(
                        "SIMILAR TO searches whole series; restrict by "
                        "Tid or dimension members instead of TS"
                    )
    if query.limit is not None and query.similar_to is None:
        raise QueryError("LIMIT is only supported with SIMILAR TO")


def _validate_aggregate_select(query: Query) -> None:
    """Plain columns in an aggregate select list must be grouped on."""
    for item in query.select:
        if isinstance(item, Star):
            raise QueryError("cannot mix '*' with aggregate functions")
        if isinstance(item, Column) and item.name not in query.group_by:
            raise QueryError(
                f"column {item.name!r} must appear in GROUP BY when "
                "aggregates are selected"
            )


def _validated_group_by(
    query: Query, metadata: MetadataCache
) -> tuple[str, ...]:
    dimension_columns = set(metadata.dimension_columns())
    for column in query.group_by:
        if column.lower() != "tid" and column not in dimension_columns:
            raise QueryError(f"cannot GROUP BY unknown column {column!r}")
    return query.group_by


def _group_key(
    tid: int, dimensions: dict[str, str], group_columns: tuple[str, ...]
) -> tuple:
    key = []
    for column in group_columns:
        if column.lower() == "tid":
            key.append(tid)
        else:
            key.append(dimensions.get(column))
    return tuple(key)


def _selection_columns(
    query: Query,
    default: list[str],
    metadata: MetadataCache,
    extra: tuple[str, ...] = (),
) -> list[str]:
    """Validated output columns. ``extra`` names computed columns
    (``Anomaly``) selectable explicitly but excluded from ``*``.
    Built-in names match in any case; a dimension name matches exactly,
    as in WHERE and GROUP BY."""
    if any(isinstance(item, Star) for item in query.select):
        return default + metadata.dimension_columns()
    built_in = {name.lower() for name in (*default, *extra)}
    dimensions = set(metadata.dimension_columns())
    columns = []
    for item in query.select:
        if isinstance(item, Column):
            if item.name.lower() not in built_in and item.name not in dimensions:
                raise QueryError(f"unknown column {item.name!r}")
            columns.append(item.name)
        else:
            raise QueryError("cannot mix aggregates and plain columns")
    return columns


def _shape_results(
    specs: Sequence[_CallSpec],
    group_columns: tuple[str, ...],
    simple: dict[tuple, list],
    cubes: dict[tuple, list],
) -> list[dict]:
    results = []
    keys = sorted(
        set(simple) | set(cubes), key=lambda key: tuple(map(str, key))
    )
    has_cube = any(spec.level is not None for spec in specs)
    labels: dict[tuple, str] = {}  # each (bucket, level) formatted once
    if not keys and not group_columns and not has_cube:
        # SQL semantics: an ungrouped aggregate over no rows still yields
        # one row (COUNT 0, the others NULL).
        return [
            {
                spec.label: spec.aggregate.finalize(spec.aggregate.initialize())
                for spec in specs
            }
        ]
    for key in keys:
        base = dict(zip(group_columns, key))
        if not has_cube:
            states = simple.get(key)
            row = dict(base)
            for index, spec in enumerate(specs):
                state = (
                    states[index]
                    if states is not None
                    else spec.aggregate.initialize()
                )
                row[spec.label] = spec.aggregate.finalize(state)
            results.append(row)
            continue
        # With cube calls, emit one row per (group key, bucket).
        buckets_per_spec = cubes.get(key, [{} for _ in specs])
        all_buckets = sorted(
            {
                bucket
                for index, spec in enumerate(specs)
                if spec.level is not None
                for bucket in buckets_per_spec[index]
            }
        )
        simple_states = simple.get(key)
        for bucket in all_buckets:
            row = dict(base)
            for index, spec in enumerate(specs):
                if spec.level is None:
                    state = (
                        simple_states[index]
                        if simple_states is not None
                        else spec.aggregate.initialize()
                    )
                    row[spec.label] = spec.aggregate.finalize(state)
                else:
                    state = buckets_per_spec[index].get(bucket)
                    if state is None:
                        continue
                    label = labels.get((bucket, spec.level))
                    if label is None:
                        label = format_bucket(bucket, spec.level)
                        labels[bucket, spec.level] = label
                    row[spec.level] = label
                    row[spec.label] = spec.aggregate.finalize(state)
            results.append(row)
    return results


def _value_literal(condition: Condition) -> float:
    """A ``Value`` condition's literal as the float every mask compares
    against; a query error for anything the masks cannot compare."""
    if condition.operator not in ("=", "<", "<=", ">", ">="):
        raise QueryError(f"unsupported Value operator {condition.operator!r}")
    try:
        return float(condition.value)
    except (TypeError, ValueError):
        raise QueryError(f"cannot compare Value with {condition.value!r}") from None


def _numpy_state(aggregate: Aggregate, values: np.ndarray):
    """Partial state for one reconstructed slice (Data Point View path)."""
    name = aggregate.name
    if name == "COUNT":
        return int(len(values))
    if name == "SUM":
        return float(values.sum())
    if name == "MIN":
        return float(values.min())
    if name == "MAX":
        return float(values.max())
    if name == "AVG":
        return (float(values.sum()), int(len(values)))
    raise QueryError(f"aggregate {name!r} not supported on the Data Point View")


def _numpy_rollup(
    buckets: dict[int, object],
    spec: _CallSpec,
    timestamps: np.ndarray,
    values: np.ndarray,
) -> None:
    """Vectorised calendar bucketing for Data Point View rollups: one
    state per interval, merged into its key's bucket in time order."""
    for key, mask in rollup.bucket_masks(timestamps, spec.level):
        state = _numpy_state(spec.aggregate, values[mask])
        existing = buckets.get(key)
        if existing is None:
            buckets[key] = state
        else:
            buckets[key] = spec.aggregate.merge(existing, state)
