"""The query engine (Algorithms 5 and 6).

Executes the supported SQL subset — or the equivalent programmatic calls —
against a segment store:

1. *Rewriting*: Tid and dimension-member predicates become Gids
   (Section 6.2) so the store scans only relevant partitions.
2. *Initialize/iterate*: aggregates fold decoded models over the clipped
   index range of every Segment View row; time rollups walk calendar
   boundaries per segment (Algorithm 6); Data Point View queries
   reconstruct values first.
3. *Finalize*: algebraic functions compute their final value, results are
   shaped into rows.

All aggregate results are divided by each series' scaling constant
during iterate, as the paper specifies.
"""

from __future__ import annotations

import re
import threading
import time
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
from .cache import CONSTANT, EXACT, FOREIGN, SegmentCache
from .columnar import PartitionPoints, ResultColumns, as_rows, partition_points
from .columnar import compare as _compare
from .columnar import point_mask as _point_mask
from .metadata import MetadataCache
from .rewriter import (
    Predicates,
    PushdownDecision,
    RewrittenQuery,
    decide_pushdown,
    rewrite,
)
from .rollup import format_bucket, parse_cube_function, rollup_segment
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
from .views import DataPointRow, DataPointView, SegmentView

#: A statement's parsed ``TS`` and ``Value`` conditions (see ``_plan``).
_PointConditions = list[tuple[str, str, float]]
#: An empty selection's columns.
_NO_POINTS = PartitionPoints(
    np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
)

__all__ = [
    "QueryEngine",
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
        columnar: bool = True,
        error_bound: float = 0.0,
    ) -> None:
        self._storage = storage
        self._registry = registry
        self._segment_cache = SegmentCache(registry, cache_capacity)
        self._metadata: MetadataCache | None = None
        self._metadata_lock = threading.Lock()
        # Execution strategy only: the columnar path runs over
        # (ticks × series) blocks, the row path one value at a time.
        # Plans (pushdown decisions included) are shared, and both
        # strategies fold with identical arithmetic and order, so
        # results are bit-identical either way.
        self._columnar = columnar
        # The ingestion-time relative error bound (percent). Analytics
        # propagates it into forecast intervals and anomaly tolerances;
        # the bound is not persisted per segment, so the opener passes
        # its configuration's value down.
        self._error_bound = error_bound

    @property
    def columnar(self) -> bool:
        """Whether the block (columnar) execution strategy is active."""
        return self._columnar

    @property
    def error_bound(self) -> float:
        """The relative error bound (percent) analytics assumes."""
        return self._error_bound

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def sql(
        self,
        text: str,
        *,
        as_of: int | None = None,
        columnar: bool | None = None,
    ) -> list[dict]:
        """Parse and execute one SQL statement, returning its rows.

        ``as_of`` bounds the read at a knowledge time, equivalent to an
        ``AS OF`` clause in the statement (both may be given if they
        agree). ``columnar`` overrides the engine's execution strategy
        for this statement only; None keeps the configured default.
        ``EXPLAIN ANALYZE <statement>`` executes the statement and
        returns its per-stage time/row breakdown instead of its rows
        (see :meth:`explain_analyze`).
        """
        return as_rows(self.run(text, as_of=as_of, columnar=columnar))

    def run(
        self, text: str, *, as_of: int | None = None, columnar: bool | None = None
    ) -> list[dict] | ResultColumns:
        """:meth:`sql` without filling rows: a columnar Data Point View
        selection stays :class:`~repro.query.columnar.ResultColumns`
        (what the server caches and writes to the columnar wire)."""
        explain = EXPLAIN_ANALYZE_RE.match(text)
        if explain is not None:
            return self.explain_analyze(
                explain.group("statement"), as_of=as_of, columnar=columnar
            )
        with span("parse"):
            query = apply_as_of(parse(text), as_of)
        return self.execute(query, columnar=columnar)

    def explain_analyze(
        self,
        text: str,
        *,
        as_of: int | None = None,
        columnar: bool | None = None,
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
            rows = self.execute(query, columnar=columnar)
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
        query = Query(
            view=view,
            select=tuple(
                Column(name) for name in group_by
            ) + (Call(function.upper(), "*"),),
            where=_conditions_for(tids, members, start_time, end_time),
            group_by=tuple(group_by),
            as_of=as_of,
        )
        return self.execute(query)

    def points(
        self,
        tids: Iterable[int] | None = None,
        members: Sequence[tuple[str, str]] = (),
        start_time: int | None = None,
        end_time: int | None = None,
        as_of: int | None = None,
    ) -> Iterator[DataPointRow]:
        """Programmatic Data Point View scan."""
        predicates = Predicates(
            tids=frozenset(tids) if tids is not None else None,
            members=tuple(members),
            start_time=start_time,
            end_time=end_time,
        )
        plan = rewrite(predicates, self.metadata, as_of)
        return self._data_point_view().rows(plan)

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
    def execute(
        self, query: Query, *, columnar: bool | None = None
    ) -> list[dict] | ResultColumns:
        # Per-statement strategy override, threaded explicitly — the
        # engine is shared by server threads, so self._columnar is
        # never mutated per query.
        use_columnar = self._columnar if columnar is None else columnar
        registry = get_registry()
        registry.counter("query.statements_total").inc()
        started = time.perf_counter()
        try:
            with span("plan"):
                _validate_analytics(query)
                plan, row_predicates = self._plan(query)
                decisions = decide_pushdown(query)
                self._observe_plan(plan, decisions, registry)
            if query.has_forecast or query.similar_to is not None:
                with span("scan"):
                    rows = self._execute_analytics(query, plan, use_columnar)
                    annotate(rows=len(rows))
            elif query.is_aggregate:
                _validate_aggregate_select(query)
                with span("scan"):
                    if all(d.segment_only for d in decisions):
                        partial = self._accumulate_segment(
                            query, plan, use_columnar
                        )
                    else:
                        partial = self._accumulate_point(
                            query, plan, row_predicates, use_columnar
                        )
                with span("finalize"):
                    rows = partial.finalize()
                    annotate(rows=len(rows))
            else:
                with span("scan"):
                    if query.view == "datapoint":
                        rows = self._execute_point_selection(
                            query, plan, row_predicates, use_columnar
                        )
                    else:
                        rows = self._execute_segment_selection(query, plan)
                    annotate(rows=len(rows))
            registry.counter("query.rows_returned_total").inc(len(rows))
            return rows
        finally:
            registry.histogram("query.execute_seconds").record(
                time.perf_counter() - started
            )

    def _observe_plan(
        self,
        plan: RewrittenQuery,
        decisions: tuple[PushdownDecision, ...],
        registry,
    ) -> None:
        """Record the push-down outcome of one rewritten query."""
        total_gids = len(self.metadata.all_gids())
        scanned = len(plan.gids)
        registry.counter("query.partitions_scanned_total").inc(scanned)
        registry.counter("query.partitions_pruned_total").inc(
            max(total_gids - scanned, 0)
        )
        for decision in decisions:
            registry.counter(
                "query.pushdown_subtrees_total", decision=decision.route
            ).inc()
        annotate(
            partitions=f"{scanned}/{total_gids}",
            tids=len(plan.tids),
            pushdown=",".join(
                f"{decision.subtree}:{decision.route}"
                for decision in decisions
            ),
        )

    def execute_partial(
        self, query: Query, *, columnar: bool | None = None
    ) -> "PartialResult | list[dict]":
        """Worker-side execution: aggregate queries return mergeable
        partial states (the distributed step of Algorithm 5); selections
        return their rows directly."""
        use_columnar = self._columnar if columnar is None else columnar
        _validate_analytics(query)
        plan, row_predicates = self._plan(query)
        if query.has_forecast or query.similar_to is not None:
            # Plain-data rows; the master's merge_analytics_rows
            # re-establishes the single-node total order and top-k.
            return self._execute_analytics(query, plan, use_columnar)
        if not query.is_aggregate:
            if query.view == "datapoint":
                selection = self._execute_point_selection(
                    query, plan, row_predicates, use_columnar
                )
                return as_rows(selection)
            return self._execute_segment_selection(query, plan)
        _validate_aggregate_select(query)
        # The same plan-level routing as execute(): workers and the
        # single-node engine take identical pushdown decisions.
        if all(d.segment_only for d in decide_pushdown(query)):
            return self._accumulate_segment(query, plan, use_columnar)
        return self._accumulate_point(
            query, plan, row_predicates, use_columnar
        )

    def _plan(self, query: Query) -> tuple[RewrittenQuery, _PointConditions]:
        """The rewritten scan and the statement's ``TS`` and ``Value``
        conditions, each literal parsed once: ``(column, operator,
        literal)`` with column ``"ts"`` or ``"value"``."""
        tids: frozenset[int] | None = None
        members: list[tuple[str, str]] = []
        start: int | None = None
        end: int | None = None
        point_conditions: _PointConditions = []
        for condition in query.where:
            column = condition.column
            name = column.lower()
            if name == "tid":
                tids = _intersect(tids, tid_values(condition))
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
        predicates = Predicates(
            tids=tids,
            members=tuple(members),
            start_time=start,
            end_time=end,
        )
        return rewrite(predicates, self.metadata, query.as_of), point_conditions

    # -- Model-native analytics (FORECAST / SIMILAR TO) --------------------
    def _execute_analytics(
        self, query: Query, plan: RewrittenQuery, columnar: bool
    ) -> list[dict]:
        """One Segment View pass into a signature index, then forecast
        extrapolation or pruned similarity search from model parameters.

        Shared verbatim by both execution modes (the index and kernels
        have a single code path), so row and columnar engines return
        bit-identical analytics rows — the PR 6 contract extends to the
        analytics surface for free.
        """
        registry = get_registry()
        started = time.perf_counter()
        try:
            index = analytics.SignatureIndex(
                self._segment_view().rows(plan)
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
                annotate(
                    series=len(index.tids),
                    horizon=item.horizon,
                    mode="columnar" if columnar else "row",
                )
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
            annotate(
                windows=stats.windows,
                verified=stats.verified,
                k=k,
                mode="columnar" if columnar else "row",
            )
            return rows
        finally:
            registry.histogram("query.analytics_seconds").record(
                time.perf_counter() - started
            )

    # -- Segment View aggregates ------------------------------------------
    def _accumulate_segment(
        self, query: Query, plan: RewrittenQuery, columnar: bool
    ) -> "PartialResult":
        """Algorithm 5/6 over stored segments, without materialising
        per-series view rows.

        Both engines take one partition table at a time
        (:meth:`_SegmentFold.table`) and clip it once
        (:meth:`~repro.storage.scan.Table.clip`). Columnar mode folds
        every statement with numpy passes over the fold columns pinned
        on the partition's resident table, CUBE calls splitting the rows
        at calendar boundaries first, then one ordered accumulate per
        group key (and bucket). The row engine visits the clipped rows
        one segment at a time (:meth:`_SegmentFold.segment`), walking
        CUBE buckets with :func:`rollup_segment`: a column-independent
        model's slice aggregates are memoised and *shared* across the
        group's member series, so aggregate work per segment is O(1) in
        the group size — the benefit of executing queries on models
        representing multiple time series. Both add the same floats in
        the same (segment, column, bucket) order, so their results are
        bit-identical.
        """
        fold = _SegmentFold(self, query, plan)
        for table in self._storage.tables(plan.scan_request()):
            fold.table(table, columnar)
        registry = get_registry()
        registry.counter("query.segments_scanned_total").inc(fold.scanned)
        registry.counter("query.rows_skipped_materialization_total").inc(
            fold.skipped
        )
        annotate(
            segments=fold.scanned,
            rows_skipped_materialization=fold.skipped,
            mode="columnar" if columnar else "row",
        )
        return PartialResult(
            fold.specs, fold.group_columns, fold.simple, fold.cubes
        )

    # -- Data Point View aggregates ----------------------------------------
    def _accumulate_point(
        self,
        query: Query,
        plan: RewrittenQuery,
        point_conditions: _PointConditions,
        columnar: bool,
    ) -> "PartialResult":
        calls = _calls(query)
        group_columns = _validated_group_by(query, self.metadata)
        specs = [_CallSpec.from_call(call) for call in calls]
        simple: dict[tuple, list] = {}
        cubes: dict[tuple, list] = {}

        for tid, dimensions, timestamps, values in self._series_arrays(
            plan, columnar, point_conditions
        ):
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
        self, plan: RewrittenQuery, columnar: bool, conditions: _PointConditions
    ) -> Iterator[tuple[int, dict[str, str], np.ndarray, np.ndarray]]:
        """(tid, dimensions, timestamps, scaled values) per series slice
        the WHERE mask keeps, empty slices skipped.

        Both strategies visit the same (segment, series) pairs in the
        same order and produce elementwise bit-identical arrays; the
        columnar strategy decodes and masks a partition at a time
        (:func:`~repro.query.columnar.partition_points`, which skips the
        pairs whose model bounds cannot meet a ``Value`` condition) and
        yields views of its arrays.
        """
        if not columnar:
            for row, timestamps, values in self._data_point_view().arrays(plan):
                mask = _point_mask(timestamps, values, conditions)
                if mask is not None:
                    timestamps, values = timestamps[mask], values[mask]
                if len(values):
                    yield row.tid, row.dimensions, timestamps, values
            return
        scalings = self.metadata.scalings()
        dimension_rows = self.metadata.dimension_rows()
        for points in partition_points(
            self._storage, self._segment_cache, plan, scalings, conditions
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
    def _execute_point_selection(
        self,
        query: Query,
        plan: RewrittenQuery,
        point_conditions: _PointConditions,
        columnar: bool,
    ) -> list[dict] | ResultColumns:
        columns = _selection_columns(
            query, ["Tid", "TS", "Value"], self.metadata
        )
        if columnar:
            return self._point_selection_columnar(
                columns, plan, point_conditions
            )
        results = []
        for point in self._data_point_view().rows(plan):
            if not _point_matches(point, point_conditions):
                continue
            row = {}
            for column in columns:
                name = column.lower()
                if name == "tid":
                    row[column] = point.tid
                elif name == "ts":
                    row[column] = point.timestamp
                elif name == "value":
                    row[column] = point.value
                else:
                    row[column] = point.dimensions.get(column)
            results.append(row)
        return results

    def _point_selection_columnar(
        self,
        columns: list[str],
        plan: RewrittenQuery,
        point_conditions: _PointConditions,
    ) -> ResultColumns:
        """Partition-at-a-time point selection, gathered into columns.

        WHERE evaluates as one boolean mask per partition table instead
        of one comparison per point
        (:func:`~repro.query.columnar.partition_points`, which also
        skips the series whose model bounds cannot meet a ``Value``
        condition before decode). The surviving arrays are concatenated
        once per column at the end, so rows come out in the row path's
        exact order: segment by segment, member series by member series,
        tick ascending. A dimension column is looked up once per Tid.
        """
        scalings = self.metadata.scalings()
        partitions = list(
            partition_points(
                self._storage, self._segment_cache, plan, scalings, point_conditions
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
        names = tuple(dict.fromkeys(columns))
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

    def _execute_segment_selection(
        self, query: Query, plan: RewrittenQuery
    ) -> list[dict]:
        columns = _selection_columns(
            query,
            ["Tid", "StartTime", "EndTime", "SI", "Mid"],
            self.metadata,
            extra=("Anomaly",),
        )
        anomaly_conditions = [
            condition
            for condition in query.where
            if condition.column.lower() == "anomaly"
        ]
        wants_flags = anomaly_conditions or any(
            column.lower() == "anomaly" for column in columns
        )
        view_rows = list(self._segment_view().rows(plan))
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

    def _data_point_view(self) -> DataPointView:
        return DataPointView(
            self._storage, self._segment_cache, self.metadata
        )


class _SegmentFold:
    """The fold stage of one Segment View aggregate (Algorithm 5's
    iterate): per group key states, fed one segment or one partition
    table at a time."""

    def __init__(
        self, engine: QueryEngine, query: Query, plan: RewrittenQuery
    ) -> None:
        metadata = engine.metadata
        self.specs = [_CallSpec.from_call(call) for call in _calls(query)]
        # Spec positions per CUBE level; None holds the simple calls.
        self.levels: dict[str | None, list[int]] = {}
        for index, spec in enumerate(self.specs):
            self.levels.setdefault(spec.level, []).append(index)
        self.group_columns = _validated_group_by(query, metadata)
        self.plan = plan
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

    def _states(self, key: tuple) -> list:
        states = self.simple.get(key)
        if states is None:
            states = [spec.aggregate.initialize() for spec in self.specs]
            self.simple[key] = states
        return states

    def segment(self, segment, first: int, last: int) -> None:
        """Fold one segment's selected member series over its clipped
        index range (none when ``first > last``)."""
        if first > last:
            return
        selected = [
            (column, tid)
            for column, tid in enumerate(segment.member_tids)
            if tid in self.plan.tids
        ]
        if not selected:
            return
        model = self.cache.model_of(segment)
        if model.constant_time_aggregates:
            # Answered from model parameters alone: every data point
            # this segment represents for the selected series stays
            # unmaterialised.
            self.skipped += len(selected) * (last - first + 1)
        if model.column_independent:
            model = _ColumnSharedModel(model)
        for column, tid in selected:
            key = self._key(tid)
            scaling = self.scalings.get(tid, 1.0)
            for index, spec in enumerate(self.specs):
                if spec.level is None:
                    states = self._states(key)
                    states[index] = spec.aggregate.iterate(
                        states[index], model, first, last, column, scaling
                    )
                    continue
                buckets = self.cubes.get(key)
                if buckets is None:
                    buckets = [{} for _ in self.specs]
                    self.cubes[key] = buckets
                rollup_segment(
                    buckets[index],
                    spec.aggregate,
                    model,
                    segment.start_time,
                    segment.sampling_interval,
                    first,
                    last,
                    column,
                    scaling,
                    spec.level,
                )

    def table(self, table: Table, columnar: bool) -> None:
        """Fold one partition from its fold columns.

        One vectorised clip, slice aggregate and scaling division over
        the table's rows, each model's own formulas elementwise: PMC-Mean
        ``value * count`` and ``value``; Swing ``count * (first + last)
        / 2.0`` and the ``min``/``max`` of its end values. Gorilla and
        ``Multi`` rows fill their cells with their own per-column slice
        calls, in place. Each group key then folds its cells in
        (segment, column) order — the row engine's order of Python
        ``+``, ``min`` and ``max``.

        A CUBE level first splits the rows into one piece per calendar
        bucket (:func:`rollup.split_at_boundaries`, :func:`rollup_segment`'s
        walk for every row at once) and runs the same formulas over the
        pieces. Each (group key, bucket) then folds its cells in
        (segment, column, piece) order, the row engine's order again.

        The row engine (``columnar`` false) and a partition holding a
        ``FOREIGN`` row fold the clipped rows one :meth:`segment` at a
        time instead.
        """
        plan = self.plan
        rows, first, last = table.clip(plan.start_time, plan.end_time)
        self.scanned += len(rows)
        if not len(rows):
            return
        columns, decoded = (
            self.cache.fold_columns(table) if columnar else (None, None)
        )
        if columns is None or (columns.kinds[rows] == FOREIGN).any():
            for row, lo, hi in zip(rows.tolist(), first.tolist(), last.tolist()):
                self.segment(table.segments[row], lo, hi)
            return
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
        # Exact rows fold their own per-column slice calls: only the
        # planes (sum, min, max) and columns this statement reads, or —
        # for a whole segment read on every column — all of them, kept
        # in the row's memo. COUNT alone reads no plane, so exact rows
        # then only look their model up, as the row engine does. A CUBE
        # call slices pieces of the row: it looks the model up once for
        # them all, and the memo is neither read nor kept.
        simple = self.levels.get(None, [])
        cube = len(simple) < len(self.specs)
        planes = self._planes(simple)
        every = all(wanted) and bool(planes) and not cube
        exact = np.flatnonzero(~folded)
        memos, models = [], []
        for row, index, whole in zip(
            exact.tolist(), rows[exact].tolist(), full[exact].tolist()
        ):
            memo = columns.exact.get(index) if whole and not cube else None
            if memo is not None:
                hits += 1
            else:
                segment = table.segments[index]
                model = self.cache.model_of(segment)
                models.append((model, segment))
                span = [(int(first[row]), int(last[row]))]
                if whole and every:
                    memo = _slices(model, segment, span, None, (0, 1, 2))
                    columns.exact[index] = memo
                else:
                    memo = _slices(model, segment, span, wanted, planes)
            memos.append(memo)
        self.cache.count_pinned_hits(int(hits))
        constant_time = folded
        if memos:
            constant_time = folded.copy()
            constant_time[exact] = [memo[1] for memo in memos]
        self.skipped += int(
            (selected.sum(axis=1) * counts)[constant_time].sum()
        )

        parameters = columns.parameters[rows]
        scalings = np.array([self.scalings.get(tid, 1.0) for tid in tids])
        keys: dict[tuple, list[int]] = {}
        for position in np.flatnonzero(wanted).tolist():
            keys.setdefault(self._key(tids[position]), []).append(position)
        if simple:
            if planes:
                scaled = _cells(planes, kinds, parameters, first, last) / scalings
                if memos:
                    blocks = np.concatenate([memo[0] for memo in memos], axis=1)
                    scaled[:, exact] = blocks / scalings
            for key, positions in keys.items():
                mask = selected[:, positions]
                if not mask.any():
                    continue
                ticks = int(mask.sum(axis=1) @ counts)
                cells = scaled[:, :, positions][:, mask] if planes else None
                states = self._states(key)
                for index in simple:
                    aggregate = self.specs[index].aggregate
                    states[index] = _fold(aggregate, states[index], ticks, cells)

        for level, indices in self.levels.items():
            if level is None:
                continue
            row, lo, hi, buckets = rollup.split_at_boundaries(
                starts, first, last, step, level
            )
            chosen = selected[row]
            planes = self._planes(indices)
            if planes:
                scaled = _cells(planes, kinds[row], parameters[row], lo, hi) / scalings
                # An exact row's pieces are one run, sliced from the model
                # it looked up once.
                begins = np.searchsorted(row, exact, "left").tolist()
                ends = np.searchsorted(row, exact, "right").tolist()
                for (model, segment), begin, end in zip(models, begins, ends):
                    span = np.stack((lo[begin:end], hi[begin:end]), 1).tolist()
                    cells = _slices(model, segment, span, wanted, planes)[0]
                    scaled[:, begin:end] = cells / scalings
            for key, positions in keys.items():
                pieces, members = np.nonzero(chosen[:, positions])
                if not len(pieces):
                    continue
                # Bucket by bucket, in the order the row engine's walks
                # reach a bucket: (segment, column, piece).
                order = np.lexsort((pieces, members, row[pieces], buckets[pieces]))
                pieces, members = pieces[order], members[order]
                keyed = buckets[pieces]
                cuts = (np.flatnonzero(keyed[1:] != keyed[:-1]) + 1).tolist()
                begins, ends = [0, *cuts], [*cuts, len(pieces)]
                ticks = np.add.reduceat((hi - lo + 1)[pieces], begins).tolist()
                if planes:
                    cells = scaled[:, pieces, np.asarray(positions)[members]]
                states = self.cubes.setdefault(key, [{} for _ in self.specs])
                for bucket, begin, end, count in zip(
                    keyed[begins].tolist(), begins, ends, ticks
                ):
                    part = cells[:, begin:end] if planes else None
                    for index in indices:
                        aggregate = self.specs[index].aggregate
                        state = states[index].get(bucket, aggregate.initialize())
                        states[index][bucket] = _fold(aggregate, state, count, part)

    def _planes(self, indices: Sequence[int]) -> list[int]:
        """The slice-aggregate planes the calls at ``indices`` read."""
        names = {self.specs[index].aggregate.name for index in indices}
        return sorted({_PLANES[name] for name in names} - {None})


def _cells(
    planes: Sequence[int],
    kinds: np.ndarray,
    parameters: np.ndarray,
    first: np.ndarray,
    last: np.ndarray,
) -> np.ndarray:
    """Constant and line rows' slice sums, minima and maxima (``planes``
    of them) over ``first..last``, as a ``(3, rows, 1)`` block (zeros for
    exact rows)."""
    intercept, slope = parameters.T
    head, tail = intercept + slope * first, intercept + slope * last
    counts = last - first + 1
    constant = kinds == CONSTANT
    cells = np.zeros((3, len(kinds)))
    if 0 in planes:
        cells[0] = np.where(
            constant, intercept * counts, counts * (head + tail) / 2.0
        )
    if 1 in planes:
        cells[1] = np.where(
            constant, intercept, np.where(tail < head, tail, head)
        )
    if 2 in planes:
        cells[2] = np.where(
            constant, intercept, np.where(tail > head, tail, head)
        )
    return cells[:, :, np.newaxis]


def _slices(
    model,
    segment,
    spans: Sequence[Sequence[int]],
    wanted: list[bool] | None,
    planes: Sequence[int],
) -> tuple[np.ndarray, bool]:
    """An exact row's slice sums, minima and maxima (``planes`` of them)
    over each of ``spans`` for its ``wanted`` group columns (None: all),
    as a ``(3, len(spans), len(tids))`` block, from its own model (the
    caller looked it up); and whether that model is constant-time."""
    tids = segment.group_tids
    calls = (model.slice_sum, model.slice_min, model.slice_max)
    cells = np.zeros((3, len(spans), len(tids)))
    for column, tid in enumerate(segment.member_tids):
        position = tids.index(tid)
        if wanted is None or wanted[position]:
            for plane in planes:
                for piece, span in enumerate(spans):
                    cells[plane, piece, position] = calls[plane](*span, column)
    return cells, model.constant_time_aggregates


def _fold(aggregate: Aggregate, state, ticks: int, cells: np.ndarray | None):
    """``state`` after ``ticks`` points whose slice sums, minima and
    maxima are ``cells``, in the row engine's order."""
    name = aggregate.name
    if name == "COUNT":
        return state + ticks
    if name == "SUM":
        return _ordered_sum(state, cells[0])
    if name == "AVG":
        return _ordered_sum(state[0], cells[0]), state[1] + ticks
    # Python's own min/max over the row engine's sequence: the first of
    # equal extremes wins (the sign of a zero).
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


class _ColumnSharedModel:
    """Memoising proxy for column-independent models within one segment.

    Constant and linear group models produce the same estimate for every
    member series at a timestamp, so slice aggregates do not depend on
    the column — computing them once per segment and sharing the result
    across the group's series makes aggregate cost O(1) in group size.
    ``Multi`` models are constant-time too, but per column, so callers
    wrap only :attr:`~repro.models.base.FittedModel.column_independent`
    models.
    """

    __slots__ = ("_model", "_memo")

    constant_time_aggregates = True
    column_independent = True

    def __init__(self, model) -> None:
        self._model = model
        self._memo: dict[tuple, float] = {}

    @property
    def length(self) -> int:
        return self._model.length

    @property
    def n_columns(self) -> int:
        return self._model.n_columns

    def values(self):
        return self._model.values()

    def value_at(self, index: int, column: int) -> float:
        return self._model.value_at(index, 0)

    def column_values(self, column: int):
        return self._model.column_values(column)

    def slice_sum(self, first: int, last: int, column: int) -> float:
        key = ("sum", first, last)
        value = self._memo.get(key)
        if value is None:
            value = self._model.slice_sum(first, last, 0)
            self._memo[key] = value
        return value

    def slice_min(self, first: int, last: int, column: int) -> float:
        key = ("min", first, last)
        value = self._memo.get(key)
        if value is None:
            value = self._model.slice_min(first, last, 0)
            self._memo[key] = value
        return value

    def slice_max(self, first: int, last: int, column: int) -> float:
        key = ("max", first, last)
        value = self._memo.get(key)
        if value is None:
            value = self._model.slice_max(first, last, 0)
            self._memo[key] = value
        return value


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
        specs: list["_CallSpec"],
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


def _calls(query: Query) -> list[Call]:
    return [item for item in query.select if isinstance(item, Call)]


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


def _intersect(
    current: frozenset[int] | None, new: frozenset[int]
) -> frozenset[int]:
    return new if current is None else current & new


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
    specs: list[_CallSpec],
    group_columns: tuple[str, ...],
    simple: dict[tuple, list],
    cubes: dict[tuple, list],
) -> list[dict]:
    results = []
    keys = sorted(
        set(simple) | set(cubes), key=lambda key: tuple(map(str, key))
    )
    has_cube = any(spec.level is not None for spec in specs)
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
                    row[spec.level] = format_bucket(bucket, spec.level)
                    row[spec.label] = spec.aggregate.finalize(state)
            results.append(row)
    return results


def _point_matches(point: DataPointRow, conditions: _PointConditions) -> bool:
    for column, operator, literal in conditions:
        actual = point.value if column == "value" else point.timestamp
        if not bool(_compare(np.array([actual]), operator, literal)[0]):
            return False
    return True


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
