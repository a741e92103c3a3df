"""The master/worker cluster substrate.

Reproduces the distribution properties the evaluation relies on:

* the partitioner's groups are assigned whole to the least-loaded worker
  (Section 3.1), so correlated series are always ingested on one node
  and no data migrates afterwards;
* queries are rewritten at the master and scattered to the workers that
  own relevant groups; workers return mergeable partial aggregates which
  the master merges and finalizes (Algorithm 5's distributed structure);
* because groups are pinned, no shuffle is ever needed — the property
  behind Fig. 20's linear scale-out.

Workers execute sequentially in-process; the reports model parallel
execution as ``max`` over per-worker elapsed times (plus the master's
merge time for queries), which is what a real cluster's makespan would
be with even assignment and no interference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from ..core.config import Configuration
from ..core.dimensions import DimensionSet
from ..core.errors import QueryError
from ..core.group import TimeSeriesGroup, singleton_groups
from ..core.timeseries import TimeSeries
from ..models.registry import ModelRegistry
from ..partitioner.grouping import group_from_config
from ..query.analytics import merge_analytics_rows
from ..query.engine import PartialResult, merge_partial_results
from ..query.sql import Condition, Query, apply_as_of, parse, tid_values
from ..storage.interface import Storage
from .node import WorkerNode


@dataclass
class ClusterIngestReport:
    """Timing and volume of one cluster ingestion."""

    worker_seconds: list[float]
    data_points: int
    #: Measured wall-clock seconds of the whole scatter (only set by the
    #: process-parallel substrate; 0.0 in simulated mode).
    wall_seconds: float = 0.0

    @property
    def makespan(self) -> float:
        """Modelled parallel wall time: the slowest worker."""
        return max(self.worker_seconds) if self.worker_seconds else 0.0

    @property
    def measured_makespan(self) -> float:
        """Measured wall time when available, else the modelled one."""
        return self.wall_seconds if self.wall_seconds else self.makespan

    @property
    def total_work(self) -> float:
        return sum(self.worker_seconds)

    @property
    def throughput(self) -> float:
        """Data points per modelled parallel second."""
        return self.data_points / self.makespan if self.makespan else 0.0


@dataclass
class ClusterQueryReport:
    """Modelled timing of one query scattered by the simulation (the
    process-backed clusters report a measured
    :class:`~repro.shard.ShardQueryReport` instead)."""

    worker_seconds: list[float] = field(default_factory=list)
    merge_seconds: float = 0.0

    @property
    def makespan(self) -> float:
        slowest = max(self.worker_seconds) if self.worker_seconds else 0.0
        return slowest + self.merge_seconds

    @property
    def total_work(self) -> float:
        return sum(self.worker_seconds) + self.merge_seconds


def restrict_query_to_tids(
    query: Query, owned: set[int], force: bool = False
) -> Query | None:
    """Restrict a query's Tid predicates to ``owned`` series.

    The master's routing step: intersects any ``Tid``/``Tid IN``
    predicates (read by :func:`~repro.query.sql.tid_values`, so a
    malformed literal is a :class:`QueryError`) with the Tids a worker
    owns. Returns None when the intersection is empty (the worker is
    pruned from the scatter) and, when the query has no Tid predicate,
    the query unchanged — unless ``force`` is set, in which case an
    explicit ``Tid IN`` predicate over ``owned`` is added. The sharded
    tier always forces, so a worker holding several shards answers for
    exactly the shard it was asked about.
    """
    requested: frozenset[int] | None = None
    for condition in query.where:
        if condition.column.lower() != "tid":
            continue
        values = tid_values(condition)
        requested = values if requested is None else requested & values
    if requested is None:
        if not force:
            return query
        requested = frozenset(owned)
    restricted = requested & owned
    if not restricted:
        return None
    where = tuple(
        condition
        for condition in query.where
        if condition.column.lower() != "tid"
    ) + (Condition("Tid", "IN", tuple(sorted(restricted))),)
    # dataclasses.replace keeps every other field (similar_to, limit,
    # ...) intact — a positional rebuild would silently drop them.
    return replace(query, where=where)


def partition_series(
    series: Sequence[TimeSeries],
    config: Configuration,
    dimensions: DimensionSet,
    group_compression: bool = True,
) -> list[TimeSeriesGroup]:
    """The master's partitioning step, shared by every cluster."""
    if not group_compression or not config.correlation:
        return singleton_groups(series)
    return group_from_config(series, config.correlation, dimensions)


def assign_least_loaded(
    groups: Sequence[TimeSeriesGroup],
    owned: dict[int, Sequence[TimeSeriesGroup]],
) -> list[tuple[TimeSeriesGroup, int]]:
    """Least-loaded assignment (Section 3.1): biggest groups first, each
    to the worker with the fewest data points so far.

    ``owned`` maps every eligible worker id to the groups it already
    holds; ties go to the first worker in its order. Returns the
    (group, worker id) placements in assignment order.
    """
    loads = {
        worker_id: sum(_points(group) for group in held)
        for worker_id, held in owned.items()
    }
    placed = []
    for group in sorted(groups, key=_points, reverse=True):
        target = min(loads, key=loads.__getitem__)
        loads[target] += _points(group)
        placed.append((group, target))
    return placed


def _points(group: TimeSeriesGroup) -> int:
    return sum(len(ts) for ts in group)


def gather(
    query: Query, outputs: Sequence[PartialResult | list[dict]]
) -> list[dict]:
    """Merge the ordered worker/shard outputs of one scattered query.

    Aggregates arrive as :class:`PartialResult`s and fold associatively;
    anything else arrives as row lists, concatenated in output order and
    then — because workers answer in worker, not Tid, order — re-cut to
    the global top-k (similarity) or re-sorted by (Tid, TS) (forecasts).
    A no-op for plain selections.
    """
    partials = [out for out in outputs if isinstance(out, PartialResult)]
    if partials:
        return merge_partial_results(partials)
    return merge_analytics_rows(
        query, [row for output in outputs for row in output]
    )


class ModelarCluster:
    """A master plus N workers over in-process storage backends."""

    def __init__(
        self,
        n_workers: int,
        config: Configuration | None = None,
        dimensions: DimensionSet | None = None,
        storage_factory: Callable[[int], Storage] | None = None,
        group_compression: bool = True,
    ) -> None:
        if n_workers < 1:
            raise QueryError("a cluster needs at least one worker")
        self.config = config if config is not None else Configuration()
        self.dimensions = (
            dimensions if dimensions is not None else DimensionSet()
        )
        self.registry = ModelRegistry()
        self.group_compression = group_compression
        self.workers = [
            WorkerNode(
                node_id,
                self.config,
                self.registry,
                storage_factory(node_id) if storage_factory else None,
            )
            for node_id in range(n_workers)
        ]
        self._tid_to_worker: dict[int, WorkerNode] = {}

    # ------------------------------------------------------------------
    # Partitioning and ingestion
    # ------------------------------------------------------------------
    def partition(self, series: Sequence[TimeSeries]) -> list[TimeSeriesGroup]:
        return partition_series(
            series, self.config, self.dimensions, self.group_compression
        )

    def assign(self, groups: Sequence[TimeSeriesGroup]) -> None:
        """Pin each group whole to the least-loaded worker."""
        owned = {worker.node_id: worker.groups for worker in self.workers}
        for group, node_id in assign_least_loaded(groups, owned):
            worker = self.workers[node_id]
            worker.assign(group, self.dimensions or None)
            for ts in group:
                self._tid_to_worker[ts.tid] = worker

    def ingest(self, series: Sequence[TimeSeries]) -> ClusterIngestReport:
        """Partition, assign and ingest; returns the timing report."""
        groups = self.partition(series)
        self.assign(groups)
        return self.ingest_assigned()

    def ingest_assigned(self) -> ClusterIngestReport:
        worker_seconds = []
        data_points = 0
        for worker in self.workers:
            if not worker.groups:
                worker_seconds.append(0.0)
                continue
            worker_seconds.append(worker.ingest_assigned())
            data_points += worker.stats.data_points
        return ClusterIngestReport(worker_seconds, data_points)

    # ------------------------------------------------------------------
    # Distributed queries
    # ------------------------------------------------------------------
    def sql(
        self, text: str, *, as_of: int | None = None
    ) -> tuple[list[dict], ClusterQueryReport]:
        """Execute a statement across the cluster.

        The master routes by Tid where the query names series, scatters,
        and merges worker partials; returns (rows, timing report).
        ``as_of`` bounds the read at a knowledge time on every worker.
        """
        return self.execute(apply_as_of(parse(text), as_of))

    def execute(self, query: Query) -> tuple[list[dict], ClusterQueryReport]:
        report = ClusterQueryReport()
        outputs = []
        for worker in self.workers:
            if not worker.groups:
                continue
            # Routing: a worker owning none of the requested series
            # is pruned from the scatter.
            worker_query = restrict_query_to_tids(query, worker.tids)
            if worker_query is None:
                continue
            result, elapsed = worker.execute_partial(worker_query)
            report.worker_seconds.append(elapsed)
            outputs.append(result)
        started = time.perf_counter()
        rows = gather(query, outputs)
        report.merge_seconds = time.perf_counter() - started
        return rows, report

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        return sum(worker.storage.size_bytes() for worker in self.workers)

    def segment_count(self) -> int:
        return sum(worker.storage.segment_count() for worker in self.workers)
