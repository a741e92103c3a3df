"""Process-parallel cluster: one OS process per worker, real wall time.

This is the measured counterpart of :class:`~repro.cluster.ModelarCluster`
(which simulates parallelism by running workers sequentially in-process).
The workers, their RPC and its retry/liveness machinery belong to
:class:`~repro.cluster.fleet.WorkerFleet`; this module is only the
*placement policy* on top of it.

The distribution properties are identical to the simulated substrate —
groups are assigned whole to the least-loaded worker and never move
afterwards (Section 3.1), queries are rewritten at the master, scattered
to owning workers only, and merged from partial results (Algorithm 5's
distributed structure) — so with the same inputs the process pool
returns *bit-identical* results to the simulated cluster, while its
reports carry measured wall-clock times (Fig. 20 becomes a measurement
instead of a model).

Fault tolerance rides on the same no-shuffle pinning invariant: because
a group's segments live only on its worker and the master retains the
raw groups, recovering from a worker failure is just re-assigning the
dead worker's groups to the least-loaded survivors, re-ingesting them
there, and re-asking the moved Tids.
"""

from __future__ import annotations

import os
import time
from typing import Sequence

from ..core.config import Configuration
from ..core.dimensions import DimensionSet
from ..core.errors import ClusterError, QueryError, WorkerFailure
from ..core.group import TimeSeriesGroup
from ..core.timeseries import TimeSeries
from ..ingest.stats import IngestStats
from ..obs import get_registry
from ..query.sql import Query, apply_as_of, parse
from .cluster import (
    ClusterIngestReport,
    ClusterQueryReport,
    assign_least_loaded,
    gather,
    partition_series,
    restrict_query_to_tids,
)
from .faults import FaultPlan
from .fleet import WorkerFleet


class ProcessCluster:
    """A master plus N workers, each in its own OS process.

    Parameters
    ----------
    n_workers:
        Number of worker processes to spawn.
    config / dimensions:
        Same roles as in :class:`~repro.cluster.ModelarCluster`.
    storage_root / fault_plan / timeout / max_retries / backoff /
    start_method:
        Handed to the :class:`~repro.cluster.fleet.WorkerFleet`. A
        worker whose process died, or that stays silent through every
        retry, is failed over.
    """

    def __init__(
        self,
        n_workers: int,
        config: Configuration | None = None,
        dimensions: DimensionSet | None = None,
        storage_root: str | os.PathLike | None = None,
        fault_plan: FaultPlan | None = None,
        group_compression: bool = True,
        timeout: float = 10.0,
        max_retries: int = 3,
        backoff: float = 2.0,
        start_method: str | None = None,
    ) -> None:
        if n_workers < 1:
            raise QueryError("a cluster needs at least one worker")
        self.config = config if config is not None else Configuration()
        self.dimensions = (
            dimensions if dimensions is not None else DimensionSet()
        )
        self.group_compression = group_compression
        self._tid_to_worker: dict[int, int] = {}
        self._stats: dict[int, IngestStats] = {}
        #: Completed failovers as (dead worker id, new owner id) pairs.
        self.failovers: list[tuple[int, int]] = []
        #: Groups each worker owns (the master keeps the raw series so
        #: a dead worker's groups can be re-ingested on a survivor).
        self._groups: dict[int, list[TimeSeriesGroup]] = {
            worker_id: [] for worker_id in range(n_workers)
        }
        self.fleet = WorkerFleet(
            n_workers,
            self.config,
            storage_root,
            fault_plan,
            timeout,
            max_retries,
            backoff,
            start_method,
        )

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut every worker down and reap the processes."""
        self.fleet.close()

    # -- inspection ----------------------------------------------------
    @property
    def live_worker_ids(self) -> list[int]:
        return self.fleet.live_ids

    def assignment(self) -> dict[int, list[int]]:
        """Live worker id -> sorted Gids it currently owns."""
        return {
            worker_id: sorted(g.gid for g in self._groups[worker_id])
            for worker_id in self.fleet.live_ids
        }

    def worker_of(self, tid: int) -> int:
        try:
            return self._tid_to_worker[tid]
        except KeyError:
            raise QueryError(f"no worker owns tid {tid}") from None

    @property
    def stats(self) -> IngestStats:
        """Cluster-wide ingestion statistics, merged across processes."""
        return IngestStats.merged(self._stats.values())

    def metrics(self) -> dict:
        """Master registry merged with every live worker's snapshot."""
        return self.fleet.metrics()

    # -- partitioning and ingestion ------------------------------------
    def partition(self, series: Sequence[TimeSeries]) -> list[TimeSeriesGroup]:
        return partition_series(
            series, self.config, self.dimensions, self.group_compression
        )

    def assign(self, groups: Sequence[TimeSeriesGroup]) -> list[int]:
        """Pin each group whole to the least-loaded live worker,
        identical to the simulated cluster; returns each group's owner
        in assignment order."""
        owned = {wid: self._groups[wid] for wid in self._live()}
        owners = []
        for group, worker_id in assign_least_loaded(groups, owned):
            self._groups[worker_id].append(group)
            for ts in group:
                self._tid_to_worker[ts.tid] = worker_id
            owners.append(worker_id)
        return owners

    def ingest(self, series: Sequence[TimeSeries]) -> ClusterIngestReport:
        """Partition, assign and ingest in parallel; returns the report."""
        self.assign(self.partition(series))
        return self.ingest_assigned()

    def ingest_assigned(self) -> ClusterIngestReport:
        started = time.perf_counter()
        worker_seconds = self._sync_assignments(self._live())
        wall = time.perf_counter() - started
        data_points = sum(
            stats.data_points for stats in self._stats.values()
        )
        return ClusterIngestReport(
            worker_seconds, data_points, wall_seconds=wall
        )

    # -- distributed queries -------------------------------------------
    def sql(
        self, text: str, *, as_of: int | None = None
    ) -> tuple[list[dict], ClusterQueryReport]:
        """Execute a statement across the cluster (parse + execute)."""
        return self.execute(apply_as_of(parse(text), as_of))

    def execute(self, query: Query) -> tuple[list[dict], ClusterQueryReport]:
        """Scatter a rewritten query, gather partials, merge, survive
        worker failures by failing their groups over and re-asking."""
        wall_started = time.perf_counter()
        report = ClusterQueryReport()
        failover_mark = len(self.failovers)
        outputs: list[tuple[int, object]] = []  # (worker id, result)
        tasks = self._route(query, None)
        while tasks:
            futures = self.fleet.scatter(
                self.fleet.call,
                [(worker_id, "execute", routed) for worker_id, routed in tasks],
            )
            failed: list[int] = []
            lost_tids: set[int] = set()
            for (worker_id, _), future in zip(tasks, futures):
                try:
                    result, elapsed = future.result()
                except WorkerFailure:
                    # Capture the owned Tids now: failover (including a
                    # nested one triggered by another failure's
                    # recovery) moves the groups away.
                    failed.append(worker_id)
                    lost_tids |= self._tids(worker_id)
                    continue
                outputs.append((worker_id, result))
                report.worker_seconds.append(elapsed)
            # Everything a dead worker owned — and may already have
            # answered for in an earlier round — must be re-asked from
            # its groups' new homes.
            outputs = [out for out in outputs if out[0] not in failed]
            for worker_id in failed:
                if self.fleet.is_alive(worker_id):
                    self._sync_assignments(self._failover(worker_id))
            tasks = self._route(query, lost_tids) if lost_tids else []
        merge_started = time.perf_counter()
        rows = gather(query, [result for _, result in outputs])
        now = time.perf_counter()
        report.merge_seconds = now - merge_started
        report.wall_seconds = now - wall_started
        report.failovers = self.failovers[failover_mark:]
        return rows, report

    def _route(
        self, query: Query, only_tids: set[int] | None
    ) -> list[tuple[int, Query]]:
        """The scatter plan: (worker id, restricted query) per live
        worker that can contribute; ``only_tids`` re-asks just those."""
        tasks = []
        for worker_id in self._live():
            owned = self._tids(worker_id)
            if not owned:
                continue
            if only_tids is None:
                routed = restrict_query_to_tids(query, owned)
            else:
                routed = restrict_query_to_tids(
                    query, owned & only_tids, force=True
                )
            if routed is not None:
                tasks.append((worker_id, routed))
        return tasks

    # -- storage accounting --------------------------------------------
    def size_bytes(self) -> int:
        return sum(size for _, size in self._flush_all())

    def segment_count(self) -> int:
        return sum(count for count, _ in self._flush_all())

    def _flush_all(self) -> list[tuple[int, int]]:
        while True:
            owners = [wid for wid in self._live() if self._groups[wid]]
            futures = self.fleet.scatter(
                self.fleet.call, [(wid, "flush") for wid in owners]
            )
            try:
                return [tuple(future.result()[0]) for future in futures]
            except WorkerFailure as failure:
                self._sync_assignments(self._failover(failure.worker_id))

    # -- placement internals -------------------------------------------
    def _live(self) -> list[int]:
        live = self.fleet.live_ids
        if not live:
            raise ClusterError("no surviving workers in the cluster")
        return live

    def _tids(self, worker_id: int) -> set[int]:
        return {
            ts.tid for group in self._groups[worker_id] for ts in group
        }

    def _sync_assignments(self, worker_ids: Sequence[int]) -> list[float]:
        """Ship unshipped groups to ``worker_ids`` and ingest them, all
        workers concurrently. A worker that dies here is failed over and
        its targets join the next iteration, so the call only returns
        once every live worker holds all groups it is responsible for.
        """
        worker_seconds: list[float] = []
        todo = [
            wid
            for wid in worker_ids
            if self.fleet.is_alive(wid) and self._groups[wid]
        ]
        while todo:
            futures = self.fleet.scatter(
                self.fleet.ship_groups,
                [
                    (wid, self._groups[wid], self.dimensions or None)
                    for wid in todo
                ],
            )
            failed: list[int] = []
            for worker_id, future in zip(todo, futures):
                try:
                    shipped = future.result()
                except WorkerFailure:
                    failed.append(worker_id)
                    continue
                if shipped is not None:
                    self._stats[worker_id], elapsed = shipped
                    worker_seconds.append(elapsed)
            todo = []
            for worker_id in failed:
                for target in self._failover(worker_id):
                    if target not in todo:
                        todo.append(target)
        return worker_seconds

    def _failover(self, worker_id: int) -> list[int]:
        """Re-assign a dead worker's groups to the least-loaded
        survivors (master-side bookkeeping only — callers ship the data
        with :meth:`_sync_assignments`). Returns the affected targets.
        """
        self.fleet.retire(worker_id)
        self._stats.pop(worker_id, None)
        moved, self._groups[worker_id] = self._groups[worker_id], []
        targets = self.assign(moved)
        self.failovers.extend((worker_id, target) for target in targets)
        if targets:
            get_registry().counter("cluster.failovers_total").inc(
                len(targets)
            )
        return list(dict.fromkeys(targets))
