"""The shared-nothing sharded tier (master side).

:class:`ShardedCluster` is the one master — placement, scatter, gather
and failover — over a worker fleet whose transport its subclasses name
in :attr:`ShardedCluster.fleet_type`: the
:class:`~repro.cluster.fleet.WorkerFleet` (one OS process per worker,
retry/backoff RPC, injectable faults) or the
:class:`~repro.cluster.fleet.InProcessFleet` (nodes as objects, called
inline and in turn). The measured
:class:`~repro.cluster.ProcessCluster` is this class under its own
name, and the simulator :class:`~repro.cluster.ModelarCluster` is it
over in-process workers, so every cluster shares one placement rule,
one ingest path, one scatter, one retry/recovery path and one query
report. It is built to sit under a multi-threaded front-end:

* the fleet serialises one request/reply exchange per worker at a time,
  so *different* queries proceed concurrently as long as they touch
  different workers (and interleave at exchange granularity on shared
  ones);
* each group is pinned whole to the least-loaded of ``n_workers``
  shards (Section 3.1), and a :class:`~repro.shard.map.ShardMap` holds
  the shard→owners replica tuples with a generation number bumped on
  every ownership change;
* the scatter-gather planner routes each query to the shards whose
  Tids it can touch (via
  :func:`~repro.cluster.cluster.restrict_query_to_tids`, whose
  explicit ``Tid IN`` predicate makes a worker holding several shards'
  replicas answer exactly for the shard it was asked about), fans the
  rewritten subqueries out through the fleet's ``scatter``, and merges
  the returned outputs with :func:`~repro.cluster.cluster.gather`;
* a worker crash *during* a query is survived by retrying the shard's
  remaining replicas (the ``execute`` RPC is read-only, so a replay is
  always safe); when every replica of a shard is gone the tier re-ships
  the shard's retained payloads to the least-busy survivors and asks
  again — queries are lost only with the last worker. A crash while
  shipping data (``ingest``, ``load_storage``) or flushing retires the
  worker the same way and recovers every shard it left without a live
  owner before the call returns;
* skew is observable (`shard.shard_busy_seconds_total{shard=…}`) and
  actionable: :meth:`rebalance` moves the hottest shard's primary to
  the least-busy non-owner, shipping data before publishing the new
  owner tuple, and bumps the map generation so cached results computed
  under the old placement die with it.

Data reaches workers on two paths sharing one placement rule,
:meth:`ShardedCluster._place` (least-loaded in data points), and one
shard→owner map: raw series are partitioned into groups and ingested on
every owner of their shard (``assign`` + ``ingest``, both idempotent),
while an existing store is sharded by shipping per-Gid
:class:`SegmentBatch` payloads (``load_segments``, idempotent by batch
id) — the clean cut between logical series and physical placement.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.config import Configuration
from ..core.dimensions import DimensionSet
from ..core.errors import ClusterError, QueryError, WorkerFailure, WorkerRPCError
from ..core.group import TimeSeriesGroup
from ..core.timeseries import TimeSeries
from ..ingest.stats import IngestStats
from ..obs import get_registry
from ..partitioner.grouping import assign_groups
from ..query.sql import Query, apply_as_of, parse
from ..storage.interface import Storage
from ..storage.scan import SegmentScan
from ..storage.schema import records_for_groups
from ..cluster.cluster import (
    ClusterIngestReport,
    Placeable,
    assign_least_loaded,
    gather,
    restrict_query_to_tids,
)
from ..cluster.faults import FaultPlan
from ..cluster.fleet import WorkerFleet
from .map import SegmentBatch, ShardMap


@dataclass
class ShardQueryReport:
    """Measured outcome of one scatter-gather execution.

    Pure data (ints, floats, lists, dicts), so it can cross process
    boundaries like the cluster reports (RPR004-registered).
    """

    wall_seconds: float = 0.0
    merge_seconds: float = 0.0
    #: Worker-reported execution seconds per shard id.
    shard_seconds: dict[int, float] = field(default_factory=dict)
    #: Subqueries scattered (shards touched after routing).
    subqueries: int = 0
    #: Replica retries performed because an owner died mid-scatter.
    retries: int = 0
    #: Shards whose whole replica set died and was re-placed.
    recovered_shards: list[int] = field(default_factory=list)
    #: The shard-map generation the query was planned under.
    generation: int = 0

    @property
    def makespan(self) -> float:
        """Modelled parallel time: the slowest shard plus the merge
        (the simulator's Fig. 20 measure; ``wall_seconds`` is the
        measured one)."""
        slowest = max(self.shard_seconds.values(), default=0.0)
        return slowest + self.merge_seconds

    @property
    def total_work(self) -> float:
        return sum(self.shard_seconds.values()) + self.merge_seconds


class ShardedCluster:
    """A shard map, N workers on one fleet, and a concurrent scatter
    layer.

    Parameters
    ----------
    n_workers:
        Workers to start, and shards to place groups on (shard *i*
        starts on worker *i*).
    config / dimensions:
        The configuration every worker runs with and the dimensions
        recorded with every ingested group (defaults: ``Configuration()``
        and an empty set).
    group_compression:
        Partition ingested series into correlated groups (``False``:
        one group per series).
    storage_root / fault_plan / timeout / max_retries / backoff /
    start_method:
        Handed to the fleet (see
        :class:`~repro.cluster.fleet.WorkerFleet`). A worker whose
        process died, or that stays silent through every retry, is
        retired and its shards recovered on survivors.
    n_replicas:
        Workers holding each shard (capped at ``n_workers``). With
        ``>= 2`` a worker crash during a query is survived by asking
        the next replica.
    auto_rebalance_interval:
        When ``> 0``, :meth:`maybe_rebalance` (called by the serving
        dispatcher after each query) runs :meth:`rebalance` every that
        many queries. ``0`` leaves rebalancing operator-driven.
    rebalance_threshold:
        A shard is "hot" when its busy-seconds exceed this multiple of
        the mean across populated shards.
    """

    #: The workers' transport: one OS process each here; the simulator
    #: (:class:`~repro.cluster.ModelarCluster`) names the in-process one.
    fleet_type: type[WorkerFleet] = WorkerFleet

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
        *,
        n_replicas: int = 1,
        auto_rebalance_interval: int = 0,
        rebalance_threshold: float = 2.0,
    ) -> None:
        if n_workers < 1:
            raise ClusterError("the sharded tier needs at least one worker")
        self.config = config if config is not None else Configuration()
        self.dimensions = (
            dimensions if dimensions is not None else DimensionSet()
        )
        self.group_compression = group_compression
        self.map = ShardMap(n_workers, n_workers, n_replicas)
        self.auto_rebalance_interval = auto_rebalance_interval
        self.rebalance_threshold = rebalance_threshold
        #: Serialises placement mutations (retire/recover/rebalance) and
        #: the shipping they do. Lock order is admin -> fleet, never the
        #: reverse: query threads take only the fleet's worker locks.
        self._admin_lock = threading.Lock()
        self._listeners: list[Callable[[int], None]] = []
        #: Per-shard replica rotation. One *global* counter would alias
        #: with the scatter order (it advances by the shard count per
        #: query), pinning every shard to one replica; per-shard
        #: counters cycle each shard through its replicas query by
        #: query, spreading read load across the replica set.
        self._rotation: dict[int, itertools.count] = {}
        #: Retained per-shard payloads, the recovery/rebalance source of
        #: truth: raw groups (ingest path) and segment batches (load
        #: path), keyed by shard id.
        self._shard_groups: dict[int, list[TimeSeriesGroup]] = {}
        self._shard_batches: dict[int, list[SegmentBatch]] = {}
        self._shard_tids: dict[int, set[int]] = {}
        #: Each worker's cumulative ingestion statistics, as last reported.
        self._worker_stats: dict[int, IngestStats] = {}
        #: Cumulative worker-reported execute seconds, the rebalancer's
        #: skew signal (reset after each rebalance window).
        self._shard_busy: dict[int, float] = {}
        self._worker_busy: dict[int, float] = {}
        self.queries = 0
        self.failover_retries = 0
        self.lost_workers = 0
        self.rebalances = 0
        self.fleet = self.fleet_type(
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
    def __enter__(self) -> "ShardedCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self.fleet.close()

    # -- inspection ----------------------------------------------------
    @property
    def generation(self) -> int:
        return self.map.generation

    @property
    def live_worker_ids(self) -> list[int]:
        return self.fleet.live_ids

    @property
    def tids(self) -> set[int]:
        owned: set[int] = set()
        for tids in self._shard_tids.values():
            owned |= tids
        return owned

    @property
    def ingest_stats(self) -> IngestStats:
        """Ingestion statistics merged across the live workers. Every
        replica counts, so with ``n_replicas`` > 1 this is the fleet's
        work, a multiple of the logical ingest."""
        return IngestStats.merged(
            stats
            for wid, stats in self._worker_stats.items()
            if self.fleet.is_alive(wid)
        )

    def assignment(self) -> dict[int, list[int]]:
        """Live worker id -> sorted Gids of the shards it holds."""
        owned: dict[int, list[int]] = {wid: [] for wid in self.fleet.live_ids}
        for shard in self._shard_tids:
            for wid in self._live_owners(shard):
                owned[wid].extend(self._gids(shard))
        return {wid: sorted(gids) for wid, gids in owned.items()}

    def _gids(self, shard: int) -> list[int]:
        """Gids placed on ``shard`` (raw groups and segment batches)."""
        gids = [group.gid for group in self._shard_groups.get(shard, ())]
        return gids + [b.gid for b in self._shard_batches.get(shard, ())]

    def worker_of(self, tid: int) -> int:
        """The live primary of the shard holding ``tid``."""
        for shard, tids in self._shard_tids.items():
            if tid in tids and (owners := self._live_owners(shard)):
                return owners[0]
        raise QueryError(f"no worker owns tid {tid}")

    def add_generation_listener(
        self, listener: Callable[[int], None]
    ) -> None:
        """Call ``listener(generation)`` after every placement change
        (worker retirement, shard recovery, rebalance). The serving
        dispatcher hooks its result-cache invalidation here."""
        self._listeners.append(listener)

    def stats(self) -> dict:
        return {
            "map": self.map.to_dict(),
            "workers_alive": len(self.live_worker_ids),
            "workers_total": len(self.fleet),
            "queries": self.queries,
            "failover_retries": self.failover_retries,
            "lost_workers": self.lost_workers,
            "rebalances": self.rebalances,
            "shard_tids": {
                str(shard): len(tids)
                for shard, tids in sorted(self._shard_tids.items())
            },
        }

    def metrics(self) -> dict:
        """Master registry merged with every live worker's snapshot."""
        return self.fleet.metrics()

    # -- placement -----------------------------------------------------
    def partition(
        self, series: Sequence[TimeSeries]
    ) -> list[TimeSeriesGroup]:
        """The master's partitioning step: correlated groups (one per
        series without group compression), numbered after the largest
        Gid the cluster has placed — workers treat a known Gid as
        already shipped, so a later :meth:`ingest` must not reuse one.

        A batch holding a placed Tid is an
        :class:`~repro.core.errors.IngestionError`: ``assign`` is
        idempotent on Gid, so a worker would drop the new time slice.
        """
        placed = records_for_groups(
            [group for groups in self._shard_groups.values() for group in groups]
        ) + [
            record
            for batches in self._shard_batches.values()
            for batch in batches
            for record in batch.time_series
        ]
        return assign_groups(
            series,
            placed,
            self.config.correlation if self.group_compression else (),
            self.dimensions,
            append=False,
        )

    def _place(
        self, items: Sequence[Placeable]
    ) -> list[tuple[Placeable, int]]:
        """Pin each group (raw or stored) whole to the least-loaded
        shard, loads counted in data points over what every shard
        already holds."""
        owned = {
            shard: [
                *self._shard_groups.get(shard, ()),
                *self._shard_batches.get(shard, ()),
            ]
            for shard in range(self.map.n_shards)
        }
        return assign_least_loaded(items, owned)

    # -- data shipping -------------------------------------------------
    def _ship_shard(self, worker_id: int, shard: int) -> float:
        """Make ``worker_id`` a full replica of ``shard`` (idempotent:
        the worker skips groups and batches it already applied); returns
        the worker's ingest seconds."""
        shipped = self.fleet.ship_groups(
            worker_id,
            self._shard_groups.get(shard, ()),
            self.dimensions or None,
        )
        self.fleet.ship_batches(worker_id, self._shard_batches.get(shard, ()))
        if shipped is None:
            return 0.0
        self._worker_stats[worker_id], elapsed = shipped
        return elapsed

    def _ship_shards(self, worker_id: int, shards: list[int]) -> float:
        return sum(self._ship_shard(worker_id, shard) for shard in shards)

    def ingest(self, series: Sequence[TimeSeries]) -> ClusterIngestReport:
        """Partition raw series, place their groups on shards, and
        ingest each group on every owner of its shard, all workers
        concurrently."""
        shards: set[int] = set()
        for group, shard in self._place(self.partition(series)):
            self._shard_groups.setdefault(shard, []).append(group)
            self._shard_tids.setdefault(shard, set()).update(
                ts.tid for ts in group
            )
            shards.add(shard)
        started = time.perf_counter()
        worker_seconds = self._replicate_shards(sorted(shards))
        return ClusterIngestReport(
            worker_seconds,
            self.ingest_stats.data_points,
            wall_seconds=time.perf_counter() - started,
        )

    def load_storage(self, storage: Storage) -> dict:
        """Shard an existing store: ship each Gid's Time Series rows,
        model table and segments to its shard's owners as an idempotent
        :class:`SegmentBatch`. The master retains the batches so a lost
        replica can always be rebuilt."""
        metadata = storage.group_metadata()
        model_table = storage.model_table()
        records_by_gid: dict[int, list] = {}
        for record in storage.time_series():
            records_by_gid.setdefault(record.gid, []).append(record)
        batches = [
            SegmentBatch(
                batch_id=f"gid-{gid}",
                gid=gid,
                time_series=records_by_gid.get(gid, []),
                model_table=model_table,
                # Every revision ships, stamps intact, so shard replicas
                # answer AS OF exactly like the source store.
                segments=[
                    s
                    for t in storage.tables(
                        SegmentScan(gids=(gid,), all_revisions=True)
                    )
                    for s in t.segments
                ],
            )
            for gid in sorted(metadata)
        ]
        shards: set[int] = set()
        for batch, shard in self._place(batches):
            self._shard_batches.setdefault(shard, []).append(batch)
            self._shard_tids.setdefault(shard, set()).update(batch.tids)
            shards.add(shard)
        self._replicate_shards(sorted(shards))
        return {
            "groups": len(metadata),
            "shards": sorted(shards),
            "segments": sum(
                len(batch.segments)
                for batches in self._shard_batches.values()
                for batch in batches
            ),
        }

    def _replicate_shards(self, shards: Sequence[int]) -> list[float]:
        """Ship ``shards`` to every live owner, one fleet thread per
        worker; returns each answering worker's ingest seconds.

        A worker that fails is retired, and every shard left without a
        live owner is recovered, so on return each shard is held whole
        by a live worker. The admin lock is not held while waiting:
        fleet threads running queries may need it.
        """
        plan: dict[int, list[int]] = {}
        for shard in shards:
            for wid in self._live_owners(shard):
                plan.setdefault(wid, []).append(shard)
        futures = self.fleet.scatter(self._ship_shards, plan.items())
        worker_seconds: list[float] = []
        for wid, future in zip(plan, futures):
            try:
                worker_seconds.append(future.result())
            except WorkerFailure:
                self._retire_worker(wid)
        self._recover_orphans()
        return worker_seconds

    # -- storage accounting --------------------------------------------
    def segment_count(self) -> int:
        """Segments stored across the live fleet (every replica counts)."""
        return sum(count for count, _ in self._flush_all())

    def size_bytes(self) -> int:
        """Bytes stored across the live fleet (every replica counts)."""
        return sum(size for _, size in self._flush_all())

    def _flush_all(self) -> list[tuple[int, int]]:
        """Flush every live worker; (segments, bytes) each. A worker
        that dies here is retired and its orphaned shards recovered
        before every survivor is asked again."""
        while True:
            calls = [(wid, "flush") for wid in self.fleet.live_ids]
            futures = self.fleet.scatter(self.fleet.call, calls)
            try:
                return [tuple(future.result()[0]) for future in futures]
            except WorkerFailure as failure:
                self._retire_worker(failure.worker_id)
                self._recover_orphans()

    # -- scatter-gather ------------------------------------------------
    def sql(
        self, text: str, *, as_of: int | None = None
    ) -> tuple[list[dict], ShardQueryReport]:
        """Scatter one statement; ``as_of`` bounds every shard's read at
        the same knowledge time (stamps are preserved when batches ship,
        so the sharded answer matches the embedded engine's)."""
        return self.execute(apply_as_of(parse(text), as_of))

    def execute(self, query: Query) -> tuple[list[dict], ShardQueryReport]:
        """Scatter a query to owning shards, gather partials, merge.

        Failures are handled per shard: a dead owner is retired from
        the map (generation bump) and the next replica is asked; a
        shard with no surviving replica is re-placed and re-shipped
        from the master's retained payloads before the retry.
        """
        wall_started = time.perf_counter()
        report = ShardQueryReport(generation=self.map.generation)
        plan: list[tuple[int, Query]] = []
        for shard in sorted(self._shard_tids):
            routed = restrict_query_to_tids(query, self._shard_tids[shard])
            if routed is not None:
                plan.append((shard, routed))
        report.subqueries = len(plan)
        futures = self.fleet.scatter(self._execute_shard, plan)
        outputs = []  # in shard order, as planned
        first_error: Exception | None = None
        for (shard, _), future in zip(plan, futures):
            try:
                result, elapsed, retries, recovered = future.result()
            except (ClusterError, WorkerRPCError, QueryError) as exc:
                first_error = first_error or exc
                continue
            outputs.append(result)
            report.shard_seconds[shard] = elapsed
            report.retries += retries
            if recovered:
                report.recovered_shards.append(shard)
        if first_error is not None:
            raise first_error
        merge_started = time.perf_counter()
        rows = gather(query, outputs)
        now = time.perf_counter()
        report.merge_seconds = now - merge_started
        report.wall_seconds = now - wall_started
        self.queries += 1
        self._record_query_metrics(report)
        return rows, report

    def _record_query_metrics(self, report: ShardQueryReport) -> None:
        registry = get_registry()
        registry.counter("shard.queries_total").inc()
        for shard, elapsed in report.shard_seconds.items():
            registry.counter(
                "shard.subqueries_total", shard=str(shard)
            ).inc()
            registry.counter(
                "shard.shard_busy_seconds_total", shard=str(shard)
            ).inc(elapsed)
        if report.retries:
            self.failover_retries += report.retries
            registry.counter("shard.failover_retries_total").inc(
                report.retries
            )
        registry.gauge("shard.map_generation").set(self.map.generation)
        registry.histogram("shard.merge_seconds").record(
            report.merge_seconds
        )

    def _execute_shard(
        self, shard: int, routed: Query
    ) -> tuple[object, float, int, bool]:
        """Run one shard's subquery on a replica, failing over in place.

        Returns (result, worker seconds, replica retries, recovered).
        """
        retries = 0
        recovered = False
        for _ in range(len(self.fleet) + 1):
            owners = self._live_owners(shard)
            if not owners:
                self._recover_shard(shard)
                recovered = True
                continue
            offset = next(self._rotation.setdefault(shard, itertools.count()))
            for index in range(len(owners)):
                wid = owners[(offset + index) % len(owners)]
                if not self.fleet.is_alive(wid):
                    continue
                try:
                    value, elapsed = self.fleet.call(wid, "execute", routed)
                except WorkerFailure:
                    self._retire_worker(wid)
                    retries += 1
                    continue
                self._note_busy(shard, wid, elapsed)
                return value, elapsed, retries, recovered
        raise ClusterError(
            f"shard {shard} has no answering replica after "
            f"{retries} retries"
        )

    def _live_owners(self, shard: int) -> list[int]:
        return [
            wid
            for wid in self.map.owners_of(shard)
            if self.fleet.is_alive(wid)
        ]

    def _note_busy(self, shard: int, worker_id: int, elapsed: float) -> None:
        with self._admin_lock:
            self._shard_busy[shard] = (
                self._shard_busy.get(shard, 0.0) + elapsed
            )
            self._worker_busy[worker_id] = (
                self._worker_busy.get(worker_id, 0.0) + elapsed
            )

    # -- failure handling ----------------------------------------------
    def _retire_worker(self, worker_id: int) -> None:
        """Declare a worker dead: fence the process, drop it from every
        replica set (one generation bump), notify listeners."""
        with self._admin_lock:
            if not self.fleet.retire(worker_id):
                return
            self.map.retire_worker(worker_id)
            self.lost_workers += 1
            generation = self.map.generation
        get_registry().counter("shard.lost_workers_total").inc()
        self._notify(generation)

    def _recover_shard(self, shard: int) -> None:
        """Re-place a shard whose whole replica set died: ship the
        retained payloads to the least-busy survivors, then publish the
        new owner tuple (generation bump). A survivor that dies while
        receiving is retired and the next one tried."""
        while True:
            with self._admin_lock:
                if self._live_owners(shard):
                    return  # another thread recovered it first
                live = self.fleet.live_ids
                if not live:
                    raise ClusterError("no surviving workers in the tier")
                live.sort(key=lambda wid: self._worker_busy.get(wid, 0.0))
                targets = live[: self.map.n_replicas]
                try:
                    for wid in targets:
                        self._ship_shard(wid, shard)
                    self.map.set_owners(shard, tuple(targets))
                    generation = self.map.generation
                    break
                except WorkerFailure as failure:
                    dead = failure.worker_id
            self._retire_worker(dead)
        get_registry().counter("cluster.failovers_total").inc()
        self._notify(generation)

    def _recover_orphans(self) -> None:
        """Recover every populated shard left without a live owner
        (re-checked after each recovery, which may retire a worker)."""
        while orphans := [
            shard
            for shard in sorted(self._shard_tids)
            if not self._live_owners(shard)
        ]:
            self._recover_shard(orphans[0])

    def _notify(self, generation: int) -> None:
        for listener in self._listeners:
            try:
                listener(generation)
            except Exception:  # broad-ok: listeners must not stop serving
                pass

    # -- rebalancing ---------------------------------------------------
    def maybe_rebalance(self) -> list[tuple[int, int, int]]:
        """Auto-trigger hook for the serving dispatcher: rebalance every
        ``auto_rebalance_interval`` queries (never when 0)."""
        interval = self.auto_rebalance_interval
        if interval <= 0 or self.queries == 0:
            return []
        if self.queries % interval != 0:
            return []
        return self.rebalance()

    def rebalance(
        self, threshold: float | None = None, max_moves: int = 1
    ) -> list[tuple[int, int, int]]:
        """Move hot shards onto the least-busy workers.

        A shard is hot when its accumulated busy-seconds exceed
        ``threshold`` times the mean over populated shards. For each
        (up to ``max_moves``) the shard's data is shipped to the
        least-busy live non-owner, which then becomes the primary; the
        coldest previous replica drops off the owner tuple. Returns
        ``(shard, old primary, new primary)`` moves; the busy window
        resets after any move so decisions use fresh load.
        """
        if threshold is None:
            threshold = self.rebalance_threshold
        moves: list[tuple[int, int, int]] = []
        with self._admin_lock:
            busy = {
                shard: self._shard_busy.get(shard, 0.0)
                for shard in self._shard_tids
            }
            populated = [s for s in busy if busy[s] > 0.0]
            if len(populated) < 2:
                return []
            mean = sum(busy[s] for s in populated) / len(populated)
            if mean <= 0.0:
                return []
            hot = sorted(
                (s for s in populated if busy[s] > threshold * mean),
                key=lambda s: busy[s],
                reverse=True,
            )
            for shard in hot[:max_moves]:
                owners = self._live_owners(shard)
                candidates = [
                    wid for wid in self.fleet.live_ids if wid not in owners
                ]
                if not candidates:
                    continue
                target = min(
                    candidates,
                    key=lambda wid: self._worker_busy.get(wid, 0.0),
                )
                self._ship_shard(target, shard)
                new_owners = ((target,) + tuple(owners))[
                    : self.map.n_replicas
                ]
                self.map.set_owners(shard, new_owners)
                moves.append(
                    (shard, owners[0] if owners else -1, target)
                )
            if moves:
                self._shard_busy = {}
                self.rebalances += len(moves)
            generation = self.map.generation
        if moves:
            registry = get_registry()
            registry.counter("shard.rebalances_total").inc(len(moves))
            registry.gauge("shard.map_generation").set(generation)
            self._notify(generation)
        return moves
