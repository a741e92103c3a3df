"""The worker fleet: N workers and the one RPC that reaches them.

:class:`~repro.shard.tier.ShardedCluster` (the one master) decides
placement; everything about *running* workers lives here, over two
transports, one of which the master is built with (``fleet_type=``).
:class:`WorkerFleet` runs every :class:`~repro.shard.node.WorkerNode`
in its own ``multiprocessing`` process; :class:`InProcessFleet` — the
simulator's transport — keeps the nodes as objects and calls the same
handlers inline. Each node has a private storage backend and answers a
small message-passing RPC:

``assign``
    Ship whole time series groups (and the dimension set) to the worker.
``ingest``
    Ingest the groups assigned since the last ingest; reply with the
    worker's cumulative :class:`~repro.ingest.stats.IngestStats`.
``load_segments``
    Apply one shipped :class:`~repro.shard.map.SegmentBatch`.
``execute``
    Run a rewritten query locally; reply with a picklable
    :class:`~repro.query.engine.PartialResult` (aggregates) or rows.
``flush``
    Make local state durable; reply with (segment count, bytes).
``metrics``
    Reply with the worker registry's snapshot.
``shutdown``
    Close the local store and exit.

Every handler is idempotent, so :meth:`WorkerFleet.call` — the single
master-side entry point — may resend freely: it detects failures with
per-request timeouts (exponential backoff, duplicate-safe sequence
numbers) and a process liveness check, and raises
:class:`~repro.core.errors.WorkerFailure` for the tier to retire the
worker and recover its shards. Faults are injectable via
:class:`~repro.shard.faults.FaultPlan` and executed worker-side, so
the recovery paths are testable deterministically. In-process workers
cannot crash, time out or drop a reply, so :class:`InProcessFleet` has
no retries, refuses a fault plan and makes no ``cluster.rpc_*``
traffic; a handler exception is a
:class:`~repro.core.errors.WorkerRPCError` on both.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..core.config import Configuration
from ..core.dimensions import DimensionSet
from ..core.errors import ClusterError, QueryError, WorkerFailure, WorkerRPCError
from ..core.group import TimeSeriesGroup
from ..ingest.stats import IngestStats
from ..models.registry import ModelRegistry
from ..obs import MetricsRegistry, get_registry
from ..storage.filestore import FileStorage
from .faults import FaultPlan
from .map import SegmentBatch
from .node import WorkerNode

#: Exit code used by an injected crash so it is recognisable in logs.
CRASH_EXIT_CODE = 70

#: How often the master re-checks worker liveness while waiting.
_POLL_SECONDS = 0.02


def _start_method() -> str:
    """Prefer fork (cheap, Linux) and fall back to spawn elsewhere."""
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _dispatch(node: WorkerNode, method: str, payload: object) -> object:
    if method == "assign":
        groups, dimensions = payload
        for group in groups:
            node.assign(group, dimensions)
        return sorted(group.gid for group in node.groups)
    if method == "ingest":
        node.ingest_assigned()
        # A snapshot: an in-process caller must not alias the live,
        # still-mutating counters.
        return IngestStats.merged([node.stats])
    if method == "execute":
        return node.execute_partial(payload)
    if method == "load_segments":
        return node.load_segments(payload)
    if method == "flush":
        return node.flush()
    if method == "metrics":
        # The worker's whole registry as a picklable snapshot; the
        # master folds it into the cluster-wide view (histograms merge
        # by bucket counts, counters by addition).
        return get_registry().snapshot()
    if method == "ping":
        return "pong"
    if method == "shutdown":
        node.close()
        return "bye"
    raise QueryError(f"unknown RPC method {method!r}")


def _build_node(
    worker_id: int,
    config: Configuration,
    storage_root: str | os.PathLike | None,
) -> WorkerNode:
    """One worker's node, on either transport: a :class:`FileStorage`
    under ``storage_root/worker_<id>`` when a root is given, else
    private memory."""
    storage = None
    if storage_root is not None:
        storage = FileStorage(str(Path(storage_root) / f"worker_{worker_id}"))
    return WorkerNode(worker_id, config, ModelRegistry(), storage)


def _worker_main(
    worker_id: int,
    config: Configuration,
    storage_root: str | os.PathLike | None,
    requests: "mp.Queue",
    replies: "mp.Queue",
    fault_plan: FaultPlan | None,
) -> None:
    """Request loop of one worker process.

    Faults are executed here, in the worker, so the master's recovery
    machinery sees exactly what a real failure would produce.
    """
    node = _build_node(worker_id, config, storage_root)
    while True:
        try:
            seq, method, payload = requests.get()
        except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
            break
        fault = fault_plan.take(worker_id, method) if fault_plan else None
        if fault is not None and fault.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        started = time.perf_counter()
        try:
            value = _dispatch(node, method, payload)
            ok = True
        except Exception as exc:  # broad-ok: ship errors as text, not pickles
            value = f"{type(exc).__name__}: {exc}"
            ok = False
        elapsed = time.perf_counter() - started
        if fault is not None and fault.kind == "slow":
            time.sleep(fault.delay)
        if fault is not None and fault.kind == "drop":
            continue  # the reply is "lost in the network"
        replies.put((seq, ok, value, elapsed))
        if method == "shutdown":
            break


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------
class _Worker:
    """Master-side endpoint of one worker process."""

    def __init__(
        self,
        worker_id: int,
        ctx,
        config: Configuration,
        storage_root: str | os.PathLike | None,
        fault_plan: FaultPlan | None,
    ) -> None:
        self.worker_id = worker_id
        self.requests = ctx.Queue()
        self.replies = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                config,
                storage_root,
                self.requests,
                self.replies,
                fault_plan,
            ),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        self.seq = 0
        self.alive = True
        #: The queues carry one request/reply exchange at a time; this
        #: lock scopes the exchange so concurrent master threads never
        #: steal each other's replies.
        self.lock = threading.Lock()
        #: Gids (raw groups and segment batches) already shipped here.
        self.shipped: set[int] = set()

    def post(self, method: str, payload: object) -> int:
        self.seq += 1
        self.requests.put((self.seq, method, payload))
        return self.seq

    def raise_if_dead(self, method: str) -> None:
        if not self.process.is_alive():
            raise WorkerFailure(
                self.worker_id,
                f"process exited with code {self.process.exitcode} "
                f"during {method!r}",
            )

    def fence(self) -> None:
        """Stop a retired worker that is unresponsive, not dead."""
        if self.process.is_alive():
            self.process.terminate()


class WorkerFleet:
    """Spawns, calls, retires and reaps the worker processes (the
    process transport).

    Parameters
    ----------
    n_workers:
        Number of worker processes to spawn.
    config:
        Shipped to every worker at spawn time.
    storage_root:
        When given, each worker opens a :class:`FileStorage` under
        ``storage_root/worker_<id>``; otherwise workers keep segments in
        process-local memory.
    fault_plan:
        Faults to inject, executed worker-side (see
        :mod:`repro.shard.faults`).
    timeout / max_retries / backoff:
        Per-request reply timeout in seconds, how many times a request
        is re-sent to a live-but-silent worker, and the multiplier
        applied to the timeout between attempts (exponential backoff).
    """

    def __init__(
        self,
        n_workers: int,
        config: Configuration,
        storage_root: str | os.PathLike | None = None,
        fault_plan: FaultPlan | None = None,
        timeout: float = 10.0,
        max_retries: int = 3,
        backoff: float = 2.0,
    ) -> None:
        self._timeout = timeout
        self._max_retries = max_retries
        self._backoff = backoff
        self._closed = False
        #: Makes :meth:`retire` an atomic test-and-set across threads.
        self._retire_lock = threading.Lock()
        ctx = mp.get_context(_start_method())
        self._workers: dict[int, _Worker] = {}
        for worker_id in range(n_workers):
            worker = _Worker(worker_id, ctx, config, storage_root, fault_plan)
            worker.process.start()
            self._workers[worker_id] = worker
        self._executor = ThreadPoolExecutor(
            max_workers=n_workers, thread_name_prefix="fleet-scatter"
        )

    # -- lifecycle -----------------------------------------------------
    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:  # broad-ok: nothing to do in a GC finalizer
            pass

    def close(self) -> None:
        """Shut every worker down and reap the processes."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=False)
        for worker in self._workers.values():
            if worker.alive and worker.process.is_alive():
                try:
                    worker.post("shutdown", None)
                except Exception:  # pragma: no cover - queue already gone
                    pass
        for worker in self._workers.values():
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.alive = False
            for channel in (worker.requests, worker.replies):
                channel.close()
                channel.cancel_join_thread()

    # -- membership ----------------------------------------------------
    def __len__(self) -> int:
        """Workers spawned, dead ones included."""
        return len(self._workers)

    @property
    def live_ids(self) -> list[int]:
        return [wid for wid, w in self._workers.items() if w.alive]

    def is_alive(self, worker_id: int) -> bool:
        return self._workers[worker_id].alive

    def retire(self, worker_id: int) -> bool:
        """Declare a worker dead and fence its process; returns False
        when another caller already had."""
        worker = self._workers[worker_id]
        with self._retire_lock:
            if not worker.alive:
                return False
            worker.alive = False
            worker.fence()
        get_registry().counter("cluster.worker_failures_total").inc()
        return True

    # -- RPC -----------------------------------------------------------
    def call(
        self, worker_id: int, method: str, payload: object = None
    ) -> tuple[object, float]:
        """One logical RPC; returns (value, worker-reported seconds).

        Retries with exponential backoff while the worker process is
        alive; every resend gets a fresh sequence number and any of them
        answers the call (late originals are not wasted). Replies whose
        sequence number belongs to an older, already-answered call are
        discarded — per-worker FIFO ordering makes that safe. Raises
        :class:`WorkerFailure` when the process died or stayed silent
        through every retry, :class:`WorkerRPCError` when the handler
        raised. Thread-safe: exchanges with one worker are serialised,
        different workers proceed concurrently.
        """
        worker = self._workers[worker_id]
        registry = get_registry()
        posts = timeouts = 0
        reply = None
        try:
            with worker.lock:
                seqs: set[int] = set()
                timeout = self._timeout
                while reply is None and posts <= self._max_retries:
                    seqs.add(worker.post(method, payload))
                    posts += 1
                    deadline = time.monotonic() + timeout
                    while (remaining := deadline - time.monotonic()) > 0:
                        try:
                            candidate = worker.replies.get(
                                timeout=min(_POLL_SECONDS, remaining)
                            )
                        except queue.Empty:
                            worker.raise_if_dead(method)
                            continue
                        if candidate[0] in seqs:
                            reply = candidate
                            break
                    else:
                        timeouts += 1
                        worker.raise_if_dead(method)
                        timeout *= self._backoff
        finally:
            # Instruments carry their own locks (RPR003): bump the RPC
            # traffic counters only after the worker lock is released.
            registry.counter("cluster.rpc_total", method=method).inc(posts)
            if posts > 1:
                registry.counter("cluster.rpc_retries_total").inc(posts - 1)
            if timeouts:
                registry.counter("cluster.rpc_timeouts_total").inc(timeouts)
        if reply is None:
            raise WorkerFailure(
                worker_id,
                f"unresponsive to {method!r} after {self._max_retries} "
                "retries with exponential backoff",
            )
        _, ok, value, elapsed = reply
        if not ok:
            raise WorkerRPCError(
                f"worker {worker_id} failed {method!r}: {value}"
            )
        registry.counter(
            "cluster.worker_busy_seconds_total", worker=str(worker_id)
        ).inc(elapsed)
        return value, elapsed

    def scatter(
        self, function: Callable[..., object], calls: Iterable[tuple]
    ) -> list[Future]:
        """Run ``function(*args)`` for every ``args`` in ``calls`` on
        the fleet's threads (one per worker); futures in call order."""
        return [self._executor.submit(function, *args) for args in calls]

    # -- shipping ------------------------------------------------------
    def ship_groups(
        self,
        worker_id: int,
        groups: Sequence[TimeSeriesGroup],
        dimensions: DimensionSet | None,
    ) -> tuple[IngestStats, float] | None:
        """Assign and ingest the ``groups`` the worker does not hold
        yet; returns its (cumulative stats, ingest seconds), or None
        when there was nothing to ship."""
        worker = self._workers[worker_id]
        unshipped = [g for g in groups if g.gid not in worker.shipped]
        if not unshipped:
            return None
        self.call(worker_id, "assign", (unshipped, dimensions))
        worker.shipped.update(group.gid for group in unshipped)
        return self.call(worker_id, "ingest")

    def ship_batches(
        self, worker_id: int, batches: Iterable[SegmentBatch]
    ) -> None:
        """Load the segment batches the worker does not hold yet."""
        worker = self._workers[worker_id]
        for batch in batches:
            if batch.gid not in worker.shipped:
                self.call(worker_id, "load_segments", batch)
                worker.shipped.add(batch.gid)

    # -- observability -------------------------------------------------
    def metrics(self) -> dict:
        """Cluster-wide metrics: the master's registry snapshot merged
        with every live worker's (counters add, histograms fold bucket
        counts). A worker that dies while being asked is skipped — its
        in-memory metrics died with it."""
        combined = MetricsRegistry()
        combined.merge_snapshot(get_registry().snapshot())
        asked = [(worker_id, "metrics") for worker_id in self.live_ids]
        for future in self.scatter(self.call, asked):
            try:
                snapshot, _ = future.result()
            except WorkerFailure:
                continue
            combined.merge_snapshot(snapshot)
        return combined.snapshot()


# ----------------------------------------------------------------------
# In-process transport
# ----------------------------------------------------------------------
class _LocalWorker:
    """An in-process worker: its node, called directly."""

    def __init__(self, node: WorkerNode) -> None:
        self.node = node
        self.alive = True
        #: Gids (raw groups and segment batches) already shipped here.
        self.shipped: set[int] = set()

    def fence(self) -> None:
        """Nothing runs on its own, so there is nothing to stop."""


class InProcessFleet(WorkerFleet):
    """The simulator's transport: the nodes are objects in this process
    and every call runs the worker's handler inline.

    Calls run one after another on the caller's thread, so each
    worker-reported time is uncontended work and the master's ``max``
    over them *models* the parallel makespan. The RPC tuning (timeout,
    retries, backoff) is accepted for signature parity and ignored:
    there is no wire to retry. A fault plan is a
    :class:`~repro.core.errors.ClusterError`: there is no process to
    crash, and ignoring it would pass a fault test vacuously. Payloads
    and replies cross by reference, so the handlers reply with objects
    the node will not mutate later.
    """

    def __init__(
        self,
        n_workers: int,
        config: Configuration,
        storage_root: str | os.PathLike | None = None,
        fault_plan: FaultPlan | None = None,
        *_rpc_options: object,
    ) -> None:
        if fault_plan is not None:
            raise ClusterError(
                "in-process workers cannot run a fault plan; use the "
                "process fleet (WorkerFleet)"
            )
        self._closed = False
        self._retire_lock = threading.Lock()
        self._workers = {
            worker_id: _LocalWorker(
                _build_node(worker_id, config, storage_root)
            )
            for worker_id in range(n_workers)
        }

    def close(self) -> None:
        """Close every node's store."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            worker.alive = False
            worker.node.close()

    def call(
        self, worker_id: int, method: str, payload: object = None
    ) -> tuple[object, float]:
        """Run the handler inline; returns (value, handler seconds). A
        handler exception becomes :class:`WorkerRPCError`, as on the
        process transport."""
        node = self._workers[worker_id].node
        started = time.perf_counter()
        try:
            value = _dispatch(node, method, payload)
        except Exception as exc:  # broad-ok: the process path's contract
            raise WorkerRPCError(
                f"worker {worker_id} failed {method!r}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        elapsed = time.perf_counter() - started
        get_registry().counter(
            "cluster.worker_busy_seconds_total", worker=str(worker_id)
        ).inc(elapsed)
        return value, elapsed

    def scatter(
        self, function: Callable[..., object], calls: Iterable[tuple]
    ) -> list[Future]:
        """Run ``function(*args)`` for every ``args`` in ``calls``, in
        order, on the caller's thread; completed futures."""
        futures: list[Future] = []
        for args in calls:
            future: Future = Future()
            try:
                future.set_result(function(*args))
            except Exception as exc:  # broad-ok: delivered via the future
                future.set_exception(exc)
            futures.append(future)
        return futures

    def metrics(self) -> dict:
        """The master's registry, once: in-process workers record into
        it already, so folding theirs in would count everything twice."""
        return get_registry().snapshot()
