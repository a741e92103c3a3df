"""``repro.shard`` — the one cluster master and the workers it reaches.

Distribution without shuffling (Section 3.1): whole groups pinned to
workers, statements rewritten at the master and scattered, partial
results merged. The package holds every piece of it:

* :class:`ShardedCluster` — the one master: least-loaded placement of
  whole groups on shards, concurrent scatter-gather over a worker
  fleet, retry-on-replica query failover, shard recovery and
  metric-driven rebalancing;
* :class:`WorkerFleet` / :class:`InProcessFleet` — the two transports
  it runs over (``fleet_type=``): one OS process per worker, with one
  retry/backoff RPC and injectable :class:`FaultPlan` faults, or the
  simulator's nodes called inline and in turn;
* :class:`ShardMap` — mutable shard→workers replica tuples, with an
  explicit generation number;
* :class:`ShardedDispatcher` — plugs the master under
  :class:`~repro.server.QueryServer` with the result cache keyed by
  the shard-map generation;
* :class:`SegmentBatch` — the idempotent RPC payload that ships an
  existing store's segments to shard owners.
"""

from .dispatcher import ShardedDispatcher
from .faults import Fault, FaultPlan
from .fleet import InProcessFleet, WorkerFleet
from .map import SegmentBatch, ShardMap
from .tier import ShardedCluster, ShardQueryReport

__all__ = [
    "Fault",
    "FaultPlan",
    "InProcessFleet",
    "SegmentBatch",
    "ShardMap",
    "ShardQueryReport",
    "ShardedCluster",
    "ShardedDispatcher",
    "WorkerFleet",
]
