"""``repro.shard`` — the shared-nothing sharded serving tier.

Fuses the serving layer (:mod:`repro.server`: asyncio front-end,
admission control, result cache) with the cluster's worker fleet
(:class:`~repro.cluster.WorkerFleet`: worker processes, one
retry/backoff RPC, fault plans) into a tier that scales query serving
across workers:

* :class:`ShardMap` — consistent-hash Gid→shard placement plus mutable
  shard→workers replica tuples, with an explicit generation number;
* :class:`ShardedCluster` — the master: concurrent scatter-gather over
  the fleet, retry-on-replica query failover, shard recovery and
  metric-driven rebalancing;
* :class:`ShardedDispatcher` — plugs the tier under
  :class:`~repro.server.QueryServer` with the result cache keyed by
  the shard-map generation;
* :class:`SegmentBatch` — the idempotent RPC payload that ships an
  existing store's segments to shard owners.
"""

from .dispatcher import ShardedDispatcher
from .map import SegmentBatch, ShardMap
from .tier import ShardedCluster, ShardQueryReport

__all__ = [
    "SegmentBatch",
    "ShardMap",
    "ShardQueryReport",
    "ShardedCluster",
    "ShardedDispatcher",
]
