"""``repro.shard`` — the shared-nothing sharded serving tier.

Fuses the serving layer (:mod:`repro.server`: asyncio front-end,
admission control, result cache) with the cluster's worker fleet
(:class:`~repro.cluster.WorkerFleet`: worker processes, one
retry/backoff RPC, fault plans) into a tier that scales query serving
across workers:

* :class:`ShardMap` — mutable shard→workers replica tuples, with an
  explicit generation number;
* :class:`ShardedCluster` — the one cluster master (also behind
  :class:`~repro.cluster.ProcessCluster` and the simulator
  :class:`~repro.cluster.ModelarCluster`): least-loaded placement of
  whole groups on shards, concurrent scatter-gather over the fleet,
  retry-on-replica query failover, shard recovery and metric-driven
  rebalancing;
* :class:`ShardedDispatcher` — plugs the tier under
  :class:`~repro.server.QueryServer` with the result cache keyed by
  the shard-map generation;
* :class:`SegmentBatch` — the idempotent RPC payload that ships an
  existing store's segments to shard owners.
"""

# ``repro.cluster`` must finish importing before ``.tier`` starts: the
# tier imports cluster modules, and the cluster package's
# ``ProcessCluster`` subclasses the tier's ``ShardedCluster``.
from .. import cluster  # noqa: F401
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
