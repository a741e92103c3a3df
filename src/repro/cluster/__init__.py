"""Master/worker cluster substrates (distribution without shuffling).

Two interchangeable substrates share one partitioning, least-loaded
assignment, routing and gather/merge (:mod:`repro.cluster.cluster`):

* :class:`ModelarCluster` — simulated: workers run sequentially in one
  process and reports *model* parallel wall time (``max`` over workers);
* :class:`ProcessCluster` — real: one OS process per worker, measured
  wall-clock reports, and failover when a worker crashes.

The worker processes and the one retry/backoff RPC that reaches them
are a :class:`WorkerFleet` (faults injectable via :class:`FaultPlan`),
shared with the sharded serving tier (:mod:`repro.shard`).
"""

from .cluster import (
    ClusterIngestReport,
    ClusterQueryReport,
    ModelarCluster,
    restrict_query_to_tids,
)
from .faults import Fault, FaultPlan
from .fleet import WorkerFleet
from .node import WorkerNode
from .pool import ProcessCluster

__all__ = [
    "ClusterIngestReport",
    "ClusterQueryReport",
    "Fault",
    "FaultPlan",
    "ModelarCluster",
    "ProcessCluster",
    "WorkerFleet",
    "WorkerNode",
    "restrict_query_to_tids",
]
