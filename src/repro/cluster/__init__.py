"""Master/worker cluster substrates (distribution without shuffling).

One master, :class:`repro.shard.ShardedCluster`, does all partitioning,
least-loaded placement, routing, scatter, gather/merge and failover;
the two substrates are that master with one shard per worker over two
transports (:mod:`repro.cluster.fleet`):

* :class:`ModelarCluster` — simulated: workers are objects run in turn
  in this process (:class:`InProcessFleet`), and reports *model*
  parallel wall time (``makespan``: ``max`` over workers);
* :class:`ProcessCluster` — real: one OS process per worker
  (:class:`WorkerFleet`, one retry/backoff RPC, faults injectable via
  :class:`FaultPlan`), measured wall-clock reports, and failover when a
  worker crashes.
"""

from .cluster import ClusterIngestReport, restrict_query_to_tids
from .faults import Fault, FaultPlan
from .fleet import InProcessFleet, WorkerFleet
from .node import WorkerNode
from .pool import ModelarCluster, ProcessCluster

__all__ = [
    "ClusterIngestReport",
    "Fault",
    "FaultPlan",
    "InProcessFleet",
    "ModelarCluster",
    "ProcessCluster",
    "WorkerFleet",
    "WorkerNode",
    "restrict_query_to_tids",
]
