"""The two cluster substrates: one master, two transports.

Both are the sharded tier, :class:`~repro.shard.ShardedCluster`, used
with its defaults: one shard per worker, one replica and no
rebalancing. They differ from each other only in the fleet that
reaches the workers:

* :class:`ProcessCluster` — the measured substrate: one OS process per
  worker (:class:`~repro.cluster.fleet.WorkerFleet`), so its reports
  carry measured wall-clock times (Fig. 20 becomes a measurement);
* :class:`ModelarCluster` — the simulator: the same class over
  in-process workers (:class:`~repro.cluster.fleet.InProcessFleet`),
  which run in turn so each worker's seconds are uncontended and a
  report's ``makespan`` (slowest worker, plus the merge for queries)
  *models* parallel wall time with even assignment and no interference.

The distribution properties are the paper's — groups are assigned whole
to the least-loaded shard and never move afterwards (Section 3.1), and
shard *i* starts on worker *i*; queries are rewritten at the master,
scattered to owning workers only, and merged from partial results in
shard order (Algorithm 5's distributed structure) — and because the
code path is one, the two substrates return *bit-identical* rows.

Fault tolerance is the tier's and rides on the same no-shuffle pinning
invariant: because a group's segments live only on its worker and the
master retains the raw groups, a dead worker's shard is re-ingested
whole on the least-busy survivor. Shard order, and so the merge order
and the rows, do not change.
"""

from __future__ import annotations

from ..core.config import Configuration
from ..core.dimensions import DimensionSet
from ..shard.tier import ShardedCluster
from .fleet import InProcessFleet


class ProcessCluster(ShardedCluster):
    """A master plus N workers, each in its own OS process: the sharded
    tier, named for the measured substrate."""


class ModelarCluster(ProcessCluster):
    """The simulator: a :class:`ProcessCluster` whose N workers are
    objects in this process, called inline and in turn."""

    fleet_type = InProcessFleet

    def __init__(
        self,
        n_workers: int,
        config: Configuration | None = None,
        dimensions: DimensionSet | None = None,
        group_compression: bool = True,
    ) -> None:
        super().__init__(
            n_workers, config, dimensions,
            group_compression=group_compression,
        )
