"""The shard map: shard → owning workers, with generation numbers.

The sharded serving tier's single routing authority for *workers*:
``owners_of(shard)`` names the workers currently holding a shard's
replicas, primary first. Which shard a group lives on is not the map's
business: the tier pins each group whole to the least-loaded shard
(Section 3.1) and remembers the choice in the payloads it retains per
shard. Failover and rebalancing rewrite owner tuples and move whole
shards, never single groups.

Every ownership mutation bumps ``generation``. The front-end snapshots
the generation per query and the result cache keys its validity on it,
so a routing change (worker death, rebalance) atomically invalidates
results computed under the old placement.

The map is pure data (ints, tuples, dicts) and therefore picklable —
it crosses the RPC boundary in stats payloads and is registered with
reprolint's RPR004 pickle-safety rule, as is :class:`SegmentBatch`,
the payload of the ``load_segments`` worker RPC that ships stored
segments (rather than raw series) to a shard's owners.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import ClusterError
from ..core.segment import SegmentGroup
from ..storage.schema import TimeSeriesRecord


@dataclass
class SegmentBatch:
    """One group's stored state, shipped whole to a shard's owners.

    The ``load_segments`` RPC payload: everything a worker needs to
    answer queries for one Gid out of an existing store — Time Series
    rows, the model table, and the segment rows themselves. ``batch_id``
    makes the RPC idempotent: a worker remembers applied ids, so the
    master's retry-on-timeout resends (and re-ships during recovery)
    never double-append segments.
    """

    batch_id: str
    gid: int
    time_series: list[TimeSeriesRecord] = field(default_factory=list)
    model_table: dict[int, str] = field(default_factory=dict)
    segments: list[SegmentGroup] = field(default_factory=list)

    @property
    def tids(self) -> tuple[int, ...]:
        return tuple(sorted(record.tid for record in self.time_series))


class ShardMap:
    """Shard → workers (mutable), versioned by ``generation``."""

    def __init__(
        self,
        n_shards: int,
        n_workers: int,
        n_replicas: int = 1,
    ) -> None:
        if n_shards < 1:
            raise ClusterError("a shard map needs at least one shard")
        if n_workers < 1:
            raise ClusterError("a shard map needs at least one worker")
        if n_replicas < 1:
            raise ClusterError("replication factor must be >= 1")
        self.n_shards = n_shards
        self.n_workers = n_workers
        self.n_replicas = min(n_replicas, n_workers)
        self.generation = 0
        #: shard id -> worker ids holding a replica, primary first.
        #: The initial spread staggers replicas round-robin so every
        #: worker is primary for ~n_shards/n_workers shards.
        self._owners: dict[int, tuple[int, ...]] = {
            shard: tuple(
                (shard + offset) % n_workers
                for offset in range(self.n_replicas)
            )
            for shard in range(n_shards)
        }

    # -- physical ownership (failover / rebalancing mutate this) -------
    def owners_of(self, shard: int) -> tuple[int, ...]:
        try:
            return self._owners[shard]
        except KeyError:
            raise ClusterError(f"unknown shard {shard}") from None

    def set_owners(self, shard: int, owners: tuple[int, ...]) -> None:
        """Replace a shard's replica set (primary first); bumps the
        generation. Callers ship the shard's data before publishing."""
        if shard not in self._owners:
            raise ClusterError(f"unknown shard {shard}")
        if not owners:
            raise ClusterError("a shard needs at least one owner")
        if len(set(owners)) != len(owners):
            raise ClusterError("shard owners must be distinct")
        self._owners[shard] = tuple(owners)
        self.generation += 1

    def retire_worker(self, worker_id: int) -> list[int]:
        """Drop a dead worker from every replica set it appears in.

        Returns the shards that lost a replica (empty owner tuples are
        allowed here — the tier recovers such shards by re-placing and
        re-shipping them). Bumps the generation once when anything
        changed.
        """
        affected: list[int] = []
        for shard, owners in self._owners.items():
            if worker_id in owners:
                self._owners[shard] = tuple(
                    owner for owner in owners if owner != worker_id
                )
                affected.append(shard)
        if affected:
            self.generation += 1
        return affected

    def to_dict(self) -> dict:
        """Stats/debug rendering (shard id -> owner list)."""
        return {
            "n_shards": self.n_shards,
            "n_replicas": self.n_replicas,
            "generation": self.generation,
            "owners": {
                str(shard): list(owners)
                for shard, owners in sorted(self._owners.items())
            },
        }

    # Pure-data pickling: the owner dict and counters are
    # all plain builtins, so the default protocol works; these exist to
    # make the contract explicit (and RPR004-checkable).
    def __getstate__(self) -> dict:
        return dict(self.__dict__)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
