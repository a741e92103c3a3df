"""Cluster nodes: workers with co-located storage and query processing.

Each worker owns the groups assigned to it — their segments never leave
the node, which is what lets ModelarDB answer aggregate queries without
shuffling (Section 7.3, Scale-out). The master holds only metadata: the
Tid -> Gid -> worker mapping used to route queries.
"""

from __future__ import annotations

from ..core.config import Configuration
from ..core.group import TimeSeriesGroup
from ..ingest.ingestor import Ingestor
from ..ingest.stats import IngestStats
from ..models.registry import ModelRegistry
from ..query.engine import PartialResult, QueryEngine
from ..query.sql import Query
from ..storage.interface import Storage
from ..storage.memory import MemoryStorage
from ..storage.schema import records_for_groups
from .map import SegmentBatch


class WorkerNode:
    """One worker: local segment store, ingestion, query execution."""

    def __init__(
        self,
        node_id: int,
        config: Configuration,
        registry: ModelRegistry,
        storage: Storage | None = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.registry = registry
        self.storage = storage if storage is not None else MemoryStorage()
        self.groups: list[TimeSeriesGroup] = []
        self._pending: list[TimeSeriesGroup] = []
        #: Applied ``load_segments`` batch ids. Segment insertion is an
        #: append, so idempotency must be explicit: a retried (or
        #: re-shipped) batch is skipped instead of double-appended.
        self._loaded_batches: set[str] = set()
        self.stats = IngestStats()
        self._engine = QueryEngine(
            self.storage, self.registry, error_bound=config.error_bound
        )

    # ------------------------------------------------------------------
    def assign(self, group: TimeSeriesGroup, dimensions=None) -> None:
        """Accept responsibility for a group (metadata written locally).

        Idempotent on Gid: re-assigning an already-owned group is a
        no-op, so a duplicated ``assign`` RPC (the master retrying after
        a dropped reply) cannot double-ingest a group.
        """
        if any(existing.gid == group.gid for existing in self.groups):
            return
        self.groups.append(group)
        self._pending.append(group)
        self.storage.insert_time_series(
            records_for_groups([group], dimensions)
        )
        self.storage.insert_model_table(self.registry.model_table())

    def ingest_assigned(self) -> None:
        """Ingest the groups assigned since the last call.

        Only not-yet-ingested groups are processed, which makes the call
        idempotent (a retried ``ingest`` RPC ingests nothing) and lets
        failover add a dead worker's groups to a node that has already
        ingested its own.
        """
        pending, self._pending = self._pending, []
        stats = Ingestor(self.config, self.registry, self.storage).ingest(
            pending
        )
        self.stats.merge(stats)
        self._engine.refresh_metadata()

    def load_segments(self, batch: SegmentBatch) -> int:
        """Apply one shipped segment batch (sharded serving's load
        path); returns the number of segments applied.

        Idempotent by ``batch_id`` — unlike ``assign``/``ingest``,
        segment insertion appends, so a duplicated RPC must be
        rejected, not replayed.
        """
        if batch.batch_id in self._loaded_batches:
            return 0
        self.storage.insert_time_series(batch.time_series)
        self.storage.insert_model_table(batch.model_table)
        self.storage.insert_segments(batch.segments)
        self._loaded_batches.add(batch.batch_id)
        self._engine.refresh_metadata()
        return len(batch.segments)

    def execute_partial(self, query: Query) -> PartialResult | list[dict]:
        """Run a query locally; returns the mergeable partial or rows."""
        return self._engine.execute_partial(query)

    def flush(self) -> tuple[int, int]:
        """Make local state durable; returns (segment count, bytes)."""
        self.storage.flush()
        return self.storage.segment_count(), self.storage.size_bytes()

    def close(self) -> None:
        """Release the local store (end of the worker's lifetime)."""
        self.storage.close()
