"""Serving dispatcher over the sharded tier.

:class:`ShardedDispatcher` plugs a :class:`~repro.shard.tier.ShardedCluster`
under the query server. It holds **no global lock**: the fleet's
per-worker exchanges already serialise what must be serialised, so the
server's executor threads scatter different statements concurrently —
the whole point of the sharded tier.

The result cache is keyed by the shard map's generation: the dispatcher
registers a generation listener, so any placement change (a worker
retired mid-query, a shard recovered, a rebalance) invalidates every
cached result computed under the old placement before the next lookup.
"""

from __future__ import annotations

from ..obs import get_registry
from ..server.dispatcher import Dispatcher, ExecuteHook
from .tier import ShardedCluster


class ShardedDispatcher(Dispatcher):
    """Serve by scatter-gathering statements over shard replicas."""

    mode = "sharded"

    def __init__(
        self,
        tier: ShardedCluster,
        owns_tier: bool = False,
        result_cache_capacity: int = 256,
        execute_hook: ExecuteHook | None = None,
    ) -> None:
        super().__init__(result_cache_capacity, execute_hook)
        self._tier = tier
        self._owns_tier = owns_tier
        self._closed = False
        tier.add_generation_listener(self._on_generation)

    @property
    def tier(self) -> ShardedCluster:
        return self._tier

    def _on_generation(self, generation: int) -> None:
        # Placement changed: results computed under the old shard map
        # may have been answered by a now-gone replica set.
        self.result_cache.invalidate()

    def _run(self, sql: str, as_of: int | None = None) -> list[dict]:
        rows, _ = self._tier.sql(sql, as_of=as_of)
        self._tier.maybe_rebalance()
        return rows

    def _backend_stats(self) -> dict:
        return {"shard_tier": self._tier.stats()}

    def metrics(self) -> dict:
        try:
            return self._tier.metrics()
        except Exception:  # broad-ok: stats must not kill the server
            return get_registry().snapshot()

    def catalog(self) -> dict:
        tids = sorted(self._tier.tids)
        return {
            "n_series": len(tids),
            "tids": tids[:1024],
            "shards": self._tier.map.n_shards,
            "replicas": self._tier.map.n_replicas,
            "generation": self._tier.generation,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_tier:
            self._tier.close()
