"""Main-memory segment cache (Fig. 4): the decoded-model memo.

A decoded model is a pure function of ``(mid, parameters, n_columns,
length)``, and the storage layer keeps every row it has decoded resident
(:class:`~repro.storage.scan.Partition`), so a model has to be decoded
at most once while it is affordable to keep:

* models with constant-time aggregates (PMC-Mean, Swing, ``Multi`` over
  them) are a few floats each; they are pinned on their resident segment
  and found again with one attribute read — no key, no lock;
* models whose decode walks a bit stream (Gorilla) keep a reconstructed
  block, so they live in a bounded LRU keyed by content. Cheap models
  never enter it: its capacity holds that many expensive decodes.

Nothing here depends on *which* segments are stored, so an ingestion
flush drops nothing; :meth:`SegmentCache.invalidate` stays as the
explicit way to release the LRU. Memory is bounded by what is stored
(pinned models live and die with their resident row) plus the LRU
capacity, never by the number of queries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, defaultdict

from ..core.segment import SegmentGroup
from ..models.base import FittedModel
from ..models.registry import ModelRegistry
from ..obs import get_registry

_DEFAULT_CAPACITY = 4096

#: ``SegmentGroup.__dict__`` slot a constant-time model is pinned in.
_PINNED = "_model"


class SegmentCache:
    """Thread-safe memo from segment identity to decoded model."""

    def __init__(
        self, registry: ModelRegistry, capacity: int = _DEFAULT_CAPACITY
    ) -> None:
        self._registry = registry
        self._capacity = max(capacity, 1)
        self._entries: OrderedDict[tuple, FittedModel] = OrderedDict()
        self._lock = threading.Lock()
        self._lru_hits = 0
        self.misses = 0
        self.generation = 0
        # Pinned hits by thread id: every thread updates its own entry
        # only, which keeps that path lock-free and the count exact.
        self._pinned_hits: defaultdict[int, int] = defaultdict(int)
        metrics = get_registry()
        self._hits_total = metrics.counter("query.segment_cache_hits_total")
        self._misses_total = metrics.counter(
            "query.segment_cache_misses_total"
        )

    @property
    def hits(self) -> int:
        """Lookups answered without running ``registry.decode``."""
        return self._lru_hits + sum(list(self._pinned_hits.values()))

    def model_of(self, segment: SegmentGroup) -> FittedModel:
        """The segment's decoded model — the read path's one entry point."""
        model = segment.__dict__.get(_PINNED)
        if model is None:
            return self.decode(
                segment.mid,
                segment.parameters,
                segment.n_columns,
                segment.length,
                segment,
            )
        self._pinned_hits[threading.get_ident()] += 1
        return model

    def decode(
        self,
        mid: int,
        parameters: bytes,
        n_columns: int,
        length: int,
        segment: SegmentGroup | None = None,
    ) -> FittedModel:
        """Content-keyed lookup; a constant-time model is pinned on
        ``segment`` (when one is given) instead of entering the LRU."""
        key = (mid, parameters, n_columns, length)
        # The counter instruments carry their own internal lock; bump
        # them only after releasing the cache lock (lock discipline,
        # RPR003). They see this path only: a pinned hit touches no
        # instrument, so ``hits_total`` counts LRU hits.
        with self._lock:
            model = self._entries.get(key)
            if model is not None:
                self._entries.move_to_end(key)
                self._lru_hits += 1
            else:
                self.misses += 1
        if model is not None:
            self._hits_total.inc()
            return model
        self._misses_total.inc()
        # Decode outside the lock: it can be expensive (Gorilla walks the
        # bit stream) and two threads racing on one key is harmless.
        model = self._registry.decode(mid, parameters, n_columns, length)
        if segment is not None and model.constant_time_aggregates:
            # SegmentGroup is a frozen dataclass; its instance dict is
            # where it memoises derived values (see member_tids).
            segment.__dict__[_PINNED] = model
            return model
        with self._lock:
            self._entries[key] = model
            if len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
        return model

    def invalidate(self) -> None:
        """Release the LRU's decoded blocks and start a new generation.

        Never needed for correctness — a model cannot go stale — and
        not called by ingestion flushes. Pinned models are not tracked
        here; they are freed with the resident row that carries them.
        """
        with self._lock:
            self._entries.clear()
            self.generation += 1

    def clear(self) -> None:
        self.invalidate()

    def stats(self) -> dict:
        """Hit/miss counters for the server's ``stats`` op."""
        with self._lock:
            hits = self.hits
            total = hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self._capacity,
                "hits": hits,
                "misses": self.misses,
                "hit_rate": (hits / total) if total else 0.0,
                "generation": self.generation,
            }
