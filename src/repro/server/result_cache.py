"""Query-result LRU cache keyed on normalized SQL.

Serving workloads repeat the same statements (dashboards, polling
clients), so finished results are cached whole (:class:`CachedResult`:
a Data Point View selection's columns, or the rows of any other
statement). The key is the SQL
text with whitespace collapsed and keywords/identifiers upper-cased —
*outside* string literals, which stay verbatim so ``Park = 'Aalborg'``
and ``Park = 'AALBORG'`` never share an entry.

Ingestion invalidates the cache: the dispatcher registers itself as a
flush listener, and every bulk write that lands bumps the generation
and drops all entries, so a cached result can never outlive the segment
set it was computed from.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..obs import get_registry
from ..query.columnar import ResultColumns, as_rows

_DEFAULT_CAPACITY = 256


class CachedResult:
    """A finished statement result that memoises its wire forms.

    ``result`` is what the engine returned: the columns of a Data Point
    View selection (:class:`~repro.query.columnar.ResultColumns`) or a
    row list. The columnar wire
    (:func:`repro.server.protocol.encode_columnar_frame`) writes and
    stores its column buffers here the first time the result is
    serialised; the JSON wire fills :attr:`rows` once. Every
    result-cache hit therefore re-serialises to the exact same bytes
    without re-walking anything. Iterates and sizes as its rows.
    """

    __slots__ = ("result", "_rows", "columnar_columns")

    def __init__(self, result: ResultColumns | list[dict]) -> None:
        self.result = result
        self._rows: list[dict] | None = None
        self.columnar_columns: tuple[list[dict], list[bytes]] | None = None

    @property
    def rows(self) -> list[dict]:
        """The result as row dicts, filled on first use."""
        if self._rows is None:
            self._rows = as_rows(self.result)
        return self._rows

    def __len__(self) -> int:
        return len(self.result)

    def __iter__(self):
        return iter(self.rows)


def normalize_sql(text: str) -> str:
    """Canonical cache key: collapse whitespace, upper-case outside
    string literals (which are preserved byte-for-byte)."""
    parts: list[str] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char in "'\"":
            end = index + 1
            while end < length and text[end] != char:
                end += 1
            parts.append(text[index:min(end + 1, length)])
            index = end + 1
        elif char.isspace():
            if parts and parts[-1] != " ":
                parts.append(" ")
            while index < length and text[index].isspace():
                index += 1
        else:
            parts.append(char.upper())
            index += 1
    return "".join(parts).strip()


class QueryResultCache:
    """Thread-safe LRU from normalized SQL to finished results
    (:class:`CachedResult`: columns or rows, with their memoised wire
    forms).

    Cached results are returned by reference and must be treated as
    immutable — the server only ever serialises them.
    """

    def __init__(self, capacity: int = _DEFAULT_CAPACITY) -> None:
        self._capacity = max(capacity, 0)
        self._entries: OrderedDict[str, CachedResult] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.generation = 0
        metrics = get_registry()
        self._hits_total = metrics.counter("server.result_cache_hits_total")
        self._misses_total = metrics.counter(
            "server.result_cache_misses_total"
        )
        self._invalidations_total = metrics.counter(
            "server.result_cache_invalidations_total"
        )

    def get(self, sql: str) -> CachedResult | None:
        """The cached rows for ``sql``, or None; counts a hit or a miss."""
        rows = self.lookup(sql)
        if rows is None:
            with self._lock:
                self.misses += 1
            self._misses_total.inc()
        return rows

    def lookup(self, sql: str) -> CachedResult | None:
        """Like :meth:`get`, but counts only a hit.

        For a caller that probes first and, on a miss, goes on to a
        path that calls :meth:`get` — the miss is counted there, once.
        """
        if self._capacity == 0:
            # Nothing is ever stored: skip normalising the statement.
            return None
        key = normalize_sql(sql)
        # The counter instruments carry their own internal lock; bump
        # them only after releasing the cache lock (lock discipline,
        # RPR003) — same pattern as invalidate() below.
        with self._lock:
            rows = self._entries.get(key)
            if rows is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if rows is not None:
            self._hits_total.inc()
        return rows

    def put(self, sql: str, rows: CachedResult, generation: int) -> None:
        """Store a result computed while ``generation`` was current.

        A result computed before an invalidation raced with it is stale;
        the generation check drops it instead of caching it.
        """
        if self._capacity == 0:
            return
        key = normalize_sql(sql)
        with self._lock:
            if generation != self.generation:
                return
            self._entries[key] = rows
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def invalidate(self) -> None:
        """Drop everything; called when ingestion flushes new segments."""
        with self._lock:
            self._entries.clear()
            self.generation += 1
            self.invalidations += 1
        self._invalidations_total.inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self._capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
                "invalidations": self.invalidations,
                "generation": self.generation,
            }
