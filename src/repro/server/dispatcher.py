"""Execution backends for the query server.

The server itself only speaks the wire protocol and enforces admission;
*what* executes a statement is a :class:`Dispatcher`:

:class:`EmbeddedDispatcher`
    A single-node :class:`~repro.query.engine.QueryEngine` shared by the
    server's executor threads (the engine's caches are thread-safe).
    This substitutes for the paper's embedded Spark SQL front-end.
:class:`~repro.shard.dispatcher.ShardedDispatcher`
    Scatter-gathers statements over the sharded tier's worker
    processes; it holds no lock of its own, so the server's executor
    threads scatter different statements concurrently.

Both carry a :class:`~repro.server.result_cache.QueryResultCache` and an
optional cooperative :class:`CancelToken` per query.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Callable

from ..modelardb import ModelarDB
from ..obs import get_registry
from ..query.columnar import ResultColumns
from ..query.engine import QueryEngine
from ..storage.interface import Storage
from .protocol import CancelledError, DeadlineError
from .result_cache import CachedResult, QueryResultCache

#: ``EXPLAIN ANALYZE`` results are measurements of one execution — a
#: cached breakdown would report a stale timing, so they bypass the
#: result cache entirely (no lookup, no store).
_EXPLAIN_RE = re.compile(r"^\s*EXPLAIN\b", re.IGNORECASE)


def _cache_key(sql: str, as_of: int | None) -> str:
    """The result cache is keyed by statement text; an as_of kwarg
    changes the statement's meaning, so it becomes part of the key."""
    return sql if as_of is None else f"{sql}\x00as_of={as_of}"


class CancelToken:
    """Cooperative cancellation flag shared with the executor thread.

    The event loop sets it (explicit ``cancel`` op or deadline expiry);
    code running the query polls it — long-running hooks can
    :meth:`wait` on it instead of sleeping blindly.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: str | None = None

    def cancel(self, reason: str = "cancelled") -> bool:
        """Set the flag; returns False if it was already set."""
        if self._event.is_set():
            return False
        self.reason = reason
        self._event.set()
        return True

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds; True if cancelled meanwhile."""
        return self._event.wait(timeout)

    def raise_if_cancelled(self) -> None:
        if not self._event.is_set():
            return
        if self.reason == "timeout":
            raise DeadlineError("query deadline expired")
        raise CancelledError(f"query {self.reason or 'cancelled'}")


#: Test/instrumentation hook run in the executor thread just before a
#: statement executes: ``hook(sql, token)``.
ExecuteHook = Callable[[str, CancelToken | None], None]


class Dispatcher:
    """Common dispatch machinery: result cache + cooperative cancel."""

    mode = "abstract"

    def __init__(
        self,
        result_cache_capacity: int = 256,
        execute_hook: ExecuteHook | None = None,
    ) -> None:
        self.result_cache = QueryResultCache(result_cache_capacity)
        self._execute_hook = execute_hook

    # -- to be provided by subclasses ----------------------------------
    def _run(self, sql: str, as_of: int | None = None) -> list[dict] | ResultColumns:
        raise NotImplementedError

    def _backend_stats(self) -> dict:
        return {}

    def catalog(self) -> dict:
        return {}

    def close(self) -> None:
        """Release backend resources; idempotent."""

    # -- shared paths --------------------------------------------------
    def cached(self, sql: str, as_of: int | None = None) -> CachedResult | None:
        """The cached result of a statement, or None.

        The server asks this on its event loop before admitting a query.
        Only a hit is counted: a miss goes on to :meth:`execute`, whose
        own lookup counts it, so each request is counted once.
        """
        if _EXPLAIN_RE.match(sql) is not None:
            return None
        return self.result_cache.lookup(_cache_key(sql, as_of))

    def execute(
        self,
        sql: str,
        token: CancelToken | None = None,
        as_of: int | None = None,
    ) -> tuple[CachedResult | list[dict], bool]:
        """Execute one statement; returns (result, served-from-cache).

        ``as_of`` bounds the read at a knowledge time (the request-level
        spelling of the statement's ``AS OF`` clause) and keys the
        result cache alongside the statement text.

        Raises :class:`~repro.core.errors.ModelarError` subclasses for
        SQL errors and :class:`~repro.server.protocol.ServerError`
        subclasses when the token fired first.
        """
        if token is not None:
            token.raise_if_cancelled()
        cacheable = _EXPLAIN_RE.match(sql) is None
        cache_key = _cache_key(sql, as_of)
        # Snapshot the generation before touching storage so a flush
        # racing with execution prevents caching the (possibly stale)
        # result rather than poisoning the cache.
        generation = self.result_cache.generation
        if cacheable:
            rows = self.result_cache.get(cache_key)
            if rows is not None:
                return rows, True
        if self._execute_hook is not None:
            self._execute_hook(sql, token)
            if token is not None:
                token.raise_if_cancelled()
        rows = self._run(sql, as_of)
        if cacheable:
            # CachedResult memoises both wire encodings, so every hit on
            # this entry serves byte-identical frames for free.
            rows = CachedResult(rows)
            self.result_cache.put(cache_key, rows, generation)
        return rows, False

    def notify_flush(self) -> None:
        """Invalidate cached results after new segments became visible."""
        self.result_cache.invalidate()

    def metrics(self) -> dict:
        """The metrics registry snapshot this backend serves from.

        The embedded engine shares the server's process, so the
        process-wide registry is the whole story; the sharded dispatcher
        overrides this to fold in worker-process registries.
        """
        return get_registry().snapshot()

    def stats(self) -> dict:
        payload = {
            "mode": self.mode,
            "result_cache": self.result_cache.stats(),
        }
        payload.update(self._backend_stats())
        return payload


class EmbeddedDispatcher(Dispatcher):
    """Serve from one in-process :class:`QueryEngine`."""

    mode = "embedded"

    def __init__(
        self,
        engine: QueryEngine,
        owned_storage: Storage | None = None,
        result_cache_capacity: int = 256,
        execute_hook: ExecuteHook | None = None,
    ) -> None:
        super().__init__(result_cache_capacity, execute_hook)
        self._engine = engine
        self._owned_storage = owned_storage
        self._closed = False

    @classmethod
    def open_directory(
        cls, directory: str | os.PathLike, **kwargs
    ) -> "EmbeddedDispatcher":
        """Open a storage directory (via :meth:`ModelarDB.open`) for
        serving.

        The dispatcher owns the store: :meth:`close` (the server's
        shutdown path) closes it, releasing the directory for the next
        ``serve`` invocation.
        """
        db = ModelarDB.open(directory)
        return cls(db.engine, owned_storage=db.storage, **kwargs)

    @classmethod
    def for_db(cls, db, **kwargs) -> "EmbeddedDispatcher":
        """Serve an existing :class:`~repro.modelardb.ModelarDB`.

        Registers the result cache as a flush listener, so ingestion on
        ``db`` invalidates cached results the moment segments land.
        """
        dispatcher = cls(db.engine, **kwargs)
        db.add_flush_listener(dispatcher.notify_flush)
        return dispatcher

    @property
    def engine(self) -> QueryEngine:
        return self._engine

    def _run(self, sql: str, as_of: int | None = None) -> list[dict] | ResultColumns:
        return self._engine.run(sql, as_of=as_of)

    def notify_flush(self) -> None:
        super().notify_flush()
        self._engine.invalidate_caches()

    def _backend_stats(self) -> dict:
        return {"segment_cache": self._engine.segment_cache.stats()}

    def catalog(self) -> dict:
        metadata = self._engine.metadata
        tids = sorted(metadata.all_tids())
        return {
            "n_series": len(tids),
            "tids": tids[:1024],
            "dimension_columns": metadata.dimension_columns(),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owned_storage is not None:
            self._owned_storage.close()
