"""The concurrent query-serving layer.

Substitutes for the paper's Spark SQL front-end: an asyncio TCP server
with a small length-prefixed JSON protocol, admission control with
fast-fail back-pressure, per-query deadlines wired to cooperative
cancellation, and a result cache invalidated by ingestion flushes.

    from repro.server import EmbeddedDispatcher, QueryServer, ServerThread

    dispatcher = EmbeddedDispatcher.for_db(db)
    harness = ServerThread(QueryServer(dispatcher, max_inflight=8))
    host, port = harness.start()
    ...
    harness.stop()
"""

from .client import ServerClient
from .dispatcher import CancelToken, Dispatcher, EmbeddedDispatcher
from .loadgen import LoadReport, build_workload, run_load
from .protocol import (
    BadRequestError,
    BusyError,
    CancelledError,
    ConnectionLostError,
    DeadlineError,
    ErrorCode,
    RemoteQueryError,
    ServerError,
)
from .result_cache import QueryResultCache, normalize_sql
from .server import QueryServer, ServerThread

__all__ = [
    "BadRequestError",
    "BusyError",
    "CancelToken",
    "CancelledError",
    "ConnectionLostError",
    "DeadlineError",
    "Dispatcher",
    "EmbeddedDispatcher",
    "ErrorCode",
    "LoadReport",
    "QueryResultCache",
    "QueryServer",
    "RemoteQueryError",
    "ServerClient",
    "ServerError",
    "ServerThread",
    "build_workload",
    "normalize_sql",
    "run_load",
]
