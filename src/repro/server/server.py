"""The concurrent query server (the Spark SQL front-end substitute).

An asyncio TCP server speaking the length-prefixed JSON protocol of
:mod:`repro.server.protocol`. Statements execute on a bounded thread
pool via a :class:`~repro.server.dispatcher.Dispatcher`; the event loop
itself never blocks on a query, so pings, stats and cancellations stay
responsive while the pool is saturated.

A statement whose result is already in the dispatcher's result cache
is answered on the event loop itself, before admission: a hit takes no
slot, no thread and no deadline. Everything below applies to the
statements that execute.

Admission control is two bounds deep, as the serving benchmarks of
SciTS (arXiv:2204.09795) argue a closed-loop harness needs:

* at most ``max_inflight`` statements execute concurrently (this is
  also the executor pool width);
* at most ``max_waiting`` more may queue for a slot;
* anything beyond that is *fast-failed* with a structured ``busy``
  error (503-style) instead of being queued unboundedly — the client
  learns about back-pressure in microseconds, never by hanging.

Every executed query gets a deadline (the server default unless the
request carries its own) wired to a cooperative :class:`CancelToken`;
expiry answers the client immediately with a ``timeout`` error while
the token tells the executor thread to abandon the work. The ``cancel``
op fires the same token by query id from any connection.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..core.errors import ModelarError
from ..obs import get_registry
from .dispatcher import CancelToken, Dispatcher
from .metrics import LatencyHistogram, ServerCounters
from .protocol import (
    WIRE_COLUMNAR,
    BadRequestError,
    BusyError,
    ErrorCode,
    error_response,
    negotiated_wire,
    read_frame,
    write_frame,
)

_DEFAULT_TIMEOUT_SECONDS = 30.0


class QueryServer:
    """One serving endpoint over one dispatcher."""

    def __init__(
        self,
        dispatcher: Dispatcher,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 4,
        max_waiting: int = 16,
        default_timeout: float = _DEFAULT_TIMEOUT_SECONDS,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_waiting < 0:
            raise ValueError("max_waiting must be >= 0")
        self.dispatcher = dispatcher
        self._host = host
        self._port = port
        self._max_inflight = max_inflight
        self._max_waiting = max_waiting
        self._default_timeout = default_timeout
        self.counters = ServerCounters()
        self.latency = LatencyHistogram()
        self._query_seconds = get_registry().histogram(
            "server.query_seconds"
        )
        self._columnar_responses = get_registry().counter(
            "server.columnar_responses_total"
        )
        self._executor = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-query"
        )
        self._semaphore: asyncio.Semaphore | None = None
        self._waiting = 0
        self._inflight = 0
        self._cancel_tokens: dict[str, tuple[CancelToken, asyncio.Event]] = {}
        self._connection_tasks: set[asyncio.Task] = set()
        self._server: asyncio.base_events.Server | None = None
        self._closing = False

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) actually bound (port 0 resolves on start)."""
        return self._host, self._port

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; returns (host, port)."""
        self._semaphore = asyncio.Semaphore(self._max_inflight)
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port
        )
        sockname = self._server.sockets[0].getsockname()
        self._host, self._port = sockname[0], sockname[1]
        return self._host, self._port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Stop accepting, fail over in-flight work, release the store."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for token, event in list(self._cancel_tokens.values()):
            token.cancel("shutdown")
            event.set()
        for task in list(self._connection_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.gather(
                *self._connection_tasks, return_exceptions=True
            )
        self._executor.shutdown(wait=False, cancel_futures=True)
        # The dispatcher owns the storage handle (FileStorage.close is
        # the deterministic release the restart tests rely on).
        self.dispatcher.close()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connection_tasks.add(task)
        self.counters.bump("connections")
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except BadRequestError as error:
                    # Unframeable input may desynchronise the stream:
                    # report once, then drop the connection.
                    await write_frame(writer, self._bad_request(str(error)))
                    break
                if request is None:
                    break
                response = await self._handle_request(request)
                try:
                    used = await write_frame(
                        writer, response, negotiated_wire(request)
                    )
                except (ConnectionError, OSError):
                    break
                if used == WIRE_COLUMNAR:
                    self._columnar_responses.inc()
        except asyncio.CancelledError:
            pass
        finally:
            self._connection_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _handle_request(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "metrics":
            return {"ok": True, "metrics": self.dispatcher.metrics()}
        if op == "cancel":
            return self._handle_cancel(request)
        if op == "query":
            return await self._handle_query(request)
        return self._bad_request(
            f"unknown op {op!r}; expected query/ping/stats/metrics/cancel"
        )

    def _bad_request(self, message: str) -> dict:
        self.counters.bump("bad_requests")
        return error_response(ErrorCode.BAD_REQUEST, message)

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def _handle_cancel(self, request: dict) -> dict:
        query_id = request.get("id")
        entry = (
            self._cancel_tokens.get(str(query_id))
            if query_id is not None
            else None
        )
        if entry is None:
            return {"ok": True, "cancelled": False}
        token, event = entry
        token.cancel("cancelled")
        event.set()
        return {"ok": True, "cancelled": True}

    async def _handle_query(self, request: dict) -> dict:
        self.counters.bump("requests")
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            return self._bad_request("query op requires a 'sql' string")
        timeout = request.get("timeout", self._default_timeout)
        if timeout is not None and (
            not isinstance(timeout, (int, float))
            or isinstance(timeout, bool)
            # Rejects NaN and infinities (json.loads parses both) and
            # integers too large for the loop's float clock.
            or not 0 < timeout <= sys.float_info.max
        ):
            return self._bad_request(
                "'timeout' must be a finite positive number"
            )
        as_of = request.get("as_of")
        if as_of is not None and (
            not isinstance(as_of, int)
            or isinstance(as_of, bool)
            or as_of < 0
        ):
            return self._bad_request(
                "'as_of' must be a non-negative integer knowledge time"
            )
        query_id = request.get("id")

        # A cached answer is served from the loop: no slot, token or
        # thread, so it cannot queue, time out or be cancelled. Once
        # stop() began, every query falls through to `shutdown`.
        if not self._closing:
            started = time.perf_counter()
            rows = self.dispatcher.cached(sql, as_of)
            if rows is not None:
                self.counters.bump("accepted")
                return self._answered(rows, True, started)

        try:
            await self._acquire_slot()
        except BusyError as error:
            self.counters.bump("rejected_busy")
            return error_response(error.code, str(error))
        self.counters.bump("accepted")

        token = CancelToken()
        cancelled_event = asyncio.Event()
        if query_id is not None:
            self._cancel_tokens[str(query_id)] = (token, cancelled_event)
        started = time.perf_counter()
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            self._executor, self.dispatcher.execute, sql, token, as_of
        )
        future.add_done_callback(self._release_slot)
        cancel_waiter = asyncio.ensure_future(cancelled_event.wait())
        try:
            done, _pending = await asyncio.wait(
                {future, cancel_waiter},
                timeout=timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if not done:
                # Deadline expired: answer now, tell the worker to abandon.
                token.cancel("timeout")
            # The outcome is a function of the token alone. A cancelled
            # executor thread raises at once, so its error can reach
            # `done` before (or with) the waiter; which one the loop
            # saw first must not change what the client is told.
            if token.reason == "timeout":
                self.counters.bump("timed_out")
                return error_response(
                    ErrorCode.TIMEOUT,
                    f"query exceeded its {timeout:.3f}s deadline",
                )
            if token.cancelled:
                self.counters.bump("cancelled")
                return error_response(
                    ErrorCode.CANCELLED, f"query {query_id!r} was cancelled"
                )
            return self._finish_query(future, started)
        finally:
            cancel_waiter.cancel()
            if query_id is not None:
                self._cancel_tokens.pop(str(query_id), None)

    def _finish_query(self, future, started: float) -> dict:
        try:
            rows, cached = future.result()
        except ModelarError as error:
            # SQL/engine errors are answered in-band; the connection
            # (and the server) stay up.
            self.counters.bump("failed")
            return error_response(ErrorCode.QUERY, str(error))
        except Exception as error:  # noqa: BLE001 - reported, not raised
            self.counters.bump("failed")
            return error_response(
                ErrorCode.INTERNAL, f"{type(error).__name__}: {error}"
            )
        return self._answered(rows, cached, started)

    def _answered(self, rows, cached: bool, started: float) -> dict:
        """Record one successfully answered query; its response."""
        elapsed = time.perf_counter() - started
        self.latency.record(elapsed)
        self._query_seconds.record(elapsed)
        self.counters.bump("completed")
        return {
            "ok": True,
            "rows": rows,
            "elapsed": elapsed,
            "cached": cached,
        }

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    async def _acquire_slot(self) -> None:
        if self._closing:
            raise BusyError(
                "server is shutting down", code=ErrorCode.SHUTDOWN
            )
        if self._semaphore.locked():
            if self._waiting >= self._max_waiting:
                raise BusyError(
                    f"{self._max_inflight} queries in flight and "
                    f"{self._waiting} waiting; retry later"
                )
            self.counters.bump("queued")
        self._waiting += 1
        try:
            await self._semaphore.acquire()
        finally:
            self._waiting -= 1
        self._inflight += 1

    def _release_slot(self, future) -> None:
        self._inflight -= 1
        self._semaphore.release()
        if not future.cancelled():
            # A result that raced past its deadline is discarded; pull
            # the exception so the loop never logs it as unretrieved.
            future.exception()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "counters": self.counters.snapshot(),
            "latency": self.latency.snapshot(),
            "admission": {
                "max_inflight": self._max_inflight,
                "max_waiting": self._max_waiting,
                "inflight": self._inflight,
                "waiting": self._waiting,
            },
            "dispatcher": self.dispatcher.stats(),
            "catalog": self.dispatcher.catalog(),
        }


class ServerThread:
    """Run a :class:`QueryServer` on a private background event loop.

    The synchronous harness used by tests, the load generator and the
    benchmark: ``start()`` returns the bound (host, port); ``stop()``
    shuts the server down and joins the loop thread.
    """

    def __init__(self, server: QueryServer) -> None:
        self._server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def start(self, timeout: float = 10.0) -> tuple[str, int]:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-server",
            daemon=True,
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self._server.start(), self._loop
        )
        return future.result(timeout=timeout)

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self._server.stop(), self._loop
        )
        future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._loop.close()
        self._loop = None

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
