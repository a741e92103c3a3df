"""Blocking client for the query server.

One :class:`ServerClient` wraps one TCP connection and issues one
request at a time (the closed-loop shape: think time happens between
calls). Errors come back typed — :class:`~repro.server.protocol.BusyError`
for admission rejections, :class:`~repro.server.protocol.DeadlineError`
for expired deadlines, :class:`~repro.server.protocol.RemoteQueryError`
for SQL the engine rejected — so callers can branch on back-pressure
without parsing messages.

Transient transport failures are retried: a dropped connection (server
restart, half-open socket) is re-dialled with capped exponential
backoff and the request re-sent. Every request op is idempotent
(queries are reads; ``cancel`` is best-effort), so a replay after an
ambiguous failure is safe. Once the retry budget is spent the failure
surfaces as :class:`~repro.server.protocol.ConnectionLostError` — a
typed, error-coded :class:`ServerError` rather than a raw ``OSError``,
so the load generator's report can tally it like any other error code.

    with ServerClient(host, port) as client:
        rows = client.query("SELECT SUM_S(*) FROM Segment")
        client.stats()["counters"]
"""

from __future__ import annotations

import socket
import time

from .protocol import (
    WIRE_COLUMNAR,
    ConnectionLostError,
    raise_for_error,
    recv_frame,
    send_frame,
)


class ServerClient:
    """A blocking protocol client over one (re-dialled) connection.

    ``columnar=True`` (the default) advertises the columnar response
    format on query requests; ``recv_frame`` decodes either body
    transparently, and servers that predate the format simply ignore
    the ``accept`` field and answer JSON.

    ``retries`` bounds how many times one request is re-attempted after
    a transport failure, sleeping ``backoff * 2**attempt`` seconds
    (capped at ``max_backoff``) before each reconnect.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 10.0,
        socket_timeout: float | None = 60.0,
        columnar: bool = True,
        retries: int = 2,
        backoff: float = 0.05,
        max_backoff: float = 1.0,
    ) -> None:
        self._host = host
        self._port = port
        self._connect_timeout = connect_timeout
        self._socket_timeout = socket_timeout
        self._retries = max(retries, 0)
        self._backoff = backoff
        self._max_backoff = max_backoff
        self._sock: socket.socket | None = None
        self._connect()
        self._accept = [WIRE_COLUMNAR] if columnar else None

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._connect_timeout
        )
        sock.settimeout(self._socket_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        return sock

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def request(self, payload: dict) -> dict:
        """Send one frame, wait for its response frame.

        Transparently reconnects and replays the request on transport
        errors, with capped exponential backoff between attempts;
        raises :class:`ConnectionLostError` when the budget is spent.
        ``socket.timeout`` is *not* retried — a response may still be
        in flight, and replaying over the same connection would
        desynchronise request/response pairing.
        """
        last_error: str = "connection lost"
        for attempt in range(self._retries + 1):
            if attempt:
                time.sleep(
                    min(
                        self._backoff * (2 ** (attempt - 1)),
                        self._max_backoff,
                    )
                )
            try:
                sock = self._sock if self._sock is not None \
                    else self._connect()
                send_frame(sock, payload)
                response = recv_frame(sock)
            except socket.timeout:
                raise
            except (ConnectionError, OSError) as exc:
                self._drop_connection()
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            if response is None:
                # Clean EOF mid-request: the server went away between
                # our send and its reply. Same treatment as an abort.
                self._drop_connection()
                last_error = "server closed the connection"
                continue
            return response
        raise ConnectionLostError(
            f"connection to {self._host}:{self._port} lost after "
            f"{self._retries + 1} attempts ({last_error})"
        )

    # ------------------------------------------------------------------
    def query_response(
        self,
        sql: str,
        timeout: float | None = None,
        query_id: str | None = None,
        as_of: int | None = None,
    ) -> dict:
        """Raw response for a query (no raise on structured errors)."""
        payload = {"op": "query", "sql": sql}
        if self._accept is not None:
            payload["accept"] = self._accept
        if timeout is not None:
            payload["timeout"] = timeout
        if query_id is not None:
            payload["id"] = query_id
        if as_of is not None:
            payload["as_of"] = as_of
        return self.request(payload)

    def query(
        self,
        sql: str,
        timeout: float | None = None,
        query_id: str | None = None,
        as_of: int | None = None,
    ) -> list[dict]:
        """Execute SQL; returns rows or raises the typed ServerError.

        ``as_of`` bounds the read at a knowledge time, the request-level
        spelling of the statement's ``AS OF`` clause.
        """
        response = self.query_response(sql, timeout, query_id, as_of)
        raise_for_error(response)
        return response["rows"]

    def ping(self) -> bool:
        response = self.request({"op": "ping"})
        raise_for_error(response)
        return bool(response.get("pong"))

    def stats(self) -> dict:
        response = self.request({"op": "stats"})
        raise_for_error(response)
        return response["stats"]

    def metrics(self) -> dict:
        """The server's metrics-registry snapshot (see ``docs/METRICS.md``)."""
        response = self.request({"op": "metrics"})
        raise_for_error(response)
        return response["metrics"]

    def cancel(self, query_id: str) -> bool:
        """Best-effort cancel; True if the id named an in-flight query."""
        response = self.request({"op": "cancel", "id": query_id})
        raise_for_error(response)
        return bool(response.get("cancelled"))

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
