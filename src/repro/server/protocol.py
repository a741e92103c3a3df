"""The serving layer's wire protocol.

A connection carries a sequence of *frames*, each a 4-byte big-endian
length prefix followed by a body. Request bodies are always UTF-8 JSON;
response bodies are JSON by default, or the compact *columnar* format
when the request asked for it (see below). Requests are objects with an
``op`` field:

``{"op": "query", "sql": "...", "id": "q1", "timeout": 2.5}``
    Execute one SQL statement. ``id`` (optional) names the query so it
    can be cancelled from another connection; ``timeout`` (optional,
    seconds) overrides the server's default deadline.
``{"op": "ping"}``
    Liveness probe; answered immediately, never queued.
``{"op": "stats"}``
    Server counters, latency histogram, cache statistics and catalog.
``{"op": "cancel", "id": "q1"}``
    Best-effort cancellation of an in-flight query by its ``id``.

Responses always carry ``ok``. Successful queries reply
``{"ok": true, "rows": [...], "elapsed": seconds, "cached": bool}``;
failures reply a structured error frame
``{"ok": false, "error": {"code": ..., "status": ..., "message": ...}}``
modelled on HTTP status classes (``busy`` -> 503, ``timeout`` -> 408,
query and protocol errors -> 400, ``cancelled`` -> 499) so clients can
distinguish back-pressure from bad requests without string matching.

Columnar responses
------------------

A request may carry ``"accept": ["columnar"]``. When it does — and the
result rows form a rectangular table — the response body is encoded as
typed column arrays instead of row-oriented JSON::

    b"RCF1" | u32 header length | header JSON | column buffers...

The header is ``{"meta": {...}, "n_rows": N, "columns": [{"name",
"enc", "nbytes"}, ...]}`` where ``meta`` holds every response field
except ``rows``. ``enc`` is ``i8`` (little-endian int64), ``f8``
(little-endian IEEE float64, NaN/inf included — bit-exact, unlike
JSON) or ``json`` (a JSON array, the fallback for strings, bools,
None and mixed columns). Negotiation is best effort per request:
servers that predate the format ignore ``accept`` and answer JSON,
clients that never send it get JSON, and non-rectangular results fall
back to JSON even when columnar was asked for. :func:`decode_body`
dispatches on the magic (no JSON object can start with ``R``), so
either body decodes to the same response dict.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, BinaryIO

import numpy as np

from ..core.errors import ModelarError
from ..query.columnar import ResultColumns, fill_rows
from .result_cache import CachedResult

#: Length prefix: one unsigned 32-bit big-endian integer.
HEADER = struct.Struct(">I")

#: Upper bound on a single frame; a prefix above this means the peer is
#: not speaking the protocol (or a result is unreasonably large).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Magic prefix of a columnar response body (version 1). A JSON body
#: always starts with ``{``, so the first byte disambiguates.
COLUMNAR_MAGIC = b"RCF1"

#: Wire-format names used in request ``accept`` lists.
WIRE_JSON = "json"
WIRE_COLUMNAR = "columnar"


# ----------------------------------------------------------------------
# Error codes (HTTP-style status classes)
# ----------------------------------------------------------------------
class ErrorCode:
    """Structured error codes carried in error frames."""

    BAD_REQUEST = "bad_request"  # malformed frame or unknown op
    QUERY = "query_error"        # SQL failed to parse/plan/execute
    BUSY = "busy"                # admission control rejected the query
    TIMEOUT = "timeout"          # the per-query deadline expired
    CANCELLED = "cancelled"      # an explicit cancel hit the query
    SHUTDOWN = "shutdown"        # the server is stopping
    INTERNAL = "internal"        # unexpected server-side failure
    CONNECTION = "connection"    # transport lost after client retries


#: HTTP-style status for each code (503 = back-pressure, retry later).
ERROR_STATUS = {
    ErrorCode.BAD_REQUEST: 400,
    ErrorCode.QUERY: 400,
    ErrorCode.BUSY: 503,
    ErrorCode.TIMEOUT: 408,
    ErrorCode.CANCELLED: 499,
    ErrorCode.SHUTDOWN: 503,
    ErrorCode.INTERNAL: 500,
    ErrorCode.CONNECTION: 503,
}


class ServerError(ModelarError):
    """A structured error returned by (or raised inside) the server."""

    code = ErrorCode.INTERNAL

    def __init__(self, message: str, code: str | None = None) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code

    @property
    def status(self) -> int:
        return ERROR_STATUS.get(self.code, 500)


class BusyError(ServerError):
    """Admission control fast-failed the request (503-style)."""

    code = ErrorCode.BUSY


class DeadlineError(ServerError):
    """The query's deadline expired before it finished."""

    code = ErrorCode.TIMEOUT


class CancelledError(ServerError):
    """The query was cancelled via the ``cancel`` op."""

    code = ErrorCode.CANCELLED


class RemoteQueryError(ServerError):
    """The SQL statement itself was rejected by the engine."""

    code = ErrorCode.QUERY


class BadRequestError(ServerError):
    """The frame was not a valid request."""

    code = ErrorCode.BAD_REQUEST


class ConnectionLostError(ServerError):
    """The transport failed and client-side retries were exhausted.

    Raised *client-side* by :class:`~repro.server.client.ServerClient`
    (never sent on the wire): a dropped connection surfaces as a typed,
    error-coded failure the load generator can tally under
    ``errors_by_code`` instead of a raw :class:`OSError` crashing the
    client loop. 503-style: the request may simply be retried later.
    """

    code = ErrorCode.CONNECTION


#: Client-side mapping from a received error code to the exception
#: raised by :class:`~repro.server.client.ServerClient`.
ERROR_CLASSES = {
    ErrorCode.BUSY: BusyError,
    ErrorCode.TIMEOUT: DeadlineError,
    ErrorCode.CANCELLED: CancelledError,
    ErrorCode.QUERY: RemoteQueryError,
    ErrorCode.BAD_REQUEST: BadRequestError,
    ErrorCode.SHUTDOWN: BusyError,
    ErrorCode.INTERNAL: ServerError,
    ErrorCode.CONNECTION: ConnectionLostError,
}


def raise_for_error(payload: dict[str, Any]) -> None:
    """Raise the matching :class:`ServerError` for an error response."""
    if payload.get("ok", False):
        return
    error = payload.get("error") or {}
    code = error.get("code", ErrorCode.INTERNAL)
    message = error.get("message", "unknown server error")
    raise ERROR_CLASSES.get(code, ServerError)(message, code=code)


def error_response(code: str, message: str) -> dict[str, Any]:
    """A structured error frame for ``code``."""
    return {
        "ok": False,
        "error": {
            "code": code,
            "status": ERROR_STATUS.get(code, 500),
            "message": message,
        },
    }


# ----------------------------------------------------------------------
# Frame encoding
# ----------------------------------------------------------------------
def _json_default(value: Any) -> Any:
    """Serialise a :class:`CachedResult` as its rows (filled once) and
    numpy scalars (engine rows may carry them) by value."""
    if isinstance(value, CachedResult):
        return value.rows
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(
        f"object of type {type(value).__name__} is not JSON serialisable"
    )


def encode_frame(payload: dict[str, Any]) -> bytes:
    """Length-prefix and serialise one JSON payload."""
    body = json.dumps(
        payload, separators=(",", ":"), default=_json_default
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ServerError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} limit"
        )
    return HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> dict[str, Any]:
    """Parse a frame body (JSON or columnar); raises
    :class:`BadRequestError` on junk."""
    if body.startswith(COLUMNAR_MAGIC):
        return _decode_columnar_body(body)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequestError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise BadRequestError("frame must be a JSON object")
    return payload


# ----------------------------------------------------------------------
# Columnar response encoding
# ----------------------------------------------------------------------
def negotiated_wire(request: dict[str, Any]) -> str:
    """The response wire format a request asked for (default JSON)."""
    accept = request.get("accept")
    if isinstance(accept, str):
        accept = (accept,)
    if isinstance(accept, (list, tuple)) and WIRE_COLUMNAR in accept:
        return WIRE_COLUMNAR
    return WIRE_JSON


def _column_encoding(values: list[Any] | np.ndarray) -> str:
    """The tightest wire encoding holding every value of one column; an
    int64 or float64 array's own type, with no pass over its values."""
    if isinstance(values, np.ndarray):
        return "i8" if values.dtype.kind == "i" else "f8"
    types = {type(value) for value in values}
    if types == {int}:
        # int64 covers every timestamp/Tid the engine produces; anything
        # wider falls back to exact JSON integers.
        if all(-(2 ** 63) <= value < 2 ** 63 for value in values):
            return "i8"
        return "json"
    if types == {float}:
        return "f8"
    return "json"


def encode_columns(
    rows: list[dict[str, Any]] | ResultColumns,
) -> tuple[list[dict[str, Any]], list[bytes]] | None:
    """Column descriptors and payload buffers for a rectangular result.

    :class:`~repro.query.columnar.ResultColumns` are written as they
    are. A row list is turned into columns first; None when its rows
    do not form a rectangle (some row is not a dict, or key order
    differs) — the caller falls back to JSON.
    """
    if not len(rows):
        return [], []
    if isinstance(rows, ResultColumns):
        names, values = rows.names, rows.columns
    else:
        names = tuple(rows[0]) if isinstance(rows[0], dict) else ()
        if any(not isinstance(row, dict) or tuple(row) != names for row in rows):
            return None
        values = tuple([row[name] for row in rows] for name in names)
    columns: list[dict[str, Any]] = []
    buffers: list[bytes] = []
    for name, column in zip(names, values):
        encoding = _column_encoding(column)
        if encoding == "json":
            buffer = json.dumps(
                column, separators=(",", ":"), default=_json_default
            ).encode("utf-8")
        else:
            buffer = np.asarray(column, dtype=f"<{encoding}").tobytes()
        columns.append(
            {"name": name, "enc": encoding, "nbytes": len(buffer)}
        )
        buffers.append(buffer)
    return columns, buffers


def encode_columnar_frame(payload: dict[str, Any]) -> bytes | None:
    """Length-prefix and columnar-encode one response, if possible.

    Returns None when the payload has no rectangular ``rows`` list or
    the encoded body would exceed the frame limit; the caller falls
    back to :func:`encode_frame`. When ``rows`` is a
    :class:`~repro.server.result_cache.CachedResult` its result is
    encoded (columns straight from their arrays) and the buffers are
    memoised on it, so a result-cache hit re-serialises to the exact
    same bytes without re-encoding.
    """
    rows = payload.get("rows")
    if isinstance(rows, CachedResult):
        if rows.columnar_columns is None:
            rows.columnar_columns = encode_columns(rows.result)
        encoded = rows.columnar_columns
    elif isinstance(rows, list):
        encoded = encode_columns(rows)
    else:
        return None
    if encoded is None:
        return None
    columns, buffers = encoded
    meta = {key: value for key, value in payload.items() if key != "rows"}
    header = json.dumps(
        {"meta": meta, "n_rows": len(rows), "columns": columns},
        separators=(",", ":"),
        default=_json_default,
    ).encode("utf-8")
    body = b"".join(
        (COLUMNAR_MAGIC, HEADER.pack(len(header)), header, *buffers)
    )
    if len(body) > MAX_FRAME_BYTES:
        return None
    return HEADER.pack(len(body)) + body


def _decode_columnar_body(body: bytes) -> dict[str, Any]:
    """Decode a columnar body back into the response dict."""
    try:
        offset = len(COLUMNAR_MAGIC)
        (header_length,) = HEADER.unpack_from(body, offset)
        offset += HEADER.size
        header = json.loads(body[offset:offset + header_length].decode())
        offset += header_length
        n_rows = header["n_rows"]
        names = []
        column_values = []
        for column in header["columns"]:
            nbytes = column["nbytes"]
            buffer = body[offset:offset + nbytes]
            if len(buffer) != nbytes:
                raise ValueError("truncated column buffer")
            offset += nbytes
            encoding = column["enc"]
            if encoding == "i8":
                values = np.frombuffer(buffer, dtype="<i8").tolist()
            elif encoding == "f8":
                values = np.frombuffer(buffer, dtype="<f8").tolist()
            elif encoding == "json":
                values = json.loads(buffer.decode("utf-8"))
            else:
                raise ValueError(f"unknown column encoding {encoding!r}")
            if len(values) != n_rows:
                raise ValueError("column length disagrees with n_rows")
            names.append(column["name"])
            column_values.append(values)
        payload = dict(header["meta"])
        payload["rows"] = fill_rows(names, column_values, n_rows)
        return payload
    except (KeyError, TypeError, ValueError, AttributeError,
            UnicodeDecodeError, json.JSONDecodeError, struct.error) as exc:
        raise BadRequestError(f"malformed columnar frame: {exc}") from exc


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame from an asyncio stream; None on clean EOF."""
    try:
        header = await reader.readexactly(HEADER.size)
    except (EOFError, ConnectionError, OSError):
        # asyncio.IncompleteReadError subclasses EOFError: a peer that
        # disconnects mid-header is treated as a clean EOF.
        return None
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise BadRequestError(f"frame length {length} exceeds the limit")
    body = await reader.readexactly(length)
    return decode_body(body)


async def write_frame(
    writer: asyncio.StreamWriter,
    payload: dict[str, Any],
    wire: str = WIRE_JSON,
) -> str:
    """Write one frame to an asyncio stream and drain.

    ``wire`` is the *requested* response format; returns the format
    actually used (columnar falls back to JSON for non-rectangular
    payloads, so the caller can count real columnar responses).
    """
    frame = None
    used = WIRE_JSON
    if wire == WIRE_COLUMNAR:
        frame = encode_columnar_frame(payload)
        if frame is not None:
            used = WIRE_COLUMNAR
    if frame is None:
        frame = encode_frame(payload)
    writer.write(frame)
    await writer.drain()
    return used


# ----------------------------------------------------------------------
# Blocking (client-side) frame I/O
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket | BinaryIO, payload: dict[str, Any]) -> None:
    """Blocking send of one frame over a socket or binary file."""
    data = encode_frame(payload)
    if isinstance(sock, socket.socket):
        sock.sendall(data)
    else:
        sock.write(data)
        sock.flush()


def _recv_exactly(sock: socket.socket, length: int) -> bytes | None:
    chunks = []
    remaining = length
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Blocking receive of one frame; None on clean EOF."""
    header = _recv_exactly(sock, HEADER.size)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise BadRequestError(f"frame length {length} exceeds the limit")
    body = _recv_exactly(sock, length)
    if body is None:
        return None
    return decode_body(body)
