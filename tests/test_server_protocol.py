"""Unit tests for the serving wire protocol and its support pieces."""

from __future__ import annotations

import io
import struct

import numpy as np
import pytest

from repro.obs import Histogram
from repro.server import normalize_sql
from repro.server.metrics import ServerCounters
from repro.server.protocol import (
    BadRequestError,
    BusyError,
    CancelledError,
    DeadlineError,
    ErrorCode,
    RemoteQueryError,
    decode_body,
    encode_frame,
    error_response,
    raise_for_error,
    recv_frame,
    send_frame,
)
from repro.server.result_cache import QueryResultCache


class _SocketStub:
    """Duck-typed socket over BytesIO for the blocking frame codecs.

    ``recv`` mimics a stream socket (short reads allowed, b'' on EOF);
    ``write``/``flush`` satisfy ``send_frame``'s binary-file branch.
    """

    def __init__(self, incoming: bytes = b"") -> None:
        self._reader = io.BytesIO(incoming)
        self.sent = io.BytesIO()

    def write(self, data: bytes) -> int:
        return self.sent.write(data)

    def flush(self) -> None:
        pass

    def recv(self, size: int) -> bytes:
        return self._reader.read(min(size, 3))  # force short reads


class TestFraming:
    def test_round_trip(self):
        payload = {"op": "query", "sql": "SELECT 1", "n": 7, "ok": True}
        frame = encode_frame(payload)
        length = struct.unpack(">I", frame[:4])[0]
        assert length == len(frame) - 4
        assert decode_body(frame[4:]) == payload

    def test_numpy_scalars_serialise(self):
        payload = {
            "f32": np.float32(1.5),
            "i64": np.int64(9),
            "rows": [{"v": np.float64(0.25)}],
        }
        decoded = decode_body(encode_frame(payload)[4:])
        assert decoded == {"f32": 1.5, "i64": 9, "rows": [{"v": 0.25}]}
        assert isinstance(decoded["f32"], float)
        assert isinstance(decoded["i64"], int)

    def test_sync_send_recv_round_trip(self):
        out = _SocketStub()
        send_frame(out, {"op": "ping"})
        back = _SocketStub(out.sent.getvalue())
        assert recv_frame(back) == {"op": "ping"}

    def test_recv_on_closed_socket_returns_none(self):
        assert recv_frame(_SocketStub(b"")) is None

    def test_truncated_body_reads_as_eof(self):
        frame = encode_frame({"op": "ping"})
        assert recv_frame(_SocketStub(frame[:-2])) is None

    def test_oversized_frame_rejected(self):
        header = struct.pack(">I", 1 << 31)
        with pytest.raises(BadRequestError):
            recv_frame(_SocketStub(header))

    def test_non_json_body_rejected(self):
        body = b"\xff\xfenot json"
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(BadRequestError):
            recv_frame(_SocketStub(frame))


class TestErrorModel:
    def test_error_response_shape(self):
        payload = error_response(ErrorCode.BUSY, "try later")
        assert payload == {
            "ok": False,
            "error": {"code": "busy", "status": 503, "message": "try later"},
        }

    @pytest.mark.parametrize(
        "code,expected",
        [
            (ErrorCode.BUSY, BusyError),
            (ErrorCode.TIMEOUT, DeadlineError),
            (ErrorCode.CANCELLED, CancelledError),
            (ErrorCode.QUERY, RemoteQueryError),
            (ErrorCode.BAD_REQUEST, BadRequestError),
        ],
    )
    def test_raise_for_error_maps_codes(self, code, expected):
        with pytest.raises(expected):
            raise_for_error(error_response(code, "boom"))

    def test_raise_for_error_passes_success(self):
        assert raise_for_error({"ok": True, "rows": []}) is None


class TestNormalizeSql:
    def test_collapses_whitespace_and_case(self):
        assert (
            normalize_sql("select  count_s(*)\n FROM   segment ")
            == "SELECT COUNT_S(*) FROM SEGMENT"
        )

    def test_string_literals_stay_verbatim(self):
        a = normalize_sql("SELECT SUM_S(*) FROM Segment WHERE Park = 'aal'")
        b = normalize_sql("SELECT SUM_S(*) FROM Segment WHERE Park = 'AAL'")
        assert a != b
        assert "'aal'" in a and "'AAL'" in b

    def test_whitespace_inside_literal_preserved(self):
        key = normalize_sql("SELECT x FROM t WHERE n = 'a  b'")
        assert "'a  b'" in key

    def test_distinct_statements_stay_distinct(self):
        assert normalize_sql("SELECT MIN_S(*) FROM Segment") != normalize_sql(
            "SELECT MAX_S(*) FROM Segment"
        )


class TestResultCacheUnit:
    def test_lru_eviction(self):
        cache = QueryResultCache(capacity=2)
        for n, sql in enumerate(("A", "B", "C")):
            cache.put(sql, [{"n": n}], cache.generation)
        assert cache.get("A") is None  # evicted, oldest
        assert cache.get("C") == [{"n": 2}]
        assert len(cache) == 2

    def test_stale_generation_not_cached(self):
        cache = QueryResultCache()
        generation = cache.generation
        cache.invalidate()  # a flush raced with the query
        cache.put("SELECT 1", [{"v": 1}], generation)
        assert cache.get("SELECT 1") is None

    def test_invalidate_clears_and_counts(self):
        cache = QueryResultCache()
        cache.put("SELECT 1", [{"v": 1}], cache.generation)
        cache.invalidate()
        assert cache.get("SELECT 1") is None
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["invalidations"] == 1
        assert stats["generation"] == 1

    def test_zero_capacity_never_stores(self):
        cache = QueryResultCache(capacity=0)
        cache.put("SELECT 1", [{"v": 1}], cache.generation)
        assert cache.get("SELECT 1") is None


class TestMetrics:
    def test_histogram_quantiles_bracket_samples(self):
        histogram = Histogram()
        for ms in (1, 2, 3, 4, 5, 6, 7, 8, 9, 100):
            histogram.record(ms / 1000.0)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 10
        assert snapshot["min_ms"] <= 1.0 + 1e-6
        assert snapshot["max_ms"] >= 100.0 - 1e-6
        # Geometric buckets: quantiles are approximate but must be
        # ordered and in the right decade.
        assert snapshot["p50_ms"] <= snapshot["p95_ms"] <= snapshot["p99_ms"]
        assert 2.0 < snapshot["p50_ms"] < 20.0
        assert snapshot["p99_ms"] > 50.0

    def test_empty_histogram_snapshot(self):
        snapshot = Histogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p50_ms"] == 0.0

    def test_counters_bump_and_snapshot(self):
        counters = ServerCounters()
        counters.bump("requests")
        counters.bump("requests")
        counters.bump("accepted")
        snapshot = counters.snapshot()
        assert snapshot["requests"] == 2
        assert snapshot["accepted"] == 1
        assert snapshot["rejected_busy"] == 0
