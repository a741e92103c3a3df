"""Both wires serve a column result byte for byte as its rows.

The server writes a Data Point View selection's RCF1 frame straight
from the engine's arrays and fills row dicts once for the JSON wire.
Either frame must equal, byte for byte, the frame of the materialised
rows, on a result-cache hit as on the first answer, and concurrent
clients must all decode the same rows. The client fills decoded rows a
column at a time; that must equal the per-cell dict build it replaced.
"""

from __future__ import annotations

import math
import struct
import threading

import pytest

from repro.query.columnar import ResultColumns, as_rows
from repro.server import EmbeddedDispatcher, QueryServer, ServerClient, ServerThread
from repro.server.protocol import (
    HEADER,
    decode_body,
    encode_columnar_frame,
    encode_frame,
)
from repro.server.result_cache import CachedResult

from .test_columnar_equivalence import build_fold_db
from .test_selection_columns import corpus


@pytest.fixture(scope="module")
def store():
    db, mark, timestamps = build_fold_db(1, 5.0)
    return db, corpus(db, mark, timestamps)


def payload(rows):
    return {"ok": True, "rows": rows, "elapsed": 0.125, "cached": False}


def bit_pattern(rows):
    """Rows as comparable (key, type, bits) tuples."""
    return [
        [
            (key, type(value), struct.pack("<d", value))
            if isinstance(value, float)
            else (key, type(value), value)
            for key, value in row.items()
        ]
        for row in rows
    ]


class TestFramesFromColumns:
    def test_both_wires_match_the_materialised_rows(self, store):
        db, statements = store
        for sql in statements:
            result = db.engine.run(sql)
            assert isinstance(result, ResultColumns), sql
            rows = as_rows(db.engine.run(sql))
            cached = CachedResult(result)
            columnar = encode_columnar_frame(payload(cached))
            assert columnar == encode_columnar_frame(payload(rows)), sql
            assert encode_frame(payload(cached)) == encode_frame(payload(rows)), sql
            decoded = decode_body(columnar[HEADER.size:])["rows"]
            assert bit_pattern(decoded) == bit_pattern(rows), sql

    def test_cache_hits_serve_identical_bytes(self, store):
        db, statements = store
        dispatcher = EmbeddedDispatcher.for_db(db)
        for sql in statements:
            first, hit = dispatcher.execute(sql)
            assert not hit and isinstance(first, CachedResult)
            frames = (
                encode_columnar_frame(payload(first)),
                encode_frame(payload(first)),
            )
            again, hit = dispatcher.execute(sql)
            assert hit and again is first
            assert first.columnar_columns is not None
            assert encode_columnar_frame(payload(again)) == frames[0], sql
            assert encode_frame(payload(again)) == frames[1], sql
            assert list(again) == db.query(sql)

    def test_concurrent_clients_get_equal_rows(self, store):
        db, statements = store
        expected = {sql: db.query(sql) for sql in statements}
        server = QueryServer(EmbeddedDispatcher.for_db(db))
        thread = ServerThread(server)
        host, port = thread.start()
        failures: list[str] = []

        def client(index):
            with ServerClient(host, port, columnar=index % 2 == 0) as conn:
                for _ in range(2):
                    for sql in statements[index:] + statements[:index]:
                        got = conn.query(sql)
                        if bit_pattern(got) != bit_pattern(expected[sql]):
                            failures.append(f"client {index}: {sql}")

        try:
            workers = [
                threading.Thread(target=client, args=(index,))
                for index in range(4)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            thread.stop()
        assert failures == []


class TestClientDecode:
    def test_large_frame_decodes_like_the_per_cell_build(self):
        n = 70_000
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
        rows = [
            {
                "Tid": index % 11,
                "TS": 1_600_000_000_000 + index * 100,
                "Value": specials[index % 7] if index % 7 < 5 else index * 0.1,
                "Park": None if index % 13 == 0 else f"p{index % 3}",
            }
            for index in range(n)
        ]
        frame = encode_columnar_frame({"ok": True, "rows": rows})
        decoded = decode_body(frame[HEADER.size:])["rows"]
        # The comprehension the column fill replaced.
        names = list(rows[0])
        columns = [[row[name] for row in rows] for name in names]
        reference = [
            {name: columns[index][position] for index, name in enumerate(names)}
            for position in range(n)
        ]
        assert len(decoded) == n
        assert bit_pattern(decoded) == bit_pattern(reference)
        assert bit_pattern(decoded) == bit_pattern(rows)
