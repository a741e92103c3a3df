"""The decoded-model memo: decode once, keep across scans and flushes.

Constant-time models (PMC-Mean, Swing) are pinned on their resident
segment and never enter the LRU; bit-stream models (Gorilla) live in
the LRU, whose capacity therefore counts expensive decodes only; and an
ingestion flush drops neither.
"""

import pickle
from collections import Counter

import numpy as np
import pytest

from repro import Configuration, ModelarDB
from repro.core.group import TimeSeriesGroup
from repro.query.engine import QueryEngine
from repro.storage import SegmentScan

from .conftest import make_series

CAPACITY = 16
FULL_SCAN = "SELECT Tid, SUM_S(*), MIN_S(*), MAX_S(*) FROM Segment GROUP BY Tid"


def series_mix(first_tid, seed):
    """Steps (PMC-Mean), ramps (Swing) and a little noise (Gorilla),
    each series a group of its own (Gid = Tid)."""
    rng = np.random.default_rng(seed)
    steps = np.repeat(rng.integers(1, 50, 40), 10).astype(float)
    ramps = np.concatenate(
        [start + slope * np.arange(10.0) for start, slope in
         zip(rng.integers(0, 99, 40), rng.integers(1, 9, 40))]
    )
    noise = rng.normal(100.0, 20.0, 60)
    return [
        TimeSeriesGroup(tid, [make_series(tid, values)])
        for tid, values in enumerate(
            (steps.tolist(), ramps.tolist(), np.float32(noise).tolist()),
            start=first_tid,
        )
    ]


@pytest.fixture()
def store():
    """A lossless store, an engine with a small LRU wired to the flush
    hook the way ``ModelarDB`` wires its own, and a per-model count of
    ``ModelType.decode`` calls."""
    db = ModelarDB(Configuration(error_bound=0.0, model_length_limit=10))
    db.ingest(series_mix(1, seed=1))
    engine = QueryEngine(db.storage, db.registry, cache_capacity=CAPACITY)
    db.add_flush_listener(engine.invalidate_caches)
    decodes: Counter = Counter()
    for name in db.registry.names():
        model_type = db.registry.by_name(name)

        def counting(*args, _decode=model_type.decode, _name=name):
            decodes[_name] += 1
            return _decode(*args)

        model_type.decode = counting
    return db, engine, decodes


def test_second_scan_decodes_nothing_even_across_a_flush(store):
    db, engine, decodes = store
    engine.sql(FULL_SCAN)
    first = dict(decodes)
    # The store does not fit the LRU; its Gorilla segments alone do.
    assert sum(first.values()) > CAPACITY >= first["Gorilla"] > 0
    assert first["PMC"] > 0 and first["Swing"] > 0
    assert engine.segment_cache.stats()["entries"] == first["Gorilla"]

    rows = engine.sql(FULL_SCAN)
    assert dict(decodes) == first
    assert engine.segment_cache.misses == sum(first.values())
    assert engine.segment_cache.hits == sum(first.values())

    stored = db.storage.segment_count()
    db.ingest(series_mix(11, seed=2))  # a flush in between
    assert engine.segment_cache.generation == 0
    flushed = engine.sql(FULL_SCAN)
    assert [row for row in flushed if row["Tid"] < 11] == rows
    after_flush = dict(decodes)
    # Only the newly written rows were decoded after the flush.
    written = db.storage.segment_count() - stored
    assert 0 < sum(after_flush.values()) - sum(first.values()) <= written
    engine.sql(FULL_SCAN)
    assert dict(decodes) == after_flush


def test_identical_parameters_share_a_model_across_a_flush(store):
    db, engine, decodes = store
    cache = engine.segment_cache
    noisy = series_mix(1, seed=1)[2]
    before = list(db.storage.scan(SegmentScan(gids=(noisy.gid,))))
    models = [cache.model_of(segment) for segment in before]
    assert decodes == {"Gorilla": len(before)}
    # The same values under a new Tid: a flush, then equal parameters.
    (series,) = noisy
    db.ingest([TimeSeriesGroup(21, [make_series(21, list(series.values))])])
    after = list(db.storage.scan(SegmentScan(gids=(21,))))
    assert [s.parameters for s in after] == [s.parameters for s in before]
    assert all(
        cache.model_of(twin) is model for twin, model in zip(after, models)
    )
    assert decodes == {"Gorilla": len(before)}


def test_pinned_models_stay_off_the_wire(store):
    db, engine, _ = store
    engine.sql(FULL_SCAN)
    pinned = [
        s for s in db.storage.scan(SegmentScan()) if "_model" in s.__dict__
    ]
    assert pinned
    for segment in pinned:
        assert segment.__dict__["_model"].constant_time_aggregates
        shipped = pickle.loads(pickle.dumps(segment))
        assert shipped == segment
        assert set(shipped.__dict__) == set(segment.__dataclass_fields__)
