"""Scalar-vs-batch equivalence: the columnar path must be bit-identical.

The vectorized ``ModelFitter.extend`` kernels (PMC-Mean, Swing, Gorilla)
and the chunked columnar ingestion buffers promise the *same bytes* as
the scalar ``append`` loop — same accepted prefix lengths, byte-identical
parameters, identical stored segments. These tests check that promise at
the fitter level (randomized value streams, every model type, the
evaluation's error bounds, arbitrary chunkings) and end to end (EP/EH
synthetics ingested with chunked vs per-tick buffers must land the same
Segment table).

Uses hypothesis when installed; otherwise the same properties run over
seeded pseudo-random streams so the suite stays meaningful without the
dependency.
"""

import random

import numpy as np
import pytest

from repro import Configuration, MemoryStorage, ModelarDB, TimeSeries
from repro.core.group import TimeSeriesGroup
from repro.datasets import generate_ep
from repro.datasets.eh import generate_eh
from repro.datasets.ep import EP_CORRELATION
from repro.models.gorilla import GorillaFitter
from repro.models.pmc_mean import PMCMeanFitter
from repro.models.swing import SwingFitter
from repro.storage import SegmentScan

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

FITTERS = {
    "pmc": PMCMeanFitter,
    "swing": SwingFitter,
    "gorilla": GorillaFitter,
}
ERROR_BOUNDS = (0.0, 1.0, 5.0, 10.0)


def make_values(rng: random.Random, n_ticks: int, n_columns: int):
    """A value stream mixing the regimes the cascade discriminates on:
    constant holds, linear ramps and rough noise, with occasional
    near-duplicate columns (the correlated-group case)."""
    base = rng.uniform(-50, 50)
    matrix = np.empty((n_ticks, n_columns))
    i = 0
    while i < n_ticks:
        run = min(n_ticks - i, rng.randint(1, 12))
        kind = rng.random()
        if kind < 0.4:  # hold
            matrix[i:i + run] = base
        elif kind < 0.8:  # ramp
            slope = rng.uniform(-1, 1)
            matrix[i:i + run] = (
                base + slope * np.arange(run)
            )[:, np.newaxis]
            base = matrix[i + run - 1, 0]
        else:  # noise
            matrix[i:i + run] = base + np.array(
                [
                    [rng.uniform(-5, 5) for _ in range(n_columns)]
                    for _ in range(run)
                ]
            )
        i += run
    jitter = np.array(
        [
            [rng.uniform(-0.01, 0.01) for _ in range(n_columns)]
            for _ in range(n_ticks)
        ]
    )
    return np.float64(np.float32(matrix + jitter))


def random_chunks(rng: random.Random, total: int) -> list[int]:
    sizes = []
    left = total
    while left > 0:
        size = min(left, rng.randint(1, max(1, total // 2)))
        sizes.append(size)
        left -= size
    return sizes


def check_fitter_equivalence(model_key, bound, length_limit, seed):
    """Same stream via scalar appends and via random extend blocks must
    accept identical prefixes and encode identical parameter bytes."""
    rng = random.Random(seed)
    n_columns = rng.choice((1, 2, 8))
    n_ticks = rng.randint(1, 120)
    matrix = make_values(rng, n_ticks, n_columns)
    fitter_cls = FITTERS[model_key]

    scalar = fitter_cls(n_columns, bound, length_limit)
    accepted_scalar = 0
    for row in matrix.tolist():
        if not scalar.append(row):
            break
        accepted_scalar += 1

    batch = fitter_cls(n_columns, bound, length_limit)
    accepted_batch = 0
    offset = 0
    for size in random_chunks(rng, n_ticks):
        taken = batch.extend(None, matrix[offset:offset + size])
        accepted_batch += taken
        offset += size
        if taken < size:
            break

    assert accepted_batch == accepted_scalar
    assert batch.length == scalar.length
    if accepted_scalar:
        assert batch.parameters() == scalar.parameters()


@pytest.mark.parametrize("model_key", sorted(FITTERS))
@pytest.mark.parametrize("bound", ERROR_BOUNDS)
def test_fitter_equivalence_seeded(model_key, bound):
    for seed in range(25):
        for length_limit in (1, 3, 50):
            check_fitter_equivalence(model_key, bound, length_limit, seed)


if HAVE_HYPOTHESIS:

    # 150 examples under the default profile, ten times that nightly.
    @settings(max_examples=settings.default.max_examples * 3 // 2, deadline=None)
    @given(
        model_key=st.sampled_from(sorted(FITTERS)),
        bound=st.sampled_from(ERROR_BOUNDS),
        length_limit=st.sampled_from((1, 3, 50)),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_fitter_equivalence_hypothesis(
        model_key, bound, length_limit, seed
    ):
        check_fitter_equivalence(model_key, bound, length_limit, seed)


# ----------------------------------------------------------------------
# End to end: chunked columnar ingestion lands the same Segment table
# ----------------------------------------------------------------------
def store_signature(db: ModelarDB):
    """Every stored segment as comparable bytes-level tuples."""
    return sorted(
        (
            s.gid,
            s.start_time,
            s.end_time,
            s.sampling_interval,
            s.mid,
            bytes(s.parameters),
            tuple(sorted(s.gaps)),
        )
        for s in db.storage.scan(SegmentScan())
    )


def ingest_dataset(dataset, correlation, bound, chunk_size):
    config = Configuration(
        error_bound=bound,
        correlation=correlation,
        ingest_chunk_size=chunk_size,
    )
    db = ModelarDB(
        config, storage=MemoryStorage(), dimensions=dataset.dimensions
    )
    db.ingest(dataset.series)
    return db


@pytest.mark.parametrize("bound", (0.0, 5.0))
@pytest.mark.parametrize("chunk_size", (7, 1024))
def test_ep_batch_ingest_is_bit_identical(bound, chunk_size):
    dataset = generate_ep(
        n_entities=3,
        measures_per_entity=2,
        n_points=600,
        seed=11,
        gap_probability=0.01,
    )
    scalar = ingest_dataset(dataset, EP_CORRELATION, bound, chunk_size=1)
    batch = ingest_dataset(dataset, EP_CORRELATION, bound, chunk_size)
    assert store_signature(batch) == store_signature(scalar)
    assert batch.stats.data_points == scalar.stats.data_points


@pytest.mark.parametrize("bound", (0.0, 5.0))
def test_eh_batch_ingest_is_bit_identical(bound):
    dataset = generate_eh(
        n_parks=2,
        entities_per_park=2,
        n_points=500,
        seed=13,
        gap_probability=0.01,
    )
    correlation = dataset.correlation()
    scalar = ingest_dataset(dataset, correlation, bound, chunk_size=1)
    batch = ingest_dataset(dataset, correlation, bound, chunk_size=1024)
    assert store_signature(batch) == store_signature(scalar)


# ----------------------------------------------------------------------
# Facade: open/context-manager, unified ingest, deprecation shim
# ----------------------------------------------------------------------
def simple_series(tid=1, n=200):
    values = np.float32(np.sin(np.arange(n) / 25.0) + tid)
    return TimeSeries(tid, 100, np.arange(n, dtype=np.int64) * 100, values)


class TestFacade:
    def test_open_defaults_to_memory(self):
        with ModelarDB.open(config=Configuration(error_bound=1.0)) as db:
            db.ingest([simple_series()])
            assert db.segment_count() > 0
            assert isinstance(db.storage, MemoryStorage)
        assert db.storage.closed

    def test_open_path_persists_and_reopens(self, tmp_path):
        with ModelarDB.open(
            tmp_path / "db", config=Configuration(error_bound=1.0)
        ) as db:
            db.ingest([simple_series()])
            expected = db.segment_count()
        with ModelarDB.open(tmp_path / "db") as reopened:
            assert reopened.segment_count() == expected

    def test_ingest_accepts_prebuilt_groups(self):
        db = ModelarDB.open(config=Configuration(error_bound=1.0))
        group = TimeSeriesGroup(1, [simple_series(1), simple_series(2)])
        stats = db.ingest([group])
        assert stats.data_points > 0
        assert db.groups == [group]

    def test_ingest_rejects_mixed_input(self):
        db = ModelarDB.open()
        with pytest.raises(TypeError, match="not a mix"):
            db.ingest(
                [simple_series(1), TimeSeriesGroup(2, [simple_series(2)])]
            )
