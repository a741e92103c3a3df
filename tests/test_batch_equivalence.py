"""Row-vs-block equivalence: the columnar path must be bit-identical.

The vectorized ``ModelFitter.extend`` kernels (PMC-Mean, Swing, Gorilla
and Multi over each) and the chunked columnar ingestion buffers promise
the *same bytes* as the per-row reference kernels of
``tests/model_oracle.py`` — same accepted prefix lengths, byte-identical
parameters, identical stored segments. These tests check that promise at
the fitter level (randomized value streams, every model type, the
evaluation's error bounds, arbitrary chunkings) and end to end (EP/EH
synthetics ingested in blocks must land the Segment table of the
per-tick write oracle, ``tests/write_oracle.py``). A batched
``extend_many`` call must leave every fitter as ``extend`` over its
block alone leaves it.

Uses hypothesis when installed; otherwise the same properties run over
seeded pseudo-random streams so the suite stays meaningful without the
dependency.
"""

import copy
import random
import runpy
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro import Configuration, MemoryStorage, ModelarDB, TimeSeries
from repro.core.group import TimeSeriesGroup
from repro.datasets import generate_ep
from repro.datasets.eh import generate_eh
from repro.datasets.ep import EP_CORRELATION
from repro.models.gorilla import Gorilla
from repro.models.multi import MultiModel
from repro.models.pmc_mean import PMCMean
from repro.models.swing import Swing
from repro.storage import SegmentScan

from . import write_oracle
from .model_oracle import ReferenceType

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

FITTERS = {
    "pmc": PMCMean(),
    "swing": Swing(),
    "gorilla": Gorilla(),
    # Multi's rollback when one column rejects a row another accepted
    # (Fig. 9, case III) must not depend on where the blocks are cut.
    "multi-pmc": MultiModel(PMCMean()),
    "multi-swing": MultiModel(Swing()),
    "multi-gorilla": MultiModel(Gorilla()),
}
ERROR_BOUNDS = (0.0, 1.0, 5.0, 10.0)
EXAMPLE = Path(__file__).parents[1] / "examples" / "custom_model.py"


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
    """Same stream via the per-row reference kernel and via random extend
    blocks must accept identical prefixes and encode identical parameter
    bytes."""
    rng = random.Random(seed)
    n_columns = rng.choice((1, 2, 8))
    n_ticks = rng.randint(1, 120)
    matrix = make_values(rng, n_ticks, n_columns)
    model_type = FITTERS[model_key]

    scalar = ReferenceType(model_type).fitter(n_columns, bound, length_limit)
    accepted_scalar = scalar.extend(None, matrix)

    batch = model_type.fitter(n_columns, bound, length_limit)
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


def test_swing_anchor_keeps_the_reference_signed_zero():
    """At a 150 % bound the anchor is clamped to the first row's lower
    bound, which is 0.0 or -0.0 depending on which of the equal bounds
    the reduction keeps (``np.max`` keeps -0.0 here); the stored bytes
    must be the per-row kernel's."""
    rows = np.array([[0.0, -0.0, -1.0]] * 3)
    reference = ReferenceType(Swing()).fitter(3, 150.0, 50)
    assert reference.extend(None, rows) == 3
    fitter = Swing().fitter(3, 150.0, 50)
    assert fitter.extend(None, rows) == 3
    assert fitter.parameters() == reference.parameters()


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
# The batched kernel: one extend_many call leaves every fitter as extend
# over its block alone leaves it
# ----------------------------------------------------------------------
#: float32 subnormals and signed zeros, mixed into the value streams.
SPECIAL_VALUES = (0.0, -0.0, float(np.float32(1e-40)), float(-np.float32(3e-42)))


def batch_request(rng: random.Random, model_type):
    """A fitter with seeded running bounds (or none) and the block it is
    offered next, plus the rows that follow it. Capacity may be short of
    the block, or gone."""
    width = rng.randint(1, 5)
    limit = rng.choice((1, 2, 3, 20, 50, 60))
    fitter = model_type.fitter(width, rng.choice(ERROR_BOUNDS), limit)
    seeded = rng.choice((0, 0, 1, rng.randint(2, 40)))
    window = rng.randint(1, 52)
    matrix = make_values(rng, seeded + window + 10, width)
    for _ in range(rng.choice((0, 0, 3))):  # subnormals and signed zeros
        row, column = rng.randrange(len(matrix)), rng.randrange(width)
        matrix[row, column] = rng.choice(SPECIAL_VALUES)
    if rng.random() < 0.1:  # a whole window of them
        matrix[seeded:] = rng.choice(SPECIAL_VALUES)
    fitter.extend(None, matrix[:seeded])
    return fitter, matrix[seeded:seeded + window], matrix[seeded + window:]


def assert_same_fitter(batched, alone):
    assert batched.length == alone.length
    if alone.length:
        assert batched.parameters() == alone.parameters()


def check_batch_equivalence(model_type, seed):
    rng = random.Random(seed)
    requests = [batch_request(rng, model_type) for _ in range(rng.randint(1, 12))]
    alone = [copy.deepcopy(fitter) for fitter, _, _ in requests]
    fitters = [fitter for fitter, _, _ in requests]
    kind = type(fitters[0])
    counts = kind.extend_many(fitters, [block for _, block, _ in requests])
    for (fitter, block, rest), twin, count in zip(requests, alone, counts):
        assert count == twin.extend(None, block)
        assert_same_fitter(fitter, twin)
        assert fitter.extend(None, rest) == twin.extend(None, rest)
        assert_same_fitter(fitter, twin)


@pytest.mark.parametrize("model_key", ("pmc", "swing"))
def test_extend_many_matches_extend_alone(model_key):
    for seed in range(60):
        check_batch_equivalence(FITTERS[model_key], seed)


def test_extend_many_keeps_the_signed_zero_anchor():
    """The -0.0 anchor case of a batch of several requests."""
    blocks = [np.array([[0.0, -0.0, -1.0]] * 3), np.array([[5.0]] * 4)]
    fitters = [Swing().fitter(3, 150.0, 50), Swing().fitter(1, 1.0, 50)]
    assert type(fitters[0]).extend_many(fitters, blocks) == [3, 4]
    reference = ReferenceType(Swing()).fitter(3, 150.0, 50)
    assert reference.extend(None, blocks[0]) == 3
    assert fitters[0].parameters() == reference.parameters()


def test_extend_many_defaults_to_extend_for_a_user_model():
    """``example.Step`` implements only ``_extend``: a batch is fitted
    one block after another."""
    step = runpy.run_path(str(EXAMPLE))["StepModel"]()
    for seed in range(20):
        check_batch_equivalence(step, seed)


if HAVE_HYPOTHESIS:

    @settings(max_examples=settings.default.max_examples, deadline=None)
    @given(
        model_key=st.sampled_from(("pmc", "swing")),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_extend_many_matches_extend_alone_hypothesis(model_key, seed):
        check_batch_equivalence(FITTERS[model_key], seed)


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
    """``chunk_size`` None ingests through the write oracle."""
    config = Configuration(
        error_bound=bound,
        correlation=correlation,
        ingest_chunk_size=chunk_size or 1,
    )
    db = ModelarDB(
        config, storage=MemoryStorage(), dimensions=dataset.dimensions
    )
    with write_oracle.installed() if chunk_size is None else nullcontext():
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
    scalar = ingest_dataset(dataset, EP_CORRELATION, bound, chunk_size=None)
    batch = ingest_dataset(dataset, EP_CORRELATION, bound, chunk_size)
    assert store_signature(batch) == store_signature(scalar)
    assert batch.stats.data_points == scalar.stats.data_points
    assert batch.stats.fits == scalar.stats.fits


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
    scalar = ingest_dataset(dataset, correlation, bound, chunk_size=None)
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
