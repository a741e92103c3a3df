"""Deferred always-fitting fits: Gorilla's run-wide size bound and the
fit built from the same residues.

The segment generator fits an always-fitting model (Gorilla) only at
flush time, and only when an exact lower bound on its encoded size says
it might win (``ModelType.deferred_run``). The bound must never exceed
the real size, or a fit that wins would be pruned and the stored bytes
would change; and the fitter built from the run's residues must be the
one ``extend`` over the window's rows builds. Both are checked on random
and adversarial float32 streams (signed zeros, subnormals, constant
runs, alternating bit patterns, 32-bit-wide residues), on windows cut
anywhere in a run, and through the generator on windows that span
blocks: a stand-in still active at the end of a block is re-anchored at
row 0 of the next run, which starts with the rows it covers.

Uses hypothesis when installed; the seeded cases run either way.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import Configuration, MemoryStorage, ModelarDB
from repro.datasets import generate_ep
from repro.datasets.ep import EP_CORRELATION
from repro.ingest import generator as generator_module
from repro.ingest.generator import SegmentGenerator
from repro.core.group import TimeSeriesGroup
from repro.ingest.ingestor import Ingestor
from repro.ingest.splitter import GroupIngestor
from repro.ingest.stats import IngestStats
from repro.models import ModelRegistry
from repro.models.gorilla import Gorilla
from repro.obs import get_registry

from .conftest import make_series

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

GORILLA = Gorilla()


def rows_of(patterns, width: int) -> np.ndarray:
    """float32 bit patterns as a ``(ticks, width)`` float64 block."""
    values = np.asarray(patterns, dtype=np.uint32).view(np.float32)
    return values.astype(np.float64).reshape(-1, width)


def finite_patterns(rng: np.random.Generator, count: int) -> np.ndarray:
    """Random float32 bit patterns, NaN and infinities excluded (the
    ingestion path strips them as gaps)."""
    patterns = rng.integers(0, 1 << 32, count, dtype=np.uint64).astype(np.uint32)
    exponent_all_ones = (patterns & 0x7F800000) == 0x7F800000
    patterns[exponent_all_ones] &= 0xBFFFFFFF
    return patterns


def check_window(rows: np.ndarray, first: int, end: int) -> None:
    """The run's bound and fit of rows ``first..end-1`` against an eager
    fit of the same rows, then against a follow-up ``extend``."""
    width = rows.shape[1]
    run = GORILLA.deferred_run(rows)
    eager = GORILLA.fitter(width, 0.0, len(rows))
    assert eager.extend(None, rows[first:end]) == end - first
    assert run.minimum_size_bytes(first, end) <= eager.size_bytes()
    built = run.fitter(first, end, 0.0, len(rows))
    assert built.length == eager.length
    assert built.parameters() == eager.parameters()
    if end < len(rows):  # the built fitter continues as the eager one
        assert built.extend(None, rows[end:]) == eager.extend(None, rows[end:])
        assert built.parameters() == eager.parameters()


def every_window(rows: np.ndarray) -> None:
    for first in range(len(rows)):
        for end in range(first + 1, len(rows) + 1):
            check_window(rows, first, end)


ADVERSARIAL = {
    "signed-zeros": [0x00000000, 0x80000000] * 12,
    "subnormals": [0x00000001, 0x807FFFFF, 0x00400000, 0x00000003] * 6,
    "constant": [0x40E80000] * 24,
    "alternating-bits": [0x55555555, 0xAAAAAAAA] * 12,
    # +0.0 then -1 ulp subnormal: a residue 32 bits wide.
    "full-width": [0x00000000, 0x80000001] * 12,
    "constant-then-noise": [0x3F800000] * 12 + [0x3F800001, 0x4B000000] * 6,
}


@pytest.mark.parametrize("width", (1, 2, 3, 4))
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_bound_and_fit_hold_on_adversarial_streams(name, width):
    every_window(rows_of(ADVERSARIAL[name], width))


@pytest.mark.parametrize("seed", range(6))
def test_bound_and_fit_hold_on_random_streams(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 5))
    if seed % 2:  # random bits: wide residues everywhere
        patterns = finite_patterns(rng, 20 * width)
    else:  # a slow float32 walk: narrow residues, many repeats
        walk = np.cumsum(rng.normal(0, 1e-3, 20 * width)) + 10.0
        walk[rng.random(walk.size) < 0.3] = 10.0
        patterns = walk.astype(np.float32).view(np.uint32)
    every_window(rows_of(patterns, width))


if HAVE_HYPOTHESIS:

    FLOAT32S = st.one_of(
        st.floats(width=32, allow_nan=False, allow_infinity=False),
        st.sampled_from((0.0, -0.0, 1e-45, -1e-45, 1.17549421e-38)),
    )

    @settings(max_examples=settings.default.max_examples, deadline=None)
    @given(
        width=st.integers(1, 4),
        values=st.lists(FLOAT32S, min_size=4, max_size=120),
        cut=st.tuples(st.integers(0, 1 << 20), st.integers(0, 1 << 20)),
    )
    def test_bound_and_fit_hold_hypothesis(width, values, cut):
        ticks = len(values) // width
        rows = np.array(values[:ticks * width], dtype=np.float64).reshape(-1, width)
        first = cut[0] % ticks
        end = first + 1 + cut[1] % (ticks - first)
        check_window(rows, first, end)


# ----------------------------------------------------------------------
# Through the generator: windows that span blocks
# ----------------------------------------------------------------------
def stream(seed: int, ticks: int, width: int) -> np.ndarray:
    """Stretches PMC or Swing win (constant, linear) between noise only
    Gorilla represents, so deferred fits are both pruned and built."""
    rng = np.random.default_rng(seed)
    rows = np.empty((ticks, width))
    start = 0
    while start < ticks:
        length = int(rng.integers(5, 70))
        kind = rng.integers(3)
        segment = np.arange(length, dtype=float)[:, None]
        if kind == 0:
            block = np.full((length, width), rng.normal(50, 10))
        elif kind == 1:
            block = rng.normal(50, 10) + 0.5 * segment + np.zeros(width)
        else:
            block = rng.normal(50, 10, (length, width))
        rows[start:start + length] = block[:ticks - start]
        start += length
    return rows


@pytest.mark.parametrize("chunk", (1, 7, 64, 1024))
@pytest.mark.parametrize("width", (1, 3))
def test_generator_windows_across_blocks(monkeypatch, chunk, width):
    """Every stand-in window the generator bounds or fits lies inside
    its run (a missing re-anchor would read past it) and holds there."""
    windows = []
    lazy = generator_module._LazyFitter
    bound, materialize = lazy.best_possible_ratio, lazy.materialize

    def spy_bound(self):
        windows.append((self.run[0], self.first, self.length))
        return bound(self)

    def spy_materialize(self):
        windows.append((self.run[0], self.first, self.length))
        return materialize(self)

    monkeypatch.setattr(lazy, "best_possible_ratio", spy_bound)
    monkeypatch.setattr(lazy, "materialize", spy_materialize)
    tids = tuple(range(1, width + 1))
    config = Configuration(error_bound=1.0, model_length_limit=50)
    generator = SegmentGenerator(
        1, tids, tids, 100, config, ModelRegistry(), lambda segment: None
    )
    rows = stream(chunk + width, 600, width)
    timestamps = np.arange(len(rows), dtype=np.int64) * 100
    for first in range(0, len(rows), chunk):
        generator.tick_block(
            timestamps[first:first + chunk], rows[first:first + chunk]
        )
    generator.close()
    assert windows
    for run_rows, first, length in windows:
        assert first + length <= len(run_rows)
        check_window(run_rows, first, first + length)
    if chunk < 50:  # some window covers rows of an earlier block
        assert any(length > chunk for _, _, length in windows)
    stats = generator.stats
    assert 0 < stats.deferred_fits["Gorilla"] < stats.fits["Gorilla"]


# ----------------------------------------------------------------------
# The count and its metric
# ----------------------------------------------------------------------
def test_deferred_fits_are_counted_and_exported():
    def exported():
        counters = get_registry().snapshot()["counters"]
        return counters.get("ingest.deferred_fits_total{model=Gorilla}", 0)

    dataset = generate_ep(n_entities=2, n_points=600, seed=3)
    config = Configuration(error_bound=1.0, correlation=list(EP_CORRELATION))
    db = ModelarDB(config, storage=MemoryStorage(), dimensions=dataset.dimensions)
    before = exported()
    stats = db.ingest(dataset.series)
    fitted = stats.deferred_fits["Gorilla"]
    assert stats.usage["Gorilla"].segments <= fitted < stats.fits["Gorilla"]
    assert exported() - before == fitted
    merged = IngestStats.merged([stats, stats])
    assert merged.deferred_fits == {"Gorilla": 2 * fitted}


# ----------------------------------------------------------------------
# A finished ingest leaves nothing for the cycle collector
# ----------------------------------------------------------------------
def test_finished_ingest_frees_its_group_state(monkeypatch):
    """No reference cycle keeps a group's ingestor or generators alive
    after ``ingest()`` returns, split groups included."""
    refs = []
    for cls in (GroupIngestor, SegmentGenerator):
        def init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", init)
    rng = np.random.default_rng(7)
    steady = np.full(900, 100.0)
    diverging = steady.copy()
    diverging[300:600] = 150 + rng.normal(0, 5, 300)  # splits, then rejoins
    groups = [
        TimeSeriesGroup(1, [make_series(1, steady), make_series(2, diverging)]),
        TimeSeriesGroup(2, [make_series(3, rng.normal(0, 1, 900))]),
    ]
    config = Configuration(error_bound=1.0, ingest_chunk_size=64)
    ingestor = Ingestor(config, ModelRegistry(), MemoryStorage())
    gc.collect()
    gc.disable()
    try:
        stats = ingestor.ingest(groups)
        alive = [ref() for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert stats.splits and stats.joins
    assert len(refs) > 4
    assert alive == []
