"""Window-edge equivalence: block ingestion against the write oracle.

The block path cuts each presence run into segment windows of up to
``model_length_limit + 1`` rows and fits every cascade model once per
window, and runs a split group's sub-generators to their next flush
before the split and join checks. The write oracle
(``tests/write_oracle.py``) appends one tick at a time and checks after
every tick. One-row blocks (``ingest_chunk_size=1``) and the case's
chunk size must both store the oracle's rows, report its per-call
:class:`IngestStats` and raise its error type. The corpus covers every
pair of values of the axes where the paths could part: window and chunk
edges (chunk sizes around the length limit), carried windows across
``ingest()`` calls, cascades whose last model rejects early, dynamic
splitting on and off, and the evaluation's error bounds; a second corpus
puts NaN and +-inf values (gaps) into the data. The lockstep corpus
ingests heterogeneous groups (widths 1-5, different SIs and start times,
one that ends early, gaps, groups that split and rejoin) in one
``ingest()`` call, where the block path runs them in lockstep and the
oracle one after another: every ``insert_segments`` call, the call's
stats and the knowledge time must be the oracle's.

Rows are read through ``Storage.tables``.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from functools import lru_cache

import numpy as np
import pytest

from repro import Configuration, MemoryStorage, ModelarDB
from repro.core.errors import IngestionError
from repro.datasets import generate_ep
from repro.datasets.eh import generate_eh
from repro.datasets.ep import EP_CORRELATION
from repro.core.group import TimeSeriesGroup
from repro.core.timeseries import TimeSeries
from repro.ingest.ingestor import group_tick_blocks
from repro.ingest.splitter import GroupIngestor
from repro.ingest.stats import IngestStats
from repro.models.gorilla import Gorilla, GorillaFitter
from repro.models.pmc_mean import PMCMeanFitter
from repro.models.registry import ModelRegistry
from repro.storage import SegmentScan

from . import write_oracle

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

AXES = {
    "data": ("EP", "EH"),
    "models": (
        ("PMC", "Swing", "Gorilla"),
        ("PMC", "Swing"),
        ("Swing", "PMC", "Gorilla"),
        ("Gorilla",),
        ("PMC",),
        ("Gorilla", "PMC"),
    ),
    "limit": (1, 2, 50),
    "chunk": (2, 50, 51, 52, 1024),
    "splitting": (True, False),
    "calls": (1, 3),
    "bound": (0.0, 1.0, 5.0, 10.0),
}

#: Fields of IngestStats both paths must agree on, per ingest() call.
STATS_FIELDS = ("data_points", "segments", "splits", "joins", "fits")


def pairwise(axes: dict[str, tuple]) -> list[dict]:
    """A deterministic greedy covering array: every pair of values of
    any two axes appears in at least one case."""
    names = list(axes)
    uncovered = {
        (a, va, b, vb)
        for a, b in itertools.combinations(names, 2)
        for va in axes[a]
        for vb in axes[b]
    }
    cases = []
    while uncovered:
        a, va, b, vb = min(uncovered, key=repr)
        case = {a: va, b: vb}
        for name in names:
            if name in case:
                continue
            case[name] = max(
                axes[name],
                key=lambda value: sum(
                    (other, case[other], name, value) in uncovered
                    or (name, value, other, case[other]) in uncovered
                    for other in case
                ),
            )
        uncovered -= {
            (x, case[x], y, case[y]) for x, y in itertools.combinations(names, 2)
        }
        cases.append(case)
    return cases


@lru_cache(maxsize=None)
def dataset(kind: str, seed: int):
    if kind.endswith("+inf"):
        # Every 17th value of each series becomes NaN, +inf or -inf.
        series, dimensions, correlation = dataset(kind[:-4], seed)
        poisoned = []
        for ts in series:
            values = np.array(ts.values)
            marks = np.arange(ts.tid % 17, len(values), 17)
            values[marks] = np.array([np.nan, np.inf, -np.inf])[marks % 3]
            poisoned.append(TimeSeries(
                ts.tid, ts.sampling_interval, ts.timestamps, values,
                scaling=ts.scaling, name=ts.name,
            ))
        return poisoned, dimensions, correlation
    if kind == "EP":
        data = generate_ep(
            n_entities=3,
            measures_per_entity=3,
            n_points=300,
            seed=seed,
            gap_probability=0.02,
        )
        return data.series, data.dimensions, EP_CORRELATION
    data = generate_eh(
        n_parks=2,
        entities_per_park=2,
        n_points=300,
        seed=seed,
        gap_probability=0.02,
    )
    return data.series, data.dimensions, data.correlation()


def run(case: dict, chunk: int | None, seed: int = 5):
    """Stored rows and per-call stats, or the raised error type.

    ``chunk`` None ingests through the write oracle."""
    series, dimensions, correlation = dataset(case["data"], seed)
    config = Configuration(
        error_bound=case["bound"],
        correlation=correlation,
        model_length_limit=case["limit"],
        models=case["models"],
        dynamic_split_fraction=10 if case["splitting"] else 0,
        ingest_chunk_size=chunk or 1,
    )
    db = ModelarDB(config, storage=MemoryStorage(), dimensions=dimensions)
    start = min(ts.start_time for ts in series)
    end = max(ts.end_time for ts in series)
    si = series[0].sampling_interval
    last = (end - start) // si
    cuts = [
        start + last * k // case["calls"] * si
        for k in range(case["calls"] + 1)
    ]
    stats = []
    try:
        with write_oracle.installed() if chunk is None else nullcontext():
            for k in range(case["calls"]):
                lo = cuts[k] + (si if k else 0)
                stats.append(
                    db.ingest([ts.bounded(lo, cuts[k + 1]) for ts in series])
                )
    except IngestionError as error:
        return type(error)
    rows = sorted(
        (
            s.gid,
            s.start_time,
            s.end_time,
            s.sampling_interval,
            s.mid,
            bytes(s.parameters),
            tuple(sorted(s.gaps)),
        )
        for table in db.storage.tables(SegmentScan())
        for s in table.segments
    )
    return rows, [
        tuple(getattr(part, name) for name in STATS_FIELDS) for part in stats
    ]


def check(case: dict, seed: int = 5) -> None:
    expected = run(case, None, seed)
    for chunk in (1, case["chunk"]):
        block = run(case, chunk, seed)
        if isinstance(expected, type):
            assert block is expected, (case, chunk)
            continue
        assert not isinstance(block, type), (case, chunk, block)
        assert block[0] == expected[0], (case, chunk)
        assert block[1] == expected[1], (case, chunk)


CASES = pairwise(AXES)
#: The non-finite corpus: every data set, model order and chunk edge
#: with NaN and +-inf values, split groups included.
NON_FINITE_CASES = [
    dict(case, data=case["data"] + "+inf")
    for case in CASES
    if case["bound"] in (0.0, 5.0) and case["calls"] == 1
]


def case_id(case: dict) -> str:
    return "-".join((
        case["data"],
        "+".join(case["models"]),
        f"limit{case['limit']}",
        f"chunk{case['chunk']}",
        "split" if case["splitting"] else "nosplit",
        f"calls{case['calls']}",
        f"bound{case['bound']:g}",
    ))


@pytest.mark.parametrize("case", CASES, ids=[case_id(c) for c in CASES])
def test_block_path_matches_the_scalar_oracle(case):
    check(case)


@pytest.mark.parametrize(
    "case", NON_FINITE_CASES, ids=[case_id(c) for c in NON_FINITE_CASES]
)
def test_non_finite_values_are_gaps_on_every_path(case):
    check(case)


def test_the_non_finite_corpus_puts_gaps_in_the_data():
    series, _, _ = dataset("EP+inf", 5)
    values = np.concatenate([ts.values for ts in series])
    assert np.isposinf(values).any() and np.isneginf(values).any()
    assert np.isnan(values).any()
    assert {case["data"] for case in NON_FINITE_CASES} == {"EP+inf", "EH+inf"}
    assert {case["splitting"] for case in NON_FINITE_CASES} == {True, False}


def test_the_corpus_covers_every_pair():
    for a, b in itertools.combinations(AXES, 2):
        seen = {(case[a], case[b]) for case in CASES}
        assert len(seen) == len(AXES[a]) * len(AXES[b]), (a, b)


def test_a_cascade_that_cannot_represent_a_row_raises_on_both_paths():
    """And in the oracle."""
    case = dict(
        data="EP",
        models=("PMC", "Swing"),
        limit=1,
        chunk=1024,
        splitting=True,
        calls=1,
        bound=0.0,
    )
    assert run(case, None) is IngestionError
    assert run(case, 1) is IngestionError
    assert run(case, 1024) is IngestionError


def test_a_split_on_a_runs_last_tick_is_checked():
    """An emission on a run's last tick (a close at a presence change
    followed by a one-tick run) must reach the split check before the
    next run's emission replaces its ratio."""
    data = generate_ep(
        n_entities=3,
        measures_per_entity=3,
        n_points=700,
        seed=5,
        gap_probability=0.02,
    )
    start = min(ts.start_time for ts in data.series)
    si = data.series[0].sampling_interval
    splits = {}
    for chunk in (None, 1, 7, 1024):
        config = Configuration(
            error_bound=0.0,
            correlation=EP_CORRELATION,
            ingest_chunk_size=chunk or 1,
        )
        db = ModelarDB(
            config, storage=MemoryStorage(), dimensions=data.dimensions
        )
        with write_oracle.installed() if chunk is None else nullcontext():
            splits[chunk] = [
                db.ingest(
                    [
                        ts.bounded(start + lo * si, start + hi * si)
                        for ts in data.series
                    ]
                ).splits
                for lo, hi in ((0, 232), (233, 465), (466, 699))
            ]
    assert splits[None][2] == 1
    assert splits[1] == splits[None]
    assert splits[7] == splits[None]
    assert splits[1024] == splits[None]


if HAVE_HYPOTHESIS:

    # 10 examples under the default profile, ten times that nightly.
    @settings(
        max_examples=max(1, settings.default.max_examples // 10),
        deadline=None,
    )
    @given(
        case=st.fixed_dictionaries(
            {name: st.sampled_from(values) for name, values in AXES.items()}
        ),
        chunk=st.integers(min_value=2, max_value=120),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_block_path_matches_the_scalar_oracle_hypothesis(
        case, chunk, seed
    ):
        check(dict(case, chunk=chunk), seed)


# ----------------------------------------------------------------------
# The lockstep corpus: many heterogeneous groups in one ingest() call
# ----------------------------------------------------------------------
LOCKSTEP_AXES = {
    "bound": (0.0, 1.0, 5.0, 10.0),
    "models": (
        ("PMC", "Swing", "Gorilla"),
        ("Swing", "PMC", "Gorilla"),
        ("Swing", "Gorilla"),
        ("Gorilla", "PMC"),
    ),
    "limit": (20, 50),
    "chunk": (1, 7, 64, 1024),
    "bulk": (1, 10, 50_000),
    "seed": (1, 2, 3),
}


class RecordingStorage(MemoryStorage):
    """A memory store that keeps every ``insert_segments`` call's rows."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def insert_segments(self, segments):
        segments = list(segments)
        self.calls.append([segment_row(s) for s in segments])
        super().insert_segments(segments)


def segment_row(s):
    return (
        s.gid, s.start_time, s.end_time, s.sampling_interval, s.mid,
        bytes(s.parameters), tuple(sorted(s.gaps)),
    )


def synthetic_group(rng, gid, first_tid, width, si, start, ticks):
    """Holds, ramps and noise shared by ``width`` series, with scalings,
    NaN gaps and a late starter."""
    shared = make_regimes(rng, ticks)
    series = []
    for column in range(width):
        values = shared * (1 + column) + rng.normal(0, 0.01, ticks)
        values[rng.random(ticks) < 0.03] = np.nan
        first = int(rng.integers(0, ticks // 3)) if column == width - 1 else 0
        timestamps = start + si * np.arange(first, ticks, dtype=np.int64)
        series.append(TimeSeries(
            first_tid + column, si, timestamps, np.float32(values[first:]),
            scaling=1.0 / (1 + column),
        ))
    return TimeSeriesGroup(gid, series)


def make_regimes(rng, ticks):
    values = np.empty(ticks)
    level, i = 100.0, 0
    while i < ticks:
        run = min(ticks - i, int(rng.integers(5, 120)))
        kind = rng.random()
        if kind < 0.4:
            values[i:i + run] = level
        elif kind < 0.8:
            values[i:i + run] = level + rng.uniform(-0.5, 0.5) * np.arange(run)
            level = values[i + run - 1]
        else:
            values[i:i + run] = level + rng.normal(0, 5.0, run)
        i += run
    return values


@lru_cache(maxsize=None)
def lockstep_groups(seed: int):
    """Groups of widths 1-5 at different SIs and start times, one that
    ends early, gaps everywhere, and three EP groups of four correlated
    series that split and rejoin."""
    rng = np.random.default_rng(seed)
    data = generate_ep(
        n_entities=3, measures_per_entity=4, n_points=1000, seed=11,
        gap_probability=0.02,
    )
    groups = [
        TimeSeriesGroup(gid, data.series[4 * (gid - 1):4 * gid])
        for gid in (1, 2, 3)
    ]
    shapes = [  # width, SI, start, ticks
        (1, 100, 0, 600),
        (2, 250, 5_000, 450),
        (4, 1_000, 123_000, 700),
        (5, 100, 20_000, 120),  # ends early
        (1, 60_000, data.series[0].start_time, 650),
    ]
    tid = 100
    for gid, (width, si, start, ticks) in enumerate(shapes, start=4):
        groups.append(synthetic_group(rng, gid, tid, width, si, start, ticks))
        tid += width
    return tuple(groups)


def run_lockstep(case: dict, oracle: bool):
    """Each insert_segments call's rows, the call's stats and the final
    knowledge time, or the raised error type."""
    config = Configuration(
        error_bound=case["bound"],
        model_length_limit=case["limit"],
        models=case["models"],
        dynamic_split_fraction=10,
        ingest_chunk_size=case["chunk"],
        bulk_write_size=case["bulk"],
    )
    storage = RecordingStorage()
    db = ModelarDB(config, storage=storage)
    try:
        with write_oracle.installed() if oracle else nullcontext():
            stats = db.ingest(list(lockstep_groups(case["seed"])))
    except IngestionError as error:
        return type(error)
    return (
        storage.calls,
        tuple(getattr(stats, name) for name in STATS_FIELDS),
        db.knowledge_time(),
    )


LOCKSTEP_CASES = pairwise(LOCKSTEP_AXES)


def lockstep_id(case: dict) -> str:
    return "-".join((
        f"bound{case['bound']:g}",
        "+".join(case["models"]),
        f"limit{case['limit']}",
        f"chunk{case['chunk']}",
        f"bulk{case['bulk']}",
        f"seed{case['seed']}",
    ))


@pytest.mark.parametrize(
    "case", LOCKSTEP_CASES, ids=[lockstep_id(c) for c in LOCKSTEP_CASES]
)
def test_lockstep_ingest_matches_the_oracle_group_by_group(case):
    expected = run_lockstep(case, oracle=True)
    observed = run_lockstep(case, oracle=False)
    if isinstance(expected, type):
        assert observed is expected
        return
    assert not isinstance(observed, type), observed
    calls, stats, knowledge = observed
    assert len(calls) == len(expected[0])
    for call, expected_call in zip(calls, expected[0]):
        assert call == expected_call
    assert stats == expected[1]
    assert knowledge == expected[2]


def test_the_lockstep_corpus_splits_and_joins():
    """Some case splits a group and rejoins it, and every group writes."""
    case = dict(
        LOCKSTEP_CASES[0], bound=1.0, models=("PMC", "Swing", "Gorilla"), limit=50
    )
    calls, stats, _ = run_lockstep(case, oracle=False)
    fields = dict(zip(STATS_FIELDS, stats))
    assert fields["splits"] >= 1 and fields["joins"] >= 1
    written = {row[0] for call in calls for row in call}
    assert written == {group.gid for group in lockstep_groups(case["seed"])}


class _PairsFitShort(Gorilla):
    """Lossless for any group but a pair, which gets a 3-row PMC-Mean.

    The bundled models fit a column subset of rows they fit for the
    whole group, so a split's replay never flushes with them. This one
    does not, so the replayed pair emits and the per-tick loop consumes
    its ratio on the next tick, where the block path must run a check
    although nothing emits there.
    """

    name = "test.PairsFitShort"
    always_fits = False

    def fitter(self, n_columns, error_bound, length_limit):
        if n_columns == 2:
            return PMCMeanFitter(n_columns, error_bound, 3)
        return _Costly(n_columns, error_bound, length_limit)


class _Costly(GorillaFitter):
    """Gorilla priced so that a one-row PMC-Mean segment beats it: short
    segments then pull the group's ratio down and split it."""

    def size_bytes(self):
        return 1000 * self.length


@pytest.mark.parametrize("seed", range(4))
def test_a_split_whose_replay_emits_is_checked_on_the_next_tick(
    seed, monkeypatch
):
    rng = np.random.default_rng(seed)
    n = 1200
    diverged = (np.arange(n) // 100) % 2 == 1
    pair = np.full(n, 100.0)
    pair[diverged] = 100 + 5.0 * (np.arange(n)[diverged] % 100)
    third = pair.copy()
    third[diverged & (rng.random(n) < 0.5)] *= 1.5
    series = [
        TimeSeries(tid, 100, np.arange(n) * 100, np.float32(values))
        for tid, values in ((1, pair), (2, pair), (3, third))
    ]
    due = []
    check = GroupIngestor._check

    def spy(self, timestamp):
        due.append(self._due is not None)
        check(self, timestamp)

    monkeypatch.setattr(GroupIngestor, "_check", spy)
    observed = {}
    for chunk in (None, 1, 7, 1024):
        config = Configuration(
            error_bound=1.0,
            models=("PMC", "test.PairsFitShort"),
            ingest_chunk_size=chunk or 1,
        )
        db = ModelarDB(
            config, storage=MemoryStorage(), extra_models=[_PairsFitShort()]
        )
        with write_oracle.installed() if chunk is None else nullcontext():
            stats = db.ingest([TimeSeriesGroup(1, series)])
        observed[chunk] = (
            sorted(
                (s.start_time, s.end_time, s.mid, bytes(s.parameters),
                 tuple(sorted(s.gaps)))
                for s in db.storage.scan(SegmentScan())
            ),
            tuple(getattr(stats, name) for name in STATS_FIELDS),
        )
    assert any(due)
    assert observed[None][1][2] >= 1  # it split
    for chunk in (1, 7, 1024):
        assert observed[chunk] == observed[None], chunk

    # Tick by tick, the split bookkeeping is the oracle's: the replay's
    # ratio is consumed on the tick after the split.
    group = TimeSeriesGroup(1, series)
    registry = ModelRegistry([_PairsFitShort()])
    block = GroupIngestor(group, config, registry, lambda segment: None)
    loop = write_oracle.Group(
        group, config, registry, lambda segment: None, IngestStats()
    )
    ticks = write_oracle.group_ticks(group)
    for (timestamps, matrix), (timestamp, values) in zip(
        group_tick_blocks(group, 1), ticks
    ):
        block.tick_block(timestamps, matrix)
        loop.tick(timestamp, values)
        assert (block._ratio_sum, block._ratio_count) == (
            loop.ratio_sum, loop.ratio_count
        ), timestamp
