"""Window-edge equivalence: block ingestion against the scalar oracle.

The block path cuts each presence run into segment windows of up to
``model_length_limit + 1`` rows and fits every cascade model once per
window; the scalar path (``ingest_chunk_size=1``) appends one tick at a
time. Both must store the same rows, report the same per-call
:class:`IngestStats` and raise the same error type. The corpus covers
every pair of values of the axes where the two paths could part:
window and chunk edges (chunk sizes around the length limit), carried
windows across ``ingest()`` calls, cascades whose last model rejects
early, dynamic splitting on and off, and the evaluation's error bounds.
``fallback_ticks`` differs by design (the scalar path never falls back)
and is not compared.

Rows are read through ``Storage.tables``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest

from repro import Configuration, MemoryStorage, ModelarDB
from repro.core.errors import IngestionError
from repro.datasets import generate_ep
from repro.datasets.eh import generate_eh
from repro.datasets.ep import EP_CORRELATION
from repro.storage import SegmentScan

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


def run(case: dict, chunk: int, seed: int = 5):
    """Stored rows and per-call stats, or the raised error type."""
    series, dimensions, correlation = dataset(case["data"], seed)
    config = Configuration(
        error_bound=case["bound"],
        correlation=correlation,
        model_length_limit=case["limit"],
        models=case["models"],
        dynamic_split_fraction=10 if case["splitting"] else 0,
        ingest_chunk_size=chunk,
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
    scalar = run(case, 1, seed)
    block = run(case, case["chunk"], seed)
    if isinstance(scalar, type):
        assert block is scalar, case
        return
    assert not isinstance(block, type), (case, block)
    assert block[0] == scalar[0], case
    assert block[1] == scalar[1], case


CASES = pairwise(AXES)


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


def test_the_corpus_covers_every_pair():
    for a, b in itertools.combinations(AXES, 2):
        seen = {(case[a], case[b]) for case in CASES}
        assert len(seen) == len(AXES[a]) * len(AXES[b]), (a, b)


def test_a_cascade_that_cannot_represent_a_row_raises_on_both_paths():
    case = dict(
        data="EP",
        models=("PMC", "Swing"),
        limit=1,
        chunk=1024,
        splitting=True,
        calls=1,
        bound=0.0,
    )
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
    for chunk in (1, 7, 1024):
        config = Configuration(
            error_bound=0.0,
            correlation=EP_CORRELATION,
            ingest_chunk_size=chunk,
        )
        db = ModelarDB(
            config, storage=MemoryStorage(), dimensions=data.dimensions
        )
        splits[chunk] = [
            db.ingest(
                [
                    ts.bounded(start + lo * si, start + hi * si)
                    for ts in data.series
                ]
            ).splits
            for lo, hi in ((0, 232), (233, 465), (466, 699))
        ]
    assert splits[1][2] == 1
    assert splits[7] == splits[1]
    assert splits[1024] == splits[1]


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
