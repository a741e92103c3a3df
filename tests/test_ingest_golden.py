"""Golden write digests: the stored bytes of small fixed stores, pinned.

The scalar-vs-block tests compare two ingestion paths that share the
model fitters, so a change both paths make to the stored bytes passes
them. These digests cannot be passed that way: each is the SHA-256 of
every stored row (Gid, start, end, SI, Mid, parameters, gaps) of a store
built from integer arithmetic alone — holds, ramps, noise from a linear
congruential generator, gaps, a correlated group beside a singleton and
a member that drifts away and back (dynamic splitting) — so the inputs
do not depend on numpy's random streams or the platform's libm. They
were computed with per-tick ingestion; the write oracle
(``tests/write_oracle.py``), one-row blocks (``ingest_chunk_size=1``)
and the default chunk must reproduce them at every evaluation error
bound.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext

import pytest

from repro import Configuration, MemoryStorage, ModelarDB, TimeSeries
from repro.core.group import TimeSeriesGroup
from repro.storage import SegmentScan

from . import write_oracle

SI = 100
N_TICKS = 600

#: store -> error bound -> digest, computed by per-tick ingestion.
GOLDEN = {
    "mixed": {
        0.0: (
            "19877248efa60aa23e2846bfca92830fdc1e726ea3b78d47eabcf19a59c572e1"
        ),
        1.0: (
            "f292631ddf83f4fdbace7e8ff7912238436395e7b4b4b9226c82c06081920810"
        ),
        5.0: (
            "18c3f43494262668976af55cf767ffbfed169e6e61e14d5d94aa94eaa40afa59"
        ),
        10.0: (
            "dff59bd6f8d183c5b1068ddcc42fea4482653a4b8fd99528e5abc59405e820c0"
        ),
    },
    "split": {
        0.0: (
            "74b4458dc86e668a4812412cea821dee0aa7e95c38fa2b0511bceeb22f6eafc2"
        ),
        1.0: (
            "cae4a1d26c51802a0f52a62ccaf6da7966ea93991a3fa3cfb225b78755fa648a"
        ),
        5.0: (
            "4cc5adb6259a5cd4bd154b0fc7bb631b8adc12e42a94e61c2e2f15b34eb268ab"
        ),
        10.0: (
            "444b9b9b75577d1ddb1453c4bb1e131d0bef7a739fc2e6734d98bb478542efa6"
        ),
    },
    "windows": {
        0.0: (
            "643ccec3733e0d9961260283fb982f5ae515d589c7578e0931e13a5085e6c9a8"
        ),
        1.0: (
            "3543b8ad4118d64b535361fc41e2466f73ae24bf5043337e81f9d61baa03d2eb"
        ),
        5.0: (
            "1bb4e2195c78386ebe2c169b209da1a771a3fee4b17286ba563bc23443753065"
        ),
        10.0: (
            "85814dd691a9b0ef86ae445c9dc19b6a551319ef8e411f351e6c8b44d138a4ea"
        ),
    },
}


def lcg(state: int) -> int:
    return (state * 1103515245 + 12345) % 2**31


def base_values(seed: int) -> list[int]:
    """A level in 1/64 units: holds, ramps and noise in turn."""
    state = seed
    level = 64 * 100
    values = []
    while len(values) < N_TICKS:
        state = lcg(state)
        regime, length = state % 3, 5 + (state >> 8) % 40
        step = (state >> 16) % 129 - 64
        for _ in range(length):
            state = lcg(state)
            if regime == 1:
                level += step
            noise = (state >> 8) % 1025 - 512 if regime == 2 else 0
            values.append(level + noise)
    return values[:N_TICKS]


def member(tid: int, seed: int, levels: list[int], scaling: float = 1.0,
           drift: tuple[int, int] | None = None,
           gaps: bool = True) -> TimeSeries:
    """A member of the group: the shared levels, a small per-member
    offset, about 2 % gaps and optionally a noisy stretch far from the
    rest."""
    state = seed
    values: list[float | None] = []
    for tick, level in enumerate(levels):
        state = lcg(state)
        if gaps and state % 50 == 0:
            values.append(None)
            continue
        value = level + tid * 3 + (state >> 12) % 5
        if drift is not None and drift[0] <= tick < drift[1]:
            value += 64 * 200 + (state >> 4) % 8192 * 4
        # Scaled on ingestion: store value / scaling, exact in binary.
        values.append(value / 64 / scaling)
    return TimeSeries(
        tid, SI, [tick * SI for tick in range(N_TICKS)], values,
        scaling=scaling,
    )


def store(name: str) -> tuple[list[TimeSeriesGroup], dict, int]:
    """The groups, configuration overrides and ingest() call count."""
    levels = base_values(7)
    if name == "mixed":
        groups = [
            TimeSeriesGroup(1, [
                member(1, 11, levels),
                member(2, 12, levels, scaling=2.0),
                member(3, 13, levels),
            ]),
            TimeSeriesGroup(2, [member(4, 14, base_values(8))]),
        ]
        return groups, {}, 1
    if name == "split":
        groups = [
            TimeSeriesGroup(1, [
                member(1, 21, levels, gaps=False),
                member(2, 22, levels, gaps=False),
                member(3, 23, levels, drift=(200, 320), gaps=False),
                member(4, 24, levels),
            ]),
        ]
        return groups, {}, 1
    groups = [
        TimeSeriesGroup(1, [
            member(1, 31, levels),
            member(2, 32, levels, drift=(150, 160)),
        ]),
        TimeSeriesGroup(2, [member(3, 33, base_values(9))]),
    ]
    return groups, {"model_length_limit": 7}, 3


def digest(name: str, bound: float, chunk: int | str) -> str:
    """The store's digest; ``chunk`` "oracle" ingests per tick."""
    groups, overrides, calls = store(name)
    oracle = chunk == "oracle"
    config = Configuration(
        error_bound=bound, ingest_chunk_size=1 if oracle else chunk,
        **overrides,
    )
    db = ModelarDB(config, storage=MemoryStorage())
    cuts = [N_TICKS * k // calls for k in range(calls + 1)]
    with write_oracle.installed() if oracle else nullcontext():
        for k in range(calls):
            db.ingest([
                TimeSeriesGroup(group.gid, [
                    ts.bounded(cuts[k] * SI, (cuts[k + 1] - 1) * SI)
                    for ts in group
                ])
                for group in groups
            ])
    rows = sorted(
        (
            s.gid,
            s.start_time,
            s.end_time,
            s.sampling_interval,
            s.mid,
            bytes(s.parameters).hex(),
            tuple(sorted(s.gaps)),
        )
        for table in db.storage.tables(SegmentScan())
        for s in table.segments
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("chunk", (1, 1024, "oracle"))
@pytest.mark.parametrize("bound", (0.0, 1.0, 5.0, 10.0))
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stored_rows_match_the_golden_digest(name, bound, chunk):
    assert digest(name, bound, chunk) == GOLDEN[name][bound]
