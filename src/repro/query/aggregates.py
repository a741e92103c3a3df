"""User-defined aggregate functions on segments (Algorithm 5).

Aggregates follow the initialize / iterate / finalize structure, with an
additional ``merge`` step so both distributive (SUM, MIN, MAX, COUNT) and
algebraic (AVG) functions [17] can be computed from per-worker partial
states in the distributed setting (the master's *mergeResults*).

Each aggregate here is its state's shape: ``initialize``, ``merge`` and
``finalize``. The iterate step is the engine's partition fold
(:class:`repro.query.engine._SegmentFold`): it adds the models' slice
aggregates over the inclusive index range the query's time predicates
clip each segment to, divided by the series' scaling constant, as the
paper specifies (Section 6.1). With constant or linear models,
SUM/MIN/MAX/AVG over an entire segment cost O(1), which is the source
of the Segment View's speed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from ..core.errors import QueryError


class Aggregate(ABC):
    """One segment-level aggregate function (suffix ``_S`` in SQL)."""

    name: str = ""

    @abstractmethod
    def initialize(self) -> Any:
        """A fresh accumulator state."""

    @abstractmethod
    def merge(self, state_a: Any, state_b: Any) -> Any:
        """Combine two partial states (distributed merge step)."""

    @abstractmethod
    def finalize(self, state: Any) -> float | int | None:
        """Compute the final value from the accumulated state."""


class CountS(Aggregate):
    name = "COUNT"

    def initialize(self) -> int:
        return 0

    def merge(self, state_a, state_b) -> int:
        return state_a + state_b

    def finalize(self, state) -> int:
        return state


class SumS(Aggregate):
    name = "SUM"

    def initialize(self) -> float:
        return 0.0

    def merge(self, state_a, state_b) -> float:
        return state_a + state_b

    def finalize(self, state) -> float:
        return state


class MinS(Aggregate):
    name = "MIN"

    def initialize(self) -> float | None:
        return None

    def merge(self, state_a, state_b):
        if state_a is None:
            return state_b
        if state_b is None:
            return state_a
        return min(state_a, state_b)

    def finalize(self, state):
        return state


class MaxS(Aggregate):
    name = "MAX"

    def initialize(self) -> float | None:
        return None

    def merge(self, state_a, state_b):
        if state_a is None:
            return state_b
        if state_b is None:
            return state_a
        return max(state_a, state_b)

    def finalize(self, state):
        return state


class AvgS(Aggregate):
    """Algebraic: carries (sum, count) and divides at finalize."""

    name = "AVG"

    def initialize(self) -> tuple[float, int]:
        return (0.0, 0)

    def merge(self, state_a, state_b):
        return (state_a[0] + state_b[0], state_a[1] + state_b[1])

    def finalize(self, state):
        total, count = state
        return total / count if count else None


_AGGREGATES: dict[str, Aggregate] = {
    aggregate.name: aggregate
    for aggregate in (CountS(), SumS(), MinS(), MaxS(), AvgS())
}


def aggregate_by_name(name: str) -> Aggregate:
    """Look up an aggregate by base name (``SUM``) or suffixed (``SUM_S``)."""
    base = name.upper()
    if base.endswith("_S"):
        base = base[:-2]
    try:
        return _AGGREGATES[base]
    except KeyError:
        raise QueryError(f"unknown aggregate function {name!r}") from None


def aggregate_names() -> list[str]:
    return sorted(_AGGREGATES)
