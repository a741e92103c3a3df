"""Shared fixtures for the test suite.

Hypothesis profiles: ``default`` is Hypothesis's own; ``nightly`` runs
ten times its examples. Pick one with ``HYPOTHESIS_PROFILE=nightly``;
property tests that scale their example count read it from
``settings.default``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import Configuration, Dimension, DimensionSet, TimeSeries
from repro.core.group import TimeSeriesGroup
from repro.models import ModelRegistry

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - depends on the environment
    pass
else:
    settings.register_profile(
        "nightly",
        max_examples=10 * settings.get_profile("default").max_examples,
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def registry() -> ModelRegistry:
    return ModelRegistry()


@pytest.fixture
def config() -> Configuration:
    return Configuration(error_bound=5.0)


@pytest.fixture
def lossless_config() -> Configuration:
    return Configuration(error_bound=0.0)


def make_series(
    tid: int,
    values,
    si: int = 100,
    start: int = 0,
    scaling: float = 1.0,
    name: str = "",
) -> TimeSeries:
    """A regular series over ``values`` (None marks gaps)."""
    timestamps = [start + index * si for index in range(len(values))]
    return TimeSeries(tid, si, timestamps, values, scaling=scaling, name=name)


def correlated_group(
    gid: int = 1,
    n_series: int = 3,
    n_points: int = 200,
    seed: int = 0,
    si: int = 100,
    noise: float = 0.1,
) -> TimeSeriesGroup:
    """A group of strongly correlated float32 series."""
    rng = np.random.default_rng(seed)
    base = 100 + np.cumsum(rng.normal(0, 0.5, n_points))
    series = []
    for tid in range(1, n_series + 1):
        values = np.float32(base + rng.normal(0, noise, n_points))
        series.append(make_series(tid, [float(v) for v in values], si=si))
    return TimeSeriesGroup(gid, series)


@pytest.fixture
def location_dimension() -> Dimension:
    """The paper's Fig. 7 Location dimension for wind turbines."""
    location = Dimension("Location", ["Turbine", "Park", "Region", "Country"])
    location.assign(1, ("9572", "Farsø", "Nordjylland", "Denmark"))
    location.assign(2, ("9632", "Aalborg", "Nordjylland", "Denmark"))
    location.assign(3, ("9634", "Aalborg", "Nordjylland", "Denmark"))
    return location


@pytest.fixture
def dimensions(location_dimension) -> DimensionSet:
    measure = Dimension("Measure", ["Concrete", "Category"])
    measure.assign(1, ("temp1", "Temperature"))
    measure.assign(2, ("temp2", "Temperature"))
    measure.assign(3, ("power3", "Power"))
    return DimensionSet([location_dimension, measure])
