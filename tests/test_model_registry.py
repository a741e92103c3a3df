"""The model registry and user-defined model extension API."""

import os
import re
import runpy
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.errors import UnknownModelError
from repro.models import (
    FittedModel,
    ModelFitter,
    ModelRegistry,
    ModelType,
    select_best,
)
from repro.models.pmc_mean import PMCMean

EXAMPLE = Path(__file__).parents[1] / "examples" / "custom_model.py"


class _MeanFitter(ModelFitter):
    """A toy user-defined model: stores the running mean, unbounded error."""

    def __init__(self, n_columns, error_bound, length_limit):
        super().__init__(n_columns, error_bound, length_limit)
        self._sum = 0.0
        self._count = 0

    def _extend(self, block):
        self._sum += float(block.sum())
        self._count += block.size
        return len(block)

    def parameters(self):
        return struct.pack("<f", self._sum / self._count)


class _FittedMean(FittedModel):
    def __init__(self, value, n_columns, length):
        super().__init__(n_columns, length)
        self._value = value

    def values(self):
        import numpy as np

        return np.full((self.length, self.n_columns), self._value)


class UserMean(ModelType):
    """Registered under a classpath-style name, like the paper's API."""

    name = "com.example.UserMean"

    def fitter(self, n_columns, error_bound, length_limit):
        return _MeanFitter(n_columns, error_bound, length_limit)

    def decode(self, parameters, n_columns, length):
        (value,) = struct.unpack("<f", parameters)
        return _FittedMean(value, n_columns, length)


class TestRegistry:
    def test_default_models_registered(self, registry):
        assert registry.model_table() == {1: "PMC", 2: "Swing", 3: "Gorilla"}

    def test_mids_are_stable(self, registry):
        assert registry.mid_of("PMC") == 1
        assert registry.mid_of("Swing") == 2
        assert registry.mid_of("Gorilla") == 3

    def test_lookup_by_mid_and_name(self, registry):
        assert registry.by_mid(1).name == "PMC"
        assert registry.by_name("Gorilla").name == "Gorilla"

    def test_unknown_name_rejected(self, registry):
        with pytest.raises(UnknownModelError):
            registry.mid_of("NoSuchModel")

    def test_unknown_mid_rejected(self, registry):
        with pytest.raises(UnknownModelError):
            registry.by_mid(99)

    def test_user_defined_model_registration(self):
        registry = ModelRegistry([UserMean()])
        mid = registry.mid_of("com.example.UserMean")
        assert mid == 4
        assert registry.model_table()[4] == "com.example.UserMean"

    def test_duplicate_registration_is_idempotent(self, registry):
        first = registry.register(PMCMean())
        assert first == 1
        assert len(registry.model_table()) == 3

    def test_nameless_model_rejected(self, registry):
        class Nameless(UserMean):
            name = ""

        with pytest.raises(UnknownModelError):
            registry.register(Nameless())

    def test_user_model_in_cascade_round_trip(self):
        registry = ModelRegistry([UserMean()])
        fitters = registry.fitters(
            ("com.example.UserMean",), n_columns=2, error_bound=0.0,
            length_limit=10,
        )
        (mid, fitter), = fitters
        for value in (1.0, 2.0, 3.0):
            fitter.append((value, value))
        model = registry.decode(mid, fitter.parameters(), 2, 3)
        assert model.values()[0, 0] == pytest.approx(2.0)

    def test_fitters_preserve_cascade_order(self, registry):
        fitters = registry.fitters(("Swing", "PMC"), 1, 0.0, 10)
        assert [mid for mid, _ in fitters] == [2, 1]


class TestSelection:
    def test_best_ratio_wins(self, registry):
        pmc = registry.by_name("PMC").fitter(1, 10.0, 50)
        swing = registry.by_name("Swing").fitter(1, 10.0, 50)
        for value in (10.0, 10.0, 10.0):
            pmc.append((value,))
            swing.append((value,))
        # Same coverage; PMC's 4 bytes beat Swing's 8.
        mid, best = select_best([(2, swing), (1, pmc)])
        assert mid == 1

    def test_longer_coverage_beats_smaller_model(self, registry):
        pmc = registry.by_name("PMC").fitter(1, 1.0, 50)
        swing = registry.by_name("Swing").fitter(1, 1.0, 50)
        pmc.append((0.0,))
        for i in range(40):
            swing.append((float(i),))
        mid, best = select_best([(1, pmc), (2, swing)])
        assert mid == 2

    def test_empty_candidates_rejected(self, registry):
        from repro.core.errors import ModelError

        pmc = registry.by_name("PMC").fitter(1, 1.0, 50)
        with pytest.raises(ModelError):
            select_best([(1, pmc)])  # zero-length candidate only


class TestCustomModelExample:
    def test_both_cascades_store_the_true_sum(self):
        """The extension example run as a user runs it: with and without
        its Step model, the stored segments sum to the series' 1 252 440."""
        src = str(EXAMPLE.parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, str(EXAMPLE)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        sums = re.findall(r"SUM over all points: (\S+)", result.stdout)
        assert sums == ["1252440", "1252440"]

    def test_step_switch_index_does_not_depend_on_the_blocks(self):
        step_fitter = runpy.run_path(str(EXAMPLE))["StepFitter"]
        rows = [[0.0]] * 5 + [[840.0]] * 5
        whole = step_fitter(1, 1.0, 50)
        assert whole.extend(None, rows) == 10
        row_by_row = step_fitter(1, 1.0, 50)
        assert all(row_by_row.append(row) for row in rows)
        assert whole.parameters() == row_by_row.parameters()
        assert struct.unpack("<ffH", whole.parameters())[2] == 5
