"""User-defined models: the extension API of Section 3.1.

Run with::

    python examples/custom_model.py

ModelarDB treats models as black boxes behind a common interface, so a
new compression model is just a :class:`ModelType` with an online fitter
and a decoder — registered by classpath name, no engine changes. This
example adds a *step* model that stores two constant levels and the
index where the series switches between them (useful for on/off
machinery), and puts it into the cascade between Swing and Gorilla.
"""

import struct

import numpy as np

from repro import Configuration, ModelarDB, TimeSeries
from repro.models import FittedModel, ModelFitter, ModelType
from repro.models.base import float32_within, value_intervals

_FORMAT = "<ffH"  # level A, level B, switch index


class StepFitter(ModelFitter):
    """Fits two consecutive constant levels within the error bound."""

    def __init__(self, n_columns, error_bound, length_limit):
        super().__init__(n_columns, error_bound, length_limit)
        self._bounds = [(-np.inf, np.inf), (-np.inf, np.inf)]
        self._phase = 0
        self._switch = 0

    def _extend(self, block):
        # ``block`` holds the next rows of the group, one per timestamp;
        # accept the longest prefix that fits and return its length. Row
        # ``i`` lands at index ``self.length + i`` of the segment (the
        # caller advances ``self.length`` once the block is fitted).
        lowers, uppers = value_intervals(block, self.error_bound)
        for i, interval in enumerate(zip(lowers.tolist(), uppers.tolist())):
            if not self._accept(self.length + i, *interval):
                return i
        return len(block)

    def _accept(self, index, lower, upper):
        """Fit one timestamp's interval into the current level or open
        the second one; a rejected row leaves the state unchanged."""
        for phase in (self._phase, self._phase + 1):
            if phase > 1:
                return False
            current = self._bounds[phase]
            merged = (max(current[0], lower), min(current[1], upper))
            if float32_within(*merged) is not None:
                if phase != self._phase:
                    self._phase = phase
                    self._switch = index
                self._bounds[phase] = merged
                return True
        return False

    def parameters(self):
        level_a = float32_within(*self._bounds[0])
        level_b = float32_within(*self._bounds[1])
        if level_b is None:  # never switched: one flat level
            level_b = level_a
            switch = self.length
        else:
            switch = self._switch
        return struct.pack(_FORMAT, level_a, level_b, switch)

    def size_bytes(self):
        return struct.calcsize(_FORMAT)


class FittedStep(FittedModel):
    def __init__(self, level_a, level_b, switch, n_columns, length):
        super().__init__(n_columns, length)
        self._levels = (level_a, level_b)
        self._switch = switch

    def values(self):
        column = np.where(
            np.arange(self.length) < self._switch,
            self._levels[0],
            self._levels[1],
        )
        return np.repeat(column[:, np.newaxis], self.n_columns, axis=1)


class StepModel(ModelType):
    """Two-level step function; registered as ``example.Step``."""

    name = "example.Step"

    def fitter(self, n_columns, error_bound, length_limit):
        return StepFitter(n_columns, error_bound, length_limit)

    def decode(self, parameters, n_columns, length):
        level_a, level_b, switch = struct.unpack(_FORMAT, parameters)
        return FittedStep(level_a, level_b, switch, n_columns, length)


def main():
    # On/off machinery: long runs at two alternating levels.
    rng = np.random.default_rng(5)
    values = []
    level = 0.0
    while len(values) < 3_000:
        run = int(rng.integers(60, 90))
        values.extend([level] * run)
        level = 840.0 if level == 0.0 else 0.0
    values = values[:3_000]
    series = TimeSeries(
        1, 1_000, np.arange(len(values)) * 1_000, np.float32(values)
    )

    for models in (("PMC", "Swing", "Gorilla"),
                   ("PMC", "Swing", "example.Step", "Gorilla")):
        config = Configuration(error_bound=1.0, models=models)
        db = ModelarDB(config, extra_models=[StepModel()])
        stats = db.ingest([series])
        mix = {k: round(v, 1) for k, v in stats.model_mix().items()}
        print(f"cascade {models}:")
        print(f"  storage {db.size_bytes()} bytes, mix {mix}")
        total = db.query("SELECT SUM_S(*) FROM Segment")[0]["SUM_S(*)"]
        print(f"  SUM over all points: {total:.0f}\n")


if __name__ == "__main__":
    main()
