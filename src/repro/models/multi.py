"""Multiple models per segment — the Section 5.1 baseline.

The simplest way to give *any* single-series model group support: split
the incoming value vector and fit each series to its own sub-model, then
store all sub-models in one segment. The segment's metadata is shared, so
duplicate metadata shrinks from N copies to one, but the value payload is
not shared (which is exactly what the single-model extensions of
Section 5.2 improve on — measured by ``bench_ablation_multi_vs_single``).

All sub-models must cover the same time interval. When one sub-model
rejects a value that another already accepted (case III of Fig. 9), the
segment's end time simply is not advanced: this fitter replays the
accepted prefix into fresh sub-fitters, which also discards any leftover
parameters a variable-size model such as Gorilla produced for the
rejected timestamp.
"""

from __future__ import annotations

import struct

import numpy as np

from ..core.errors import ModelError
from .base import FittedModel, ModelFitter, ModelType

_LENGTH_FORMAT = "<I"
_LENGTH_SIZE = struct.calcsize(_LENGTH_FORMAT)


class MultiFitter(ModelFitter):
    """N independent single-series fitters advancing in lock step."""

    def __init__(
        self,
        base: ModelType,
        n_columns: int,
        error_bound: float,
        length_limit: int,
    ) -> None:
        super().__init__(n_columns, error_bound, length_limit)
        self._base = base
        self._fitters = [
            base.fitter(1, error_bound, length_limit) for _ in range(n_columns)
        ]
        self._accepted: list[tuple[float, ...]] = []

    def _extend(self, block: np.ndarray) -> int:
        # Offer each column its own sub-block; the jointly accepted
        # prefix is the shortest per-column prefix. Any sub-fitter that
        # ran past it is rebuilt by replaying the accepted rows — for
        # deterministic online fitters the replayed state is identical to
        # the incremental state, so this matches advancing the columns in
        # lock step row by row (including Fig. 9 case III) bit for bit.
        accepted = block.shape[0]
        offered: list[int] = []
        for column, fitter in enumerate(self._fitters):
            if accepted == 0:
                break
            taken = fitter.extend(None, block[:accepted, column:column + 1])
            offered.append(taken)
            if taken < accepted:
                accepted = taken
        if accepted:
            self._accepted.extend(
                tuple(row) for row in block[:accepted].tolist()
            )
        if any(taken != accepted for taken in offered):
            self._rollback()
        return accepted

    def _rollback(self) -> None:
        """Rebuild sub-fitters from the accepted prefix (Fig. 9, case III)."""
        self._fitters = [
            self._base.fitter(1, self.error_bound, self.length_limit)
            for _ in range(self.n_columns)
        ]
        if not self._accepted:
            return
        matrix = np.asarray(self._accepted, dtype=np.float64)
        for column, fitter in enumerate(self._fitters):
            replayed = fitter.extend(None, matrix[:, column:column + 1])
            if replayed != len(self._accepted):
                raise ModelError(
                    "sub-model rejected a previously accepted value "
                    "during rollback"
                )

    def parameters(self) -> bytes:
        if not self._accepted:
            raise ModelError("cannot encode an empty multi-model segment")
        parts = []
        for fitter in self._fitters:
            encoded = fitter.parameters()
            parts.append(struct.pack(_LENGTH_FORMAT, len(encoded)))
            parts.append(encoded)
        return b"".join(parts)

    def size_bytes(self) -> int:
        if not self._accepted:
            return 0
        return sum(
            _LENGTH_SIZE + fitter.size_bytes() for fitter in self._fitters
        )


class FittedMulti(FittedModel):
    """Decoded multi-model segment: one sub-model per column."""

    def __init__(
        self, sub_models: list[FittedModel], length: int
    ) -> None:
        super().__init__(len(sub_models), length)
        self._sub_models = sub_models

    @property
    def constant_time_aggregates(self) -> bool:
        return all(m.constant_time_aggregates for m in self._sub_models)

    def values(self) -> np.ndarray:
        columns = [m.values()[:, 0] for m in self._sub_models]
        return np.column_stack(columns)

    def value_at(self, index: int, column: int) -> float:
        return self._sub_models[column].value_at(index, 0)

    def slice_sum(self, first: int, last: int, column: int) -> float:
        return self._sub_models[column].slice_sum(first, last, 0)

    def slice_min(self, first: int, last: int, column: int) -> float:
        return self._sub_models[column].slice_min(first, last, 0)

    def slice_max(self, first: int, last: int, column: int) -> float:
        return self._sub_models[column].slice_max(first, last, 0)


class MultiModel(ModelType):
    """Wrap a single-series model type for the Section 5.1 baseline.

    Registered as e.g. ``"Multi(Swing)"``.
    """

    def __init__(self, base: ModelType) -> None:
        self._base = base
        self.name = f"Multi({base.name})"
        self.always_fits = base.always_fits

    def fitter(
        self, n_columns: int, error_bound: float, length_limit: int
    ) -> MultiFitter:
        return MultiFitter(self._base, n_columns, error_bound, length_limit)

    def decode(
        self, parameters: bytes, n_columns: int, length: int
    ) -> FittedMulti:
        sub_models = []
        offset = 0
        for _ in range(n_columns):
            if offset + _LENGTH_SIZE > len(parameters):
                raise ModelError("truncated multi-model parameters")
            (size,) = struct.unpack_from(_LENGTH_FORMAT, parameters, offset)
            offset += _LENGTH_SIZE
            encoded = parameters[offset:offset + size]
            if len(encoded) != size:
                raise ModelError("truncated multi-model parameters")
            offset += size
            sub_models.append(self._base.decode(encoded, 1, length))
        return FittedMulti(sub_models, length)
