"""Model types for Multi-Model Group Compression (Section 5).

Exports the three models shipped with ModelarDB Core — PMC-Mean, Swing
and Gorilla, all extended for group compression — plus the registry used
to add user-defined models and the Section 5.1 multi-models-per-segment
baseline.
"""

from .base import (
    RAW_POINT_BYTES,
    FittedModel,
    ModelFitter,
    ModelType,
    float32_within,
)
from .gorilla import Gorilla
from .multi import MultiModel
from .pmc_mean import PMCMean
from .registry import ModelRegistry, default_model_types
from .selection import select_best
from .swing import Swing

__all__ = [
    "RAW_POINT_BYTES",
    "FittedModel",
    "ModelFitter",
    "ModelType",
    "float32_within",
    "Gorilla",
    "MultiModel",
    "PMCMean",
    "ModelRegistry",
    "default_model_types",
    "select_best",
    "Swing",
]
