"""Ingestion: multi-model group compression of streaming data points."""

from .generator import SegmentGenerator, SegmentSink
from .ingestor import Ingestor
from .revisions import CorrectionPoint, apply_corrections
from .splitter import GroupIngestor, within_double_bound
from .stats import IngestStats, ModelUsage
from .streaming import StreamingIngestor

__all__ = [
    "SegmentGenerator",
    "SegmentSink",
    "Ingestor",
    "CorrectionPoint",
    "apply_corrections",
    "GroupIngestor",
    "within_double_bound",
    "IngestStats",
    "ModelUsage",
    "StreamingIngestor",
]
