"""Ingestion statistics, including the model-usage mix of Figs. 16-17.

:class:`IngestStats` is the unit of accounting shared by the sequential
ingestion path and the process-parallel cluster: workers accumulate stats
locally and ship them to the master over the RPC layer, so the whole
object graph (including the nested per-model :class:`ModelUsage` dicts)
must stay plainly picklable, and :meth:`IngestStats.merge` must be
associative so per-worker partial stats can be folded in any grouping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class ModelUsage:
    """Usage counters for one model type."""

    segments: int = 0
    data_points: int = 0
    bytes: int = 0


@dataclass
class IngestStats:
    """Counters accumulated while ingesting one or more groups."""

    data_points: int = 0  # raw data points ingested (excluding gap points)
    segments: int = 0
    storage_bytes: int = 0
    splits: int = 0
    joins: int = 0
    #: Columnar blocks fed through the ingestion path.
    chunks: int = 0
    #: Always 0: every tick goes through blocks, split groups included.
    #: Kept because the benchmark suite's layer table reads it.
    fallback_ticks: int = 0
    #: Superseding segment revisions emitted by the correction path.
    revisions: int = 0
    #: Correction points that arrived after their group window was
    #: already flushed (late or corrected data).
    out_of_order_points: int = 0
    usage: dict[str, ModelUsage] = field(default_factory=dict)
    #: Fit attempts per model type — every time a model instance was
    #: offered a data point batch, whether or not it won the emit.
    fits: dict[str, int] = field(default_factory=dict)
    #: Kernel calls per model type: one per ``extend_many`` call of a
    #: round of ``fit_rounds``, however many groups' windows it fits.
    kernel_calls: dict[str, int] = field(default_factory=dict)
    #: Always-fitting models fitted at flush time, per model type: the
    #: deferred fits that their size bound did not prune.
    deferred_fits: dict[str, int] = field(default_factory=dict)

    def record_fit(self, model_name: str, attempts: int = 1) -> None:
        self.fits[model_name] = self.fits.get(model_name, 0) + attempts

    def record_kernel_call(self, model_name: str) -> None:
        self.kernel_calls[model_name] = self.kernel_calls.get(model_name, 0) + 1

    def record_deferred_fit(self, model_name: str) -> None:
        self.deferred_fits[model_name] = self.deferred_fits.get(model_name, 0) + 1

    def record_segment(
        self, model_name: str, data_points: int, storage_bytes: int
    ) -> None:
        usage = self.usage.setdefault(model_name, ModelUsage())
        usage.segments += 1
        usage.data_points += data_points
        usage.bytes += storage_bytes
        self.segments += 1
        self.storage_bytes += storage_bytes

    def model_mix(self) -> dict[str, float]:
        """Percentage of data points represented per model (Figs. 16-17)."""
        total = sum(usage.data_points for usage in self.usage.values())
        if total == 0:
            return {}
        return {
            name: 100.0 * usage.data_points / total
            for name, usage in self.usage.items()
        }

    def merge(self, other: "IngestStats") -> None:
        """Fold another stats object into this one in place.

        Merging is associative and commutative: every counter is a sum,
        so per-worker partial stats can be combined in any grouping —
        the property the distributed ingest path relies on.
        """
        self.data_points += other.data_points
        self.segments += other.segments
        self.storage_bytes += other.storage_bytes
        self.splits += other.splits
        self.joins += other.joins
        self.chunks += other.chunks
        self.revisions += other.revisions
        self.out_of_order_points += other.out_of_order_points
        for name, usage in other.usage.items():
            mine = self.usage.setdefault(name, ModelUsage())
            mine.segments += usage.segments
            mine.data_points += usage.data_points
            mine.bytes += usage.bytes
        for name, attempts in other.fits.items():
            self.fits[name] = self.fits.get(name, 0) + attempts
        for name, calls in other.kernel_calls.items():
            self.kernel_calls[name] = self.kernel_calls.get(name, 0) + calls
        for name, fits in other.deferred_fits.items():
            self.deferred_fits[name] = self.deferred_fits.get(name, 0) + fits

    @classmethod
    def merged(cls, parts: Iterable["IngestStats"]) -> "IngestStats":
        """A fresh stats object combining ``parts`` (none are mutated)."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total
