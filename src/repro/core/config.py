"""System configuration.

Mirrors the ModelarDB configuration surface from the paper's Table 1:

========================  =======================================
Parameter                 Default (Table 1)
========================  =======================================
Model Error Bound         0% (evaluated at 0, 1, 5 and 10 %)
Model Length Limit        50
Dynamic Split Fraction    10
Bulk Write Size           50,000
========================  =======================================

plus the ``modelardb.correlation`` clauses of Section 4.1, which are kept
verbatim here and parsed by :mod:`repro.partitioner.parser`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigurationError

DEFAULT_MODEL_LENGTH_LIMIT = 50
DEFAULT_DYNAMIC_SPLIT_FRACTION = 10
DEFAULT_BULK_WRITE_SIZE = 50_000
DEFAULT_INGEST_CHUNK_SIZE = 1024

#: Classpath-style names of the models shipped with ModelarDB Core
#: (Section 3.1), in the order the segment generator tries them.
DEFAULT_MODELS = ("PMC", "Swing", "Gorilla")


@dataclass
class Configuration:
    """Validated runtime configuration for a ModelarDB instance.

    Parameters
    ----------
    error_bound:
        Maximum relative error in percent (uniform error norm). ``0.0``
        requests lossless compression: PMC/Swing then only fit exactly
        constant/linear stretches and Gorilla handles the rest.
    model_length_limit:
        Maximum number of data points (per series) a single model may
        represent; bounds segment length so queries stay selective.
    dynamic_split_fraction:
        A group is considered for splitting when a segment's compression
        ratio falls below ``average_ratio / dynamic_split_fraction``
        (Section 4.2). ``0`` disables dynamic splitting.
    bulk_write_size:
        Number of segments buffered before a bulk flush to the store.
    ingest_chunk_size:
        Ticks per columnar block on the ingestion path. Segments are
        bit-identical at any setting; ``1`` feeds one-row blocks (the
        baseline for ``bench_ingest``).
    models:
        Ordered model classpaths tried during ingestion. Names must be
        resolvable via :mod:`repro.models.registry`.
    correlation:
        Raw ``modelardb.correlation`` clause strings (Section 4.1). Each
        clause ORs with the others; primitives inside a clause AND.
    """

    error_bound: float = 0.0
    model_length_limit: int = DEFAULT_MODEL_LENGTH_LIMIT
    dynamic_split_fraction: int = DEFAULT_DYNAMIC_SPLIT_FRACTION
    bulk_write_size: int = DEFAULT_BULK_WRITE_SIZE
    ingest_chunk_size: int = DEFAULT_INGEST_CHUNK_SIZE
    models: tuple[str, ...] = DEFAULT_MODELS
    correlation: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.error_bound < 0.0:
            raise ConfigurationError(
                f"error_bound must be >= 0, got {self.error_bound}"
            )
        if self.model_length_limit < 1:
            raise ConfigurationError(
                f"model_length_limit must be >= 1, got {self.model_length_limit}"
            )
        if self.dynamic_split_fraction < 0:
            raise ConfigurationError(
                "dynamic_split_fraction must be >= 0, got "
                f"{self.dynamic_split_fraction}"
            )
        if self.bulk_write_size < 1:
            raise ConfigurationError(
                f"bulk_write_size must be >= 1, got {self.bulk_write_size}"
            )
        if self.ingest_chunk_size < 1:
            raise ConfigurationError(
                f"ingest_chunk_size must be >= 1, got {self.ingest_chunk_size}"
            )
        if not self.models:
            raise ConfigurationError("at least one model must be configured")

    @property
    def splitting_enabled(self) -> bool:
        """Whether dynamic group splitting (Section 4.2) is active."""
        return self.dynamic_split_fraction > 0
