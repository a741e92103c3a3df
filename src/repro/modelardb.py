"""The single-node ModelarDB facade.

Ties the subsystems together behind the API most users want:

    from repro import Configuration, ModelarDB

    with ModelarDB.open("data/db",
                        config=Configuration(error_bound=5.0,
                                             correlation=["Location 2"]),
                        dimensions=my_dimensions) as db:
        db.ingest(my_time_series)
        db.sql("SELECT Tid, SUM_S(*) FROM Segment WHERE Tid IN (1, 2) "
               "GROUP BY Tid")

:meth:`ModelarDB.open` owns the storage wiring: a path opens (or
creates) a persistent :class:`~repro.storage.FileStorage` directory,
``None`` selects the in-memory store. Constructing :class:`ModelarDB`
directly with an explicit ``storage`` remains supported for custom
backends.

Construction with ``group_compression=False`` disables the partitioner
(every series becomes its own group), which makes the engine behave as
ModelarDB v1 — multi-model compression without group compression — the
paper's main model-based baseline.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator, Sequence

from .core.config import Configuration
from .core.dimensions import DimensionSet
from .core.group import TimeSeriesGroup
from .core.timeseries import TimeSeries
from .ingest.ingestor import Ingestor
from .ingest.revisions import CorrectionPoint, apply_corrections
from .ingest.stats import IngestStats
from .models.base import ModelType
from .models.registry import ModelRegistry
from .partitioner.grouping import assign_groups, check_against_store
from .query.engine import QueryEngine
from .query.views import DataPointRow
from .storage.filestore import FileStorage
from .storage.interface import Storage
from .storage.memory import MemoryStorage
from .storage.schema import records_for_groups


class ModelarDB:
    """A single-node ModelarDB instance.

    Parameters
    ----------
    config:
        Runtime configuration (error bound, model cascade, correlation
        clauses, ...). Defaults to a lossless single-model-per-series
        setup with Table 1's parameters.
    storage:
        Segment store backend; defaults to :class:`MemoryStorage`. Pass a
        :class:`~repro.storage.FileStorage` for persistence.
    dimensions:
        The data set's dimensions (Definition 7); required for
        member-based correlation primitives and dimension queries.
    extra_models:
        User-defined model types registered in addition to PMC, Swing
        and Gorilla (the extension API of Section 3.1).
    group_compression:
        When False the partitioner is bypassed and every time series is
        ingested alone, reproducing ModelarDB v1.
    """

    def __init__(
        self,
        config: Configuration | None = None,
        storage: Storage | None = None,
        dimensions: DimensionSet | None = None,
        extra_models: Iterable[ModelType] = (),
        group_compression: bool = True,
    ) -> None:
        self.config = config if config is not None else Configuration()
        self.storage = storage if storage is not None else MemoryStorage()
        self.dimensions = (
            dimensions if dimensions is not None else DimensionSet()
        )
        self.registry = ModelRegistry(extra_models)
        self.group_compression = group_compression
        self.stats = IngestStats()
        self._groups: dict[int, TimeSeriesGroup] = {}
        self._engine = QueryEngine(
            self.storage, self.registry, error_bound=self.config.error_bound
        )
        self._flush_listeners: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: str | os.PathLike | None = None,
        *,
        config: Configuration | None = None,
        dimensions: DimensionSet | None = None,
        extra_models: Iterable[ModelType] = (),
        group_compression: bool = True,
    ) -> "ModelarDB":
        """Open a ModelarDB instance over a storage directory.

        ``path`` names the :class:`~repro.storage.FileStorage` directory
        (created on first use, reopened afterwards); ``None`` gives an
        in-memory instance. The result is a context manager, so the
        canonical form is::

            with ModelarDB.open("data/db") as db:
                db.ingest(series)
        """
        storage: Storage = (
            MemoryStorage() if path is None else FileStorage(path)
        )
        return cls(
            config,
            storage=storage,
            dimensions=dimensions,
            extra_models=extra_models,
            group_compression=group_compression,
        )

    def __enter__(self) -> "ModelarDB":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    @property
    def groups(self) -> list[TimeSeriesGroup]:
        """The most recently ingested group object of each Gid."""
        return list(self._groups.values())

    def partition(self, series: Sequence[TimeSeries]) -> list[TimeSeriesGroup]:
        """Partition series into groups using the configured hints.

        A Tid is partitioned at its first ingest only. A Tid the store
        already records joins its stored group with its stored scaling,
        and the batch must bring every member of that group
        (:class:`~repro.core.errors.GroupError` otherwise). New Tids are
        grouped and numbered after the largest stored Gid.
        """
        return assign_groups(
            series,
            self.storage.time_series(),
            self.config.correlation if self.group_compression else (),
            self.dimensions,
        )

    def ingest(
        self, data: Sequence[TimeSeries] | Sequence[TimeSeriesGroup]
    ) -> IngestStats:
        """Ingest time series end to end.

        Accepts either plain :class:`TimeSeries` (partitioned by
        :meth:`partition`) or pre-partitioned :class:`TimeSeriesGroup`
        objects (ingested as given). Mixing the two in one call is an
        error. A Tid is partitioned at its first ingest; later calls
        append to its stored group, keep its stored scaling, and must
        bring every member of that group. Anything that would rewrite
        the stored Time Series table raises
        :class:`~repro.core.errors.GroupError` before a record or
        segment is written.
        """
        items = list(data)
        grouped = [isinstance(item, TimeSeriesGroup) for item in items]
        if any(grouped):
            if not all(grouped):
                raise TypeError(
                    "ingest() takes either TimeSeries or TimeSeriesGroup "
                    "objects, not a mix"
                )
            check_against_store(items, self.storage.time_series())
            return self._ingest_groups(items)
        return self._ingest_groups(self.partition(items))

    def _ingest_groups(
        self, groups: Sequence[TimeSeriesGroup]
    ) -> IngestStats:
        """Ingest groups already checked against the stored table.

        The new groups' Time Series records (which a segment write
        needs) and :attr:`groups` are updated after the last fitting
        round, just before the first write: a call that raises while
        fitting leaves them as it found them.
        """
        stored = {record.gid for record in self.storage.time_series()}
        records = records_for_groups(
            [group for group in groups if group.gid not in stored],
            self.dimensions or None,
        )

        def land_records() -> None:
            self._groups.update((group.gid, group) for group in groups)
            self.storage.insert_time_series(records)
            self.storage.insert_model_table(self.registry.model_table())

        ingestor = Ingestor(
            self.config, self.registry, self.storage,
            on_flush=self._notify_flush, before_writes=land_records,
        )
        stats = ingestor.ingest(groups)
        self.stats.merge(stats)
        self._engine.refresh_metadata()
        return stats

    def add_flush_listener(self, listener: Callable[[], None]) -> None:
        """Register a callback fired whenever a bulk write lands.

        The serving layer registers its query-result cache here so
        cached rows are invalidated the moment new segments become
        visible (the paper's online-analytics property, Section 5).
        """
        self._flush_listeners.append(listener)

    def _notify_flush(self) -> None:
        self._engine.invalidate_caches()
        for listener in self._flush_listeners:
            listener()

    def correct(
        self, points: Iterable[CorrectionPoint]
    ) -> IngestStats:
        """Apply late or corrected data points as segment revisions.

        ``points`` is an iterable of ``(tid, timestamp, value)`` tuples
        (``None`` as the value erases the point). Each affected group
        window is re-fitted and superseding revisions are flushed,
        stamped with the store's next knowledge-time tick — reads
        default to the corrected state, ``AS OF`` a prior
        :meth:`knowledge_time` reproduces the pre-correction answers.
        """
        stats = apply_corrections(
            self.storage, self.config, self.registry, points
        )
        self.stats.merge(stats)
        self._notify_flush()
        return stats

    def knowledge_time(self) -> int:
        """The store's current knowledge-time counter.

        Capture it before :meth:`correct` to query the pre-correction
        state later with ``AS OF``.
        """
        return self.storage.knowledge_time()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, sql: str, *, as_of: int | None = None) -> list[dict]:
        """Execute one SQL statement — the public query entrypoint.

        ``as_of`` bounds the read at a knowledge time (equivalent to an
        ``AS OF`` clause in the statement).
        """
        return self._engine.sql(sql, as_of=as_of)

    def sql(self, text: str) -> list[dict]:
        """Execute a SQL statement against the views (Section 6.1).

        Kept as a convenience alias of :meth:`query`.
        """
        return self.query(text)

    def aggregate(self, function: str, **kwargs) -> list[dict]:
        """Programmatic aggregate; see :meth:`QueryEngine.aggregate`."""
        return self._engine.aggregate(function, **kwargs)

    def points(self, **kwargs) -> Iterator[DataPointRow]:
        """Programmatic Data Point View scan."""
        return self._engine.points(**kwargs)

    @property
    def engine(self) -> QueryEngine:
        return self._engine

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Bytes used by the segment store."""
        return self.storage.size_bytes()

    def segment_count(self) -> int:
        return self.storage.segment_count()

    def close(self) -> None:
        self.storage.close()
