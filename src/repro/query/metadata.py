"""The in-memory metadata cache of the architecture (Fig. 4).

Loaded from the Time Series table once per engine; provides the
Gid <-> Tid mappings and the member -> Gid index the query rewriter needs
(Section 6.2), plus the per-Tid scaling constants and denormalised
dimension rows that get hash-joined onto view rows (Section 6.1 — here as
plain dict lookups keyed by the integer Tid, the array-based join the
paper describes).
"""

from __future__ import annotations

from ..core.errors import QueryError
from ..storage.interface import Storage


class MetadataCache:
    """Immutable snapshot of the Time Series table for query processing."""

    def __init__(self, storage: Storage) -> None:
        self._records = {record.tid: record for record in storage.time_series()}
        if not self._records:
            raise QueryError("the Time Series table is empty")
        self._groups = storage.group_metadata()
        self._tid_to_gid = {
            record.tid: record.gid for record in self._records.values()
        }
        self._member_to_tids: dict[tuple[str, str], set[int]] = {}
        for record in self._records.values():
            for column, member in record.dimensions.items():
                key = (column, member)
                self._member_to_tids.setdefault(key, set()).add(record.tid)
        # The cache is immutable: precompute the per-query lookups.
        self._scalings = {
            tid: record.scaling for tid, record in self._records.items()
        }
        self._dimension_rows = {
            tid: record.dimensions for tid, record in self._records.items()
        }

    # ------------------------------------------------------------------
    def all_tids(self) -> set[int]:
        return set(self._records)

    def all_gids(self) -> set[int]:
        return set(self._groups)

    def gid_of(self, tid: int) -> int:
        try:
            return self._tid_to_gid[tid]
        except KeyError:
            raise QueryError(f"unknown time series id {tid}") from None

    def gids_of(self, tids: set[int]) -> set[int]:
        return {self.gid_of(tid) for tid in tids}

    def sampling_interval(self, gid: int) -> int:
        return self._groups[gid][1]

    def scaling(self, tid: int) -> float:
        return self._records[tid].scaling

    def scalings(self) -> dict[int, float]:
        return self._scalings

    def dimension_row(self, tid: int) -> dict[str, str]:
        return self._records[tid].dimensions

    def dimension_rows(self) -> dict[int, dict[str, str]]:
        return self._dimension_rows

    def dimension_columns(self) -> list[str]:
        for record in self._records.values():
            return list(record.dimensions)
        return []

    def tids_with_member(self, column: str, member: str) -> set[int]:
        """Time series whose denormalised ``column`` equals ``member``."""
        if column not in self.dimension_columns():
            raise QueryError(f"unknown dimension column {column!r}")
        return set(self._member_to_tids.get((column, member), set()))
