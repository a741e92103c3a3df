"""Segments (Definition 9) and their per-series logical explosion.

A :class:`SegmentGroup` is the stored unit: a dynamically sized
sub-sequence of a *time series group* represented by one model within the
error bound. Gaps are represented with the paper's second method
(Section 3.2): a segment lists the Tids currently in a gap, so the model
always represents a static number of series, and a new segment is started
whenever the set of gap Tids changes (Fig. 5).

Segments are stored *disconnected* (the end time is inclusive and segments
do not share boundary points), which is why interval aggregation treats the
final interval inclusively (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ModelarError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..models.base import FittedModel

#: Fixed per-segment metadata overhead in bytes (Section 3.2 cites
#: 24 + sizeof(Model) for a segment row: 8B end time, 4B size, 4B gid,
#: 4B gap bitmask, 4B mid/length bookkeeping).
SEGMENT_OVERHEAD_BYTES = 24

#: Storage cost of a (Tid, ts, te) gap triple, for the Section 3.2
#: trade-off ablation (4B tid + 8B start + 8B end).
GAP_TRIPLE_BYTES = 20

#: Extra bytes a revised segment row carries on disk (4B revision +
#: 8B knowledge time). Base-generation rows pay nothing, keeping the
#: paper's 24 + sizeof(Model) accounting exact for append-only stores.
REVISION_EXTENSION_BYTES = 12


@dataclass(frozen=True)
class SegmentGroup:
    """One stored segment for a time series group.

    Attributes
    ----------
    gid:
        The group the segment belongs to.
    start_time / end_time:
        Inclusive bounds of the represented interval. On disk the start
        time is stored as the segment *size* and recomputed as
        ``end_time - (size - 1) * si`` (Section 3.3).
    sampling_interval:
        The group's SI (from the Time Series table; duplicated here so a
        segment is self-describing at runtime).
    mid:
        Model table id of the model type.
    parameters:
        The model's encoded parameters.
    gaps:
        Tids of the group currently in a gap and therefore *not*
        represented by this segment.
    group_tids:
        All Tids of the group in column order (metadata-cache information
        carried on the runtime object; not serialised per segment).
    revision:
        Segment generation. ``0`` is the base generation produced by
        in-order ingestion; corrections and late arrivals re-fit the
        affected window and emit superseding segments keyed by
        ``(gid, end_time, revision)`` with a strictly higher revision.
        A segment is shadowed by any same-gid segment of higher revision
        overlapping its time range.
    knowledge_time:
        The store's monotonically increasing knowledge-time counter
        value stamped when the revision was flushed; ``0`` means
        unstamped (base generation, known since the beginning). ``AS OF
        k`` queries see only revisions with ``knowledge_time <= k``.
    """

    gid: int
    start_time: int
    end_time: int
    sampling_interval: int
    mid: int
    parameters: bytes
    gaps: frozenset[int] = frozenset()
    group_tids: tuple[int, ...] = ()
    revision: int = 0
    knowledge_time: int = 0

    def __post_init__(self) -> None:
        if self.end_time < self.start_time:
            raise ModelarError(
                f"segment end {self.end_time} before start {self.start_time}"
            )
        if self.sampling_interval <= 0:
            raise ModelarError("segment sampling interval must be positive")
        if (self.end_time - self.start_time) % self.sampling_interval != 0:
            raise ModelarError(
                "segment interval is not a multiple of the sampling interval"
            )
        if not self.gaps <= set(self.group_tids):
            raise ModelarError("gap tids must be a subset of the group tids")
        if self.revision < 0 or self.knowledge_time < 0:
            raise ModelarError(
                "segment revision and knowledge time must be non-negative"
            )

    def __getstate__(self) -> dict[str, object]:
        """Pickle the stored fields only: what is memoised on the
        instance (member tids, a decoded model) stays in its process
        and off the RPC wire."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of data points per represented series."""
        return (self.end_time - self.start_time) // self.sampling_interval + 1

    @property
    def member_tids(self) -> tuple[int, ...]:
        """Tids actually represented (group minus gaps), in column order."""
        if not self.gaps:
            return self.group_tids
        cached: tuple[int, ...] | None = self.__dict__.get("_member_tids")
        if cached is None:
            cached = tuple(
                tid for tid in self.group_tids if tid not in self.gaps
            )
            # The dataclass is frozen; cache via object.__setattr__.
            object.__setattr__(self, "_member_tids", cached)
        return cached

    @property
    def n_columns(self) -> int:
        return len(self.member_tids)

    def column_of(self, tid: int) -> int:
        """Model column index of ``tid`` within this segment."""
        try:
            return self.member_tids.index(tid)
        except ValueError:
            raise ModelarError(
                f"tid {tid} is not represented by this segment "
                f"(gaps={sorted(self.gaps)})"
            ) from None

    def gap_bitmask(self) -> int:
        """Gaps encoded as a bitmask over group column positions, as the
        Cassandra schema stores them (Section 3.3)."""
        mask = 0
        for position, tid in enumerate(self.group_tids):
            if tid in self.gaps:
                mask |= 1 << position
        return mask

    @staticmethod
    def gaps_from_bitmask(mask: int, group_tids: tuple[int, ...]) -> frozenset[int]:
        return frozenset(
            tid for position, tid in enumerate(group_tids) if mask >> position & 1
        )

    def timestamps(self) -> range:
        """The represented grid timestamps (start..end inclusive)."""
        return range(
            self.start_time, self.end_time + 1, self.sampling_interval
        )

    def overlaps(self, start: int | None, end: int | None) -> bool:
        """Whether the segment intersects the closed interval [start, end]."""
        if start is not None and self.end_time < start:
            return False
        if end is not None and self.start_time > end:
            return False
        return True

    def storage_bytes(self) -> int:
        """Approximate on-disk footprint (overhead + model parameters).

        Revised rows additionally carry their revision/knowledge stamp
        (:data:`REVISION_EXTENSION_BYTES`)."""
        extension = (
            REVISION_EXTENSION_BYTES
            if self.revision or self.knowledge_time
            else 0
        )
        return SEGMENT_OVERHEAD_BYTES + extension + len(self.parameters)


@dataclass(frozen=True)
class SegmentRow:
    """A per-series logical segment: one row of the Segment View.

    Produced by exploding a :class:`SegmentGroup` over its member Tids
    during query processing (Section 6.1); never stored.
    """

    tid: int
    start_time: int
    end_time: int
    sampling_interval: int
    mid: int
    parameters: bytes
    column: int
    scaling: float = 1.0
    dimensions: dict[str, str] = field(default_factory=dict)

    @property
    def length(self) -> int:
        return (self.end_time - self.start_time) // self.sampling_interval + 1


def explode(
    segment: SegmentGroup,
    scalings: dict[int, float] | None = None,
    dimension_rows: dict[int, dict[str, str]] | None = None,
    tids: set[int] | None = None,
) -> list[SegmentRow]:
    """Explode a stored group segment into Segment View rows.

    Parameters
    ----------
    segment:
        The stored segment group.
    scalings:
        Per-Tid scaling constants; aggregate results are divided by these
        during the iterate step (Section 6.1).
    dimension_rows:
        Optional denormalised dimension members per Tid, attached via the
        array-based hash join of Section 6.1.
    tids:
        When given, only rows for these Tids are produced (post-rewrite
        filtering: the store was queried by Gid, the query asked for Tids).
    """
    rows: list[SegmentRow] = []
    for column, tid in enumerate(segment.member_tids):
        if tids is not None and tid not in tids:
            continue
        rows.append(
            SegmentRow(
                tid=tid,
                start_time=segment.start_time,
                end_time=segment.end_time,
                sampling_interval=segment.sampling_interval,
                mid=segment.mid,
                parameters=segment.parameters,
                column=column,
                scaling=(scalings or {}).get(tid, 1.0),
                dimensions=(dimension_rows or {}).get(tid, {}),
            )
        )
    return rows
