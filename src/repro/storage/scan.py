"""The typed segment read request and revision visibility rules.

:class:`SegmentScan` replaces the positional/keyword filter signature
that ``Storage.segments(...)`` had grown: one frozen request object
carries every push-down predicate — the Gid partitions, the time
interval, the ``AS OF`` knowledge time, and the ``all_revisions``
escape hatch the sharded tier uses to ship whole revision histories.
It crosses the cluster RPC boundary unchanged (pure ints/tuples,
registered with reprolint's RPR004 rule), so the engine, the columnar
reader, the shard tier and the baselines adapter all speak the same
request type.

:func:`resolve_visible` is the single implementation of latest-wins
revision resolution shared by every backend: a segment is shadowed iff
some same-gid segment of *strictly higher* revision (restricted to
``knowledge_time <= as_of`` when an ``AS OF`` bound is given) overlaps
its time range. Base-generation segments (revision 0) are known since
the beginning and are never hidden by an ``AS OF`` bound itself — only
by visible superseding revisions. Survivors keep their append order,
which is what makes a zero-revision store's scan bit-identical to the
pre-revision code path.

:class:`Partition` is the resident table both backends keep per Gid;
its :meth:`~Partition.table` is the single implementation turning a
partition and a request into a :class:`Table` of survivors, and
:meth:`Table.clip` the single implementation of the request's time
interval: which rows overlap it, and which model indexes of each.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
import numpy.typing as npt

from ..core.segment import SegmentGroup

_Times = npt.NDArray[np.int64]


@dataclass(frozen=True)
class SegmentScan:
    """One segment-store read request (predicate push-down, Fig. 4).

    Attributes
    ----------
    gids:
        Partitions to scan; ``None`` scans every partition.
    start_time / end_time:
        Closed time interval; only overlapping segments are returned.
    as_of:
        Knowledge-time bound: only revisions stamped at or before this
        counter value are considered when resolving latest-wins.
        ``None`` reads the latest-known state.
    all_revisions:
        Bypass latest-wins resolution and return every stored revision
        (the sharded tier ships whole histories with this).
    """

    gids: tuple[int, ...] | None = None
    start_time: int | None = None
    end_time: int | None = None
    as_of: int | None = None
    all_revisions: bool = False

    def __post_init__(self) -> None:
        if self.gids is not None and not isinstance(self.gids, tuple):
            object.__setattr__(self, "gids", tuple(self.gids))

    def partitions(self, known: Iterable[int]) -> list[int]:
        """The sorted partition list this request scans."""
        if self.gids is None:
            return sorted(known)
        return sorted(set(self.gids))


def visible_at(segment: SegmentGroup, as_of: int | None) -> bool:
    """Whether a segment's revision was known at ``as_of``.

    Base-generation segments are always known; stamped revisions only
    from their knowledge time onward.
    """
    if segment.revision == 0:
        return True
    return as_of is None or segment.knowledge_time <= as_of


def resolve_visible(
    partition: Sequence[SegmentGroup], as_of: int | None = None
) -> Sequence[SegmentGroup]:
    """Latest-wins resolution over one Gid partition, in append order.

    Filters to revisions known at ``as_of``, then drops every segment
    overlapped by a strictly-higher-revision survivor candidate. The
    rule is monotone in revision: a base segment stays hidden by a
    stored revision 1 even after revision 2 shadows revision 1, because
    shadowing only requires *some* higher revision to overlap.

    Zero-revision partitions take a fast path returning the input
    sequence unchanged (same objects, same order) — the bit-identity
    guarantee for append-only stores.
    """
    if all(segment.revision == 0 for segment in partition):
        return partition
    visible = [
        segment for segment in partition if visible_at(segment, as_of)
    ]
    # Only a revision can shadow anything, and revisions are few.
    revisions = [segment for segment in visible if segment.revision]
    return [
        segment
        for segment in visible
        if not any(
            other.revision > segment.revision
            and other.overlaps(segment.start_time, segment.end_time)
            for other in revisions
        )
    ]


@dataclass(eq=False, slots=True)
class Table:
    """Segments in append order with their time bounds and sampling
    intervals as arrays (one interval per row: a partition may hold a
    row of another group layout).

    Published whole and never changed, except for ``fold``: a memo slot
    the query layer fills with per-row fold columns (see
    :meth:`repro.query.cache.SegmentCache.fold_columns`). Storage never
    reads it; it only hands a table's memo to the table that extends
    it, so the memo always covers a prefix of the rows, is built once
    per row, and dies with its table. A table of survivors names the
    table of every row it was resolved from and its rows' positions
    there (``source``), so its memo is a gather from that table's.
    """

    segments: Sequence[SegmentGroup]
    starts: _Times
    ends: _Times
    intervals: _Times
    fold: object = None
    source: tuple["Table", npt.NDArray[np.intp]] | None = None

    @classmethod
    def of(cls, segments: Sequence[SegmentGroup]) -> "Table":
        count = len(segments)
        return cls(
            segments,
            np.fromiter((s.start_time for s in segments), np.int64, count),
            np.fromiter((s.end_time for s in segments), np.int64, count),
            np.fromiter((s.sampling_interval for s in segments), np.int64, count),
        )

    def survivors(self, as_of: int | None = None) -> "Table":
        """This table's latest-wins survivors at ``as_of``, with their
        positions here."""
        segments = resolve_visible(self.segments, as_of)
        where = {id(segment): row for row, segment in enumerate(self.segments)}
        positions = np.fromiter(
            (where[id(segment)] for segment in segments), np.intp, len(segments)
        )
        return Table(
            segments,
            self.starts[positions],
            self.ends[positions],
            self.intervals[positions],
            source=(self, positions),
        )

    def clip(
        self, start: int | None, end: int | None
    ) -> tuple[npt.NDArray[np.intp], _Times, _Times]:
        """The rows intersecting the closed interval, in ascending order,
        and each one's inclusive model index range inside it.

        ``first`` is the row's first tick at or after ``start`` (ceiling
        division), ``last`` its last tick at or before ``end`` (floor
        division). A row that overlaps the interval but holds no tick in
        it comes back with ``first > last``; readers skip it.
        """
        keep = np.ones(len(self.segments), dtype=bool)
        if start is not None:
            keep &= self.ends >= start
        if end is not None:
            keep &= self.starts <= end
        rows = np.flatnonzero(keep)
        starts, ends = self.starts[rows], self.ends[rows]
        intervals = self.intervals[rows]
        first = np.zeros(len(rows), dtype=np.int64)
        last = (ends - starts) // intervals
        # Only rows the bound cuts are rounded, so an out-of-range bound
        # never meets int64 arithmetic.
        if start is not None and (late := starts < start).any():
            first[late] = -((starts[late] - start) // intervals[late])
        if end is not None and (early := ends > end).any():
            last[early] = (end - starts[early]) // intervals[early]
        return rows, first, last


class Partition:
    """The resident table of one Gid partition.

    Holds every stored row in append order and the latest-wins
    survivors of an unbounded read (the same :class:`Table` while the
    partition has no revisions). Both are published together as one
    immutable pair, so a reader that read the pair once sees a
    consistent prefix of the partition without holding a lock;
    :meth:`extend` calls must be serialised by the owning store. An
    extended table inherits its prefix's fold memo, so the query layer
    builds fold columns for the appended rows only, and survivors
    gather theirs from it. ``offset`` is for a file-backed owner: the
    bytes of the partition file decoded into the table so far.
    """

    __slots__ = ("offset", "_published")

    def __init__(self) -> None:
        self.offset = 0
        empty = Table.of(())
        self._published = (empty, empty)

    def extend(self, segments: Sequence[SegmentGroup]) -> None:
        """Append rows (already stamped) and re-resolve the survivors."""
        if not segments:
            return
        rows, latest = self._published
        has_revisions = latest is not rows or any(
            segment.revision for segment in segments
        )
        added = Table.of(segments)
        rows = Table(
            [*rows.segments, *segments],
            np.concatenate((rows.starts, added.starts)),
            np.concatenate((rows.ends, added.ends)),
            np.concatenate((rows.intervals, added.intervals)),
            rows.fold,
        )
        self._published = (
            rows, rows.survivors() if has_revisions else rows
        )

    def table(self, request: SegmentScan) -> Table:
        """The partition's survivors for one request, in append order,
        before the request's time interval is applied.

        The one place a table and a request meet, shared by every
        backend. ``all_revisions`` reads every row and an unbounded read
        the resident survivors; only an ``AS OF`` read of a partition
        that has revisions resolves visibility on demand, into a
        transient table.
        """
        rows, latest = self._published
        if request.all_revisions:
            return rows
        if request.as_of is not None and latest is not rows:
            return rows.survivors(request.as_of)
        return latest


def stamp_revisions(
    segments: Sequence[SegmentGroup], counter: int
) -> tuple[list[SegmentGroup], int]:
    """Stamp unstamped revisions with the next knowledge tick.

    Called by ``Storage.insert_segments``: the per-store knowledge
    counter advances one tick per flush, and every revision segment
    that is not yet stamped (``knowledge_time == 0``) receives the new
    tick. Already-stamped segments are preserved verbatim — the sharded
    tier ships stored revisions to workers through ``insert_segments``
    and their original stamps must survive so ``AS OF`` answers match
    the embedded engine — and the counter advances past any preserved
    stamp to stay monotone.

    Returns the (possibly re-stamped) segments and the new counter.
    """
    if not segments:
        return list(segments), counter
    counter += 1
    stamped: list[SegmentGroup] = []
    for segment in segments:
        if segment.revision and not segment.knowledge_time:
            segment = replace(segment, knowledge_time=counter)
        elif segment.knowledge_time > counter:
            counter = segment.knowledge_time
        stamped.append(segment)
    return stamped, counter
