"""The master's shared steps, and the report of one cluster ingest.

Reproduces the distribution properties the evaluation relies on:

* the partitioner's groups are assigned whole to the least-loaded worker
  (Section 3.1), so correlated series are always ingested on one node
  and no data migrates afterwards;
* queries are rewritten at the master and scattered to the workers that
  own relevant groups; workers return mergeable partial aggregates which
  the master merges and finalizes (Algorithm 5's distributed structure);
* because groups are pinned, no shuffle is ever needed — the property
  behind Fig. 20's linear scale-out.

The one master that applies these steps is
:class:`~repro.shard.ShardedCluster`; the cluster classes differ only in
the transport that reaches the workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence, TypeVar

from ..core.group import TimeSeriesGroup
from ..query.analytics import merge_analytics_rows
from ..query.engine import PartialResult, merge_partial_results
from ..query.sql import Condition, Query, tid_values

if TYPE_CHECKING:
    from ..shard.map import SegmentBatch

#: What placement weighs and pins: a raw group (``ingest``) or a stored
#: group's segments (``load_storage``).
Placeable = TypeVar("Placeable", bound="TimeSeriesGroup | SegmentBatch")


@dataclass
class ClusterIngestReport:
    """Timing and volume of one cluster ingestion."""

    worker_seconds: list[float]
    data_points: int
    #: Measured wall-clock seconds of the whole ship. Over in-process
    #: workers, which run in turn, this is their sequential total.
    wall_seconds: float = 0.0

    @property
    def makespan(self) -> float:
        """Modelled parallel wall time: the slowest worker."""
        return max(self.worker_seconds) if self.worker_seconds else 0.0

    @property
    def total_work(self) -> float:
        return sum(self.worker_seconds)

    @property
    def throughput(self) -> float:
        """Data points per modelled parallel second."""
        return self.data_points / self.makespan if self.makespan else 0.0


def restrict_query_to_tids(query: Query, owned: set[int]) -> Query | None:
    """Restrict a query to ``owned`` series.

    The master's routing step: intersects any ``Tid``/``Tid IN``
    predicates (read by :func:`~repro.query.sql.tid_values`, so a
    malformed literal is a :class:`QueryError`) with the Tids a shard
    owns and replaces them by one explicit ``Tid IN`` predicate — added
    even when the query names no Tid, so a worker holding several
    shards answers for exactly the shard it was asked about. Returns
    None when the intersection is empty (the shard is pruned from the
    scatter).
    """
    restricted = frozenset(owned)
    for condition in query.where:
        if condition.column.lower() == "tid":
            restricted &= tid_values(condition)
    if not restricted:
        return None
    where = tuple(
        condition
        for condition in query.where
        if condition.column.lower() != "tid"
    ) + (Condition("Tid", "IN", tuple(sorted(restricted))),)
    # dataclasses.replace keeps every other field (similar_to, limit,
    # ...) intact — a positional rebuild would silently drop them.
    return replace(query, where=where)


def assign_least_loaded(
    items: Sequence[Placeable],
    owned: dict[int, Sequence[TimeSeriesGroup | SegmentBatch]],
) -> list[tuple[Placeable, int]]:
    """Least-loaded assignment (Section 3.1): heaviest items first, each
    to the shard with the fewest data points so far.

    ``items`` are raw groups or stored groups' segment batches, both
    weighed in data points; ``owned`` maps every eligible shard to the
    items it already holds, and ties go to the first shard in its
    order. Returns the (item, shard) placements in assignment order.
    """
    loads = {
        shard: sum(_points(item) for item in held)
        for shard, held in owned.items()
    }
    placed = []
    for item in sorted(items, key=_points, reverse=True):
        target = min(loads, key=loads.__getitem__)
        loads[target] += _points(item)
        placed.append((item, target))
    return placed


def _points(item: TimeSeriesGroup | SegmentBatch) -> int:
    """A group's raw points, or the points a batch's segments represent
    (every revision counted)."""
    if isinstance(item, TimeSeriesGroup):
        return sum(len(ts) for ts in item)
    return sum(
        segment.length * segment.n_columns for segment in item.segments
    )


def gather(
    query: Query, outputs: Sequence[PartialResult | list[dict]]
) -> list[dict]:
    """Merge the ordered worker/shard outputs of one scattered query.

    Aggregates arrive as :class:`PartialResult`s and fold associatively;
    anything else arrives as row lists, concatenated in output order and
    then — because workers answer in worker, not Tid, order — re-cut to
    the global top-k (similarity) or re-sorted by (Tid, TS) (forecasts).
    A no-op for plain selections.
    """
    partials = [out for out in outputs if isinstance(out, PartialResult)]
    if partials:
        return merge_partial_results(partials)
    return merge_analytics_rows(
        query, [row for output in outputs for row in output]
    )
