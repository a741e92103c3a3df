"""Query rewriting: Tids and members to Gids (Section 6.2).

User queries reference time series (Tids) and dimension members; segments
are stored per group (Gid). Before hitting storage, the WHERE clause's
Tid and member predicates are rewritten to the Gids of the groups that
contain matching series — that is all the segment store has to index —
and the original Tid set is kept to filter the exploded per-series rows
afterwards (Figs. 11 and 12's *Rewriting* step).

The rewriter also decides, per select-list subtree, whether an aggregate
can be answered *segment-only* — directly from model parameters, without
reconstructing data points (Section 6.1) — or has to materialize. The
decision is part of the plan: the engine, the workers of the sharded
tier and the test oracle all take exactly the same route.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage.scan import SegmentScan
from .metadata import MetadataCache
from .sql import Call, Forecast, Query


@dataclass(frozen=True)
class Predicates:
    """The WHERE-clause facts the rewriter understands.

    ``tids`` — an explicit Tid restriction (None means all);
    ``members`` — equality predicates on denormalised dimension columns;
    ``start_time``/``end_time`` — the closed time interval restriction.
    """

    tids: frozenset[int] | None = None
    members: tuple[tuple[str, str], ...] = ()
    start_time: int | None = None
    end_time: int | None = None


@dataclass(frozen=True)
class RewrittenQuery:
    """Storage-level plan: which partitions to scan, which rows to keep."""

    gids: frozenset[int]
    tids: frozenset[int]
    start_time: int | None
    end_time: int | None
    #: ``AS OF`` knowledge-time bound; None reads the latest-known state.
    as_of: int | None = None

    def scan_request(self, *, all_revisions: bool = False) -> SegmentScan:
        """The typed storage read for this plan.

        Every reader of the plan builds its scan here, so the
        partitions visited, the time clip, and the revision resolution
        are shared verbatim, ``AS OF`` reads included.
        """
        return SegmentScan(
            gids=tuple(sorted(self.gids)),
            start_time=self.start_time,
            end_time=self.end_time,
            as_of=self.as_of,
            all_revisions=all_revisions,
        )


@dataclass(frozen=True)
class PushdownDecision:
    """One select-list subtree's execution route, with its reason.

    ``segment_only`` is True when the subtree is answered from segment
    metadata and model parameters alone; False when execution has to
    reconstruct (materialize) data points. ``reason`` is the
    human-readable justification surfaced by ``EXPLAIN ANALYZE``.
    """

    subtree: str
    segment_only: bool
    reason: str

    @property
    def route(self) -> str:
        return "segment" if self.segment_only else "materialize"


def decide_pushdown(query: Query) -> tuple[PushdownDecision, ...]:
    """Per-subtree routing decisions for one parsed query.

    An aggregate subtree is provably segment-answerable when no ``Value``
    predicate constrains it: Tid/member predicates reduce to a Gid scan
    plus a Tid filter on exploded rows, and every supported ``TS``
    predicate narrows the closed query interval, which segment execution
    absorbs exactly by clipping each segment to the inclusive model index
    range covering the interval — no reconstructed point is consulted.
    A ``Value`` predicate, by contrast, filters on reconstructed values,
    so any aggregate under it must materialize. The route stays
    ``materialize`` even though the columnar reader skips, before
    decode, every series of a segment whose model bounds cannot meet
    the predicate (:func:`repro.query.columnar.partition_points`): what
    survives is still decoded and filtered point by point.

    Selections have one decision for their scan: Data Point View
    selections return points and materialize by definition; Segment View
    reads (selections and aggregates) never leave segment metadata —
    ``Value`` predicates do not apply to that view and are ignored there,
    matching the engine's long-standing semantics.
    """
    value_conditions = [
        condition
        for condition in query.where
        if condition.column.lower() == "value"
    ]
    if query.has_forecast:
        return tuple(
            PushdownDecision(
                f"FORECAST(TS,{item.horizon})",
                True,
                "forecasts extrapolate model parameters; no stored "
                "point is reconstructed",
            )
            for item in query.select
            if isinstance(item, Forecast)
        )
    if query.similar_to is not None:
        return (
            PushdownDecision(
                "SIMILAR TO",
                True,
                "similarity prunes on segment envelopes from model "
                "parameters; only surviving candidate windows decode",
            ),
        )
    if not query.is_aggregate:
        if query.view == "segment":
            decision = PushdownDecision(
                "scan", True, "segment view selections read segment metadata"
            )
        else:
            decision = PushdownDecision(
                "scan", False, "point selections return reconstructed points"
            )
        return (decision,)
    decisions = []
    for item in query.select:
        if not isinstance(item, Call):
            continue
        subtree = f"{item.function}({item.argument})"
        if query.view == "segment":
            decisions.append(
                PushdownDecision(
                    subtree,
                    True,
                    "segment view aggregates fold model parameters",
                )
            )
        elif value_conditions:
            predicate = value_conditions[0]
            decisions.append(
                PushdownDecision(
                    subtree,
                    False,
                    "Value predicate "
                    f"({predicate.column} {predicate.operator} "
                    f"{predicate.value}) filters reconstructed points",
                )
            )
        else:
            decisions.append(
                PushdownDecision(
                    subtree,
                    True,
                    "no Value predicate; TS bounds clip segment index "
                    "ranges exactly",
                )
            )
    return tuple(decisions)


def rewrite(
    predicates: Predicates,
    cache: MetadataCache,
    as_of: int | None = None,
) -> RewrittenQuery:
    """Rewrite Tid/member predicates into a Gid scan plus a Tid filter."""
    tids = (
        set(predicates.tids)
        if predicates.tids is not None
        else cache.all_tids()
    )
    for column, member in predicates.members:
        tids &= cache.tids_with_member(column, member)
    gids = cache.gids_of(tids)
    return RewrittenQuery(
        gids=frozenset(gids),
        tids=frozenset(tids),
        start_time=predicates.start_time,
        end_time=predicates.end_time,
        as_of=as_of,
    )
