"""Similarity search on models (the paper's future-work item ii).

Section 9 lists "supporting high level analytical queries, e.g.,
similarity search, to be performed directly on user-defined models" as
future work. The implementation lives in :mod:`repro.query.analytics`
(which also exposes it through SQL as ``SIMILAR TO``): one Segment View
pass builds a :class:`~repro.query.analytics.SignatureIndex` of
per-segment level envelopes, a vectorised per-window lower bound prunes
from model parameters alone, and only windows whose bound beats the
current k-th best distance are verified against reconstructed values.

This module keeps the original programmatic entry point —
``similarity_search(engine, pattern, k, tids)`` — as a thin adapter
over that index.
"""

from __future__ import annotations

from typing import Sequence

from .analytics import Match, SearchStats, SignatureIndex, search
from .engine import QueryEngine, _conditions_for, plan
from .sql import Query, Star

__all__ = ["Match", "SearchStats", "similarity_search"]


def similarity_search(
    engine: QueryEngine,
    pattern: Sequence[float],
    k: int = 1,
    tids: Sequence[int] | None = None,
    stats: SearchStats | None = None,
) -> list[Match]:
    """Find the ``k`` sub-sequences closest to ``pattern``.

    The pattern is compared against every aligned window of every
    requested series under the Euclidean distance; windows containing
    gaps are skipped. Returns matches sorted by distance.
    """
    query = Query("segment", (Star(),), _conditions_for(tids, (), None, None))
    scan = plan(query, engine.metadata).scan
    index = SignatureIndex(engine._segment_view().rows(scan))
    return search(index, pattern, k, stats)
