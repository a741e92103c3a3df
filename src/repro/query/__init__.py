"""Query processing: views, aggregates on models, time rollups, SQL."""

from .aggregates import Aggregate, aggregate_by_name, aggregate_names
from .cache import SegmentCache
from .engine import QueryEngine, parse_timestamp
from .metadata import MetadataCache
from .rewriter import Predicates, RewrittenQuery, rewrite
from .rollup import (
    DATEPART_LEVELS,
    TIME_LEVELS,
    datepart_of,
    floor_to_level,
    format_bucket,
    is_datepart,
    next_boundary,
    parse_cube_function,
)
from .similarity import Match, SearchStats, similarity_search
from .sql import Call, Column, Condition, Query, Star, parse
from .views import DataPointRow, SegmentView, SegmentViewRow

__all__ = [
    "Aggregate",
    "aggregate_by_name",
    "aggregate_names",
    "SegmentCache",
    "QueryEngine",
    "parse_timestamp",
    "MetadataCache",
    "Predicates",
    "RewrittenQuery",
    "rewrite",
    "DATEPART_LEVELS",
    "TIME_LEVELS",
    "datepart_of",
    "is_datepart",
    "floor_to_level",
    "format_bucket",
    "next_boundary",
    "parse_cube_function",
    "Match",
    "SearchStats",
    "similarity_search",
    "Call",
    "Column",
    "Condition",
    "Query",
    "Star",
    "parse",
    "DataPointRow",
    "SegmentView",
    "SegmentViewRow",
]
