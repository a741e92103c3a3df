"""Which entry points the traced run wraps, and the per-layer metrics.

One :class:`~benchmarks.suite.trace.Target` per public entry point of
each ``src/repro/<layer>``; :func:`derive` turns the recorded spans and
counts into the per-layer metrics named in ``BENCHMARK.json``. Times
ending ``_s`` are inclusive (the span's own duration summed over the
run); ``_self_s`` and ``shard.worker_wait_s`` are exclusive of child
spans. A metric whose layer a workload never enters reads 0.
"""

from __future__ import annotations

import warnings
from typing import Any

from .trace import Spans, Target

#: Span around each harness-level operation (``ingest``/``query``/...).
OPERATION_SPAN = "bench.op"

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("partitioner.group_s", "s", "lower"),
    ("partitioner.groups", "count", "lower"),
    ("ingest.chunk_s", "s", "lower"),
    ("ingest.generator_self_s", "s", "lower"),
    ("ingest.segments", "count", "lower"),
    ("ingest.scalar_fallback_ticks", "count", "lower"),
    ("ingest.correct_s", "s", "lower"),
    ("ingest.revisions", "count", "lower"),
    ("models.pmc_fit_s", "s", "lower"),
    ("models.swing_fit_s", "s", "lower"),
    ("models.gorilla_fit_s", "s", "lower"),
    ("models.fit_useful_ratio", "ratio", "higher"),
    ("models.decode_s", "s", "lower"),
    ("models.values_block_s", "s", "lower"),
    ("storage.encode_s", "s", "lower"),
    ("storage.insert_s", "s", "lower"),
    ("storage.flush_s", "s", "lower"),
    ("storage.flushes", "count", "lower"),
    ("storage.bytes_written", "B", "lower"),
    ("storage.scan_s", "s", "lower"),
    ("storage.decode_s", "s", "lower"),
    ("storage.segments_scanned", "count", "lower"),
    ("storage.resolve_visible_s", "s", "lower"),
    ("storage.hidden_ratio", "ratio", "lower"),
    ("query.parse_s", "s", "lower"),
    ("query.plan_s", "s", "lower"),
    ("query.execute_self_s", "s", "lower"),
    ("query.segment_cache_hit_ratio", "ratio", "higher"),
    ("query.segments_per_row", "ratio", "lower"),
    ("query.rows", "count", "lower"),
    ("server.wire_decode_s", "s", "lower"),
    ("server.wire_encode_s", "s", "lower"),
    ("server.response_bytes", "B", "lower"),
    ("server.dispatch_s", "s", "lower"),
    ("server.result_cache_hit_ratio", "ratio", "higher"),
    ("server.handoff_wait_s", "s", "lower"),
    ("server.queued", "count", "lower"),
    ("server.rejected_busy", "count", "lower"),
    ("server.unattributed_s", "s", "lower"),
    ("shard.sql_s", "s", "lower"),
    ("shard.merge_s", "s", "lower"),
    ("shard.worker_wait_s", "s", "lower"),
    ("shard.failovers", "count", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
)

SEGMENT_CACHE = "query.segment_cache"

#: Fitter class -> model-table name, filled by :func:`targets`.
_FITTER_MODELS: dict[type, str] = {}


def _fit_span(args: tuple, kwargs: dict, result: Any) -> str:
    return "models.fit." + _FITTER_MODELS.get(type(args[0]), "other")


def _count_extend(add, args: tuple, kwargs: dict, result: Any) -> None:
    if type(args[0]) in _FITTER_MODELS:
        add("models.points_fitted", result * args[0].n_columns)


def _count_append(add, args: tuple, kwargs: dict, result: Any) -> None:
    if result and type(args[0]) in _FITTER_MODELS:
        add("models.points_fitted", args[0].n_columns)


def _count_groups(add, args: tuple, kwargs: dict, result: Any) -> None:
    add("partitioner.groups", len(result))


def _count_revisions(add, args: tuple, kwargs: dict, result: Any) -> None:
    add("ingest.revisions", result.revisions)


def _count_written(add, args: tuple, kwargs: dict, result: Any) -> None:
    add("storage.bytes_written", len(result))


def _count_scanned(add, args: tuple, kwargs: dict, result: Any) -> None:
    add("storage.segments_scanned", result)


def _count_visible(add, args: tuple, kwargs: dict, result: Any) -> None:
    add("storage.resolve_in", len(args[0]))
    add("storage.resolve_out", len(result))


def _count_rows(add, args: tuple, kwargs: dict, result: Any) -> None:
    add("query.rows", len(result))


def _decode_span(args: tuple, kwargs: dict, result: Any) -> str:
    # Only query frames are handed to the dispatcher; pings and stats
    # requests must not enter the hand-off arithmetic.
    if isinstance(result, dict) and result.get("op") == "query":
        return "server.wire_decode"
    return "server.wire_decode_other"


def _count_frame(add, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        add("server.response_bytes", len(result))


def _count_failovers(add, args: tuple, kwargs: dict, result: Any) -> None:
    add("shard.failovers", result[1].retries)


def _register_fitters() -> None:
    """Name each registered fitter class after its model-table entry."""
    from repro.models.registry import ModelRegistry

    registry = ModelRegistry()
    for name in registry.model_table().values():
        fitter = registry.by_name(name).fitter(1, 1.0, 1)
        _FITTER_MODELS[type(fitter)] = name.lower()


def targets() -> list[Target]:
    """The entry points wrapped in a traced run."""
    try:
        _register_fitters()
    except (ImportError, AttributeError, TypeError) as error:
        warnings.warn(
            f"could not name the registered fitters ({error}); "
            "models.*_fit_s will be missing",
            RuntimeWarning,
            stacklevel=2,
        )
    return [
        Target(
            "repro.partitioner.grouping:group_from_config",
            "partitioner.group",
            count=_count_groups,
        ),
        Target(
            "repro.ingest.ingestor:group_tick_blocks",
            "ingest.chunk",
            kind="generator",
        ),
        Target(
            "repro.ingest.generator:SegmentGenerator.tick_block",
            "ingest.generator",
        ),
        Target(
            "repro.ingest.generator:SegmentGenerator.close", "ingest.generator"
        ),
        Target(
            "repro.ingest.revisions:apply_corrections",
            "ingest.correct",
            count=_count_revisions,
        ),
        Target(
            "repro.models.base:ModelFitter.extend",
            _fit_span,
            count=_count_extend,
            subclasses=True,
        ),
        Target(
            "repro.models.base:ModelFitter.append",
            _fit_span,
            count=_count_append,
            subclasses=True,
        ),
        Target(
            "repro.models.base:ModelType.decode",
            "models.decode",
            subclasses=True,
        ),
        Target(
            "repro.models.base:FittedModel.values_block",
            "models.values_block",
            subclasses=True,
        ),
        Target(
            "repro.storage.serialization:encode_segment",
            "storage.encode",
            count=_count_written,
        ),
        Target(
            "repro.storage.filestore:FileStorage.insert_segments",
            "storage.insert",
        ),
        Target("repro.storage.filestore:FileStorage.flush", "storage.flush"),
        Target("repro.storage.filestore:FileStorage.close", "storage.flush"),
        Target(
            "repro.storage.interface:Storage.scan",
            "storage.scan",
            kind="generator",
            count=_count_scanned,
            subclasses=True,
        ),
        Target(
            "repro.storage.serialization:decode_segment", "storage.decode"
        ),
        Target(
            "repro.storage.scan:resolve_visible",
            "storage.resolve_visible",
            count=_count_visible,
        ),
        Target("repro.query.sql:parse", "query.parse"),
        Target("repro.query.rewriter:rewrite", "query.plan"),
        Target("repro.query.rewriter:decide_pushdown", "query.plan"),
        Target(
            "repro.query.engine:QueryEngine.execute",
            "query.execute",
            count=_count_rows,
        ),
        Target(
            "repro.query.cache:SegmentCache.__init__",
            SEGMENT_CACHE,
            kind="instances",
        ),
        Target("repro.server.protocol:decode_body", _decode_span),
        Target(
            "repro.server.protocol:encode_frame",
            "server.wire_encode",
            count=_count_frame,
        ),
        Target(
            "repro.server.protocol:encode_columnar_frame",
            "server.wire_encode",
            count=_count_frame,
        ),
        Target(
            "repro.server.dispatcher:Dispatcher.execute",
            "server.dispatch",
            subclasses=True,
        ),
        Target(
            "repro.shard.tier:ShardedCluster.sql",
            "shard.sql",
            count=_count_failovers,
        ),
        Target("repro.query.engine:merge_partial_results", "shard.merge"),
        Target("repro.query.analytics:merge_analytics_rows", "shard.merge"),
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(spans: Spans, facts: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from one traced run.

    ``facts`` carries what spans cannot: counts the public API returned
    (``ingest_segments``, ``ingest_fallback_ticks``, ``ingest_points``),
    cache statistics (``segment_cache_hits``/``_misses``,
    ``result_cache_hits``/``_misses``), the server's ``queued`` and
    ``rejected_busy`` counters, summed ``client_latency_s`` of a served
    run, and the median round wall time ``traced_round_s`` /
    ``untraced_round_s``.
    """
    total, self_total, counter = spans.total, spans.self_total, spans.counted

    def fact(name: str) -> float:
        return float(facts.get(name, 0.0))

    served = total("server.wire_decode") + total("server.dispatch") + total(
        "server.wire_encode"
    )
    client_latency = fact("client_latency_s")
    server_unattributed = max(client_latency - served, 0.0) if served else 0.0
    handoff = 0.0
    if spans.count("server.dispatch") == spans.count("server.wire_decode"):
        handoff = spans.start_sum("server.dispatch") - spans.end_sum(
            "server.wire_decode"
        )
    if client_latency:
        unattributed = _ratio(server_unattributed, client_latency)
    else:
        unattributed = _ratio(self_total(OPERATION_SPAN), total(OPERATION_SPAN))
    return {
        "partitioner.group_s": total("partitioner.group"),
        "partitioner.groups": counter("partitioner.groups"),
        "ingest.chunk_s": total("ingest.chunk"),
        "ingest.generator_self_s": self_total("ingest.generator"),
        "ingest.segments": fact("ingest_segments"),
        "ingest.scalar_fallback_ticks": fact("ingest_fallback_ticks"),
        "ingest.correct_s": total("ingest.correct"),
        "ingest.revisions": counter("ingest.revisions"),
        "models.pmc_fit_s": total("models.fit.pmc"),
        "models.swing_fit_s": total("models.fit.swing"),
        "models.gorilla_fit_s": total("models.fit.gorilla"),
        "models.fit_useful_ratio": _ratio(
            fact("ingest_points"), counter("models.points_fitted")
        ),
        "models.decode_s": total("models.decode"),
        "models.values_block_s": total("models.values_block"),
        "storage.encode_s": total("storage.encode"),
        "storage.insert_s": total("storage.insert"),
        "storage.flush_s": total("storage.flush"),
        "storage.flushes": float(spans.count("storage.flush")),
        "storage.bytes_written": counter("storage.bytes_written"),
        "storage.scan_s": total("storage.scan"),
        "storage.decode_s": total("storage.decode"),
        "storage.segments_scanned": counter("storage.segments_scanned"),
        "storage.resolve_visible_s": total("storage.resolve_visible"),
        "storage.hidden_ratio": _ratio(
            counter("storage.resolve_in") - counter("storage.resolve_out"),
            counter("storage.resolve_in"),
        ),
        "query.parse_s": total("query.parse"),
        "query.plan_s": total("query.plan"),
        "query.execute_self_s": self_total("query.execute"),
        "query.segment_cache_hit_ratio": _ratio(
            fact("segment_cache_hits"),
            fact("segment_cache_hits") + fact("segment_cache_misses"),
        ),
        "query.segments_per_row": _ratio(
            counter("storage.segments_scanned"), counter("query.rows")
        ),
        "query.rows": counter("query.rows"),
        "server.wire_decode_s": total("server.wire_decode"),
        "server.wire_encode_s": total("server.wire_encode"),
        "server.response_bytes": counter("server.response_bytes"),
        "server.dispatch_s": total("server.dispatch"),
        "server.result_cache_hit_ratio": _ratio(
            fact("result_cache_hits"),
            fact("result_cache_hits") + fact("result_cache_misses"),
        ),
        "server.handoff_wait_s": max(handoff, 0.0),
        "server.queued": fact("queued"),
        "server.rejected_busy": fact("rejected_busy"),
        "server.unattributed_s": server_unattributed,
        "shard.sql_s": total("shard.sql"),
        "shard.merge_s": total("shard.merge"),
        "shard.worker_wait_s": self_total("shard.sql"),
        "shard.failovers": counter("shard.failovers"),
        "obs.trace_overhead_ratio": _ratio(
            fact("traced_round_s"), fact("untraced_round_s")
        ),
        "bench.unattributed_share": unattributed,
    }
