"""The metric catalog: the single source of truth for metric names.

Every metric the system records is *declared* here before any code can
record into it — :class:`~repro.obs.registry.MetricsRegistry` refuses to
create an instrument whose name (or label set, or kind) does not match
its catalog entry. That rule is what makes the documentation
CI-checkable: ``docs/METRICS.md`` is asserted equal to this catalog by
``scripts/check_docs.py``, so a metric cannot be added, renamed or
dropped without the reference table following along.

Naming convention: ``<layer>.<what>_total`` for monotonic counters,
``<layer>.<what>_seconds`` for latency histograms (recorded in seconds,
reported with millisecond quantiles), plain ``<layer>.<what>`` for
gauges. Labels multiply a metric into one instrument per label value
(e.g. ``ingest.segments_total{model=PMC-Mean}``).
"""

from __future__ import annotations

from dataclasses import dataclass

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric family."""

    name: str
    kind: str
    labels: tuple[str, ...] = ()
    description: str = ""


_SPECS = (
    # -- ingestion ------------------------------------------------------
    MetricSpec(
        "ingest.points_total", COUNTER, (),
        "Raw data points ingested (gap points excluded).",
    ),
    MetricSpec(
        "ingest.segments_total", COUNTER, ("model",),
        "Segments emitted, per winning model type.",
    ),
    MetricSpec(
        "ingest.segment_bytes_total", COUNTER, ("model",),
        "Segment bytes emitted, per winning model type.",
    ),
    MetricSpec(
        "ingest.model_fits_total", COUNTER, ("model",),
        "Model fit attempts in the cascade, per model type.",
    ),
    MetricSpec(
        "ingest.kernel_calls_total", COUNTER, ("model",),
        "Model kernel calls of the write path, per model type.",
    ),
    MetricSpec(
        "ingest.deferred_fits_total", COUNTER, ("model",),
        "Always-fitting models fitted at flush time, per model type.",
    ),
    MetricSpec(
        "ingest.splits_total", COUNTER, (),
        "Dynamic group splits (Algorithm 3).",
    ),
    MetricSpec(
        "ingest.joins_total", COUNTER, (),
        "Dynamic group joins (Algorithm 4).",
    ),
    MetricSpec(
        "ingest.chunks_total", COUNTER, (),
        "Columnar chunks fitted through the batch ingestion path.",
    ),
    MetricSpec(
        "ingest.revisions_total", COUNTER, (),
        "Superseding segment revisions emitted by the correction path.",
    ),
    MetricSpec(
        "ingest.out_of_order_points_total", COUNTER, (),
        "Correction points that arrived after their group window was "
        "already flushed (late or corrected data).",
    ),
    MetricSpec(
        "ingest.flush_seconds", HISTOGRAM, (),
        "Latency of one bulk write landing in the segment store.",
    ),
    # -- query engine ---------------------------------------------------
    MetricSpec(
        "query.statements_total", COUNTER, (),
        "Statements executed by the query engine (cache misses only "
        "when served through the result cache).",
    ),
    MetricSpec(
        "query.execute_seconds", HISTOGRAM, (),
        "End-to-end engine execution latency per statement.",
    ),
    MetricSpec(
        "query.segments_scanned_total", COUNTER, (),
        "Stored segments visited by query execution.",
    ),
    MetricSpec(
        "query.partitions_scanned_total", COUNTER, (),
        "Gid partitions scanned after Tid/member rewriting.",
    ),
    MetricSpec(
        "query.partitions_pruned_total", COUNTER, (),
        "Gid partitions skipped entirely by predicate push-down.",
    ),
    MetricSpec(
        "query.rows_returned_total", COUNTER, (),
        "Result rows produced by the engine.",
    ),
    MetricSpec(
        "query.segment_cache_hits_total", COUNTER, (),
        "Decoded-model LRU hits (a bit-stream decode skipped). Models "
        "pinned on resident segments are read without touching the "
        "cache and are not counted here.",
    ),
    MetricSpec(
        "query.segment_cache_misses_total", COUNTER, (),
        "Models decoded from parameters: once per stored row for "
        "constant-time models, again after LRU eviction for the rest.",
    ),
    MetricSpec(
        "query.pushdown_subtrees_total", COUNTER, ("decision",),
        "Select-list subtrees routed per plan, by pushdown decision "
        "(segment = answered from model parameters, materialize = "
        "reconstructs data points).",
    ),
    MetricSpec(
        "query.rows_skipped_materialization_total", COUNTER, (),
        "Data points whose reconstruction was skipped because the "
        "aggregate folded model parameters directly.",
    ),
    MetricSpec(
        "query.columnar_blocks_total", COUNTER, (),
        "(ticks x series) blocks decoded by the columnar read path.",
    ),
    MetricSpec(
        "query.segments_pruned_total", COUNTER, (),
        "Segments the columnar read path skipped before decode because "
        "their model bounds cannot meet the statement's Value predicate.",
    ),
    MetricSpec(
        "query.analytics_forecasts_total", COUNTER, (),
        "Forecast points produced by FORECAST(TS, horizon) statements, "
        "extrapolated from model parameters.",
    ),
    MetricSpec(
        "query.analytics_similarity_total", COUNTER, (),
        "SIMILAR TO searches executed.",
    ),
    MetricSpec(
        "query.analytics_windows_total", COUNTER, (),
        "Candidate windows considered by SIMILAR TO searches.",
    ),
    MetricSpec(
        "query.analytics_windows_pruned_total", COUNTER, (),
        "Candidate windows discarded by the envelope lower bound "
        "without reconstructing a single data point.",
    ),
    MetricSpec(
        "query.analytics_anomalies_total", COUNTER, (),
        "Segment boundaries flagged anomalous while computing the "
        "Segment view's Anomaly column.",
    ),
    MetricSpec(
        "query.analytics_seconds", HISTOGRAM, (),
        "Execution latency of the analytics stage (forecast "
        "extrapolation or similarity search).",
    ),
    MetricSpec(
        "query.block_decode_seconds", HISTOGRAM, (),
        "Per-scan time spent decoding segments into columnar blocks.",
    ),
    # -- storage --------------------------------------------------------
    MetricSpec(
        "storage.segments_written_total", COUNTER, (),
        "Segment rows appended to the store.",
    ),
    MetricSpec(
        "storage.bytes_written_total", COUNTER, (),
        "Encoded segment bytes appended to the store.",
    ),
    MetricSpec(
        "storage.write_seconds", HISTOGRAM, (),
        "Latency of one segment bulk write at the storage layer.",
    ),
    MetricSpec(
        "storage.segments_read_total", COUNTER, (),
        "Segment rows decoded from partition files into resident "
        "tables (once per row and handle, not per query; FileStorage "
        "only).",
    ),
    MetricSpec(
        "storage.bytes_read_total", COUNTER, (),
        "Partition bytes decoded into resident tables: whole files on "
        "first touch, tails appended by another handle afterwards "
        "(FileStorage only; the memory store reads no bytes).",
    ),
    MetricSpec(
        "storage.read_seconds", HISTOGRAM, (),
        "Latency of one resident-table load: reading and decoding a "
        "partition file or its new tail (FileStorage only).",
    ),
    # -- cluster (master side) -----------------------------------------
    MetricSpec(
        "cluster.rpc_total", COUNTER, ("method",),
        "RPC requests posted to workers, per method.",
    ),
    MetricSpec(
        "cluster.rpc_retries_total", COUNTER, (),
        "RPC requests re-sent after a reply timeout.",
    ),
    MetricSpec(
        "cluster.rpc_timeouts_total", COUNTER, (),
        "Reply waits that expired (each triggers a retry or a failover).",
    ),
    MetricSpec(
        "cluster.worker_failures_total", COUNTER, (),
        "Workers declared dead (process exit or silence through retries).",
    ),
    MetricSpec(
        "cluster.failovers_total", COUNTER, (),
        "Shards re-placed on survivors after losing every live owner.",
    ),
    MetricSpec(
        "cluster.worker_busy_seconds_total", COUNTER, ("worker",),
        "Cumulative worker-reported busy seconds, per worker — the "
        "spread across workers is the per-worker lag.",
    ),
    # -- sharded serving tier (master side) ----------------------------
    MetricSpec(
        "shard.queries_total", COUNTER, (),
        "Queries scatter-gathered by the sharded serving tier.",
    ),
    MetricSpec(
        "shard.subqueries_total", COUNTER, ("shard",),
        "Routed subqueries answered, per shard.",
    ),
    MetricSpec(
        "shard.shard_busy_seconds_total", COUNTER, ("shard",),
        "Worker-reported execution seconds, per shard — the skew "
        "signal the rebalancer acts on.",
    ),
    MetricSpec(
        "shard.failover_retries_total", COUNTER, (),
        "Subqueries replayed on another replica after an owner died "
        "mid-scatter.",
    ),
    MetricSpec(
        "shard.lost_workers_total", COUNTER, (),
        "Workers retired from the shard map (crash or RPC silence).",
    ),
    MetricSpec(
        "shard.rebalances_total", COUNTER, (),
        "Hot shards moved to a less busy worker.",
    ),
    MetricSpec(
        "shard.map_generation", GAUGE, (),
        "Current shard-map generation (bumps on every placement "
        "change; keys the serving result cache).",
    ),
    MetricSpec(
        "shard.merge_seconds", HISTOGRAM, (),
        "Master-side time merging per-shard partial results.",
    ),
    # -- server ---------------------------------------------------------
    MetricSpec(
        "server.connections_total", COUNTER, (),
        "TCP connections accepted.",
    ),
    MetricSpec(
        "server.requests_total", COUNTER, (),
        "Query requests received (before admission).",
    ),
    MetricSpec(
        "server.accepted_total", COUNTER, (),
        "Query requests admitted: result-cache hits answered on the "
        "event loop plus statements given an executor slot.",
    ),
    MetricSpec(
        "server.queued_total", COUNTER, (),
        "Statements that had to wait for an executor slot (a "
        "result-cache hit never waits).",
    ),
    MetricSpec(
        "server.rejected_busy_total", COUNTER, (),
        "Requests fast-failed with a busy error (503-style).",
    ),
    MetricSpec(
        "server.completed_total", COUNTER, (),
        "Queries answered successfully.",
    ),
    MetricSpec(
        "server.failed_total", COUNTER, (),
        "Queries answered with a query/internal error.",
    ),
    MetricSpec(
        "server.timed_out_total", COUNTER, (),
        "Queries answered with a deadline-expired error.",
    ),
    MetricSpec(
        "server.cancelled_total", COUNTER, (),
        "Queries answered with a cancelled error.",
    ),
    MetricSpec(
        "server.bad_requests_total", COUNTER, (),
        "Malformed frames or unknown ops.",
    ),
    MetricSpec(
        "server.query_seconds", HISTOGRAM, (),
        "Server-side latency of successfully answered queries: from the "
        "slot to the answer for an executed statement, the loop-side "
        "lookup for a result-cache hit.",
    ),
    MetricSpec(
        "server.result_cache_hits_total", COUNTER, (),
        "Query-result cache hits (statement not re-executed).",
    ),
    MetricSpec(
        "server.result_cache_misses_total", COUNTER, (),
        "Query-result cache misses.",
    ),
    MetricSpec(
        "server.result_cache_invalidations_total", COUNTER, (),
        "Whole-cache invalidations triggered by ingestion flushes.",
    ),
    MetricSpec(
        "server.columnar_responses_total", COUNTER, (),
        "Query responses encoded with the columnar wire format.",
    ),
)

#: name -> :class:`MetricSpec` for every declared metric.
CATALOG: dict[str, MetricSpec] = {spec.name: spec for spec in _SPECS}
