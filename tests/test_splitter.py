"""Dynamic splitting and joining (Section 4.2, Algorithms 3-4)."""

import numpy as np

from repro import ModelarDB
from repro.core import Configuration, TimeSeriesGroup
from repro.ingest import GroupIngestor, within_double_bound
from repro.ingest.generator import fit_rounds
from repro.ingest.ingestor import group_tick_blocks
from repro.models import ModelRegistry

from .conftest import make_series


def subgroup_tids(ingestor):
    """The ingestor's current partition of its group."""
    return [subgroup.tids for subgroup in ingestor._subgroups]


def run_group(series, error_bound=1.0, split_fraction=10):
    group = TimeSeriesGroup(1, series)
    config = Configuration(
        error_bound=error_bound, dynamic_split_fraction=split_fraction
    )
    out = []
    ingestor = GroupIngestor(group, config, ModelRegistry(), out.append)
    partitions = set()
    for timestamps, matrix in group_tick_blocks(group, 1):
        fit_rounds([ingestor.run(timestamps, matrix)], ingestor.stats)
        partitions.add(tuple(sorted(subgroup_tids(ingestor))))
    fit_rounds([ingestor.finish_steps()], ingestor.stats)
    return ingestor, out, partitions


def diverging_series(n=900, diverge=(300, 600), seed=7):
    rng = np.random.default_rng(seed)
    a = np.full(n, 100.0)
    b = np.full(n, 100.0)
    b[diverge[0]:diverge[1]] = 150 + rng.normal(0, 5, diverge[1] - diverge[0])
    return [
        make_series(1, [float(v) for v in np.float32(a)]),
        make_series(2, [float(v) for v in np.float32(b)]),
    ]


class TestWithinDoubleBound:
    def test_equal_values(self):
        assert within_double_bound(100.0, 100.0, 0.0)

    def test_overlapping_intervals(self):
        # 100±1 and 101.5±1.015 overlap.
        assert within_double_bound(100.0, 101.5, 1.0)

    def test_disjoint_intervals(self):
        assert not within_double_bound(100.0, 103.0, 1.0)

    def test_zero_bound_requires_equality(self):
        assert not within_double_bound(100.0, 100.0001, 0.0)

    def test_negative_values(self):
        assert within_double_bound(-100.0, -101.0, 1.0)
        assert not within_double_bound(-100.0, 100.0, 1.0)


class TestSplitJoin:
    def test_divergence_triggers_split_and_rejoin(self):
        ingestor, out, partitions = run_group(diverging_series())
        assert ingestor.stats.splits >= 1
        assert ingestor.stats.joins >= 1
        assert ((1,), (2,)) in partitions
        assert subgroup_tids(ingestor) == [(1, 2)]

    def test_split_improves_compression(self):
        series = diverging_series()
        _, out_split, _ = run_group(series, split_fraction=10)
        _, out_nosplit, _ = run_group(series, split_fraction=0)
        split_bytes = sum(s.storage_bytes() for s in out_split)
        nosplit_bytes = sum(s.storage_bytes() for s in out_nosplit)
        assert split_bytes < nosplit_bytes

    def test_splitting_disabled_by_fraction_zero(self):
        ingestor, _, partitions = run_group(
            diverging_series(), split_fraction=0
        )
        assert ingestor.stats.splits == 0
        assert partitions == {((1, 2),)}

    def test_no_split_on_correlated_data(self):
        rng = np.random.default_rng(0)
        base = 100 + np.cumsum(rng.normal(0, 0.2, 500))
        series = [
            make_series(
                tid, [float(v) for v in np.float32(base + rng.normal(0, 0.05, 500))]
            )
            for tid in (1, 2)
        ]
        ingestor, _, _ = run_group(series, error_bound=5.0)
        assert ingestor.stats.splits == 0

    def test_no_data_points_lost_across_split(self):
        series = diverging_series()
        _, out, _ = run_group(series)
        # Reconstruct coverage per tid from segments.
        covered = {1: set(), 2: set()}
        for segment in out:
            for tid in segment.member_tids:
                covered[tid].update(segment.timestamps())
        for ts in series:
            expected = {p.timestamp for p in ts if p.value is not None}
            assert covered[ts.tid] == expected

    def test_replayed_points_are_counted_once(self):
        """A split replays its pending window into the new sub-groups;
        ``data_points`` still counts every ingested point once, which is
        what the store answers."""
        series = diverging_series()
        db = ModelarDB(Configuration(error_bound=1.0))
        stats = db.ingest([TimeSeriesGroup(1, series)])
        assert stats.splits >= 1 and stats.joins >= 1
        (row,) = db.query("SELECT COUNT_S(*) FROM Segment")
        assert stats.data_points == row["COUNT_S(*)"]
        assert stats.data_points == sum(len(ts) for ts in series)

    def test_segments_remain_within_error_bound_across_split(self):
        series = diverging_series()
        group = TimeSeriesGroup(1, series)
        config = Configuration(error_bound=1.0, dynamic_split_fraction=10)
        registry = ModelRegistry()
        out = []
        ingestor = GroupIngestor(group, config, registry, out.append)
        for timestamps, matrix in group_tick_blocks(group, 64):
            fit_rounds([ingestor.run(timestamps, matrix)], ingestor.stats)
        fit_rounds([ingestor.finish_steps()], ingestor.stats)
        by_tid = {ts.tid: ts for ts in series}
        for segment in out:
            model = registry.decode(
                segment.mid, segment.parameters,
                segment.n_columns, segment.length,
            )
            values = model.values()
            for column, tid in enumerate(segment.member_tids):
                for index, timestamp in enumerate(segment.timestamps()):
                    original = by_tid[tid].value_at(timestamp)
                    error = abs(values[index, column] - original)
                    assert error <= 0.01 * abs(original) + 1e-6

    def test_divergence_splits_into_singletons(self):
        n = 400
        rng = np.random.default_rng(1)
        a = [float(v) for v in np.float32(np.full(n, 100.0))]
        b = [float(v) for v in np.float32(150 + rng.normal(0, 5, n))]
        b[:150] = a[:150]  # correlated at first, then diverges
        series = [make_series(1, a), make_series(2, b)]
        ingestor, _, partitions = run_group(series, split_fraction=3)
        # At some point the group was split into singletons.
        assert ((1,), (2,)) in partitions

    def test_permanent_divergence_never_rejoins(self):
        # Join attempts keep failing (the threshold doubles after each,
        # Algorithm 4) and the final partition stays split.
        n = 600
        rng = np.random.default_rng(2)
        a = np.full(n, 100.0)
        b = np.concatenate(
            [np.full(100, 100.0), 200 + rng.normal(0, 8, n - 100)]
        )
        series = [
            make_series(1, [float(v) for v in np.float32(a)]),
            make_series(2, [float(v) for v in np.float32(b)]),
        ]
        ingestor, _, _ = run_group(series, split_fraction=3)
        assert ingestor.stats.splits >= 1
        assert ingestor.stats.joins == 0
        assert sorted(subgroup_tids(ingestor)) == [(1,), (2,)]

    def test_algorithm3_groups_gap_series_together(self, config):
        # Unit-level check of the buffered-point partitioning: series
        # without buffered values (currently in a gap) form one group.
        from repro.core import Configuration, TimeSeriesGroup
        from repro.ingest.splitter import GroupIngestor
        from repro.models import ModelRegistry

        series = [make_series(tid, [1.0, 2.0]) for tid in (1, 2, 3, 4)]
        group = TimeSeriesGroup(1, series)
        ingestor = GroupIngestor(
            group, Configuration(error_bound=1.0), ModelRegistry(),
            lambda s: None,
        )
        window = np.array([
            [100.0, 100.5, 200.0, np.nan],
            [101.0, 101.2, 210.0, np.inf],
        ])
        partitions = ingestor._partition_by_double_bound(
            (1, 2, 3, 4), window
        )
        assert partitions == [(1, 2), (3,), (4,)]
