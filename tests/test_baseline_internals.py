"""Format-internal behaviour: block pruning, RLE, cache eviction."""

import numpy as np
import pytest

from repro.baselines.cassandra import CassandraLike
from repro.baselines.influx import InfluxLike, _TSM_BLOCK
from repro.baselines.orc import ORCLike, _rle_decode, _rle_encode
from repro.baselines.parquet import ParquetLike
from repro.core import TimeSeries
from repro.models import ModelRegistry
from repro.query.cache import SegmentCache

from .conftest import make_series
from .model_oracle import GorillaReference


def long_series(n=2_500, si=100, tid=1):
    rng = np.random.default_rng(0)
    values = np.float32(10 + np.cumsum(rng.normal(0, 0.1, n)))
    return TimeSeries(tid, si, np.arange(n) * si, values)


class TestInfluxBlocks:
    def test_blocks_are_bounded(self):
        fmt = InfluxLike()
        ts = long_series()
        fmt.ingest([ts])
        blocks = fmt._blocks[1]
        assert len(blocks) == -(-len(ts) // _TSM_BLOCK)
        assert all(len(b.values) <= _TSM_BLOCK for b in blocks)

    def test_range_skips_blocks(self):
        fmt = InfluxLike()
        ts = long_series()
        fmt.ingest([ts])
        # A range inside the second block must not include first-block
        # timestamps.
        start = _TSM_BLOCK * 100 + 100
        timestamps, values = fmt._read_series_range(1, start, start + 500)
        assert timestamps[0] == start
        assert len(values) == 6

    def test_value_bytes_match_the_reference_encoder(self):
        fmt = InfluxLike()
        fmt.ingest([long_series()])
        for block in fmt._blocks[1]:
            reference = GorillaReference(1, 0.0, len(block.values))
            for value in block.values.tolist():
                assert reference.append((value,))
            assert block.value_bytes == reference.size_bytes()

    def test_gorilla_sized_blocks_smaller_than_raw(self):
        fmt = InfluxLike()
        fmt.ingest([long_series()])
        raw = 2_500 * 12
        assert fmt.size_bytes() < raw

    def test_gaps_are_not_stored(self):
        fmt = InfluxLike()
        fmt.ingest([make_series(1, [1.0, None, None, 2.0])])
        timestamps, values = fmt._read_series(1)
        assert len(values) == 2


class TestParquetRowGroups:
    def test_row_group_pruning(self):
        fmt = ParquetLike()
        fmt.row_group_size = 500
        fmt.ingest([long_series()])
        groups = fmt._files[1]
        assert len(groups) == 5
        timestamps, _ = fmt._read_series_range(1, 60_000, 60_400)
        assert list(timestamps) == [60_000, 60_100, 60_200, 60_300, 60_400]

    def test_value_column_pruning_matches_full_read(self):
        fmt = ParquetLike()
        fmt.ingest([long_series()])
        assert np.array_equal(fmt._read_values(1), fmt._read_series(1)[1])

    def test_round_trip_exact(self):
        fmt = ParquetLike()
        ts = long_series()
        fmt.ingest([ts])
        timestamps, values = fmt._read_series(1)
        assert np.array_equal(timestamps, ts.timestamps)
        assert np.array_equal(values, ts.values)


class TestORC:
    def test_rle_round_trip_regular(self):
        timestamps = np.arange(0, 100_000, 100, dtype=np.int64)
        assert np.array_equal(_rle_decode(_rle_encode(timestamps)), timestamps)

    def test_rle_round_trip_with_jumps(self):
        timestamps = np.array([0, 100, 200, 700, 800, 1500], dtype=np.int64)
        assert np.array_equal(_rle_decode(_rle_encode(timestamps)), timestamps)

    def test_rle_single_timestamp(self):
        timestamps = np.array([4200], dtype=np.int64)
        assert np.array_equal(_rle_decode(_rle_encode(timestamps)), timestamps)

    def test_rle_is_compact_for_regular_series(self):
        timestamps = np.arange(0, 1_000_000, 100, dtype=np.int64)
        assert len(_rle_encode(timestamps)) == 20  # one run

    def test_stripe_pruning(self):
        fmt = ORCLike()
        fmt.stripe_rows = 500
        ts = long_series()
        fmt.ingest([ts])
        assert len(fmt._files[1]) == 5
        timestamps, values = fmt._read_series_range(1, 125_000, 125_200)
        assert list(timestamps) == [125_000, 125_100, 125_200]

    def test_stripe_value_statistics(self):
        fmt = ORCLike()
        fmt.ingest([long_series()])
        stripe = fmt._files[1][0]
        values = stripe.values()
        assert stripe.min_value == pytest.approx(values.min())
        assert stripe.max_value == pytest.approx(values.max())


class TestCassandra:
    def test_round_trip_across_block_boundary(self):
        fmt = CassandraLike()
        ts = long_series(n=5_000)
        fmt.ingest([ts])
        timestamps, values = fmt._read_series(1)
        assert np.array_equal(values, ts.values)

    def test_rows_carry_dimension_cost(self):
        from repro.core import Dimension, DimensionSet

        bare = CassandraLike()
        bare.ingest([long_series()])

        dimension = Dimension("Location", ["Entity", "Park"])
        dimension.assign(1, ("a-rather-long-entity-name", "some-park"))
        with_dims = CassandraLike()
        with_dims.ingest([long_series()], DimensionSet([dimension]))
        assert with_dims.size_bytes() > bare.size_bytes()


class TestSegmentCacheEviction:
    def test_lru_eviction(self):
        registry = ModelRegistry()
        cache = SegmentCache(registry, capacity=2)
        pmc = registry.by_name("PMC")
        params = [
            pmc.fitter(1, 0.0, 5) for _ in range(3)
        ]
        for value, fitter in zip((1.0, 2.0, 3.0), params):
            fitter.append((value,))
        blobs = [fitter.parameters() for fitter in params]
        for blob in blobs:
            cache.decode(1, blob, 1, 1)
        assert cache.misses == 3
        # The first entry was evicted; re-decoding misses again.
        cache.decode(1, blobs[0], 1, 1)
        assert cache.misses == 4
        # The most recent two hit.
        cache.decode(1, blobs[2], 1, 1)
        assert cache.hits == 1

    def test_clear(self):
        registry = ModelRegistry()
        cache = SegmentCache(registry, capacity=4)
        fitter = registry.by_name("PMC").fitter(1, 0.0, 5)
        fitter.append((1.0,))
        blob = fitter.parameters()
        cache.decode(1, blob, 1, 1)
        cache.clear()
        cache.decode(1, blob, 1, 1)
        assert cache.misses == 2
