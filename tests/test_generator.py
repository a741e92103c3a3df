"""The segment generator: the multi-model ingestion loop (Section 3.2)."""

import math

import numpy as np
import pytest

from repro.core import Configuration
from repro.ingest.generator import SegmentGenerator
from repro.models import ModelRegistry


def make_generator(
    tids=(1, 2),
    subset=None,
    error_bound=5.0,
    length_limit=50,
    models=("PMC", "Swing", "Gorilla"),
    scalings=None,
):
    config = Configuration(
        error_bound=error_bound,
        model_length_limit=length_limit,
        models=models,
    )
    registry = ModelRegistry()
    out = []
    generator = SegmentGenerator(
        gid=1,
        group_tids=tids,
        subset_tids=subset if subset is not None else tids,
        sampling_interval=100,
        config=config,
        registry=registry,
        sink=out.append,
        scalings=scalings,
    )
    return generator, out, registry


def tick(generator, timestamp, values):
    """Ingest one tick as a one-row block (None or a missing key: gap)."""
    row = [
        math.nan if values.get(tid) is None else values[tid]
        for tid in generator.subset_tids
    ]
    generator.tick_block(np.array([timestamp]), np.array([row]))


class TestBasicFlow:
    def test_constant_run_emits_one_pmc_segment(self):
        generator, out, registry = make_generator(tids=(1,))
        for i in range(10):
            tick(generator, i * 100, {1: 42.0})
        generator.close()
        assert len(out) == 1
        segment = out[0]
        assert segment.start_time == 0
        assert segment.end_time == 900
        assert registry.by_mid(segment.mid).name == "PMC"

    def test_segment_metadata(self):
        generator, out, _ = make_generator()
        for i in range(5):
            tick(generator, i * 100, {1: 1.0, 2: 1.0})
        generator.close()
        segment = out[0]
        assert segment.gid == 1
        assert segment.sampling_interval == 100
        assert segment.group_tids == (1, 2)
        assert segment.gaps == frozenset()
        assert segment.length == 5

    def test_length_limit_bounds_segments(self):
        generator, out, _ = make_generator(tids=(1,), length_limit=10)
        for i in range(25):
            tick(generator, i * 100, {1: 7.0})
        generator.close()
        assert [segment.length for segment in out] == [10, 10, 5]

    def test_regime_change_starts_new_segment(self):
        # Two noisy-but-boundable regimes far apart: no single model can
        # bridge the jump cheaply, so a new segment starts at the change.
        rng = np.random.default_rng(5)
        generator, out, registry = make_generator(tids=(1,), error_bound=1.0)
        for i in range(10):
            tick(generator, i * 100, {1: float(rng.normal(10.0, 0.03))})
        for i in range(10, 20):
            tick(generator, i * 100, {1: float(rng.normal(500.0, 1.5))})
        generator.close()
        assert len(out) == 2
        assert out[0].end_time == 900
        assert out[1].start_time == 1000

    def test_linear_run_uses_swing(self):
        generator, out, registry = make_generator(tids=(1,), error_bound=1.0)
        for i in range(30):
            tick(generator, i * 100, {1: float(np.float32(10.0 + 2.5 * i))})
        generator.close()
        names = {registry.by_mid(s.mid).name for s in out}
        assert "Swing" in names

    def test_noise_uses_gorilla(self):
        rng = np.random.default_rng(0)
        generator, out, registry = make_generator(
            tids=(1,), error_bound=0.0
        )
        for i in range(30):
            tick(generator, i * 100, {1: float(rng.normal(0, 100))})
        generator.close()
        names = {registry.by_mid(s.mid).name for s in out}
        assert names == {"Gorilla"}

    def test_best_compression_wins_over_cascade_order(self):
        # A constant run followed by one outlier: PMC covers the prefix
        # with 4 bytes and must win over Gorilla covering everything.
        generator, out, registry = make_generator(tids=(1,), error_bound=1.0)
        for i in range(20):
            tick(generator, i * 100, {1: 5.0})
        tick(generator, 2000, {1: 900.0})
        generator.close()
        assert registry.by_mid(out[0].mid).name == "PMC"
        assert out[0].length == 20


class TestGaps:
    def test_gap_closes_segment_and_records_tids(self):
        generator, out, _ = make_generator()
        for i in range(5):
            tick(generator, i * 100, {1: 1.0, 2: 1.0})
        for i in range(5, 10):
            tick(generator, i * 100, {1: 1.0, 2: None})
        for i in range(10, 15):
            tick(generator, i * 100, {1: 1.0, 2: 1.0})
        generator.close()
        assert len(out) == 3
        assert out[0].gaps == frozenset()
        assert out[1].gaps == frozenset({2})
        assert out[2].gaps == frozenset()

    def test_all_absent_emits_nothing(self):
        generator, out, _ = make_generator()
        for i in range(5):
            tick(generator, i * 100, {1: None, 2: None})
        generator.close()
        assert out == []

    def test_subset_generator_marks_outsiders_as_gaps(self):
        # A dynamic-split sub-generator records the other sub-group's
        # tids as gaps so segments share the Gid without key collisions.
        generator, out, _ = make_generator(tids=(1, 2, 3), subset=(1, 3))
        for i in range(5):
            tick(generator, i * 100, {1: 1.0, 2: 99.0, 3: 1.0})
        generator.close()
        assert out[0].gaps == frozenset({2})
        assert out[0].member_tids == (1, 3)

    def test_missing_key_treated_as_gap(self):
        generator, out, _ = make_generator()
        for i in range(3):
            tick(generator, i * 100, {1: 1.0})  # tid 2 absent entirely
        generator.close()
        assert out[0].gaps == frozenset({2})


class TestScalingAndQuantization:
    def test_scaling_applied_during_ingestion(self, registry):
        generator, out, reg = make_generator(
            tids=(1, 2), scalings={1: 2.0, 2: 1.0}, error_bound=1.0
        )
        # Series 1 at 50 scaled by 2 matches series 2 at 100.
        for i in range(10):
            tick(generator, i * 100, {1: 50.0, 2: 100.0})
        generator.close()
        assert len(out) == 1
        model = reg.decode(out[0].mid, out[0].parameters, 2, out[0].length)
        assert model.values()[0, 0] == pytest.approx(100.0, rel=1e-3)

    def test_values_quantized_to_float32(self):
        generator, out, reg = make_generator(tids=(1,), error_bound=0.0)
        value = 0.1  # not float32-representable
        tick(generator, 0, {1: value})
        generator.close()
        model = reg.decode(out[0].mid, out[0].parameters, 1, 1)
        assert model.values()[0, 0] == float(np.float32(value))


class TestAbandonAndStats:
    def test_abandon_discards_buffer(self):
        generator, out, _ = make_generator(tids=(1,))
        for i in range(5):
            tick(generator, i * 100, {1: 1.0})
        generator.abandon()
        generator.close()
        assert out == []
        assert generator.buffered_length == 0

    def test_buffer_accessors(self):
        generator, out, _ = make_generator(tids=(1,))
        assert generator.buffer_start_time is None
        tick(generator, 500, {1: 1.0})
        assert generator.buffer_start_time == 500
        assert generator.buffered_length == 1

    def test_stats_recorded(self):
        generator, out, _ = make_generator(tids=(1, 2))
        for i in range(10):
            tick(generator, i * 100, {1: 1.0, 2: 1.0})
        generator.close()
        assert generator.stats.data_points == 20
        assert generator.stats.segments == len(out)
        assert generator.stats.storage_bytes == sum(
            s.storage_bytes() for s in out
        )
        assert generator.stats.model_mix()["PMC"] == 100.0

    def test_lazy_gorilla_matches_eager_encoding(self, monkeypatch):
        # The lazy fallback, pruned by its run-wide bound and fitted from
        # the run's residues, must produce byte-identical segments to an
        # eager cascade (selection decisions unchanged), whatever the
        # group width and however the rows are cut into blocks.
        from repro.models.gorilla import Gorilla

        rng = np.random.default_rng(7)
        for width in (1, 3):
            tids = tuple(range(1, width + 1))
            # Noise Gorilla wins, between constant stretches PMC wins.
            values = rng.normal(0, 50, (240, width))
            values[40:90] = 12.5
            values[150:170] = -3.0
            timestamps = np.arange(len(values), dtype=np.int64) * 100
            for chunk in (1, 7, 1024):
                outs = []
                for always_fits in (True, False):  # lazy, then eager
                    monkeypatch.setattr(Gorilla, "always_fits", always_fits)
                    generator, out, _ = make_generator(tids=tids, error_bound=0.0)
                    for first in range(0, len(values), chunk):
                        generator.tick_block(
                            timestamps[first:first + chunk],
                            values[first:first + chunk],
                        )
                    generator.close()
                    outs.append(
                        [(s.start_time, s.end_time, s.mid, s.parameters) for s in out]
                    )
                assert outs[0] == outs[1], (width, chunk)
                mids = {segment[2] for segment in outs[0]}
                assert len(mids) >= 2, (width, chunk)  # Gorilla and PMC win
