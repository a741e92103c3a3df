"""The ModelarDB facade: partitioning, persistence, v1 mode."""

import numpy as np
import pytest

from repro import (
    Configuration,
    Dimension,
    DimensionSet,
    ModelarDB,
    TimeSeries,
    TimeSeriesGroup,
)
from repro.core.errors import GroupError
from repro.models.pmc_mean import PMCMean
from repro.partitioner import grouping
from repro.storage import FileStorage

#: Per-Tid answers from both views: what a misplaced Tid changes first.
PER_TID = (
    "SELECT Tid, COUNT_S(*), SUM_S(*) FROM Segment GROUP BY Tid",
    "SELECT Tid, COUNT(*), SUM(Value) FROM DataPoint GROUP BY Tid",
)


def build_dataset(n_points=400, seed=8):
    rng = np.random.default_rng(seed)
    location = Dimension("Location", ["Entity", "Park"])
    dimensions = DimensionSet([location])
    series = []
    base = 10 + np.cumsum(rng.normal(0, 0.05, n_points))
    for tid in (1, 2, 3, 4):
        values = np.float32(base + rng.normal(0, 0.02, n_points))
        series.append(TimeSeries(tid, 100, np.arange(n_points) * 100, values))
        location.assign(tid, (f"e{tid}", "p0" if tid <= 2 else "p1"))
    return series, dimensions


class TestFacade:
    def test_partition_uses_hints(self):
        series, dimensions = build_dataset()
        db = ModelarDB(
            Configuration(correlation=["Location 1"]), dimensions=dimensions
        )
        groups = db.partition(series)
        assert [g.tids for g in groups] == [(1, 2), (3, 4)]

    def test_v1_mode_disables_grouping(self):
        series, dimensions = build_dataset()
        db = ModelarDB(
            Configuration(correlation=["Location 1"]),
            dimensions=dimensions,
            group_compression=False,
        )
        groups = db.partition(series)
        assert all(len(g) == 1 for g in groups)

    def test_ingest_and_query(self):
        series, dimensions = build_dataset()
        db = ModelarDB(
            Configuration(error_bound=1.0, correlation=["Location 1"]),
            dimensions=dimensions,
        )
        stats = db.ingest(series)
        assert stats.data_points == 4 * 400
        assert db.segment_count() > 0
        assert db.size_bytes() == stats.storage_bytes
        rows = db.sql("SELECT COUNT_S(*) FROM Segment")
        assert rows[0]["COUNT_S(*)"] == 1600

    @pytest.mark.parametrize("backend", ["memory", "file"])
    def test_incremental_ingest_refreshes_metadata(self, tmp_path, backend):
        series, dimensions = build_dataset()
        config = Configuration(error_bound=1.0)
        storage = FileStorage(tmp_path / "db") if backend == "file" else None
        db = ModelarDB(config, storage=storage, dimensions=dimensions)
        db.ingest(series[:2])
        assert db.sql("SELECT COUNT_S(*) FROM Segment")[0]["COUNT_S(*)"] == 800
        db.ingest(series[2:])
        one_shot = ModelarDB(config, dimensions=dimensions)
        one_shot.ingest(build_dataset()[0])
        for sql in PER_TID:
            assert db.sql(sql) == one_shot.sql(sql)
        db.close()

    def test_extra_models_registered(self):
        class Custom(PMCMean):
            name = "acme.Custom"

        db = ModelarDB(extra_models=[Custom()])
        assert db.registry.mid_of("acme.Custom") == 4

    def test_stats_model_mix(self):
        series, dimensions = build_dataset()
        db = ModelarDB(
            Configuration(error_bound=5.0, correlation=["Location 1"]),
            dimensions=dimensions,
        )
        db.ingest(series)
        mix = db.stats.model_mix()
        assert sum(mix.values()) == pytest.approx(100.0)


class TestPersistence:
    def test_file_storage_survives_reopen(self, tmp_path):
        series, dimensions = build_dataset()
        config = Configuration(error_bound=1.0, correlation=["Location 1"])
        with ModelarDB.open(
            tmp_path / "db", config=config, dimensions=dimensions
        ) as db:
            db.ingest(series)
            expected = db.sql("SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid")

        with ModelarDB.open(tmp_path / "db", config=config) as reopened:
            rows = reopened.sql(
                "SELECT Tid, SUM_S(*) FROM Segment GROUP BY Tid"
            )
        assert rows == pytest.approx(expected)

    def test_reopened_store_preserves_dimensions(self, tmp_path):
        series, dimensions = build_dataset()
        config = Configuration(error_bound=1.0, correlation=["Location 1"])
        with ModelarDB.open(
            tmp_path / "db", config=config, dimensions=dimensions
        ) as db:
            db.ingest(series)

        reopened = ModelarDB.open(tmp_path / "db", config=config)
        rows = reopened.sql(
            "SELECT Park, COUNT_S(*) FROM Segment GROUP BY Park"
        )
        by_park = {row["Park"]: row["COUNT_S(*)"] for row in rows}
        assert by_park == {"p0": 800, "p1": 800}


def time_slice(series, first, last):
    """Ticks ``first..last-1`` of every series, as new series objects."""
    return [
        TimeSeries(
            ts.tid, ts.sampling_interval,
            ts.timestamps[first:last], ts.values[first:last],
        )
        for ts in series
    ]


def store_state(db):
    return (
        db.storage.time_series(),
        db.segment_count(),
        db.size_bytes(),
        db.sql(PER_TID[0]),
    )


class TestIngestAcrossCalls:
    """A Tid is partitioned once; later ingests append to its group."""

    CONFIG = Configuration(error_bound=1.0, correlation=["Location 1"])

    def one_shot(self):
        series, dimensions = build_dataset()
        db = ModelarDB(self.CONFIG, dimensions=dimensions)
        db.ingest(series)
        return db

    def test_reopened_store_appends_to_stored_groups(self, tmp_path):
        series, dimensions = build_dataset()
        with ModelarDB.open(
            tmp_path / "db", config=self.CONFIG, dimensions=dimensions
        ) as db:
            db.ingest(time_slice(series, 0, 200))
            placed = [(r.tid, r.gid) for r in db.storage.time_series()]
        with ModelarDB.open(
            tmp_path / "db", config=self.CONFIG, dimensions=dimensions
        ) as db:
            db.ingest(time_slice(series, 200, 400))
            assert [
                (r.tid, r.gid) for r in db.storage.time_series()
            ] == placed == [(1, 1), (2, 1), (3, 2), (4, 2)]
            rows = db.sql("SELECT Tid, COUNT_S(*) FROM Segment GROUP BY Tid")
            assert rows == self.one_shot().sql(
                "SELECT Tid, COUNT_S(*) FROM Segment GROUP BY Tid"
            )

    def test_appending_leaves_stored_records_alone(self, tmp_path):
        """A handle opened without dimensions appends a slice; the
        stored dimension members still answer."""
        series, dimensions = build_dataset()
        config = Configuration(error_bound=1.0)
        with ModelarDB.open(
            tmp_path / "db", config=config, dimensions=dimensions
        ) as db:
            db.ingest(time_slice(series, 0, 200))
        with ModelarDB.open(tmp_path / "db", config=config) as db:
            db.ingest(time_slice(series, 200, 400))
            rows = db.sql("SELECT Park, COUNT_S(*) FROM Segment GROUP BY Park")
        assert {row["Park"]: row["COUNT_S(*)"] for row in rows} == {
            "p0": 800, "p1": 800,
        }

    def test_slices_are_grouped_once(self, monkeypatch):
        calls = []
        original = grouping.group_from_config

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(grouping, "group_from_config", counting)
        series, dimensions = build_dataset()
        db = ModelarDB(self.CONFIG, dimensions=dimensions)
        for first in (0, 150, 300):
            db.ingest(time_slice(series, first, min(first + 150, 400)))
        assert len(calls) == 1
        expected = self.one_shot().groups
        assert [(g.gid, g.tids) for g in db.groups] == [
            (g.gid, g.tids) for g in expected
        ]

    def test_groups_keep_one_entry_per_gid(self):
        series, _ = build_dataset()
        db = ModelarDB(Configuration(error_bound=1.0))
        for first in range(0, 400, 80):
            db.ingest(time_slice(series, first, first + 80))
        gids = {record.gid for record in db.storage.time_series()}
        assert len(db.groups) == len(gids) == 4

    def test_new_tids_are_numbered_after_stored_gids(self):
        series, dimensions = build_dataset()
        db = ModelarDB(self.CONFIG, dimensions=dimensions)
        db.ingest(series[2:])
        db.ingest(series[:2])
        assert [(r.tid, r.gid) for r in db.storage.time_series()] == [
            (1, 2), (2, 2), (3, 1), (4, 1),
        ]

    def test_partial_group_is_rejected(self):
        db = self.one_shot()
        before = store_state(db)
        series, _ = build_dataset()
        with pytest.raises(GroupError, match="exactly those"):
            db.ingest(time_slice(series[:3], 0, 10))
        assert store_state(db) == before

    def test_changed_sampling_interval_is_rejected(self):
        db = self.one_shot()
        before = store_state(db)
        moved = [
            TimeSeries(tid, 50, np.arange(10) * 50, np.ones(10))
            for tid in (1, 2)
        ]
        with pytest.raises(GroupError, match=r"\(1, 100, 1.0\), got \(1, 50,"):
            db.ingest(moved)
        assert store_state(db) == before

    @pytest.mark.parametrize(
        "gid, tids, scaling, match",
        [
            (1, (1, 5), 1.0, "stored with tids"),
            (9, (3, 4), 1.0, r"\(2, 100, 1.0\), got \(9, 100, 1.0\)"),
            (1, (1, 2), 2.0, r"\(1, 100, 1.0\), got \(1, 100, 2.0\)"),
        ],
    )
    def test_prebuilt_group_must_match_the_store(
        self, gid, tids, scaling, match
    ):
        db = self.one_shot()
        before = store_state(db)
        group = TimeSeriesGroup(
            gid,
            [
                TimeSeries(
                    t, 100, np.arange(10) * 100, np.ones(10), scaling=scaling
                )
                for t in tids
            ],
        )
        with pytest.raises(GroupError, match=match):
            db.ingest([group])
        assert store_state(db) == before


class TestCompressionBehaviour:
    def test_higher_error_bound_never_larger(self):
        series, dimensions = build_dataset()
        sizes = []
        for bound in (0.0, 1.0, 5.0, 10.0):
            db = ModelarDB(
                Configuration(error_bound=bound, correlation=["Location 1"]),
                dimensions=dimensions,
            )
            db.ingest(series)
            sizes.append(db.size_bytes())
        assert sizes == sorted(sizes, reverse=True)

    def test_v2_smaller_than_v1_on_correlated_data(self):
        series, dimensions = build_dataset()
        config = Configuration(error_bound=5.0, correlation=["Location 1"])
        v2 = ModelarDB(config, dimensions=dimensions)
        v2.ingest(series)
        v1 = ModelarDB(config, dimensions=dimensions, group_compression=False)
        v1.ingest(series)
        assert v2.size_bytes() < v1.size_bytes()
