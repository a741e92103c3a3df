"""The ``python -m repro`` SQL shell."""

import io

import numpy as np
import pytest

from repro import Configuration, ModelarDB, TimeSeries
from repro.storage import FileStorage
from repro.__main__ import describe_tables, format_rows, main
from repro.models import ModelRegistry
from repro.query.engine import QueryEngine


@pytest.fixture(scope="module")
def storage_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli") / "db"
    values = np.float32(5 + np.arange(100) * 0.5)
    series = [TimeSeries(1, 100, np.arange(100) * 100, values)]
    with ModelarDB.open(directory, config=Configuration(error_bound=0.0)) as db:
        db.ingest(series)
    return directory


class TestFormatRows:
    def test_empty(self):
        assert format_rows([]) == "(no rows)"

    def test_table_shape(self):
        text = format_rows([{"Tid": 1, "SUM_S(*)": 42.5}])
        lines = text.splitlines()
        assert lines[0].split() == ["Tid", "SUM_S(*)"]
        assert "42.5" in lines[2]
        assert lines[-1] == "(1 row)"

    def test_none_rendered_empty(self):
        text = format_rows([{"MIN_S(*)": None}])
        assert "None" not in text

    def test_ragged_rows(self):
        text = format_rows([{"a": 1}, {"a": 2, "b": 3}])
        assert "b" in text.splitlines()[0]


class TestMain:
    def test_single_command(self, storage_dir):
        out = io.StringIO()
        code = main([str(storage_dir), "-c", "SELECT COUNT_S(*) FROM Segment"],
                    out=out)
        assert code == 0
        assert "100" in out.getvalue()

    def test_query_error_is_reported_not_raised(self, storage_dir):
        out = io.StringIO()
        code = main([str(storage_dir), "-c", "SELECT NOPE FROM Segment"],
                    out=out)
        assert code == 0
        assert "error:" in out.getvalue()

    def test_empty_directory_fails(self, tmp_path):
        out = io.StringIO()
        code = main([str(tmp_path / "empty"), "-c", "SELECT 1"], out=out)
        assert code == 1
        assert "no time series" in out.getvalue()

    def test_simulated_cluster_persists_per_worker(self, tmp_path):
        """The directory is every cluster's storage root, the
        simulator's too."""
        out = io.StringIO()
        code = main(
            [str(tmp_path), "--workers", "2", "--simulated"], out=out
        )
        assert code == 0
        assert "simulated" in out.getvalue()
        for worker_id in range(2):
            with FileStorage(tmp_path / f"worker_{worker_id}") as store:
                assert store.segment_count() > 0

    def test_describe_tables(self, storage_dir):
        engine = QueryEngine(FileStorage(storage_dir), ModelRegistry())
        listing = describe_tables(engine)
        assert listing.splitlines()[1].startswith("1")
        assert "100" in listing  # the sampling interval
