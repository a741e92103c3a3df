"""Metadata cache and Tid/member -> Gid rewriting (Section 6.2)."""

import pytest

from repro.core.errors import QueryError
from repro.query.metadata import MetadataCache
from repro.query.rewriter import Predicates, rewrite
from repro.storage import MemoryStorage, TimeSeriesRecord


@pytest.fixture
def storage():
    store = MemoryStorage()
    store.insert_time_series(
        [
            TimeSeriesRecord(1, 100, gid=1, scaling=1.0,
                             dimensions={"Park": "north", "Category": "P"}),
            TimeSeriesRecord(2, 100, gid=1, scaling=4.75,
                             dimensions={"Park": "north", "Category": "T"}),
            TimeSeriesRecord(3, 100, gid=2, scaling=1.0,
                             dimensions={"Park": "south", "Category": "P"}),
        ]
    )
    return store


@pytest.fixture
def cache(storage):
    return MetadataCache(storage)


class TestMetadataCache:
    def test_tid_gid_mappings(self, cache):
        assert cache.gid_of(1) == 1
        assert cache.gid_of(3) == 2
        assert cache.gids_of({1, 2}) == {1}
        assert cache.all_tids() == {1, 2, 3}
        assert cache.all_gids() == {1, 2}

    def test_unknown_tid_rejected(self, cache):
        with pytest.raises(QueryError):
            cache.gid_of(9)

    def test_scalings(self, cache):
        assert cache.scaling(2) == 4.75
        assert cache.scalings() == {1: 1.0, 2: 4.75, 3: 1.0}

    def test_dimension_rows(self, cache):
        assert cache.dimension_row(3) == {"Park": "south", "Category": "P"}
        assert cache.dimension_columns() == ["Park", "Category"]

    def test_member_index(self, cache):
        assert cache.tids_with_member("Park", "north") == {1, 2}
        assert cache.tids_with_member("Category", "P") == {1, 3}
        assert cache.tids_with_member("Park", "unknown") == set()

    def test_unknown_column_rejected(self, cache):
        with pytest.raises(QueryError):
            cache.tids_with_member("Nope", "x")

    def test_sampling_interval(self, cache):
        assert cache.sampling_interval(1) == 100

    def test_empty_table_rejected(self):
        with pytest.raises(QueryError):
            MetadataCache(MemoryStorage())


class TestRewrite:
    def test_tids_map_to_gids(self, cache):
        plan = rewrite(Predicates(tids=frozenset({1})), cache)
        assert plan.gids == {1}
        assert plan.tids == {1}

    def test_no_predicates_scan_everything(self, cache):
        plan = rewrite(Predicates(), cache)
        assert plan.gids == {1, 2}
        assert plan.tids == {1, 2, 3}

    def test_member_predicate(self, cache):
        plan = rewrite(
            Predicates(members=(("Category", "P"),)), cache
        )
        assert plan.gids == {1, 2}
        assert plan.tids == {1, 3}

    def test_member_and_tid_intersection(self, cache):
        plan = rewrite(
            Predicates(tids=frozenset({1, 2}), members=(("Category", "P"),)),
            cache,
        )
        assert plan.tids == {1}
        assert plan.gids == {1}

    def test_contradictory_predicates_yield_empty_plan(self, cache):
        plan = rewrite(
            Predicates(tids=frozenset({3}), members=(("Park", "north"),)),
            cache,
        )
        assert plan.tids == set()
        assert plan.gids == set()

    def test_time_interval_passes_through(self, cache):
        plan = rewrite(
            Predicates(start_time=100, end_time=500), cache
        )
        assert plan.start_time == 100
        assert plan.end_time == 500

    def test_multiple_members_conjoin(self, cache):
        plan = rewrite(
            Predicates(members=(("Park", "north"), ("Category", "P"))),
            cache,
        )
        assert plan.tids == {1}
