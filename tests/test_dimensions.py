"""Dimensions and LCA (Definition 7, Fig. 7)."""

import pytest

from repro.core import TOP, Dimension, DimensionSet, build_dimension
from repro.core.errors import DimensionError


class TestStructure:
    def test_level_numbering_follows_definition_7(self, location_dimension):
        # Level 0 is ⊤, level 1 the coarsest (Country), level 4 the
        # most detailed (Turbine).
        d = location_dimension
        assert d.level_names[0] == TOP
        assert d.level_names[1] == "Country"
        assert d.level_names[4] == "Turbine"
        assert d.depth == 4

    def test_level_lookup_by_name(self, location_dimension):
        assert location_dimension.level_number("Park") == 3

    def test_unknown_level_name_rejected(self, location_dimension):
        with pytest.raises(DimensionError):
            location_dimension.level_number("Continent")

    def test_out_of_range_level_rejected(self, location_dimension):
        with pytest.raises(DimensionError):
            location_dimension.level_number(5)

    def test_empty_levels_rejected(self):
        with pytest.raises(DimensionError):
            Dimension("X", [])

    def test_duplicate_levels_rejected(self):
        with pytest.raises(DimensionError):
            Dimension("X", ["A", "A"])


class TestMembers:
    def test_member_at_levels(self, location_dimension):
        # member(TS) is the most detailed member; parent() climbs.
        d = location_dimension
        assert d.member(3, 4) == "9634"
        assert d.member(3, "Park") == "Aalborg"
        assert d.member(3, 1) == "Denmark"
        assert d.member(3, 0) == TOP

    def test_parent_climbs_one_level(self, location_dimension):
        d = location_dimension
        assert d.parent(3, 4) == "Aalborg"
        assert d.parent(3, 1) == TOP
        assert d.parent(3, 0) == TOP  # parent(⊤) = ⊤

    def test_wrong_member_count_rejected(self, location_dimension):
        with pytest.raises(DimensionError):
            location_dimension.assign(9, ("a", "b"))

    def test_conflicting_reassignment_rejected(self, location_dimension):
        with pytest.raises(DimensionError):
            location_dimension.assign(1, ("x", "y", "z", "w"))

    def test_identical_reassignment_allowed(self, location_dimension):
        location_dimension.assign(1, ("9572", "Farsø", "Nordjylland", "Denmark"))

    def test_unassigned_tid_rejected(self, location_dimension):
        with pytest.raises(DimensionError):
            location_dimension.member(42, 1)

    def test_tids_with_member(self, location_dimension):
        assert location_dimension.tids_with_member("Park", "Aalborg") == {2, 3}
        assert location_dimension.tids_with_member(1, "Denmark") == {1, 2, 3}

    def test_members_at_level(self, location_dimension):
        members = {
            location_dimension.member(tid, "Park")
            for tid in location_dimension.tids()
        }
        assert members == {"Farsø", "Aalborg"}

    def test_path_is_coarsest_first(self, location_dimension):
        assert location_dimension.path(1) == (
            "Denmark",
            "Nordjylland",
            "Farsø",
            "9572",
        )


class TestLCA:
    def test_paper_example(self, location_dimension):
        # Fig. 7: the LCA of Tid=2 and Tid=3 is the Park member Aalborg
        # at level 3.
        assert location_dimension.lca_level([2], [3]) == 3

    def test_lca_across_parks(self, location_dimension):
        # Tids 1 and 2 share only Region (level 2).
        assert location_dimension.lca_level([1], [2]) == 2

    def test_lca_of_identical_groups_is_depth(self, location_dimension):
        assert location_dimension.lca_level([2], [2]) == 4

    def test_lca_over_groups_uses_all_members(self, location_dimension):
        # Group {2,3} vs {1}: group members disagree below Region.
        assert location_dimension.lca_level([2, 3], [1]) == 2

    def test_lca_of_empty_groups_rejected(self, location_dimension):
        with pytest.raises(DimensionError):
            location_dimension.lca_level([], [])


class TestDimensionSet:
    def test_column_names_unique_levels(self, dimensions):
        # One column per (dimension, level), coarsest level first.
        assert dimensions.column_names() == [
            "Country",
            "Region",
            "Park",
            "Turbine",
            "Category",
            "Concrete",
        ]

    def test_column_names_qualified_on_collision(self):
        a = Dimension("A", ["Entity", "Type"])
        b = Dimension("B", ["Entity", "Kind"])
        ds = DimensionSet([a, b])
        assert "A.Entity" in ds.column_names()
        assert "B.Entity" in ds.column_names()

    def test_row_denormalises_all_dimensions(self, dimensions):
        row = dimensions.row(2)
        assert row["Park"] == "Aalborg"
        assert row["Category"] == "Temperature"

    def test_resolve_column(self, dimensions):
        dimension, level = dimensions.resolve_column("Park")
        assert dimension.name == "Location"
        assert level == 3

    def test_resolve_qualified_column(self):
        a = Dimension("A", ["Entity", "Type"])
        b = Dimension("B", ["Entity", "Kind"])
        ds = DimensionSet([a, b])
        dimension, level = ds.resolve_column("B.Entity")
        assert dimension.name == "B"

    def test_resolve_unknown_column_rejected(self, dimensions):
        with pytest.raises(DimensionError):
            dimensions.resolve_column("Nope")

    def test_resolve_ambiguous_column_rejected(self):
        a = Dimension("A", ["Entity", "Type"])
        b = Dimension("B", ["Entity", "Kind"])
        ds = DimensionSet([a, b])
        with pytest.raises(DimensionError):
            ds.resolve_column("Entity")

    def test_duplicate_dimension_rejected(self, location_dimension):
        ds = DimensionSet([location_dimension])
        with pytest.raises(DimensionError):
            ds.add(Dimension("Location", ["X"]))

    def test_tids_with_member_via_columns(self, dimensions):
        assert dimensions.tids_with_member("Category", "Temperature") == {1, 2}

    def test_tids_with_any_member(self, dimensions):
        tids = {
            tid
            for dimension in dimensions
            for level in range(1, dimension.depth + 1)
            for tid in dimension.tids_with_member(level, "Aalborg")
        }
        assert tids == {2, 3}

    def test_build_dimension_helper(self):
        d = build_dimension("M", ["Concrete"], {1: ("a",), 2: ("b",)})
        assert d.member(1, 1) == "a"
        assert d.tids() == [1, 2]
