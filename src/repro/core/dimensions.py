"""Dimensions over time series (Definition 7 of the paper).

A dimension is a hierarchy of members describing every time series: e.g.
a wind-turbine *Location* dimension ``Turbine → Park → Region → Country → ⊤``.
Following Definition 7, the special top member ``⊤`` sits at level 0, level 1
is the coarsest named level (*Country* above) and level ``n`` the most
detailed one (*Turbine*), which is where time series attach.

The paper writes hierarchies most-detailed-first (``Turbine → Park → ...``),
so the constructor accepts level names in that order, while the numeric
``level`` API uses Definition 7's numbering (1 = coarsest).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DimensionError

#: The top member of every hierarchy (level 0).
TOP = "⊤"


class Dimension:
    """A named dimension with hierarchically organised members.

    Parameters
    ----------
    name:
        The dimension name, e.g. ``"Location"``.
    levels:
        Level names ordered from most detailed to least detailed, matching
        the paper's arrow notation: ``("Turbine", "Park", "Region",
        "Country")`` for ``Turbine → Park → Region → Country → ⊤``.
    """

    def __init__(self, name: str, levels: Sequence[str]) -> None:
        if not levels:
            raise DimensionError(f"dimension {name!r} needs at least one level")
        if len(set(levels)) != len(levels):
            raise DimensionError(f"dimension {name!r} has duplicate level names")
        self.name = name
        #: Level names indexed by Definition 7 level number; index 0 is ⊤.
        self.level_names: tuple[str, ...] = (TOP,) + tuple(reversed(levels))
        self._paths: dict[int, tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """The number of named levels ``n`` (the hierarchy height)."""
        return len(self.level_names) - 1

    def level_number(self, level: int | str) -> int:
        """Resolve a level given by number (1..n) or by name."""
        if isinstance(level, str):
            try:
                return self.level_names.index(level)
            except ValueError:
                raise DimensionError(
                    f"dimension {self.name!r} has no level named {level!r}"
                ) from None
        if not 0 <= level <= self.depth:
            raise DimensionError(
                f"dimension {self.name!r} has levels 0..{self.depth}, "
                f"got {level}"
            )
        return level

    # ------------------------------------------------------------------
    # Member assignment and lookup
    # ------------------------------------------------------------------
    def assign(self, tid: int, members: Sequence[str]) -> None:
        """Attach a time series to the hierarchy.

        ``members`` is ordered most-detailed-first like the constructor's
        ``levels``: for the Location example, ``("9834", "Aalborg",
        "Nordjylland", "Denmark")``.
        """
        if len(members) != self.depth:
            raise DimensionError(
                f"dimension {self.name!r} expects {self.depth} members, "
                f"got {len(members)}"
            )
        # Store coarsest-first so path[k-1] is the member at level k.
        path = tuple(str(m) for m in reversed(members))
        existing = self._paths.get(tid)
        if existing is not None and existing != path:
            raise DimensionError(
                f"time series {tid} already assigned different members "
                f"in dimension {self.name!r}"
            )
        self._paths[tid] = path

    def member(self, tid: int, level: int | str) -> str:
        """The member of ``tid`` at the given level (``⊤`` for level 0).

        ``member(tid, n)`` is Definition 7's ``member(TS)``; shallower
        levels correspond to repeated applications of ``parent``.
        """
        k = self.level_number(level)
        if k == 0:
            return TOP
        path = self._path(tid)
        return path[k - 1]

    def parent(self, tid: int, level: int | str) -> str:
        """The parent member one level above (``parent(⊤) = ⊤``)."""
        k = self.level_number(level)
        return self.member(tid, max(k - 1, 0))

    def path(self, tid: int) -> tuple[str, ...]:
        """Members of ``tid`` from level 1 (coarsest) to level n (finest)."""
        return self._path(tid)

    def tids(self) -> list[int]:
        """All time series assigned to this dimension."""
        return sorted(self._paths)

    def tids_with_member(self, level: int | str, member: str) -> set[int]:
        """Time series whose member at ``level`` equals ``member``."""
        k = self.level_number(level)
        if k == 0:
            return set(self._paths)
        return {
            tid for tid, path in self._paths.items() if path[k - 1] == member
        }

    def _path(self, tid: int) -> tuple[str, ...]:
        try:
            return self._paths[tid]
        except KeyError:
            raise DimensionError(
                f"time series {tid} is not assigned in dimension {self.name!r}"
            ) from None

    # ------------------------------------------------------------------
    # Lowest common ancestor (Section 4.1, Figure 7)
    # ------------------------------------------------------------------
    def lca_level(self, tids_a: Iterable[int], tids_b: Iterable[int]) -> int:
        """The LCA level of two groups of time series.

        The lowest (deepest) level at which *all* time series of both
        groups have equivalent members starting from ``⊤``; 0 if they only
        share the top member. For Fig. 7's example, Tids 2 and 3 share
        Denmark (level 1), Nordjylland (level 2) and Aalborg (level 3) but
        not the turbine members, so the LCA level is 3.
        """
        paths = [self._path(tid) for tid in tids_a]
        paths += [self._path(tid) for tid in tids_b]
        if not paths:
            raise DimensionError("cannot compute LCA of empty groups")
        lca = 0
        for k in range(self.depth):
            members = {path[k] for path in paths}
            if len(members) != 1:
                break
            lca = k + 1
        return lca

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        arrows = " → ".join(reversed(self.level_names[1:])) + " → ⊤"
        return f"Dimension({self.name!r}: {arrows}, tids={len(self._paths)})"


class DimensionSet:
    """All dimensions defined for a data set, with denormalised access.

    Provides the column view used by the Segment View and Data Point View
    (Section 6.1): one column per (dimension, level), named after the level
    (qualified with the dimension name when level names collide).
    """

    def __init__(self, dimensions: Sequence[Dimension] = ()) -> None:
        self._dimensions: dict[str, Dimension] = {}
        for dimension in dimensions:
            self.add(dimension)

    def add(self, dimension: Dimension) -> None:
        if dimension.name in self._dimensions:
            raise DimensionError(
                f"duplicate dimension name {dimension.name!r}"
            )
        self._dimensions[dimension.name] = dimension

    def __len__(self) -> int:
        return len(self._dimensions)

    def __iter__(self) -> Iterator[Dimension]:
        return iter(self._dimensions.values())

    def __getitem__(self, name: str) -> Dimension:
        try:
            return self._dimensions[name]
        except KeyError:
            raise DimensionError(f"unknown dimension {name!r}") from None

    def names(self) -> list[str]:
        return list(self._dimensions)

    # ------------------------------------------------------------------
    # Denormalised columns (for the views and the Time Series table)
    # ------------------------------------------------------------------
    def column_names(self) -> list[str]:
        """One column per (dimension, level), coarsest level first.

        A level name is used directly when unique across dimensions and
        qualified as ``Dimension.Level`` otherwise.
        """
        counts: dict[str, int] = {}
        for dimension in self:
            for level_name in dimension.level_names[1:]:
                counts[level_name] = counts.get(level_name, 0) + 1
        columns: list[str] = []
        for dimension in self:
            for level_name in dimension.level_names[1:]:
                if counts[level_name] > 1:
                    columns.append(f"{dimension.name}.{level_name}")
                else:
                    columns.append(level_name)
        return columns

    def row(self, tid: int) -> dict[str, str]:
        """The denormalised member row for one time series."""
        names = iter(self.column_names())
        row: dict[str, str] = {}
        for dimension in self:
            for member in dimension.path(tid):
                row[next(names)] = member
        return row

    def resolve_column(self, column: str) -> tuple[Dimension, int]:
        """Map a denormalised column name back to (dimension, level)."""
        if "." in column:
            dim_name, _, level_name = column.partition(".")
            dimension = self[dim_name]
            return dimension, dimension.level_number(level_name)
        matches = [
            (dimension, dimension.level_number(column))
            for dimension in self
            if column in dimension.level_names[1:]
        ]
        if not matches:
            raise DimensionError(f"unknown dimension column {column!r}")
        if len(matches) > 1:
            raise DimensionError(
                f"ambiguous dimension column {column!r}; qualify it as "
                "Dimension.Level"
            )
        return matches[0]

    def tids_with_member(self, column: str, member: str) -> set[int]:
        """Time series matching ``column = member`` (for query rewriting)."""
        dimension, level = self.resolve_column(column)
        return dimension.tids_with_member(level, member)


def build_dimension(
    name: str,
    levels: Sequence[str],
    assignments: Mapping[int, Sequence[str]],
) -> Dimension:
    """Convenience constructor: create a dimension and assign members."""
    dimension = Dimension(name, levels)
    for tid, members in assignments.items():
        dimension.assign(tid, members)
    return dimension
