"""Main-memory segment cache (Fig. 4): the decoded-model memo.

A decoded model is a pure function of ``(mid, parameters, n_columns,
length)``, and the storage layer keeps every row it has decoded resident
(:class:`~repro.storage.scan.Partition`), so a model has to be decoded
at most once while it is affordable to keep:

* models with constant-time aggregates (PMC-Mean, Swing, ``Multi`` over
  them) are a few floats each; they are pinned on their resident segment
  and found again with one attribute read — no key, no lock;
* models whose decode walks a bit stream (Gorilla) keep a reconstructed
  block, so they live in a bounded LRU keyed by content. Cheap models
  never enter it: its capacity holds that many expensive decodes.

Nothing here depends on *which* segments are stored, so an ingestion
flush drops nothing; :meth:`SegmentCache.invalidate` stays as the
explicit way to release the LRU. Memory is bounded by what is stored
(pinned models live and die with their resident row) plus the LRU
capacity, never by the number of queries.

A resident table additionally carries :class:`FoldColumns`: the
parameters of its column-independent rows as arrays, which the engine
folds a partition at a time (:meth:`SegmentCache.fold_columns`), and,
once a read of the whole table folds a slice aggregate, :class:`Cells`:
every row's whole-segment slice aggregates (:meth:`SegmentCache.cells`),
and per CUBE level the rows' calendar :class:`Pieces`
(:meth:`SegmentCache.pieces`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict, defaultdict
from typing import NamedTuple, Sequence

import numpy as np

from ..core.errors import ModelarError
from ..core.segment import SegmentGroup
from ..models.base import FittedModel
from ..models.pmc_mean import FittedPMCMean
from ..models.registry import ModelRegistry
from ..models.swing import FittedSwing
from ..obs import get_registry
from ..storage.scan import Table
from . import rollup

_DEFAULT_CAPACITY = 4096

#: ``SegmentGroup.__dict__`` slot a constant-time model is pinned in.
_PINNED = "_model"

#: How a row folds (:attr:`FoldColumns.kinds`): from its PMC-Mean value,
#: from its Swing line, through its own model's per-column slice calls
#: (Gorilla, ``Multi``), or — stored under another group layout than
#: the table's first row — one segment at a time.
CONSTANT, LINE, EXACT, FOREIGN = 0, 1, 2, 3


class FoldColumns(NamedTuple):
    """Per-row fold inputs of one table, built once per row.

    ``parameters`` holds a constant row's value and a line row's
    intercept and slope (zeros for other rows); ``members`` is the gap
    bitmask as a (rows × Tids) mask over ``tids``, the group's Tids in
    column order. That is ``17 + len(tids)`` bytes per row. ``ticks``
    counts each column's points, ``occupied`` the rows with a member,
    and ``span`` is the first start and last end over every row (None
    when a row is ``FOREIGN``). Gorilla models
    are never held here; ``cells`` is the table's :class:`Cells`
    (``24 * len(tids) + 1`` bytes per row), once a whole read built them,
    and ``pieces`` its :class:`Pieces` by CUBE level.
    """

    tids: tuple[int, ...]
    sampling_interval: int
    kinds: np.ndarray  # int8 per row
    parameters: np.ndarray  # (rows, 2) float64
    members: np.ndarray  # (rows, len(tids)) bool
    ticks: np.ndarray  # (len(tids),) int64
    occupied: int
    span: tuple[int, int] | None
    cells: "Cells | None"
    pieces: "dict[str, Pieces]"


class Cells(NamedTuple):
    """Every row's whole-segment slice sums, minima and maxima, unscaled,
    whether its model answers in constant time, and each column's points
    in such rows: ``24 * len(tids) + 1`` bytes per row (a per-exact-row
    dict held about ``260 + 24 * len(tids)``). Built whole and published
    read-only, so readers on other threads never see a row half filled.
    """

    cells: np.ndarray  # (3, rows, len(tids)) float64
    constant: np.ndarray  # bool per row
    points: np.ndarray  # (len(tids),) int64


class Pieces(NamedTuple):
    """Rows split at a CUBE level's calendar boundaries
    (:func:`~repro.query.rollup.split_at_boundaries`): each piece's row,
    inclusive tick range and bucket key, and, once sliced, its unscaled
    slice sums, minima and maxima by column. A whole table keeps every
    row's, over every column, ``32 + 24 * len(tids)`` bytes per piece,
    built and published as :class:`Cells` are.
    """

    rows: np.ndarray  # intp per piece
    first: np.ndarray  # int64 per piece
    last: np.ndarray  # int64 per piece
    buckets: np.ndarray  # int64 per piece
    cells: np.ndarray | None  # (3, pieces, len(tids)) float64


def line_cells(
    planes: Sequence[int],
    kinds: np.ndarray,
    parameters: np.ndarray,
    first: np.ndarray,
    last: np.ndarray,
) -> np.ndarray:
    """Constant and line rows' slice sums, minima and maxima (``planes``
    of them) over ``first..last``, as a ``(3, rows, 1)`` block (zeros for
    exact rows): PMC-Mean ``value * count`` and ``value``; Swing
    ``count * (first + last) / 2.0`` and the ``min``/``max`` of its end
    values, each model's own formulas elementwise."""
    intercept, slope = parameters.T
    head, tail = intercept + slope * first, intercept + slope * last
    counts = last - first + 1
    constant = kinds == CONSTANT
    cells = np.zeros((3, len(kinds)))
    if 0 in planes:
        cells[0] = np.where(
            constant, intercept * counts, counts * (head + tail) / 2.0
        )
    if 1 in planes:
        cells[1] = np.where(
            constant, intercept, np.where(tail < head, tail, head)
        )
    if 2 in planes:
        cells[2] = np.where(
            constant, intercept, np.where(tail > head, tail, head)
        )
    return cells[:, :, np.newaxis]


def slices(
    model: FittedModel,
    segment: SegmentGroup,
    spans: Sequence[Sequence[int]],
    wanted: list[bool] | None,
    planes: Sequence[int] = (0, 1, 2),
) -> tuple[np.ndarray, bool]:
    """An exact row's slice sums, minima and maxima (``planes`` of them)
    over each of ``spans`` for its ``wanted`` group columns (None: all),
    as a ``(3, len(spans), len(tids))`` block, from its own model (the
    caller looked it up); and whether that model is constant-time."""
    tids = segment.group_tids
    calls = (model.slice_sum, model.slice_min, model.slice_max)
    cells = np.zeros((3, len(spans), len(tids)))
    for column, tid in enumerate(segment.member_tids):
        position = tids.index(tid)
        if wanted is None or wanted[position]:
            for plane in planes:
                for piece, span in enumerate(spans):
                    cells[plane, piece, position] = calls[plane](*span, column)
    return cells, model.constant_time_aggregates


def split(table: Table, columns: "FoldColumns", rows, first, last, level) -> Pieces:
    """The pieces of ``rows`` clipped to ``first..last`` at ``level``
    (``Pieces.rows`` index ``rows``), not yet sliced."""
    row, lo, hi, buckets = rollup.split_at_boundaries(
        table.starts[rows], first, last, columns.sampling_interval, level
    )
    return Pieces(row, lo, hi, buckets, None)


def piece_cells(table, columns, rows, pieces, planes, wanted, model_of) -> Pieces:
    """``pieces`` of ``rows`` with their cells: ``planes`` of the
    ``wanted`` columns (None: all), zeros elsewhere. An exact row slices
    the model ``model_of`` gives, once for all its pieces."""
    row, lo, hi = pieces.rows, pieces.first, pieces.last
    kinds = columns.kinds[rows]
    cells = line_cells(
        planes, kinds[row], columns.parameters[rows[row]], lo, hi
    ).repeat(len(columns.tids), axis=2)
    exact = np.flatnonzero(kinds == EXACT)
    begins = np.searchsorted(row, exact, "left").tolist()
    ends = np.searchsorted(row, exact, "right").tolist()
    for at, begin, end in zip(rows[exact].tolist(), begins, ends):
        segment = table.segments[at]
        span = np.stack((lo[begin:end], hi[begin:end]), 1).tolist()
        cells[:, begin:end] = slices(model_of(segment), segment, span, wanted, planes)[0]
    return pieces._replace(cells=cells)


def lengths(table: Table) -> np.ndarray:
    """Each row's ticks."""
    return (table.ends - table.starts) // table.intervals + 1


def _columns(table: Table, tids, interval, kinds, parameters, members, base):
    """Fold columns over every row of ``table``, their counts included,
    keeping the memos of the prefix ``base`` covers (None: none)."""
    span = None
    if not (kinds == FOREIGN).any():
        span = int(table.starts.min()), int(table.ends.max())
    ticks = lengths(table) @ members
    occupied = int(np.count_nonzero(members.any(axis=1)))
    cells, pieces = (None, {}) if base is None else base[-2:]
    return FoldColumns(
        tids, interval, kinds, parameters, members, ticks, occupied, span,
        cells, pieces,
    )


class SegmentCache:
    """Thread-safe memo from segment identity to decoded model."""

    def __init__(
        self, registry: ModelRegistry, capacity: int = _DEFAULT_CAPACITY
    ) -> None:
        self._registry = registry
        self._capacity = max(capacity, 1)
        self._entries: OrderedDict[tuple, FittedModel] = OrderedDict()
        self._lock = threading.Lock()
        self._lru_hits = 0
        self.misses = 0
        self.generation = 0
        # Pinned hits by thread id: every thread updates its own entry
        # only, which keeps that path lock-free and the count exact.
        self._pinned_hits: defaultdict[int, int] = defaultdict(int)
        metrics = get_registry()
        self._hits_total = metrics.counter("query.segment_cache_hits_total")
        self._misses_total = metrics.counter(
            "query.segment_cache_misses_total"
        )

    @property
    def hits(self) -> int:
        """Lookups answered without running ``registry.decode``."""
        return self._lru_hits + sum(list(self._pinned_hits.values()))

    def model_of(self, segment: SegmentGroup) -> FittedModel:
        """The segment's decoded model — the read path's one entry point."""
        model = segment.__dict__.get(_PINNED)
        if model is None:
            return self.decode(
                segment.mid,
                segment.parameters,
                segment.n_columns,
                segment.length,
                segment,
            )
        self._pinned_hits[threading.get_ident()] += 1
        return model

    def count_pinned_hits(self, count: int) -> None:
        """Record ``count`` reads of pinned fold columns, one per row, as
        :meth:`model_of` records a pinned model."""
        self._pinned_hits[threading.get_ident()] += count

    def fold_columns(
        self, table: Table
    ) -> tuple[FoldColumns, np.ndarray | None]:
        """A non-empty table's fold columns, and the rows this call
        decoded (None when it built nothing).

        Built once per row: a table that extends another inherits its
        columns through ``Table.fold``, and only the appended rows are
        added; a table of survivors (``Table.source``) gathers its rows'
        columns from the table of every row. Decoding a row counts a
        miss and pins its model, as :meth:`model_of` would; reading an
        already pinned model counts nothing here, because the engine
        counts one pinned hit per folded row this call did not decode.
        Only column-independent model types are decoded, so Gorilla rows
        stay in the LRU.

        The columns are a pure function of the immutable table, so they
        are built without a lock and published by one attribute store:
        two threads racing on a table build equal columns, and either
        may keep its own.
        """
        base = table.fold
        if base is None and table.source is not None:
            rows, positions = table.source
            columns, decoded = self.fold_columns(rows)
            table.fold = _columns(
                table,
                columns.tids,
                columns.sampling_interval,
                columns.kinds[positions],
                columns.parameters[positions],
                columns.members[positions],
                None,
            )
            return table.fold, None if decoded is None else decoded[positions]
        done = 0 if base is None else len(base.kinds)
        segments = table.segments
        if done == len(segments):
            return base, None
        first = segments[0]
        tids, interval = first.group_tids, first.sampling_interval
        kinds = np.full(len(segments), EXACT, np.int8)
        parameters = np.zeros((len(segments), 2))
        members = np.ones((len(segments), len(tids)), bool)
        if base is not None:
            kinds[:done], parameters[:done] = base.kinds, base.parameters
            members[:done] = base.members
        decoded = np.zeros(len(segments), bool)
        for row in range(done, len(segments)):
            segment = segments[row]
            if (
                segment.group_tids != tids
                or segment.sampling_interval != interval
            ):
                kinds[row] = FOREIGN
                continue
            if segment.gaps:
                members[row] = [tid not in segment.gaps for tid in tids]
            model = segment.__dict__.get(_PINNED)
            if model is None:
                try:
                    model_type = self._registry.by_mid(segment.mid)
                    if not model_type.column_independent:
                        continue
                    model = self.decode(
                        segment.mid,
                        segment.parameters,
                        segment.n_columns,
                        segment.length,
                        segment,
                    )
                except ModelarError:
                    continue  # raised again if a query folds this row
                decoded[row] = True
            if isinstance(model, FittedPMCMean):
                kinds[row] = CONSTANT
                parameters[row, 0] = model.value
            elif isinstance(model, FittedSwing):
                kinds[row] = LINE
                parameters[row] = model.intercept, model.slope
        table.fold = columns = _columns(
            table, tids, interval, kinds, parameters, members, base
        )
        return columns, decoded

    def cells(self, table: Table, model_of) -> Cells:
        """The :class:`Cells` over every row of a table whose fold columns
        are built, exact rows slicing the model ``model_of`` gives (the
        caller counts its lookups). Built without a lock, once per row,
        and published as the fold columns are: an extending table adds
        its appended rows to its prefix's cells, slicing exact rows'
        models whole, and a table of survivors gathers its rows' from the
        table of every row.
        """
        columns = table.fold
        memo = columns.cells
        if memo is not None and len(memo.constant) == len(columns.kinds):
            return memo
        if table.source is not None:
            rows, positions = table.source
            whole = self.cells(rows, model_of)
            cells, constant = whole.cells[:, positions], whole.constant[positions]
        else:
            done = 0 if memo is None else len(memo.constant)
            kinds, last = columns.kinds[done:], lengths(table)[done:] - 1
            cells = line_cells(
                (0, 1, 2), kinds, columns.parameters[done:], np.zeros_like(last), last
            ).repeat(len(columns.tids), axis=2)
            constant = kinds < EXACT
            for row in np.flatnonzero(kinds == EXACT).tolist():
                segment = table.segments[done + row]
                span = [(0, segment.length - 1)]
                block, constant[row] = slices(model_of(segment), segment, span, None)
                cells[:, row] = block[:, 0]
            if memo is not None:
                cells = np.concatenate((memo.cells, cells), axis=1)
                constant = np.concatenate((memo.constant, constant))
        points = (lengths(table) * constant) @ columns.members
        for array in (cells, constant, points):
            array.setflags(write=False)
        memo = Cells(cells, constant, points)
        table.fold = table.fold._replace(cells=memo)
        return memo

    def pieces(self, table: Table, level: str, planes, wanted, model_of) -> Pieces:
        """The :class:`Pieces` of every row of a table whose fold columns
        are built, at ``level``.

        Kept on the table while they number at most twice its rows, and
        then built as :meth:`cells` are, with every plane and column: an
        extending table splits its appended rows only, a table of
        survivors gathers its rows' pieces from the table of every row.
        Past that bound (``MINUTE`` over long rows), they are split for
        the one statement, with ``planes`` of the ``wanted`` columns, and
        for COUNT alone (no ``planes``) without cells or lookups.
        """
        columns = table.fold
        memo = columns.pieces.get(level)
        done = 0 if memo is None else int(memo.rows[-1]) + 1
        if done == len(columns.kinds):
            return memo
        last = lengths(table) - 1
        if not planes:
            rows = np.arange(len(last))
            return split(table, columns, rows, np.zeros_like(last), last, level)
        if table.source is not None:
            rows, positions = table.source
            whole = self.pieces(rows, level, planes, wanted, model_of)
            at = np.full(len(rows.segments), -1)
            at[positions] = np.arange(len(positions))
            keep = at[whole.rows] >= 0
            parts = (part[keep] for part in whole[1:4])
            memo = Pieces(at[whole.rows][keep], *parts, whole.cells[:, keep])
            kept = whole is rows.fold.pieces.get(level)
            kept = kept and len(memo.rows) <= 2 * len(positions)
        else:
            rows, last = np.arange(done, len(last)), last[done:]
            added = split(table, columns, rows, np.zeros_like(last), last, level)
            prefix = 0 if memo is None else len(memo.rows)
            kept = prefix + len(added.rows) <= 2 * len(columns.kinds)
            every = ((0, 1, 2), None) if kept else (planes, wanted)
            added = piece_cells(table, columns, rows, added, *every, model_of)
            added = added._replace(rows=added.rows + done)
            if memo is not None:
                parts = map(np.concatenate, zip(memo[:4], added[:4]))
                cells = np.concatenate((memo.cells, added.cells), axis=1)
                added = Pieces(*parts, cells)
            memo = added
        if kept:
            for array in memo:
                array.setflags(write=False)
            fold = table.fold
            table.fold = fold._replace(pieces={**fold.pieces, level: memo})
        return memo

    def decode(
        self,
        mid: int,
        parameters: bytes,
        n_columns: int,
        length: int,
        segment: SegmentGroup | None = None,
    ) -> FittedModel:
        """Content-keyed lookup; a constant-time model is pinned on
        ``segment`` (when one is given) instead of entering the LRU."""
        key = (mid, parameters, n_columns, length)
        # The counter instruments carry their own internal lock; bump
        # them only after releasing the cache lock (lock discipline,
        # RPR003). They see this path only: a pinned hit touches no
        # instrument, so ``hits_total`` counts LRU hits.
        with self._lock:
            model = self._entries.get(key)
            if model is not None:
                self._entries.move_to_end(key)
                self._lru_hits += 1
            else:
                self.misses += 1
        if model is not None:
            self._hits_total.inc()
            return model
        self._misses_total.inc()
        # Decode outside the lock: it can be expensive (Gorilla walks the
        # bit stream) and two threads racing on one key is harmless.
        model = self._registry.decode(mid, parameters, n_columns, length)
        if segment is not None and model.constant_time_aggregates:
            # SegmentGroup is a frozen dataclass; its instance dict is
            # where it memoises derived values (see member_tids).
            segment.__dict__[_PINNED] = model
            return model
        with self._lock:
            self._entries[key] = model
            if len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
        return model

    def invalidate(self) -> None:
        """Release the LRU's decoded blocks and start a new generation.

        Never needed for correctness — a model cannot go stale — and
        not called by ingestion flushes. Pinned models are not tracked
        here; they are freed with the resident row that carries them.
        """
        with self._lock:
            self._entries.clear()
            self.generation += 1

    def clear(self) -> None:
        self.invalidate()

    def stats(self) -> dict:
        """Hit/miss counters for the server's ``stats`` op."""
        with self._lock:
            hits = self.hits
            total = hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self._capacity,
                "hits": hits,
                "misses": self.misses,
                "hit_rate": (hits / total) if total else 0.0,
                "generation": self.generation,
            }
