"""The segment generator: online multi-model group compression.

Implements the four-step ingestion loop of Section 3.2 for one (sub)group
of time series:

1. at each sampling interval the values of all present series are
   received and appended to a buffer;
2. the current model tries to fit the new value vector;
3. when it cannot, the next model in the cascade is initialised and the
   buffered values are replayed into it; when the *last* model can fit no
   more, the candidate with the best compression ratio is flushed as a
   segment;
4. the data points represented by the flushed model are removed from the
   buffer and the process restarts from the first model.

:meth:`SegmentGenerator.tick_block` runs this loop a block of ticks at
a time and a segment window at a time: each cascade model is fitted
once over the rows from the segment start up to the length limit + 1,
and the flush happens at the tick where the per-tick loop's last model
rejects. It stores the bytes and counts the fits of the per-tick loop
as the paper states it, which is the test oracle
(``tests/write_oracle.py``). :meth:`SegmentGenerator.run` pauses around
each flush so a split group's ingestor can run its checks at the right
tick, and yields each fit as a request (:data:`FitRequest`) so the
lockstep driver can answer the requests of many groups in one kernel
call.

Gaps use the paper's second method (Fig. 5): whenever the set of present
series changes, the open segment is closed and the next segment records
the absent Tids in its ``gaps`` set, so every segment represents a static
number of series. A non-finite value (NaN, +-inf) is a gap.

Values are cast to float32 on entry (ModelarDB stores float values), and
each series' scaling constant is applied here so correlated series with
different magnitudes compress together (Fig. 6's ``Scaling`` column).
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..core.config import Configuration
from ..core.errors import IngestionError
from ..core.segment import SegmentGroup
from ..core.segment import SEGMENT_OVERHEAD_BYTES
from ..models.base import RAW_POINT_BYTES, ModelFitter
from ..models.registry import ModelRegistry
from ..models.selection import select_best
from .stats import IngestStats

SegmentSink = Callable[[SegmentGroup], None]

#: The gaps of a segment that represents every series of its group,
#: shared: the lockstep holds each group's segments until the group
#: ends, and one object per segment would add to the collector's work.
_NO_GAPS: frozenset[int] = frozenset()

#: A fit request ``(model name, fitter, rows)``: the cascade asks its
#: caller to ``extend`` the fitter over the rows and reads the fitter's
#: ``length`` when it is resumed.
FitRequest = tuple[str, ModelFitter, np.ndarray]


def answer(steps: Iterable[int | FitRequest]) -> None:
    """Run cascade steps to the end, answering each fit request on the
    spot as a batch of one (pauses, the ints, need no answer)."""
    for step in steps:
        if type(step) is tuple:
            _, fitter, rows = step
            fitter.extend(None, rows)


def until_pause(
    steps: Iterator[int | FitRequest],
) -> Generator[FitRequest, None, int | None]:
    """Pass the fit requests of ``steps`` up until it pauses; returns the
    row it paused at, or None once it has ended."""
    for step in steps:
        if type(step) is int:
            return step
        yield step
    return None


class _LazyFitter(ModelFitter):
    """Count-only stand-in for an always-fitting model.

    Accepts every vector up to the length limit without touching the
    values (the generator's buffer already holds them, and a window
    offered as one block is kept by reference); the real fitter is built
    by :meth:`materialize` only if the model might win at flush time.
    ``parameters``/``size_bytes`` are never called on the stand-in.
    """

    def __init__(
        self,
        model_type,
        n_columns: int,
        error_bound: float,
        length_limit: int,
    ) -> None:
        super().__init__(n_columns, error_bound, length_limit)
        self._model_type = model_type
        #: The covered rows when they arrived as one block, else None.
        self._block: np.ndarray | None = None

    def _extend(self, block) -> int:
        self._block = block if self.length == 0 else None
        return block.shape[0]

    def best_possible_ratio(self) -> float | None:
        """Exact upper bound on the compression ratio, if known."""
        n_values = self.length * self.n_columns
        minimum = self._model_type.minimum_size_bytes(n_values)
        if minimum is None:
            return None
        raw = n_values * RAW_POINT_BYTES
        return raw / (SEGMENT_OVERHEAD_BYTES + minimum)

    def materialize(self, rows: np.ndarray) -> ModelFitter:
        """Fit the real model over the buffered prefix this covers."""
        fitter = self._model_type.fitter(
            self.n_columns, self.error_bound, self.length_limit
        )
        covered = self._block if self._block is not None else rows[:self.length]
        if fitter.extend(None, covered) != self.length:  # pragma: no cover
            raise IngestionError(
                f"always-fitting model {self._model_type.name} "
                "rejected a buffered value"
            )
        return fitter

    def parameters(self) -> bytes:  # pragma: no cover - never encoded
        raise IngestionError("lazy fitters must be materialized first")


class SegmentGenerator:
    """Online segment construction for a fixed subset of a group's Tids.

    Parameters
    ----------
    gid:
        Group id recorded on emitted segments.
    group_tids:
        *All* Tids of the group in column order. Segments always list the
        full group, with non-represented Tids in ``gaps`` — this is what
        lets dynamically split sub-groups share a Gid without key
        collisions (Section 3.3).
    subset_tids:
        The Tids this generator ingests (the whole group, or one side of
        a dynamic split).
    """

    def __init__(
        self,
        gid: int,
        group_tids: Sequence[int],
        subset_tids: Sequence[int],
        sampling_interval: int,
        config: Configuration,
        registry: ModelRegistry,
        sink: SegmentSink,
        scalings: Mapping[int, float] | None = None,
        stats: IngestStats | None = None,
    ) -> None:
        subset = tuple(sorted(subset_tids))
        if not set(subset) <= set(group_tids):
            raise IngestionError("subset tids must belong to the group")
        self.gid = gid
        self.group_tids = tuple(group_tids)
        self.subset_tids = subset
        self.sampling_interval = sampling_interval
        self._config = config
        self._registry = registry
        self._sink = sink
        self._scalings = dict(scalings or {})
        self.stats = stats if stats is not None else IngestStats()

        self._present: tuple[int, ...] = ()
        #: The buffer: timestamps and quantized rows since the segment
        #: start (slices of the block they arrived in).
        self._times: np.ndarray = np.empty(0, dtype=np.int64)
        self._rows: np.ndarray = np.empty((0, 0))
        self._finished: list[tuple[int, ModelFitter]] = []
        self._active: tuple[int, ModelFitter] | None = None
        self._pending_models: list[str] = []
        self._scale_cache: dict[tuple[int, ...], np.ndarray | None] = {}
        self.last_emitted_ratio: float | None = None

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def tick_block(self, timestamps: np.ndarray, matrix: np.ndarray) -> None:
        """Ingest a ``(ticks, len(subset_tids))`` block in one go.

        ``matrix`` columns follow ``subset_tids`` order; a non-finite
        value (NaN, +-inf) marks the series as being in a gap at that
        tick.
        """
        answer(self.run(timestamps, matrix))

    def run(
        self, timestamps: np.ndarray, matrix: np.ndarray, offset: int = 0
    ) -> Iterator[int | FitRequest]:
        """Ingest a block as :meth:`tick_block` does, as steps.

        A generator of two kinds of step. A fit request
        (:data:`FitRequest`) must be answered before it is resumed; the
        lockstep driver answers those of every group in one kernel call
        per model. A pause is an int: before the first flush of a tick
        it yields the tick's row (``offset`` + its index in the block):
        every model has then been tried at that tick and the buffer ends
        there (at a presence change, just before it). Resumed, it does
        the tick's flushes and cascade restart and yields the row again:
        that is where the per-tick loop runs its split and join checks.
        Each presence run is quantized once and cut into segment windows
        by :meth:`_cascade_run`.
        """
        n = len(timestamps)
        if not n:
            return
        finite = np.isfinite(matrix)
        # Presence-run boundaries: segments close whenever the set of
        # present series changes (gap method 2, Fig. 5).
        edges = (
            np.flatnonzero((finite[1:] != finite[:-1]).any(axis=1)) + 1
        ).tolist()
        width = matrix.shape[1]
        for first, run_end in zip([0, *edges], [*edges, n]):
            row_mask = finite[first]
            present = tuple(
                tid
                for tid, bit in zip(self.subset_tids, row_mask.tolist())
                if bit
            )
            emitted = False
            if present != self._present:
                emitted = len(self._times) > 0
                if emitted:
                    yield offset + first
                yield from self.close_steps()
                self._present = present
            if not present:
                if emitted:
                    yield offset + first
                continue
            block = matrix[first:run_end]
            if len(present) != width:
                block = block[:, row_mask]
            yield from self._cascade_run(
                timestamps[first:run_end],
                self._scale_quantize(block, present),
                emitted,
                offset + first,
            )

    def close(self) -> None:
        """Flush everything buffered, ending the current segment run."""
        answer(self.close_steps())

    def close_steps(self) -> Iterator[FitRequest]:
        """:meth:`close` as fit requests (see :meth:`run`)."""
        while len(self._times):
            self._flush_best()
            if len(self._times):
                yield from self._restart()
        self._reset_cascade()

    def abandon(self) -> None:
        """Drop buffered data without emitting (used when a dynamic split
        replays the pending window into new sub-generators, which count
        the replayed points again — so they are un-counted here)."""
        self.stats.data_points -= len(self._times) * len(self._present)
        self._times, self._rows = self._times[:0], self._rows[:0]
        self._reset_cascade()

    def rewind(self, timestamp: int) -> None:
        """Return to the state the per-tick loop has after ``timestamp``.

        For a generator paused at or beyond ``timestamp`` that flushed
        nothing after it. Its buffered rows past ``timestamp`` are
        dropped, and their data points and the fits tried since the
        segment start are un-counted. The cascade is then refitted over
        the rows kept, which counts again exactly the fits tried by
        ``timestamp``; this also drops what a window fitter accepted
        beyond the buffer. The cascade's state is a function of the rows
        since the segment start, so the refit matches the per-tick
        state. A paused :meth:`run` must not be resumed afterwards.
        """
        keep = int(np.searchsorted(self._times, timestamp, side="right"))
        dropped = len(self._times) - keep
        active = self._active
        if not dropped and (active is None or active[1].length == keep):
            return
        models = self._config.models
        for name in models[:len(models) - len(self._pending_models)]:
            self.stats.record_fit(name, -1)
        self.stats.data_points -= dropped * len(self._present)
        self._times, self._rows = self._times[:keep], self._rows[:keep]
        if keep:
            answer(self._restart())
        else:
            self._reset_cascade()
        fits = self.stats.fits
        for name in [name for name, count in fits.items() if not count]:
            del fits[name]

    @property
    def buffered_length(self) -> int:
        """Number of pending (unflushed) timestamps."""
        return len(self._times)

    @property
    def buffer_start_time(self) -> int | None:
        return int(self._times[0]) if len(self._times) else None

    # ------------------------------------------------------------------
    # Cascade mechanics
    # ------------------------------------------------------------------
    def _scale_quantize(
        self, block: np.ndarray, present: tuple[int, ...]
    ) -> np.ndarray:
        """Apply scaling constants and the float32 storage round trip.

        Multiplying by a scaling of 1.0 is an IEEE identity, so skipping
        the all-unity multiply changes nothing.
        """
        if present in self._scale_cache:
            scale = self._scale_cache[present]
        else:
            vector = np.array(
                [self._scalings.get(tid, 1.0) for tid in present]
            )
            scale = None if np.all(vector == 1.0) else vector
            self._scale_cache[present] = scale
        if scale is not None:
            block = block * scale
        return block.astype(np.float32).astype(np.float64)

    def _cascade_run(
        self,
        timestamps: np.ndarray,
        rows: np.ndarray,
        emitted: bool,
        offset: int,
    ) -> Iterator[int | FitRequest]:
        """Feed one presence run's quantized rows a segment window at a time.

        A window is the rows from the segment start ``s`` up to the length
        limit + 1. Each cascade model gets one fitter and one
        :meth:`ModelFitter.extend` over it, so its accepted length is what
        one-row blocks reach. As in the per-tick loop, a model tried at
        tick ``t`` stays active when it covers rows ``s..t``; once every
        model is rejected, tick ``t`` flushes through :meth:`_flush_best`
        and the cascade restarts there over the leftover. A model that
        covers the whole window means the run ended: the state is left as
        the per-tick loop leaves it, so the next block or :meth:`close`
        resumes it without refitting. The buffered rows are prepended;
        when no model covers them (:meth:`_restart`) the cascade starts
        over at their first row. ``emitted`` says the presence change
        before row 0 flushed. Yields as :meth:`run` describes; row 0 is
        the caller's row ``offset``. Each fit is a request (see
        :meth:`run`), bar a lazy stand-in's, which is answered here.
        """
        carried = len(self._times)
        if carried:
            # The buffered rows belong to this run: prepend them once.
            timestamps = np.concatenate((self._times, timestamps))
            rows = np.concatenate((self._rows, rows))
        if self._active is not None:
            t = carried - 1  # the active model covers rows 0..t
        else:
            t = 0  # row 0 seeds the cascade
            self._pending_models = list(self._config.models)
        n = len(rows)
        width = len(self._present)
        limit = self._config.model_length_limit
        base = offset - carried  # the caller's row of rows[0]
        counted = carried  # rows already in stats.data_points
        s = 0
        reach = carried  # rows offered to the active fitter
        while True:
            if emitted and (self._active is not None or s > t):
                # Every flush and the cascade restart of tick t are done:
                # hand the caller the per-tick loop's state at this tick.
                self._times, self._rows = timestamps[s:t + 1], rows[s:t + 1]
                self.stats.data_points += (t + 1 - counted) * width
                counted = t + 1
                yield base + t
                emitted = False
            if s > t:  # the flush emptied the buffer
                if t + 1 == n:
                    break
                t += 1
                self._pending_models = list(self._config.models)
            end = min(n, s + limit + 1)
            if self._active is not None:
                mid, fitter = self._active
                if s + fitter.length == reach < end:
                    request = self._offer(mid, fitter, rows[reach:end])
                    if request is not None:
                        yield request
                    reach = end
                if s + fitter.length == n:
                    break  # covers the rest of the run: wait for rows
                t = s + fitter.length  # the tick that rejects it
                self._finished.append(self._active)
                self._active = None
            while self._pending_models:
                mid, fitter = self._new_fitter(self._pending_models.pop(0))
                request = self._offer(mid, fitter, rows[s:end])
                if request is not None:
                    yield request
                if fitter.length > t - s:
                    self._active = (mid, fitter)
                    reach = end
                    break
                if fitter.length > 0:
                    self._finished.append((mid, fitter))
            if self._active is not None:
                continue
            # Every model rejected a row: tick t flushes (step iii).
            self._times, self._rows = timestamps[s:t + 1], rows[s:t + 1]
            if not emitted:
                self.stats.data_points += (t + 1 - counted) * width
                counted = t + 1
                yield base + t  # pause before the tick's first flush
            self._flush_best()
            emitted = True
            s = t + 1 - len(self._times)
            if len(self._times):
                self._pending_models = list(self._config.models)
        self._times, self._rows = timestamps[s:], rows[s:]
        self.stats.data_points += (n - counted) * width

    def _restart(self) -> Iterator[FitRequest]:
        """Run the cascade afresh over the buffered rows (step iv)."""
        self._reset_cascade()
        for step in self._cascade_run(
            self._times[:0], self._rows[:0], False, 0
        ):
            if type(step) is tuple:
                yield step

    def _offer(
        self, mid: int, fitter: ModelFitter, rows: np.ndarray
    ) -> FitRequest | None:
        """Offer ``rows`` to a cascade fitter: the request for the caller
        to answer, or None once a lazy stand-in has taken them here."""
        if isinstance(fitter, _LazyFitter):
            fitter.extend(None, rows)
            return None
        return self._registry.by_mid(mid).name, fitter, rows

    def _new_fitter(self, name: str) -> tuple[int, ModelFitter]:
        """A fresh fitter for one cascade model, counted as a fit.

        Always-fitting models (lossless fallbacks such as Gorilla) get a
        lazy stand-in that just counts timestamps: their parameters are
        only needed if they win at flush time, so the expensive encode
        is deferred until then (and skipped when the model's exact
        best-case size cannot beat the other candidates).
        """
        model_type = self._registry.by_name(name)
        self.stats.record_fit(name)
        shape = (
            len(self._present),
            self._config.error_bound,
            self._config.model_length_limit,
        )
        if model_type.always_fits:
            return self._registry.mid_of(name), _LazyFitter(model_type, *shape)
        return self._registry.mid_of(name), model_type.fitter(*shape)

    def _flush_best(self) -> None:
        """Emit the candidate with the best compression ratio (step iii)."""
        candidates = list(self._finished)
        if self._active is not None:
            candidates.append(self._active)
        if not candidates:
            raise IngestionError(
                "no model could represent the buffered data points"
            )
        candidates = self._resolve_lazy(candidates)
        mid, fitter = select_best(candidates)
        length = fitter.length
        start_time = int(self._times[0])
        end_time = int(self._times[length - 1])
        segment = SegmentGroup(
            gid=self.gid,
            start_time=start_time,
            end_time=end_time,
            sampling_interval=self.sampling_interval,
            mid=mid,
            parameters=fitter.parameters(),
            gaps=frozenset(self.group_tids).difference(self._present) or _NO_GAPS,
            group_tids=self.group_tids,
        )
        self._sink(segment)

        data_points = length * len(self._present)
        self.stats.record_segment(
            self._registry.by_mid(mid).name, data_points, segment.storage_bytes()
        )
        self.last_emitted_ratio = (
            data_points * RAW_POINT_BYTES / segment.storage_bytes()
        )

        self._times, self._rows = self._times[length:], self._rows[length:]
        self._finished = []
        self._active = None

    def _resolve_lazy(
        self, candidates: list[tuple[int, ModelFitter]]
    ) -> list[tuple[int, ModelFitter]]:
        """Materialise (or prune) lazy always-fitting candidates.

        A lazy candidate is dropped without fitting when its best-case
        compression ratio provably cannot win :func:`select_best`: it is
        below an already-fitted candidate's, or no better than one that
        comes before it in the cascade (ties keep the earliest).
        Otherwise the real fitter is built by replaying the buffered
        prefix it covers. Selection results are identical to eagerly
        fitting every model.
        """
        ratios = [
            None
            if isinstance(fitter, _LazyFitter) or not fitter.length
            else fitter.compression_ratio()
            for _, fitter in candidates
        ]
        best_real_ratio = max(
            (ratio for ratio in ratios if ratio is not None), default=0.0
        )
        resolved = []
        best_before = 0.0  # the best fitted ratio earlier in the cascade
        for (mid, fitter), ratio in zip(candidates, ratios):
            if ratio is not None:
                best_before = max(best_before, ratio)
            if not isinstance(fitter, _LazyFitter):
                resolved.append((mid, fitter))
                continue
            if fitter.length == 0:
                continue
            upper = fitter.best_possible_ratio()
            if upper is not None and (
                upper < best_real_ratio or upper <= best_before
            ):
                continue
            real = fitter.materialize(self._rows)
            resolved.append((mid, real))
        return resolved

    def _reset_cascade(self) -> None:
        self._finished = []
        self._active = None
        self._pending_models = []
