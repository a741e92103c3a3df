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

:meth:`SegmentGenerator.tick` runs this loop a tick at a time and is the
oracle for :meth:`SegmentGenerator.tick_block`, which runs it a segment
window at a time: each cascade model is fitted once over the rows from
the segment start up to the length limit + 1, and the flush happens at
the tick where the scalar loop's last model rejects. Both paths store
the same bytes and count the same fits.

Gaps use the paper's second method (Fig. 5): whenever the set of present
series changes, the open segment is closed and the next segment records
the absent Tids in its ``gaps`` set, so every segment represents a static
number of series.

Values are cast to float32 on entry (ModelarDB stores float values), and
each series' scaling constant is applied here so correlated series with
different magnitudes compress together (Fig. 6's ``Scaling`` column).
"""

from __future__ import annotations

import struct
from typing import Callable, Mapping, Sequence

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

    def _try_append(self, values) -> bool:
        self._block = None
        return True

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

    def materialize(
        self, buffer: list[tuple[int, tuple[float, ...]]]
    ) -> ModelFitter:
        """Fit the real model over the buffered prefix this covers."""
        fitter = self._model_type.fitter(
            self.n_columns, self.error_bound, self.length_limit
        )
        covered = self._block
        if covered is None:
            covered = np.asarray(
                [vector for _, vector in buffer[:self.length]], dtype=np.float64
            )
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
        self._buffer: list[tuple[int, tuple[float, ...]]] = []
        self._finished: list[tuple[int, ModelFitter]] = []
        self._active: tuple[int, ModelFitter] | None = None
        self._pending_models: list[str] = []
        self._quantizer: struct.Struct | None = None
        self._scale_cache: dict[tuple[int, ...], np.ndarray | None] = {}
        self.last_emitted_ratio: float | None = None
        #: Lifetime count of emitted segments; the block path uses it to
        #: detect that a tick's processing flushed something.
        self.segments_emitted = 0

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def tick(self, timestamp: int, values: Mapping[int, float | None]) -> None:
        """Ingest one sampling interval's values for the subset.

        ``values`` maps Tid to a value; ``None`` or a missing key marks
        the series as being in a gap at this timestamp.
        """
        present = tuple(
            tid for tid in self.subset_tids if values.get(tid) is not None
        )
        if present != self._present:
            self.close()
            self._present = present
            self._quantizer = struct.Struct(f"<{len(present)}f")
        if not present:
            return
        scalings = self._scalings
        raw = [values[tid] * scalings.get(tid, 1.0) for tid in present]
        # One struct round trip quantizes the whole vector to float32
        # (the value type ModelarDB stores) without numpy dispatch cost.
        vector = self._quantizer.unpack(self._quantizer.pack(*raw))
        self.stats.data_points += len(present)
        self._ingest_vector(timestamp, vector)

    def tick_block(
        self,
        timestamps: np.ndarray,
        matrix: np.ndarray,
        finite: np.ndarray,
        boundaries: np.ndarray,
        on_emit: Callable[[int], bool] | None = None,
    ) -> int:
        """Columnar counterpart of :meth:`tick` over a ``(ticks, n)`` block.

        ``matrix`` columns follow ``subset_tids`` order with NaN marking
        gaps; ``finite`` is ``np.isfinite(matrix)`` and ``boundaries``
        the sorted presence-change row indices. Each presence run is
        quantized once and cut into segment windows by
        :meth:`_cascade_run`, which fits every cascade model once per
        window. ``on_emit`` is called once per tick that emitted a
        segment, after that tick's last flush, with the number of rows
        consumed so far — where the scalar loop's caller inspects
        ``last_emitted_ratio`` for dynamic splitting; when it returns
        True the generator stops there. Returns the rows consumed (all
        of them unless stopped). Segments, stats and errors are
        identical to feeding the same ticks through :meth:`tick`.
        """
        n = len(timestamps)
        full_width = matrix.shape[1]
        edges = boundaries.tolist()
        for first, run_end in zip([0, *edges], [*edges, n]):
            row_mask = finite[first]
            emitted_before = self.segments_emitted
            present = tuple(
                tid
                for tid, bit in zip(self.subset_tids, row_mask.tolist())
                if bit
            )
            if present != self._present:
                self.close()
                self._present = present
                self._quantizer = struct.Struct(f"<{len(present)}f")
            emitted = self.segments_emitted > emitted_before
            if not present:
                if emitted and on_emit is not None and on_emit(first + 1):
                    return first + 1
                continue
            block = matrix[first:run_end]
            if len(present) != full_width:
                block = block[:, row_mask]
            stopped_at = self._cascade_run(
                timestamps[first:run_end],
                self._scale_quantize(block, present),
                emitted,
                on_emit,
                first,
            )
            if stopped_at is not None:
                return stopped_at
        return n

    def close(self) -> None:
        """Flush everything buffered, ending the current segment run."""
        while self._buffer:
            self._flush_best()
            if self._buffer:
                self._seed_cascade()
        self._reset_cascade()

    def abandon(self) -> None:
        """Drop buffered data without emitting (used when a dynamic split
        replays the pending window into new sub-generators, which count
        the replayed points again — so they are un-counted here)."""
        self.stats.data_points -= len(self._buffer) * len(self._present)
        self._buffer.clear()
        self._reset_cascade()

    @property
    def buffered_length(self) -> int:
        """Number of pending (unflushed) timestamps."""
        return len(self._buffer)

    @property
    def buffer_start_time(self) -> int | None:
        return self._buffer[0][0] if self._buffer else None

    # ------------------------------------------------------------------
    # Cascade mechanics
    # ------------------------------------------------------------------
    def _ingest_vector(
        self, timestamp: int, vector: tuple[float, ...]
    ) -> None:
        self._buffer.append((timestamp, vector))
        if self._active is None:
            self._seed_cascade()
            return
        _, fitter = self._active
        if fitter.append(vector):
            return
        self._finished.append(self._active)
        self._active = None
        self._try_pending_models()

    def _scale_quantize(
        self, block: np.ndarray, present: tuple[int, ...]
    ) -> np.ndarray:
        """Apply scaling constants and the float32 storage round trip.

        ``astype(float32)`` rounds exactly like the scalar path's struct
        pack, and multiplying by a scaling of 1.0 is an IEEE identity, so
        skipping the all-unity multiply changes nothing.
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
        on_emit: Callable[[int], bool] | None,
        offset: int,
    ) -> int | None:
        """Feed one presence run's quantized rows a segment window at a time.

        A window is the rows from the segment start ``s`` up to the length
        limit + 1. Each cascade model gets one fitter and one
        :meth:`ModelFitter.extend` over it, so its accepted length is what
        scalar appends reach. As in the scalar loop, a model tried at
        tick ``t`` stays active when it covers rows ``s..t``; once every
        model is rejected, tick ``t`` flushes through :meth:`_flush_best`
        and the cascade restarts there over the leftover. A model that
        covers the whole window means the run ended: the state is left as
        the scalar loop leaves it, so the next block, a scalar tick or
        :meth:`close` resume it without refitting. ``emitted`` says the
        presence change before row 0 flushed. Returns the caller's rows
        consumed (row 0 is its row ``offset``) when ``on_emit`` stopped
        the run, else None.
        """
        carried = len(self._buffer)
        ts_list = timestamps.tolist()
        if carried:
            # The buffered rows belong to this run: prepend them once.
            ts_list = [timestamp for timestamp, _ in self._buffer] + ts_list
            rows = np.concatenate(
                (np.asarray([v for _, v in self._buffer], dtype=np.float64), rows)
            )
            t = carried - 1  # the active model covers rows 0..t
        else:
            t = 0  # row 0 seeds the cascade
            self._pending_models = list(self._config.models)
        n = len(rows)
        width = len(self._present)
        limit = self._config.model_length_limit
        counted = carried  # rows already in stats.data_points
        s = 0
        reach = carried  # rows offered to the active fitter
        while True:
            if emitted and (self._active is not None or s > t):
                # Every flush and the cascade restart of tick t are done:
                # hand the caller the scalar loop's state at this tick
                # (only a close before row 0 leaves the buffer short).
                if len(self._buffer) != t + 1 - s:
                    self._buffer = list(zip(ts_list[s:t + 1], rows[s:t + 1]))
                self.stats.data_points += (t + 1 - counted) * width
                counted = t + 1
                if on_emit is not None and on_emit(offset + t + 1 - carried):
                    return offset + t + 1 - carried
                emitted = False
            if s > t:  # the flush emptied the buffer
                if t + 1 == n:
                    break
                t += 1
                self._pending_models = list(self._config.models)
            end = min(n, s + limit + 1)
            if self._active is not None:
                fitter = self._active[1]
                if s + fitter.length == reach < end:
                    fitter.extend(None, rows[reach:end])
                    reach = end
                if s + fitter.length == n:
                    break  # covers the rest of the run: wait for rows
                t = s + fitter.length  # the tick that rejects it
                self._finished.append(self._active)
                self._active = None
            while self._pending_models:
                mid, fitter = self._new_fitter(self._pending_models.pop(0))
                fitter.extend(None, rows[s:end])
                if fitter.length > t - s:
                    self._active = (mid, fitter)
                    reach = end
                    break
                if fitter.length > 0:
                    self._finished.append((mid, fitter))
            if self._active is not None:
                continue
            # Every model rejected a row: tick t flushes (step iii).
            self._buffer = list(zip(ts_list[s:t + 1], rows[s:t + 1]))
            self._flush_best()
            emitted = True
            s = t + 1 - len(self._buffer)
            if self._buffer:
                self._pending_models = list(self._config.models)
        # Row views: every buffer consumer treats a vector as a float64
        # sequence, so ndarray rows behave exactly like the scalar path's
        # tuples.
        self._buffer = list(zip(ts_list[s:], rows[s:]))
        self.stats.data_points += (n - counted) * width
        return None

    def _seed_cascade(self) -> None:
        """(Re)start the model cascade over the whole buffer."""
        self._pending_models = list(self._config.models)
        self._finished = []
        self._active = None
        self._try_pending_models()

    def _try_pending_models(self) -> None:
        """Advance through the cascade until a model covers the buffer.

        Each candidate model replays the buffered vectors from the start;
        one that covers the entire buffer becomes the active model. When
        every model has been tried, the best candidate is flushed and the
        cascade restarts over the remaining buffer (step iv).
        """
        buffer_matrix: np.ndarray | None = None
        while True:
            while self._pending_models:
                mid, fitter = self._new_fitter(self._pending_models.pop(0))
                if len(self._buffer) == 1:
                    covered_all = fitter.append(self._buffer[0][1])
                else:
                    # Replay through the batch kernel (bit-identical to
                    # appending row by row, and much faster on long
                    # buffers).
                    if buffer_matrix is None or len(buffer_matrix) != len(
                        self._buffer
                    ):
                        buffer_matrix = np.asarray(
                            [vector for _, vector in self._buffer],
                            dtype=np.float64,
                        )
                    covered_all = (
                        fitter.extend(None, buffer_matrix)
                        == len(self._buffer)
                    )
                if covered_all:
                    self._active = (mid, fitter)
                    return
                if fitter.length > 0:
                    self._finished.append((mid, fitter))
            self._flush_best()
            if not self._buffer:
                self._reset_cascade()
                return
            self._pending_models = list(self._config.models)
            self._finished = []

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
        start_time = self._buffer[0][0]
        end_time = self._buffer[length - 1][0]
        segment = SegmentGroup(
            gid=self.gid,
            start_time=start_time,
            end_time=end_time,
            sampling_interval=self.sampling_interval,
            mid=mid,
            parameters=fitter.parameters(),
            gaps=frozenset(self.group_tids) - set(self._present),
            group_tids=self.group_tids,
        )
        self._sink(segment)
        self.segments_emitted += 1

        data_points = length * len(self._present)
        self.stats.record_segment(
            self._registry.by_mid(mid).name, data_points, segment.storage_bytes()
        )
        self.last_emitted_ratio = (
            data_points * RAW_POINT_BYTES / segment.storage_bytes()
        )

        del self._buffer[:length]
        self._finished = []
        self._active = None

    def _resolve_lazy(
        self, candidates: list[tuple[int, ModelFitter]]
    ) -> list[tuple[int, ModelFitter]]:
        """Materialise (or prune) lazy always-fitting candidates.

        A lazy candidate is dropped without fitting when its best-case
        compression ratio provably cannot beat an already-fitted
        candidate; otherwise the real fitter is built by replaying the
        buffered prefix it covers. Selection results are identical to
        eagerly fitting every model.
        """
        best_real_ratio = max(
            (
                fitter.compression_ratio()
                for _, fitter in candidates
                if not isinstance(fitter, _LazyFitter) and fitter.length
            ),
            default=0.0,
        )
        resolved = []
        for mid, fitter in candidates:
            if not isinstance(fitter, _LazyFitter):
                resolved.append((mid, fitter))
                continue
            if fitter.length == 0:
                continue
            upper = fitter.best_possible_ratio()
            if upper is not None and upper <= best_real_ratio:
                continue
            real = fitter.materialize(self._buffer)
            resolved.append((mid, real))
        return resolved

    def _reset_cascade(self) -> None:
        self._finished = []
        self._active = None
        self._pending_models = []
