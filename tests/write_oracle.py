"""The write path as the paper states it, a tick at a time: the test oracle.

Section 3.2's ingestion loop and Section 4.2's splitting and joining
(Algorithms 3-4) as they read: values arrive one tick at a time, scaled
and rounded to float32; every cascade model is offered the buffer one
row at a time through ``append``, the bundled ones by their per-row
kernels (``tests/model_oracle.py``); once the last model rejects,
``select_best`` picks the segment to flush and the cascade restarts over
what is left; the split and join checks run after every tick. Non-finite values (NaN, +-inf) are gaps. The block path must store
the same rows, count the same ``IngestStats`` and raise the same error
types. :func:`installed` puts :class:`OracleIngestor` under
:meth:`repro.ModelarDB.ingest`; it overrides ``Ingestor.ingest`` itself,
so the oracle ingests one group after another and never runs the
lockstep driver.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from unittest import mock

import numpy as np

from repro.core.errors import IngestionError
from repro.core.segment import SegmentGroup
from repro.ingest.ingestor import Ingestor
from repro.ingest.splitter import within_double_bound
from repro.ingest.stats import IngestStats
from repro.models.base import RAW_POINT_BYTES
from repro.models.selection import select_best

from .model_oracle import ReferenceType


def group_ticks(group):
    """Yield ``(timestamp, {tid: value or None})`` over the group's grid;
    a series outside its range, or with a non-finite value, is a gap."""
    si = group.sampling_interval
    start = min(ts.start_time for ts in group)
    end = max(ts.end_time for ts in group)
    for timestamp in range(start, end + 1, si):
        values = {}
        for ts in group:
            index = (timestamp - ts.start_time) // si
            value = float(ts.values[index]) if 0 <= index < len(ts) else math.nan
            values[ts.tid] = value if math.isfinite(value) else None
        yield timestamp, values


class Generator:
    """One (sub)group's model cascade (Section 3.2, steps i-iv)."""

    def __init__(self, owner, tids):
        self.owner, self.tids, self.present = owner, tuple(sorted(tids)), ()
        self.buffer = []  # (timestamp, float32 vector) since the segment start
        self.tried = []  # (name, fitter) in cascade order; the last may cover all
        self.ratio = None  # compression ratio of the last emitted segment

    def tick(self, timestamp, values):
        present = tuple(tid for tid in self.tids if values.get(tid) is not None)
        if present != self.present:  # gap method 2 (Fig. 5)
            self.close()
            self.present = present
        if not present:
            return
        scale = self.owner.scalings.get
        vector = tuple(float(np.float32(values[tid] * scale(tid, 1.0))) for tid in present)
        self.owner.stats.data_points += len(present)
        self.buffer.append((timestamp, vector))
        active = self.tried[-1][1] if self.tried else None
        covers = active is not None and active.length == len(self.buffer) - 1
        if not (covers and active.append(vector)):
            self.cascade()

    def cascade(self):
        """Offer the buffer to each untried model; flush while none covers it."""
        config = self.owner.config
        while self.buffer:
            for name in config.models[len(self.tried):]:
                fitter = ReferenceType(self.owner.registry.by_name(name)).fitter(
                    len(self.present), config.error_bound, config.model_length_limit)
                self.owner.stats.record_fit(name)
                for _, vector in self.buffer:
                    if not fitter.append(vector):
                        break
                self.tried.append((name, fitter))
                if fitter.length == len(self.buffer):
                    return
            self.flush()

    def flush(self):
        registry, group = self.owner.registry, self.owner.group
        candidates = [(registry.mid_of(name), f) for name, f in self.tried if f.length]
        if not candidates:
            raise IngestionError("no model could represent the buffered data points")
        mid, fitter = select_best(candidates)
        segment = SegmentGroup(
            group.gid, self.buffer[0][0], self.buffer[fitter.length - 1][0],
            group.sampling_interval, mid, fitter.parameters(),
            frozenset(group.tids) - set(self.present), group.tids)
        self.owner.emit(segment)
        points = fitter.length * len(self.present)
        self.owner.stats.record_segment(registry.by_mid(mid).name, points, segment.storage_bytes())
        self.ratio = points * RAW_POINT_BYTES / segment.storage_bytes()
        del self.buffer[:fitter.length]
        self.tried = []

    def close(self):
        while self.buffer:
            self.flush()
            self.cascade()
        self.tried = []

    def abandon(self):
        """Drop the buffer; a split re-ingests it into the new sub-groups."""
        self.owner.stats.data_points -= len(self.buffer) * len(self.present)
        self.buffer, self.tried = [], []


@dataclass(eq=False)
class Sub:  # a sub-group and its join bookkeeping
    tids: tuple
    generator: Generator
    emitted: int = 0
    threshold: int = 1
    is_split: bool = False


class Group:
    """One group's loop (Section 4.2): every sub-group's generator
    ticks, then Algorithm 3 (split) and Algorithm 4 (join) run."""

    def __init__(self, group, config, registry, sink, stats):
        self.group, self.config, self.registry, self.sink, self.stats = (
            group, config, registry, sink, stats)
        self.scalings = group.scalings()
        self.recent = deque(maxlen=config.model_length_limit + 2)
        self.ratio_sum, self.ratio_count = 0.0, 0
        self.subgroups = [Sub(group.tids, Generator(self, group.tids))]

    def tick(self, timestamp, values):
        self.recent.append((timestamp, values))
        for sub in self.subgroups:
            sub.generator.tick(timestamp, values)
        if self.config.splitting_enabled:
            self.maybe_split()
            if len(self.subgroups) > 1:
                self.maybe_join()

    def finish(self):
        for sub in self.subgroups:
            sub.generator.close()

    def emit(self, segment):
        self.sink(segment)
        represented = frozenset(segment.group_tids) - segment.gaps
        for sub in (s for s in self.subgroups if represented <= set(s.tids)):
            sub.emitted += 1
            break

    def maybe_split(self):
        for sub in list(self.subgroups):
            generator = sub.generator
            if len(sub.tids) < 2 or generator.ratio is None:
                continue
            ratio, generator.ratio = generator.ratio, None
            self.ratio_sum, self.ratio_count = self.ratio_sum + ratio, self.ratio_count + 1
            average = self.ratio_sum / self.ratio_count
            if ratio < average / self.config.dynamic_split_fraction and generator.buffer:
                self.split(sub)

    def split(self, sub):
        """Algorithm 3: regroup by the double bound over the buffered
        points; the pending window is re-ingested into the new sub-groups."""
        start = sub.generator.buffer[0][0]
        window = [(ts, values) for ts, values in self.recent if ts >= start]
        series = {tid: [v[tid] for _, v in window if v.get(tid) is not None] for tid in sub.tids}
        remaining = [tid for tid in sub.tids if series[tid]]
        partitions = []
        while remaining:
            seed = remaining.pop(0)
            members = [seed] + [
                tid for tid in remaining if len(series[tid]) == len(series[seed])
                and all(within_double_bound(a, b, self.config.error_bound)
                        for a, b in zip(series[seed], series[tid]))
            ]
            remaining = [tid for tid in remaining if tid not in members]
            partitions.append(tuple(members))
        in_gap = tuple(tid for tid in sub.tids if not series[tid])
        partitions += [in_gap] if in_gap else []  # series in a gap go together
        if len(partitions) < 2:
            return
        sub.generator.abandon()
        self.subgroups.remove(sub)
        self.stats.splits += 1
        for tids in partitions:
            new = Sub(tids, Generator(self, tids), is_split=True)
            for timestamp, values in window:  # before it joins self.subgroups
                new.generator.tick(timestamp, values)
            self.subgroups.append(new)

    def maybe_join(self):
        """Algorithm 4: a candidate joins the first sub-group whose recent values
        overlap its own within the double bound, or doubles its threshold."""
        for candidate in [s for s in self.subgroups if s.is_split and s.emitted >= s.threshold]:
            if candidate not in self.subgroups:
                continue
            partner = next((other for other in self.subgroups if other is not candidate
                            and self.overlaps(candidate.tids[0], other.tids[0])), None)
            if partner is None:
                candidate.threshold *= 2
                candidate.emitted = 0
                continue
            for sub in (candidate, partner):
                sub.generator.close()
            for sub in (candidate, partner):
                self.subgroups.remove(sub)
            tids = tuple(sorted(candidate.tids + partner.tids))
            merged = Sub(tids, Generator(self, tids), is_split=tids != self.group.tids)
            self.subgroups.append(merged)
            self.stats.joins += 1

    def overlaps(self, tid_a, tid_b):
        """Whether the shared suffix of both series' recent values is
        non-empty and within the double bound."""
        pairs = []
        for _, values in reversed(self.recent):
            if values.get(tid_a) is None or values.get(tid_b) is None:
                break
            pairs.append((values[tid_a], values[tid_b]))
        bound = self.config.error_bound
        return bool(pairs) and all(within_double_bound(a, b, bound) for a, b in pairs)


class OracleIngestor(Ingestor):
    """``Ingestor`` with the groups ingested one after another, each by
    the per-tick loop above; a group's segments land in bulk writes of
    ``bulk_write_size`` as they are emitted, and the rest when it ends."""

    def ingest(self, groups):
        parts = []
        for group in groups:
            stats, buffer = IngestStats(), []

            def sink(segment, buffer=buffer):
                buffer.append(segment)
                if len(buffer) >= self._config.bulk_write_size:
                    self._write(buffer[:])
                    buffer.clear()

            loop = Group(group, self._config, self._registry, sink, stats)
            for timestamp, values in group_ticks(group):
                loop.tick(timestamp, values)
            loop.finish()
            if buffer:
                self._write(buffer)
            parts.append(stats)
        return IngestStats.merged(parts)


def installed():
    """Route :meth:`repro.ModelarDB.ingest` through the oracle (a context)."""
    return mock.patch("repro.modelardb.Ingestor", OracleIngestor)
