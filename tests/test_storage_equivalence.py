"""FileStorage and MemoryStorage must answer push-downs identically.

The cluster workers pick their backend by configuration (in-memory by
default, one FileStorage directory per worker under ``storage_root``),
so the two backends have to be interchangeable: the same ingest must
yield the same segment sets under every (Gid, time window) predicate
push-down, including windows that straddle partition/segment boundaries,
and a FileStorage must still agree after a close/re-open — including a
re-open after a simulated crash left a torn row at the end of a
partition file.
"""

import itertools
import os
import random
import struct
import sys
import threading

import pytest

from repro import Configuration, ModelarDB
from repro.core.group import TimeSeriesGroup
from repro.core.segment import SegmentGroup
from repro.storage import (
    FileStorage,
    MemoryStorage,
    SegmentScan,
    TimeSeriesRecord,
    resolve_visible,
)

from .conftest import correlated_group, make_series


def segment_key(segment):
    return (
        segment.gid,
        segment.start_time,
        segment.end_time,
        segment.sampling_interval,
        segment.mid,
        bytes(segment.parameters),
        frozenset(segment.gaps),
    )


def snapshot(storage, **push_down):
    if push_down.get("gids") is not None:
        push_down["gids"] = tuple(push_down["gids"])
    return sorted(
        segment_key(s) for s in storage.scan(SegmentScan(**push_down))
    )


def ingest_workload(storage):
    """Three groups with different shapes: a correlated group, a gappy
    singleton and a longer singleton — many segments per partition."""
    config = Configuration(
        error_bound=1.0, model_length_limit=50, bulk_write_size=4
    )
    db = ModelarDB(config, storage=storage)
    gappy = [float(i % 13) for i in range(240)]
    steady = [float(20 + (i % 7)) for i in range(240)]
    for hole in (range(40, 55), range(150, 170)):
        for i in hole:
            gappy[i] = None
    db.ingest([
        correlated_group(gid=1, n_series=3, n_points=260, seed=8),
        correlated_group(gid=2, n_series=1, n_points=400, seed=9),
    ])
    # A two-series group where one member drops out twice: its segments
    # carry non-empty gap sets while the other series keeps going.
    db.ingest([
        TimeSeriesGroup(3, [make_series(9, gappy), make_series(10, steady)])
    ])
    return db


@pytest.fixture()
def backends(tmp_path):
    memory = MemoryStorage()
    files = FileStorage(tmp_path / "store")
    ingest_workload(memory)
    ingest_workload(files)
    return memory, files


def push_down_cases(storage):
    """Predicate combinations, including partition-straddling windows."""
    segments = sorted(
        storage.scan(SegmentScan()), key=lambda s: (s.gid, s.end_time)
    )
    end_times = sorted({s.end_time for s in segments})
    # Boundaries inside a segment's span, exactly on one, and outside.
    straddle = (segments[len(segments) // 2].start_time
                + segments[len(segments) // 2].end_time) // 2
    times = [
        None, 0, end_times[0], end_times[0] + 1, straddle,
        end_times[-1], end_times[-1] + 10_000,
    ]
    gid_sets = [None, [1], [2], [3], [1, 3], [1, 2, 3], [99], []]
    for gids, start, end in itertools.product(gid_sets, times, times):
        yield dict(gids=gids, start_time=start, end_time=end)


class TestPushDownEquivalence:
    def test_full_scan_matches(self, backends):
        memory, files = backends
        assert snapshot(files) == snapshot(memory)
        assert len(snapshot(memory)) > 10  # the workload is non-trivial

    def test_every_push_down_matches(self, backends):
        memory, files = backends
        for case in push_down_cases(memory):
            assert snapshot(files, **case) == snapshot(memory, **case), case

    def test_counts_and_metadata_match(self, backends):
        memory, files = backends
        assert files.segment_count() == memory.segment_count()
        assert [r for r in files.time_series()] == [
            r for r in memory.time_series()
        ]
        assert files.model_table() == memory.model_table()

    def test_gap_sets_survive_both_backends(self, backends):
        memory, files = backends
        gappy = [s for s in memory.scan(SegmentScan(gids=(3,))) if s.gaps]
        assert gappy  # the third group was built with holes
        assert snapshot(files, gids=[3]) == snapshot(memory, gids=[3])


class TestReopen:
    def test_reopen_preserves_every_push_down(self, backends, tmp_path):
        memory, files = backends
        files.close()
        reopened = FileStorage(tmp_path / "store")
        for case in push_down_cases(memory):
            assert snapshot(reopened, **case) == snapshot(memory, **case)
        assert reopened.segment_count() == memory.segment_count()

    def test_torn_tail_is_truncated_on_reopen(self, backends, tmp_path):
        """A crash mid-append leaves a partial row; re-open must drop
        exactly the torn tail and keep every complete segment."""
        memory, files = backends
        files.close()
        partition = next(
            (tmp_path / "store").glob("segments_gid_*.bin")
        )
        whole = snapshot(memory)
        with open(partition, "ab") as handle:
            handle.write(b"\x01\x02\x03")  # shorter than a header
        recovered = FileStorage(tmp_path / "store")
        assert snapshot(recovered) == whole
        recovered.close()

    def test_torn_parameters_are_truncated_on_reopen(self, backends, tmp_path):
        memory, files = backends
        files.close()
        partition = next(
            (tmp_path / "store").glob("segments_gid_*.bin")
        )
        gid = int(partition.stem.rsplit("_", 1)[1])
        complete = snapshot(memory, gids=[gid])
        # A full header promising more parameter bytes than follow.
        torn = struct.pack("<IqIBBHI", gid, 10**9, 5, 1, 0, 500, 0)
        with open(partition, "ab") as handle:
            handle.write(torn + b"\x00" * 10)
        recovered = FileStorage(tmp_path / "store")
        assert snapshot(recovered, gids=[gid]) == complete
        # The other partitions are untouched.
        assert snapshot(recovered) == snapshot(memory)
        recovered.close()


# ----------------------------------------------------------------------
# The resident table can never disagree with the files
# ----------------------------------------------------------------------
_SI = 100
_GROUPS = {1: (1, 2, 3), 2: (4,)}


def reference_scan(rows_by_gid, request):
    """Row-at-a-time reading of ``Storage.scan``'s contract: per
    partition, latest-wins survivors (every row under
    ``all_revisions``) that overlap the interval, in append order."""
    found = []
    for gid in request.partitions(rows_by_gid):
        rows = rows_by_gid.get(gid, [])
        if not request.all_revisions:
            rows = resolve_visible(rows, request.as_of)
        found += [
            row
            for row in rows
            if row.overlaps(request.start_time, request.end_time)
        ]
    return found


def scan_requests(rng, horizon, knowledge):
    """Requests over every ``SegmentScan`` field: Gid sets, open-ended
    and closed intervals, ``AS OF`` bounds, ``all_revisions``."""
    yield SegmentScan()
    yield SegmentScan(all_revisions=True)
    for _ in range(12):
        low, high = sorted(rng.randrange(-_SI, horizon + _SI) for _ in "ab")
        yield SegmentScan(
            gids=rng.choice([None, (1,), (2,), (2, 1), (7,), ()]),
            start_time=rng.choice([None, low]),
            end_time=rng.choice([None, high]),
            as_of=rng.choice([None, 0, rng.randrange(knowledge + 2)]),
            all_revisions=rng.random() < 0.2,
        )


class _Rows:
    """Source of hand-built base rows and revisions for two groups."""

    def __init__(self, rng):
        self.rng = rng
        self.cursor = {gid: 0 for gid in _GROUPS}

    def _segment(self, gid, start, ticks, revision=0):
        # One insert in eight omits the group tids a decode would fill
        # in, so the written objects cannot stand in for stored rows.
        bare = self.rng.random() < 0.125
        return SegmentGroup(
            gid=gid,
            start_time=start,
            end_time=start + (ticks - 1) * _SI,
            sampling_interval=_SI,
            mid=1,
            parameters=struct.pack("<f", self.rng.random()),
            group_tids=() if bare else _GROUPS[gid],
            revision=revision,
        )

    def base(self, gid=None):
        if gid is None:
            gid = self.rng.choice(list(_GROUPS))
        rows = []
        for _ in range(self.rng.randrange(1, 5)):
            ticks = self.rng.randrange(1, 6)
            rows.append(self._segment(gid, self.cursor[gid], ticks))
            self.cursor[gid] += ticks * _SI
        return rows

    def revisions(self):
        if not any(self.cursor.values()):
            return self.base()  # a torn tail left nothing to revise
        gid = self.rng.choice([g for g, end in self.cursor.items() if end])
        last_tick = self.cursor[gid] // _SI
        rows = []
        for _ in range(self.rng.randrange(1, 3)):
            first = self.rng.randrange(last_tick)
            ticks = self.rng.randrange(1, min(6, last_tick - first + 1))
            rows.append(
                self._segment(
                    gid, first * _SI, ticks, self.rng.randrange(1, 4)
                )
            )
        return rows


def _stored_rows(directory):
    """Everything the files hold, read through a freshly opened handle
    (which first recovers torn tails, like any re-open)."""
    fresh = FileStorage(directory)
    try:
        return {
            gid: list(
                fresh.scan(SegmentScan(gids=(gid,), all_revisions=True))
            )
            for gid in _GROUPS
        }
    finally:
        fresh.close()


@pytest.mark.parametrize("seed", range(8))
def test_resident_tables_never_disagree_with_the_files(tmp_path, seed):
    """Interleave writes through the long-lived handle, writes through
    a second handle, and torn tails recovered by a re-open; after every
    step the long-lived handle scans exactly what a fresh handle and a
    MemoryStorage fed the same rows scan, object for object in order."""
    rng = random.Random(seed)
    directory = tmp_path / "store"
    records = [
        TimeSeriesRecord(tid, _SI, gid)
        for gid, tids in _GROUPS.items()
        for tid in tids
    ]
    live = FileStorage(directory)
    live.insert_time_series(records)
    source = _Rows(rng)
    live.insert_segments(source.base())
    for _ in range(25):
        step = rng.choice(["base", "revise", "second handle", "tear"])
        if step == "base":
            live.insert_segments(source.base())
        elif step == "revise":
            live.insert_segments(source.revisions())
        elif step == "second handle":
            with FileStorage(directory) as second:
                second.insert_segments(
                    rng.choice([source.base, source.revisions])()
                )
        else:
            # A crash mid-append: cut a partition anywhere, possibly
            # inside a row; the next open truncates to whole rows.
            path = rng.choice(sorted(directory.glob("segments_gid_*.bin")))
            os.truncate(path, rng.randrange(path.stat().st_size + 1))
        stored = _stored_rows(directory)
        memory = MemoryStorage()
        memory.insert_time_series(records)
        for rows in stored.values():
            memory.insert_segments(rows)
        horizon = max(source.cursor.values())
        knowledge = max(
            (row.knowledge_time for rows in stored.values() for row in rows),
            default=0,
        )
        fresh = FileStorage(directory)
        for request in scan_requests(rng, horizon, knowledge):
            expected = reference_scan(stored, request)
            assert list(live.scan(request)) == expected, (step, request)
            assert list(fresh.scan(request)) == expected, (step, request)
            assert list(memory.scan(request)) == expected, (step, request)
        fresh.close()
        # Rows lost to a torn tail are written again from where the
        # files now end.
        for gid, rows in stored.items():
            source.cursor[gid] = max(
                (row.end_time + _SI for row in rows if not row.revision),
                default=0,
            )
    live.close()


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_concurrent_scans_see_a_prefix_never_a_torn_table(tmp_path, backend):
    """Four scanning threads beside one inserting thread: every scan is
    a prefix of the final partition (filtered, for an interval scan)."""
    storage = (
        MemoryStorage() if backend == "memory" else FileStorage(tmp_path / "s")
    )
    storage.insert_time_series([TimeSeriesRecord(4, _SI, 2)])
    source = _Rows(random.Random(3))
    batches = [source.base(gid=2) for _ in range(300)]
    storage.insert_segments(batches[0])
    interval = SegmentScan(gids=(2,), start_time=5 * _SI, end_time=400 * _SI)
    seen: list[tuple[SegmentScan, list[SegmentGroup]]] = []
    errors: list[BaseException] = []
    done = threading.Event()

    def scanner():
        try:
            while not done.is_set():
                for request in (SegmentScan(), interval):
                    seen.append((request, list(storage.scan(request))))
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    def inserter():
        try:
            for batch in batches[1:]:
                storage.insert_segments(batch)
        except BaseException as error:  # reported by the main thread
            errors.append(error)
        finally:
            done.set()

    threads = [threading.Thread(target=scanner) for _ in range(4)]
    threads.append(threading.Thread(target=inserter))
    interval_before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval_before)
        done.set()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    final = {
        request: list(storage.scan(request))
        for request in (SegmentScan(), interval)
    }
    written = [row for batch in batches for row in batch]
    assert [segment_key(s) for s in final[SegmentScan()]] == [
        segment_key(s) for s in written
    ]
    assert len({len(rows) for _, rows in seen}) > 1  # scans saw it grow
    for request, rows in seen:
        assert rows == final[request][:len(rows)]
    storage.close()


def test_group_metadata_change_drops_the_resident_table(tmp_path):
    """Rows decode against their group's metadata, so adding a series
    to a group with a resident table makes the next scan decode anew."""
    storage = FileStorage(tmp_path / "store")
    storage.insert_time_series(
        [TimeSeriesRecord(1, _SI, 1), TimeSeriesRecord(4, _SI, 2)]
    )
    row = SegmentGroup(1, 0, 4 * _SI, _SI, 1, b"\0\0\0\0", group_tids=(1,))
    other = SegmentGroup(2, 0, 4 * _SI, _SI, 1, b"\0\0\0\0", group_tids=(4,))
    storage.insert_segments([row, other])
    (before,) = storage.scan(SegmentScan(gids=(1,)))
    (untouched,) = storage.scan(SegmentScan(gids=(2,)))
    assert before.group_tids == (1,)
    storage.insert_time_series([TimeSeriesRecord(2, _SI, 1)])
    (after,) = storage.scan(SegmentScan(gids=(1,)))
    assert after.group_tids == (1, 2)
    # The other group's table stayed resident: same decoded object.
    assert next(storage.scan(SegmentScan(gids=(2,)))) is untouched
    storage.close()
