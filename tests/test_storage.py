"""Segment stores: serialization, predicate push-down, persistence."""

import pytest

from repro import ModelarDB
from repro.core import SegmentGroup
from repro.core.errors import StorageError
from repro.core.group import TimeSeriesGroup
from repro.storage import (
    FileStorage,
    MemoryStorage,
    SegmentScan,
    TimeSeriesRecord,
    decode_segment,
    encode_segment,
    encoded_size,
)
from repro.storage.serialization import HEADER_BYTES

from .conftest import make_series


def make_segment(gid=1, start=0, end=400, mid=1, gaps=(), params=b"\x00" * 4):
    return SegmentGroup(
        gid=gid,
        start_time=start,
        end_time=end,
        sampling_interval=100,
        mid=mid,
        parameters=params,
        gaps=frozenset(gaps),
        group_tids=(1, 2, 3),
    )


def records(gid=1, tids=(1, 2, 3), si=100):
    return [
        TimeSeriesRecord(tid=tid, sampling_interval=si, gid=gid)
        for tid in tids
    ]


class TestSerialization:
    def test_header_is_24_bytes(self):
        # Matches the paper's 24 + sizeof(Model) accounting.
        assert HEADER_BYTES == 24

    def test_round_trip(self):
        segment = make_segment(gaps={2}, params=b"\xaa\xbb")
        data = encode_segment(segment)
        assert len(data) == encoded_size(segment)
        decoded, offset = decode_segment(data, 0, 100, (1, 2, 3))
        assert offset == len(data)
        assert decoded == segment

    def test_start_time_recomputed_from_size(self):
        # StartTime = EndTime - (Size - 1) * SI (Section 3.3).
        segment = make_segment(start=1000, end=1400)
        decoded, _ = decode_segment(
            encode_segment(segment), 0, 100, (1, 2, 3)
        )
        assert decoded.start_time == 1000
        assert decoded.length == 5

    def test_truncated_header_rejected(self):
        with pytest.raises(StorageError):
            decode_segment(b"\x00" * 10, 0, 100, (1,))

    def test_truncated_parameters_rejected(self):
        data = encode_segment(make_segment(params=b"\x01\x02\x03\x04"))
        with pytest.raises(StorageError):
            decode_segment(data[:-2], 0, 100, (1, 2, 3))

    def test_oversized_group_rejected(self):
        segment = SegmentGroup(
            gid=1, start_time=0, end_time=0, sampling_interval=100,
            mid=1, parameters=b"", group_tids=tuple(range(1, 40)),
        )
        with pytest.raises(StorageError):
            encode_segment(segment)


class TestStores:
    @pytest.fixture(params=["memory", "file"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            return MemoryStorage()
        return FileStorage(tmp_path / "store")

    def test_metadata_round_trip(self, store):
        store.insert_time_series(records())
        store.insert_model_table({1: "PMC", 2: "Swing"})
        assert [r.tid for r in store.time_series()] == [1, 2, 3]
        assert store.model_table() == {1: "PMC", 2: "Swing"}

    def test_segment_round_trip(self, store):
        store.insert_time_series(records())
        segment = make_segment(gaps={3})
        store.insert_segments([segment])
        (loaded,) = list(store.scan(SegmentScan()))
        assert loaded == segment
        assert store.segment_count() == 1

    def test_gid_predicate_pushdown(self, store):
        store.insert_time_series(records(gid=1) + [
            TimeSeriesRecord(tid=4, sampling_interval=100, gid=2)
        ])
        store.insert_segments([
            make_segment(gid=1),
            SegmentGroup(
                gid=2, start_time=0, end_time=100, sampling_interval=100,
                mid=1, parameters=b"\x00" * 4, group_tids=(4,),
            ),
        ])
        assert all(s.gid == 1 for s in store.scan(SegmentScan(gids=(1,))))
        assert all(s.gid == 2 for s in store.scan(SegmentScan(gids=(2,))))
        assert len(list(store.scan(SegmentScan(gids=(1, 2))))) == 2
        assert list(store.scan(SegmentScan(gids=(99,)))) == []

    def test_time_predicate_pushdown(self, store):
        store.insert_time_series(records())
        store.insert_segments([
            make_segment(start=0, end=400),
            make_segment(start=500, end=900),
        ])
        assert len(list(store.scan(SegmentScan(start_time=450)))) == 1
        assert len(list(store.scan(SegmentScan(end_time=450)))) == 1
        assert len(list(store.scan(SegmentScan(start_time=100, end_time=600)))) == 2
        assert list(store.scan(SegmentScan(start_time=1000))) == []

    def test_size_accounting(self, store):
        store.insert_time_series(records())
        segment = make_segment(params=b"\x01" * 10)
        store.insert_segments([segment])
        assert store.size_bytes() == HEADER_BYTES + 10

    def test_group_metadata(self, store):
        store.insert_time_series(records())
        assert store.group_metadata() == {1: ((1, 2, 3), 100)}

    def test_mixed_si_in_group_rejected(self, store):
        # The file store validates on insert, the memory store on the
        # first metadata derivation — both surface a StorageError.
        with pytest.raises(StorageError):
            store.insert_time_series([
                TimeSeriesRecord(tid=1, sampling_interval=100, gid=1),
                TimeSeriesRecord(tid=2, sampling_interval=200, gid=1),
            ])
            store.group_metadata()


class TestFileStorePersistence:
    def test_reopen_restores_everything(self, tmp_path):
        path = tmp_path / "db"
        store = FileStorage(path)
        store.insert_time_series(records())
        store.insert_model_table({1: "PMC"})
        store.insert_segments([make_segment(), make_segment(start=500, end=800)])

        reopened = FileStorage(path)
        assert reopened.segment_count() == 2
        assert len(list(reopened.scan(SegmentScan()))) == 2
        assert reopened.model_table() == {1: "PMC"}
        assert [r.tid for r in reopened.time_series()] == [1, 2, 3]

    def test_unknown_group_rejected(self, tmp_path):
        store = FileStorage(tmp_path / "db")
        with pytest.raises(StorageError):
            store.insert_segments([make_segment()])
        # No row was written, so no knowledge tick was handed out:
        # recovery bounds the ticks by the rows it finds.
        assert store.knowledge_time() == 0

    def test_corrupt_metadata_raises(self, tmp_path):
        path = tmp_path / "db"
        FileStorage(path)
        (path / "metadata.json").write_text("{not json")
        with pytest.raises(StorageError):
            FileStorage(path)

    def test_size_matches_files_on_disk(self, tmp_path):
        path = tmp_path / "db"
        store = FileStorage(path)
        store.insert_time_series(records())
        store.insert_segments([make_segment(params=b"\x07" * 6)])
        on_disk = sum(
            f.stat().st_size for f in path.glob("segments_gid_*.bin")
        )
        assert store.size_bytes() == on_disk == HEADER_BYTES + 6


class TestSidecarWrites:
    """The metadata sidecar is written when it changes and on
    flush()/close(), never per segment insert."""

    @staticmethod
    def series(tid, start):
        return make_series(tid, [float(i % 9) for i in range(60)], start=start)

    def test_writes_follow_changes_not_inserts(self, tmp_path, monkeypatch):
        writes = []
        save = FileStorage._save_metadata

        def spy(store):
            writes.append(store)
            save(store)

        monkeypatch.setattr(FileStorage, "_save_metadata", spy)
        db = ModelarDB.open(tmp_path / "db")
        db.ingest([self.series(1, 0), self.series(2, 0)])
        assert db.storage.segment_count() > 0
        writes.clear()
        # Later slices of registered series: rows only.
        db.ingest([self.series(1, 6000), self.series(2, 6000)])
        db.ingest([self.series(1, 12000), self.series(2, 12000)])
        assert db.storage.segment_count() > 2
        assert len(writes) == 0
        db.storage.flush()
        assert len(writes) == 1
        # Registering a new series changes the Time Series table.
        db.ingest([TimeSeriesGroup(3, [self.series(3, 0)])])
        assert len(writes) == 2
        db.close()
        assert len(writes) == 3


class TestLifecycle:
    def test_context_manager_closes_on_exit(self, tmp_path):
        with FileStorage(tmp_path / "db") as store:
            store.insert_time_series(records())
            store.insert_segments([make_segment()])
            assert not store.closed
        assert store.closed
        with pytest.raises(StorageError):
            store.insert_segments([make_segment(start=500, end=800)])

    def test_context_manager_closes_on_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with FileStorage(tmp_path / "db") as store:
                raise RuntimeError("boom")
        assert store.closed

    def test_close_is_idempotent(self, tmp_path):
        store = FileStorage(tmp_path / "db")
        store.close()
        store.close()
        assert store.closed

    def test_close_flushes_pending_state(self, tmp_path):
        path = tmp_path / "db"
        with FileStorage(path) as store:
            store.insert_time_series(records())
            store.insert_segments([make_segment()])
        reopened = FileStorage(path)
        assert reopened.segment_count() == 1
        assert [r.tid for r in reopened.time_series()] == [1, 2, 3]

    def test_memory_storage_supports_the_protocol_too(self):
        with MemoryStorage() as store:
            store.insert_time_series(records())
            store.insert_segments([make_segment()])
            assert store.segment_count() == 1
