"""Durable repair journal tests: replay, folding, corruption, compaction."""

from pathlib import Path

import pytest

from repro.wal import encode_record
from repro.errors import ClusterError
from repro.yprov.cluster.repairlog import (
    REPAIR_LOG_NAME,
    RepairLog,
    replay_pending,
)


@pytest.fixture()
def wal(tmp_path):
    return tmp_path / REPAIR_LOG_NAME


class TestReplay:
    def test_missing_file_is_empty(self, wal):
        assert replay_pending(wal) == ([], 0)

    def test_enqueue_then_done_cancels_out(self, wal):
        with RepairLog(wal, fsync=False) as log:
            log.record_enqueue("d1", "s1")
            log.record_enqueue("d2", "s1")
            log.record_done("d1", "s1")
        assert replay_pending(wal) == ([("d2", "s1")], 0)

    def test_pending_order_is_first_enqueue_order(self, wal):
        with RepairLog(wal, fsync=False) as log:
            for pair in [("b", "s1"), ("a", "s2"), ("c", "s1")]:
                log.record_enqueue(*pair)
            log.record_enqueue("b", "s1")  # duplicate: no reordering
        assert replay_pending(wal)[0] == [
            ("b", "s1"), ("a", "s2"), ("c", "s1")
        ]

    def test_drop_doc_voids_every_shard_entry(self, wal):
        with RepairLog(wal, fsync=False) as log:
            log.record_enqueue("d1", "s1")
            log.record_enqueue("d1", "s2")
            log.record_enqueue("d2", "s1")
            log.record_drop_doc("d1")
        assert replay_pending(wal) == ([("d2", "s1")], 0)

    def test_drop_shard_voids_every_doc_entry(self, wal):
        with RepairLog(wal, fsync=False) as log:
            log.record_enqueue("d1", "s1")
            log.record_enqueue("d2", "s1")
            log.record_enqueue("d1", "s2")
            log.record_drop_shard("s1")
        assert replay_pending(wal) == ([("d1", "s2")], 0)

    def test_reopen_restores_pending(self, wal):
        with RepairLog(wal, fsync=False) as log:
            log.record_enqueue("d1", "s1")
            log.record_enqueue("d2", "s2")
            log.record_done("d2", "s2")
        reopened = RepairLog(wal, fsync=False)
        assert reopened.pending() == [("d1", "s1")]
        assert len(reopened) == 1
        reopened.close()


class TestCorruption:
    def test_torn_tail_is_skipped_not_fatal(self, wal):
        with RepairLog(wal, fsync=False) as log:
            log.record_enqueue("d1", "s1")
            log.record_enqueue("d2", "s2")
        raw = wal.read_bytes()
        wal.write_bytes(raw[:-7])  # SIGKILL mid-append tears the tail
        pending, bad = replay_pending(wal)
        # the torn record is lost, the intact prefix survives
        assert pending == [("d1", "s1")]
        assert bad == 1

    def test_bit_flip_skips_one_record(self, wal):
        with RepairLog(wal, fsync=False) as log:
            log.record_enqueue("d1", "s1")
            log.record_enqueue("d2", "s2")
        lines = wal.read_bytes().splitlines(keepends=True)
        flipped = bytearray(lines[0])
        flipped[-5] ^= 0x01  # corrupt the payload; crc now mismatches
        wal.write_bytes(bytes(flipped) + lines[1])
        pending, bad = replay_pending(wal)
        assert pending == [("d2", "s2")]
        assert bad == 1

    def test_unknown_kind_counts_as_bad(self, wal):
        wal.write_bytes(
            encode_record({"k": "mystery", "doc": "d", "shard": "s"})
        )
        assert replay_pending(wal) == ([], 1)

    def test_construction_compacts_away_corruption(self, wal):
        with RepairLog(wal, fsync=False) as log:
            log.record_enqueue("d1", "s1")
        wal.write_bytes(wal.read_bytes() + b"garbage line\n")
        log = RepairLog(wal, fsync=False)
        assert log.pending() == [("d1", "s1")]
        assert log.bad_records == 0  # rewritten clean
        log.close()
        assert replay_pending(wal) == ([("d1", "s1")], 0)


class TestCompaction:
    def test_explicit_compact_keeps_only_pending(self, wal):
        log = RepairLog(wal, fsync=False)
        for i in range(50):
            log.record_enqueue(f"d{i}", "s1")
            log.record_done(f"d{i}", "s1")
        log.record_enqueue("keeper", "s1")
        size_before = wal.stat().st_size
        log.compact()
        assert wal.stat().st_size < size_before
        assert log.pending() == [("keeper", "s1")]
        log.close()
        assert replay_pending(wal) == ([("keeper", "s1")], 0)

    def test_auto_compaction_bounds_file_size(self, wal):
        log = RepairLog(wal, fsync=False)
        for i in range(2000):
            log.record_enqueue(f"d{i}", "s1")
            log.record_done(f"d{i}", "s1")
        # 4000 records appended, but the journal self-compacted: the file
        # holds far fewer lines than the full history
        assert len(wal.read_bytes().splitlines()) < 1000
        assert log.pending() == []
        log.close()

    def test_compaction_survives_append_after(self, wal):
        log = RepairLog(wal, fsync=False)
        log.record_enqueue("d1", "s1")
        log.compact()
        log.record_enqueue("d2", "s2")
        log.close()
        assert replay_pending(wal)[0] == [("d1", "s1"), ("d2", "s2")]


class TestLifecycle:
    def test_append_after_close_raises(self, wal):
        log = RepairLog(wal, fsync=False)
        log.close()
        with pytest.raises(ClusterError):
            log.record_enqueue("d", "s")

    def test_close_is_idempotent(self, wal):
        log = RepairLog(wal, fsync=False)
        log.close()
        log.close()

    def test_creates_parent_directories(self, tmp_path):
        nested = tmp_path / "a" / "b" / REPAIR_LOG_NAME
        log = RepairLog(nested, fsync=False)
        log.record_enqueue("d", "s")
        log.close()
        assert nested.is_file()

    def test_repr_mentions_state(self, wal):
        log = RepairLog(wal, fsync=False)
        assert "open" in repr(log)
        log.close()
        assert "closed" in repr(log)
