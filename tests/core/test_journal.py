"""Tests for the run journal (flushing, corruption, torn-tail appends)."""

import numpy as np
import pytest

from repro.core.journal import (
    JOURNAL_NAME,
    RunJournal,
    iter_journal,
    journal_path_for,
    read_journal,
    to_jsonable,
)
from repro.errors import JournalError


class TestToJsonable:
    def test_numpy_scalars_and_arrays(self):
        assert to_jsonable(np.float64(1.5)) == 1.5
        assert to_jsonable(np.int32(7)) == 7
        assert to_jsonable(np.arange(3)) == [0, 1, 2]

    def test_nested(self):
        out = to_jsonable({"a": [np.int64(1), {"b": np.float32(2.0)}]})
        assert out == {"a": [1, {"b": 2.0}]}

    def test_fallback_to_str(self):
        class Weird:
            def __repr__(self):
                return "weird"

        assert isinstance(to_jsonable(Weird()), str)


class TestRunJournal:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        with RunJournal(path) as journal:
            journal.append("start_run", {"run_id": "r"})
            journal.append("metric", {"n": "loss", "v": 0.1})
        result = read_journal(path)
        assert result.is_clean
        assert [r["k"] for r in result.records] == ["start_run", "metric"]

    def test_flush_cadence(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        journal = RunJournal(path, flush_every=3, fsync=False)
        journal.append("start_run", {})
        journal.append("param", {"n": "a"})
        # not yet flushed: reading the file sees at most the OS buffer
        journal.append("param", {"n": "b"})  # third record triggers flush
        assert len(read_journal(path).records) == 3
        journal.close()

    def test_every_record_durable_by_default(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        journal = RunJournal(path)
        journal.append("start_run", {})
        # no close(): simulates SIGKILL right after the append returned
        assert len(read_journal(path).records) == 1
        journal.close()

    def test_compact_removes_file(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        journal = RunJournal(path)
        journal.append("start_run", {})
        journal.compact()
        assert not path.exists()
        assert journal.closed

    def test_append_after_close_raises(self, tmp_path):
        journal = RunJournal(tmp_path / JOURNAL_NAME)
        journal.close()
        with pytest.raises(JournalError):
            journal.append("metric", {})

    def test_record_count(self, tmp_path):
        journal = RunJournal(tmp_path / JOURNAL_NAME)
        assert journal.record_count == 0
        journal.append("start_run", {})
        assert journal.record_count == 1
        journal.close()


class TestCorruptJournals:
    def _write_records(self, path, n=5):
        with RunJournal(path, fsync=False) as journal:
            journal.append("start_run", {"run_id": "r"})
            for i in range(n - 1):
                journal.append("metric", {"n": "loss", "v": float(i), "s": i})

    def test_torn_tail_skipped(self, tmp_path):
        """A crash mid-append leaves a partial last line — prefix survives."""
        path = tmp_path / JOURNAL_NAME
        self._write_records(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])  # tear the final record
        result = read_journal(path)
        assert len(result.records) == 4
        assert result.bad_records == 1
        assert not result.is_clean

    def test_flipped_byte_mid_journal_skipped(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        self._write_records(path)
        lines = path.read_bytes().splitlines(keepends=True)
        bad = bytearray(lines[2])
        bad[-3] ^= 0xFF
        lines[2] = bytes(bad)
        path.write_bytes(b"".join(lines))
        result = read_journal(path)
        assert len(result.records) == 4  # the other four verify
        assert result.bad_records == 1

    def test_garbage_file_yields_no_records(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_bytes(b"not a journal\nat all\n")
        result = read_journal(path)
        assert result.records == []
        assert result.bad_records == 2

    def test_append_after_torn_tail_survives(self, tmp_path):
        """Reopening a torn journal must not glue the next record onto the
        torn bytes: the fsynced record after the tear replays."""
        path = tmp_path / JOURNAL_NAME
        with RunJournal(path) as journal:
            journal.append("metric", {"v": 1})
            journal.append("metric", {"v": 2})
        path.write_bytes(path.read_bytes()[:-5])
        with RunJournal(path) as journal:
            journal.append("metric", {"v": 3})
        result = read_journal(path)
        assert [r["v"] for r in result.records] == [1, 3]
        assert result.bad_records == 1

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError):
            read_journal(tmp_path / "nope.wal")

    def test_read_accepts_run_dir(self, tmp_path):
        self._write_records(journal_path_for(tmp_path))
        assert len(read_journal(tmp_path).records) == 5

    def test_iter_journal(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        self._write_records(path, n=3)
        kinds = [r["k"] for r in iter_journal(path)]
        assert kinds == ["start_run", "metric", "metric"]
