"""Unit tests for the durable workflow journal and its history parser."""

import os

import pytest

from repro.errors import WorkflowJournalError
from repro.workflow.chaos import (
    CrashAfterRecords,
    SimulatedCrash,
    corrupt_journal_tail,
    truncate_journal_tail,
)
from repro.workflow.journal import (
    WORKFLOW_JOURNAL_NAME,
    WorkflowJournal,
    canonical_outputs,
    load_history,
    scan_workflow_journal,
    workflow_journal_path,
)


@pytest.fixture
def wal(tmp_path):
    return tmp_path / WORKFLOW_JOURNAL_NAME


def write_run(wal, *, end=True, resume_segments=0):
    """A small canned run: task a succeeds, task b left open unless end."""
    with WorkflowJournal(wal, fsync=False) as j:
        j.append("wf_start", {
            "workflow": "w", "run_id": "r", "pid": os.getpid(), "t": 0.0,
            "tasks": {"a": {"deps": []}, "b": {"deps": ["a"]}},
        })
        j.append("attempt_start", {"task": "a", "attempt": 1, "t": 1.0})
        j.append("attempt_end", {"task": "a", "attempt": 1, "t": 2.0,
                                 "outcome": "succeeded"})
        j.append("task_result", {"task": "a", "state": "succeeded",
                                 "start_time": 1.0, "end_time": 2.0,
                                 "attempts": 1, "outputs": {"x": 1}})
        j.append("attempt_start", {"task": "b", "attempt": 1, "t": 3.0})
        for k in range(resume_segments):
            j.append("wf_resume", {"pid": os.getpid(), "t": 10.0 + k})
            j.append("attempt_start", {"task": "b", "attempt": 2 + k,
                                       "t": 11.0 + k})
        if end:
            j.append("attempt_end", {"task": "b",
                                     "attempt": 1 + resume_segments,
                                     "t": 20.0, "outcome": "succeeded"})
            j.append("task_result", {"task": "b", "state": "succeeded",
                                     "start_time": 3.0, "end_time": 20.0,
                                     "attempts": 1, "outputs": {"y": 2}})
            j.append("wf_end", {"t": 21.0, "start_time": 0.0,
                                "succeeded": True})


class TestJournal:
    def test_append_and_scan_round_trip(self, wal):
        write_run(wal)
        h = scan_workflow_journal(wal)
        assert h.workflow_name == "w" and h.run_id == "r"
        assert h.started and h.ended and not h.interrupted
        assert h.run_status() == "complete"
        assert set(h.terminal) == {"a", "b"}
        assert h.terminal["a"]["outputs"] == {"x": 1}
        assert h.bad_records == 0

    def test_scan_accepts_state_dir(self, tmp_path):
        write_run(workflow_journal_path(tmp_path))
        assert load_history(tmp_path).workflow_name == "w"

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(WorkflowJournalError, match="not found"):
            scan_workflow_journal(tmp_path / "nope.wal")

    def test_closed_journal_raises(self, wal):
        j = WorkflowJournal(wal, fsync=False)
        j.close()
        with pytest.raises(WorkflowJournalError, match="closed"):
            j.append("wf_start", {"t": 0.0})

    def test_record_count(self, wal):
        with WorkflowJournal(wal, fsync=False) as j:
            assert j.record_count == 0
            j.append("wf_start", {"t": 0.0})
            j.append("wf_end", {"t": 1.0})
            assert j.record_count == 2

    def test_dead_journal_drops_appends(self, wal):
        """After the chaos hook raises, nothing else reaches the disk."""
        j = WorkflowJournal(wal, fsync=False, on_record=CrashAfterRecords(1))
        j.append("wf_start", {"t": 0.0})
        with pytest.raises(SimulatedCrash):
            j.append("attempt_start", {"task": "a", "attempt": 1, "t": 1.0})
        j.append("heartbeat", {"task": "a", "t": 2.0})  # silently dropped
        j.close()
        h = scan_workflow_journal(wal)
        assert h.n_records == 2  # wf_start + the record that "killed" us
        assert not any(a.heartbeats for recs in h.attempts.values()
                       for a in recs)


class TestCanonicalOutputs:
    def test_json_round_trip_normalizes(self):
        out = canonical_outputs({"t": (1, 2), "n": 3})
        assert out == {"t": [1, 2], "n": 3}

    def test_already_canonical_is_identity(self):
        data = {"a": [1.5, "x"], "b": {"nested": True}}
        assert canonical_outputs(data) == data


class TestTornTails:
    def test_truncated_tail_skips_only_the_torn_record(self, wal):
        write_run(wal)
        full = scan_workflow_journal(wal).n_records
        truncate_journal_tail(wal, 3)  # tear the last record's tail
        h = scan_workflow_journal(wal)
        assert h.n_records == full - 1
        assert h.bad_records == 1 and h.issues
        # the wf_end was the torn record: the run now reads as interrupted
        assert h.interrupted

    def test_corrupt_tail_is_detected_by_crc(self, wal):
        write_run(wal)
        full = scan_workflow_journal(wal).n_records
        offset = corrupt_journal_tail(wal, seed=7)
        assert offset >= 0
        h = scan_workflow_journal(wal)
        assert h.n_records == full - 1
        assert h.bad_records == 1

    def test_resume_after_torn_tail_keeps_the_resume(self, wal):
        """Appending after a torn tail must start a fresh line: the
        resume boundary and its attempt both replay."""
        with WorkflowJournal(wal, fsync=False) as j:
            j.append("wf_start", {"workflow": "w", "run_id": "r", "pid": 1,
                                  "t": 0.0, "tasks": {"a": {"deps": []}}})
            j.append("attempt_start", {"task": "a", "attempt": 1, "t": 1.0})
        truncate_journal_tail(wal, 5)
        with WorkflowJournal(wal, fsync=False) as j:
            j.append("wf_resume", {"pid": 2, "t": 2.0})
            j.append("attempt_start", {"task": "a", "attempt": 2, "t": 3.0})
        h = scan_workflow_journal(wal)
        assert h.segments == 2 and h.pid == 2
        assert h.bad_records == 1
        assert [a.number for a in h.attempts["a"]] == [2]

    def test_empty_file_is_unstarted(self, wal):
        wal.write_bytes(b"")
        h = scan_workflow_journal(wal)
        assert not h.started and h.run_status() == "empty"


class TestHistoryQueries:
    def test_interrupted_and_open_attempts(self, wal):
        write_run(wal, end=False)
        h = scan_workflow_journal(wal)
        assert h.interrupted and h.run_status() == "interrupted"
        open_attempts = h.open_attempts()
        assert set(open_attempts) == {"b"}
        assert open_attempts["b"].number == 1
        assert not open_attempts["b"].completed

    def test_crash_counts_across_segments(self, wal):
        write_run(wal, end=False, resume_segments=2)
        h = scan_workflow_journal(wal)
        assert h.segments == 3 and h.resumed
        # b was open in segments 0, 1 and 2 -> three process deaths
        assert h.crash_counts() == {"b": 3}
        # only the last segment's open attempt is "currently" open
        assert h.open_attempts()["b"].segment == 2

    def test_terminal_tasks_never_count_as_crashes(self, wal):
        write_run(wal)
        assert scan_workflow_journal(wal).crash_counts() == {}

    def test_next_attempt_number_is_global(self, wal):
        write_run(wal, end=False, resume_segments=2)
        h = scan_workflow_journal(wal)
        assert h.next_attempt_number("b") == 4
        assert h.next_attempt_number("a") == 2
        assert h.next_attempt_number("never-ran") == 1


class TestTaskStatuses:
    def test_terminal_running_pending(self, wal):
        write_run(wal, end=False)
        h = scan_workflow_journal(wal)
        statuses = h.task_statuses(now=4.0, pid_alive=lambda pid: True)
        assert statuses == {"a": "succeeded", "b": "running"}

    def test_hung_when_heartbeat_stale(self, wal):
        write_run(wal, end=False)
        h = scan_workflow_journal(wal)
        statuses = h.task_statuses(now=3.0 + 31.0, heartbeat_timeout_s=30.0,
                                   pid_alive=lambda pid: True)
        assert statuses["b"] == "hung"

    def test_heartbeat_refreshes_liveness(self, wal):
        write_run(wal, end=False)
        with WorkflowJournal(wal, fsync=False) as j:
            j.append("heartbeat", {"task": "b", "attempt": 1, "t": 40.0})
        h = scan_workflow_journal(wal)
        statuses = h.task_statuses(now=50.0, heartbeat_timeout_s=30.0,
                                   pid_alive=lambda pid: True)
        assert statuses["b"] == "running"

    def test_dead_when_pid_gone(self, wal):
        write_run(wal, end=False)
        h = scan_workflow_journal(wal)
        statuses = h.task_statuses(now=4.0, pid_alive=lambda pid: False)
        assert statuses["b"] == "dead"

    def test_completed_run_reports_states(self, wal):
        write_run(wal)
        h = scan_workflow_journal(wal)
        assert h.task_statuses() == {"a": "succeeded", "b": "succeeded"}
