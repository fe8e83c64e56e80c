"""Property tests: crash-at-any-byte recovery of the workflow journal.

Two invariants:

* **prefix recovery** — a corrupted tail record costs only that record
  and every earlier task still replays (byte-level truncation of the
  log itself is covered by ``test_wal_props``);
* **resume idempotence** — whatever record boundary the process died at,
  resuming produces the uninterrupted result, and resuming again changes
  nothing.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workflow.chaos import CrashAfterRecords, SimulatedCrash, \
    corrupt_journal_tail
from repro.workflow.dag import Workflow
from repro.workflow.journal import (
    WorkflowJournal,
    load_history,
    scan_workflow_journal,
)


def _write_canned_journal(path, n_tasks):
    """A complete run of *n_tasks* sequential tasks; returns record count."""
    with WorkflowJournal(path, fsync=False) as j:
        j.append("wf_start", {
            "workflow": "w", "run_id": "r", "pid": 1, "t": 0.0,
            "tasks": {f"t{i}": {"deps": []} for i in range(n_tasks)},
        })
        for i in range(n_tasks):
            j.append("attempt_start", {"task": f"t{i}", "attempt": 1,
                                       "t": float(i)})
            j.append("attempt_end", {"task": f"t{i}", "attempt": 1,
                                     "t": i + 0.5, "outcome": "succeeded"})
            j.append("task_result", {"task": f"t{i}", "state": "succeeded",
                                     "start_time": float(i),
                                     "end_time": i + 0.5, "attempts": 1,
                                     "outputs": {"i": i}})
        j.append("wf_end", {"t": float(n_tasks), "start_time": 0.0,
                            "succeeded": True})
    return 2 + 3 * n_tasks


class TestPrefixRecovery:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           n_tasks=st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_corrupt_tail_loses_at_most_one_record(self, tmp_path_factory,
                                                   seed, n_tasks):
        tmp = tmp_path_factory.mktemp("wal")
        wal = tmp / "workflow.wal"
        total = _write_canned_journal(wal, n_tasks)
        corrupt_journal_tail(wal, seed=seed)
        h = scan_workflow_journal(wal)
        assert h.n_records >= total - 1
        assert h.bad_records <= 1
        # the prefix is semantically intact: every earlier task replays
        for i in range(n_tasks - 1):
            assert h.terminal[f"t{i}"]["outputs"] == {"i": i}


def _pipeline(width):
    """A fan-out/fan-in DAG parameterized by width, deterministic outputs."""
    wf = Workflow("prop")
    wf.add_task("root", lambda deps: {"v": 1})
    for i in range(width):
        wf.add_task(
            f"mid{i}",
            (lambda k: lambda deps: {"v": deps["root"]["v"] + k})(i),
            deps=["root"],
        )
    wf.add_task(
        "join",
        lambda deps: {"total": sum(d["v"] for d in deps.values())},
        deps=[f"mid{i}" for i in range(width)],
    )
    return wf


class TestResumeIdempotence:
    @given(kill_at=st.integers(min_value=1, max_value=30),
           width=st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_resume_after_any_boundary_kill_matches_baseline(
            self, tmp_path_factory, kill_at, width):
        expected = _pipeline(width).run().to_comparable()
        state = tmp_path_factory.mktemp("state")
        try:
            _pipeline(width).run(state_dir=state, fsync=False,
                                 on_record=CrashAfterRecords(kill_at))
        except SimulatedCrash:
            pass
        first = _pipeline(width).resume(state, fsync=False)
        second = _pipeline(width).resume(state, fsync=False)
        assert first.to_comparable() == expected
        assert second.to_comparable() == expected
        # idempotence extends to the serialized form CI diffs
        assert json.dumps(first.to_comparable(), sort_keys=True) == \
            json.dumps(second.to_comparable(), sort_keys=True)
        # the journal has exactly one terminal record per task
        h = load_history(state)
        assert set(h.terminal) == set(expected)
