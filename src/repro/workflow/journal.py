"""Durable workflow journal: crash-safe orchestration state for one run.

The in-memory :class:`~repro.workflow.dag.Workflow` executor loses every
completed task when the process dies — unacceptable under the walltime
caps and node failures the paper's Frontier study runs under.  This module
gives a workflow run a *state directory* holding ``workflow.wal``, an
append-only, crc-checked write-ahead log (:mod:`repro.wal`): every task
attempt, heartbeat, terminal result and lifecycle boundary is flushed to
disk before execution proceeds, so a killed run can be resumed with no
SUCCEEDED task re-executed and its cached outputs replayed bit-identically.

Record kinds (all carry a ``t`` timestamp from the run's injected clock):

``wf_start``
    Opens *segment 0*: workflow name, run id, pid, task specs.
``wf_resume``
    Opens segment *k*: a resume boundary (new pid).
``attempt_start`` / ``attempt_end``
    Bracket one execution attempt of one task.  An ``attempt_start``
    with no matching ``attempt_end`` in a dead segment means the process
    crashed *inside* that attempt — the signal the poison-task quarantine
    counts.
``heartbeat``
    Liveness proof for a long-running attempt (supervisor-emitted on a
    cadence, or task-emitted via :meth:`TaskContext.heartbeat`), so
    ``yprov wf status`` can tell *running* from *hung* from *dead*.
``task_result``
    The terminal record of one task: state, timings, attempts, canonical
    JSON outputs.  Resume replays these instead of re-executing.
``wf_end``
    Clean completion of the whole DAG; its absence from the last segment
    marks an interrupted run (lint rule PL112).

Torn or corrupted tail records — the normal residue of a kill — are
skipped record-by-record on read; the intact prefix always loads.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.core.journal import to_jsonable
from repro.errors import JournalError, WorkflowJournalError
from repro.wal import WriteAheadLog, scan

PathLike = Union[str, Path]

#: File name of the workflow write-ahead journal inside a state directory.
WORKFLOW_JOURNAL_NAME = "workflow.wal"

#: Hook called after each record is durably on disk: ``(kind, index)``.
#: The chaos harness uses it to kill the process at record boundaries.
RecordHook = Callable[[str, int], None]


def workflow_journal_path(state_dir: PathLike) -> Path:
    """The workflow journal location for a state directory."""
    return Path(state_dir) / WORKFLOW_JOURNAL_NAME


def canonical_outputs(outputs: Mapping[str, Any]) -> Dict[str, Any]:
    """Normalize task outputs through canonical JSON.

    Journaled workflows require JSON-representable outputs so a resumed
    run can replay them bit-identically; normalizing the *live* run
    through the same round-trip guarantees live and replayed outputs are
    equal (tuples become lists, numpy scalars become Python numbers) —
    the resumed result can never drift from the uninterrupted one.
    """
    text = json.dumps(to_jsonable(dict(outputs)), sort_keys=True,
                      separators=(",", ":"))
    return json.loads(text)


class WorkflowJournal:
    """Append-only, checksummed, thread-safe event log for one workflow run.

    Appends are serialized by a lock (parallel mode journals from worker
    threads) and flushed+fsynced per record — a record either survives a
    kill in full or is detected as torn on the next read.  ``on_record``
    fires *after* the flush; if it raises (the chaos harness simulating a
    kill) the journal marks itself dead and drops all further appends, so
    the on-disk state is exactly what a SIGKILL at that boundary leaves.
    """

    def __init__(
        self,
        path: PathLike,
        fsync: bool = True,
        on_record: Optional[RecordHook] = None,
    ) -> None:
        self.path = Path(path)
        self.on_record = on_record
        self._wal = WriteAheadLog(self.path, fsync=fsync)
        self._lock = threading.Lock()
        self._count = 0
        self._dead = False

    def append(self, kind: str, payload: Optional[Mapping[str, Any]] = None) -> None:
        """Durably append one record, then fire the chaos hook."""
        with self._lock:
            if self._dead:
                return  # the simulated kill already "ended" this process
            record: Dict[str, Any] = {"k": kind}
            if payload:
                record.update(payload)
            try:
                self._wal.append(record)
            except JournalError as exc:
                raise WorkflowJournalError(str(exc)) from exc
            index = self._count
            self._count += 1
            if self.on_record is not None:
                try:
                    self.on_record(kind, index)
                except BaseException:
                    self._dead = True
                    raise

    def close(self) -> None:
        """Close the journal; further appends raise (dead journals no-op)."""
        with self._lock:
            self._wal.close()

    @property
    def record_count(self) -> int:
        """Records appended through this handle."""
        return self._count

    def __enter__(self) -> "WorkflowJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# reading / history
# ---------------------------------------------------------------------------

@dataclass
class AttemptRecord:
    """One bracketed execution attempt reconstructed from the journal."""

    task: str
    number: int  # global attempt number, monotonic across resume boundaries
    segment: int
    start_time: float
    end_time: Optional[float] = None
    outcome: Optional[str] = None  # succeeded | failed | timed_out
    error: Optional[str] = None
    heartbeats: List[float] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """Whether an ``attempt_end`` made it to disk."""
        return self.outcome is not None

    @property
    def last_signal(self) -> float:
        """The attempt's most recent proof of life."""
        signals = [self.start_time, *self.heartbeats]
        if self.end_time is not None:
            signals.append(self.end_time)
        return max(signals)


@dataclass
class WorkflowHistory:
    """Everything a resume / status query needs, parsed from the journal.

    ``terminal`` maps task name to its ``task_result`` payload (the
    replayable cache); ``attempts`` holds every bracketed attempt in
    journal order; ``crash_counts`` counts, per task, the attempts that
    were open when a dead segment ended — i.e. how many times this task
    crashed the process (the quarantine signal).
    """

    path: Path
    workflow_name: Optional[str] = None
    run_id: Optional[str] = None
    task_specs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    segments: int = 0
    pid: Optional[int] = None  # pid of the last segment's process
    started_at: Optional[float] = None  # wf_start timestamp
    terminal: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    attempts: Dict[str, List[AttemptRecord]] = field(default_factory=dict)
    ended: bool = False  # wf_end seen in the *last* segment
    end_payload: Optional[Dict[str, Any]] = None
    bad_records: int = 0
    issues: List[str] = field(default_factory=list)
    n_records: int = 0

    @property
    def started(self) -> bool:
        """Whether a ``wf_start`` record ever made it to disk."""
        return self.workflow_name is not None

    @property
    def interrupted(self) -> bool:
        """Started but the last segment never reached ``wf_end``."""
        return self.started and not self.ended

    @property
    def resumed(self) -> bool:
        """Whether the run crossed at least one resume boundary."""
        return self.segments > 1

    def crash_counts(self) -> Dict[str, int]:
        """task -> number of process deaths recorded inside its attempts.

        An attempt that is open (no ``attempt_end``) in any segment other
        than a *live* last one means the process died mid-attempt.  The
        caller resuming a run knows every prior segment is dead, so every
        open attempt counts.
        """
        counts: Dict[str, int] = {}
        for task, records in self.attempts.items():
            for attempt in records:
                if not attempt.completed and task not in self.terminal:
                    counts[task] = counts.get(task, 0) + 1
        return counts

    def open_attempts(self) -> Dict[str, AttemptRecord]:
        """task -> its currently-open attempt in the last segment, if any."""
        out: Dict[str, AttemptRecord] = {}
        for task, records in self.attempts.items():
            if task in self.terminal:
                continue
            for attempt in records:
                if not attempt.completed and attempt.segment == self.segments - 1:
                    out[task] = attempt
        return out

    def next_attempt_number(self, task: str) -> int:
        """The global attempt number the next attempt of *task* should use."""
        records = self.attempts.get(task, [])
        return (records[-1].number + 1) if records else 1

    def task_statuses(
        self,
        now: Optional[float] = None,
        heartbeat_timeout_s: float = 30.0,
        pid_alive: Optional[Callable[[int], bool]] = None,
    ) -> Dict[str, str]:
        """Per-task status for ``yprov wf status``.

        Terminal tasks report their journaled state.  A task with an open
        attempt in the last segment is ``running`` (process alive, recent
        heartbeat), ``hung`` (process alive, heartbeat stale past
        *heartbeat_timeout_s*) or ``dead`` (process gone).  Everything
        else is ``pending``.  *now* and *pid_alive* are injectable so
        tests — and the simulator — can judge liveness deterministically.
        """
        pid_alive = pid_alive if pid_alive is not None else _pid_alive
        statuses: Dict[str, str] = {}
        open_attempts = self.open_attempts()
        alive = self.pid is not None and pid_alive(self.pid) and not self.ended
        for task in self.task_specs or {
            t: {} for t in set(self.attempts) | set(self.terminal)
        }:
            if task in self.terminal:
                statuses[task] = str(self.terminal[task].get("state", "unknown"))
            elif task in open_attempts:
                if not alive:
                    statuses[task] = "dead"
                else:
                    attempt = open_attempts[task]
                    age = (now if now is not None else attempt.last_signal) - \
                        attempt.last_signal
                    statuses[task] = "running" if age <= heartbeat_timeout_s \
                        else "hung"
            else:
                statuses[task] = "pending"
        return statuses

    def run_status(self) -> str:
        """Whole-run status: ``complete``, ``interrupted`` or ``empty``."""
        if not self.started:
            return "empty"
        return "complete" if self.ended else "interrupted"


def _pid_alive(pid: int) -> bool:
    """Whether *pid* names a live process (best effort, POSIX semantics)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists but not ours
    return True


def scan_workflow_journal(path: PathLike) -> WorkflowHistory:
    """Parse a workflow journal into a :class:`WorkflowHistory`.

    *path* may be the journal file or the state directory containing it.
    Corrupt or torn records are skipped and reported — the intact prefix
    always loads (crash-at-any-boundary recovery).
    """
    path = Path(path)
    if path.is_dir():
        path = workflow_journal_path(path)
    if not path.is_file():
        raise WorkflowJournalError(f"workflow journal not found: {path}")

    wal = scan(path)
    history = WorkflowHistory(path=path, attempts={},
                              bad_records=wal.bad_records, issues=wal.issues,
                              n_records=len(wal.records))
    open_by_task: Dict[str, AttemptRecord] = {}
    for record in wal.records:
        kind = record.get("k")
        if kind == "wf_start":
            history.workflow_name = record.get("workflow")
            history.run_id = record.get("run_id")
            history.task_specs = record.get("tasks", {}) or {}
            history.pid = record.get("pid")
            history.started_at = record.get("t")
            history.segments = 1
            history.ended = False
            open_by_task.clear()
        elif kind == "wf_resume":
            history.segments += 1
            history.pid = record.get("pid", history.pid)
            history.ended = False
            open_by_task.clear()
        elif kind == "attempt_start":
            attempt = AttemptRecord(
                task=str(record.get("task")),
                number=int(record.get("attempt", 0)),
                segment=max(history.segments - 1, 0),
                start_time=float(record.get("t", 0.0)),
            )
            history.attempts.setdefault(attempt.task, []).append(attempt)
            open_by_task[attempt.task] = attempt
        elif kind == "heartbeat":
            attempt = open_by_task.get(str(record.get("task")))
            if attempt is not None:
                attempt.heartbeats.append(float(record.get("t", 0.0)))
        elif kind == "attempt_end":
            attempt = open_by_task.pop(str(record.get("task")), None)
            if attempt is not None:
                attempt.end_time = float(record.get("t", 0.0))
                attempt.outcome = record.get("outcome")
                attempt.error = record.get("error")
        elif kind == "task_result":
            history.terminal[str(record.get("task"))] = record
        elif kind == "wf_end":
            history.ended = True
            history.end_payload = record
    return history


def load_history(state_dir: PathLike) -> WorkflowHistory:
    """Load the journal of a workflow state directory (alias with intent)."""
    return scan_workflow_journal(state_dir)
