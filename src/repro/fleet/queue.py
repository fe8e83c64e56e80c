"""Durable multi-tenant job queue: every transition is a WAL record.

The queue is the fleet's source of truth.  Every lifecycle transition —
``submit``, ``lease``, ``renew``, ``complete``, ``fail``, ``expire``,
``dead_letter``, ``requeue``, ``purge`` — is appended to ``queue.wal``,
a crc-checked write-ahead log (:mod:`repro.wal`), and fsynced **before**
the call returns, so an acknowledged submission is durable by the time
the caller sees it.  On restart the WAL is replayed into the
pending/leased/done/dead-letter sets a crashed predecessor left behind;
torn or corrupt tail records are skipped — never fatal.

Replay and live appends fold records through the *same* function
(:func:`_fold`), which is what makes replay idempotent by construction:
the in-memory state after N appends equals the state after replaying
those N records, byte for byte of the journal.

Leases are fenced: each carries the attempt number it was granted for,
and ``renew``/``complete``/``fail`` are rejected with
:class:`~repro.errors.LeaseExpiredError` unless the caller still holds
the *current* lease.  A worker that was suspected dead, lost its lease
to reclaim, and then came back alive therefore cannot double-report a
job — its stale attempt is fenced out at the journal boundary.

The WAL self-compacts: once settled records dominate the live job set,
the whole file is atomically rewritten as one ``snapshot`` record per
surviving job, so a long-lived queue's journal stays proportional to
its population, not its history.
"""

from __future__ import annotations

import threading
import uuid
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import time as _time

from repro.core.journal import to_jsonable
from repro.errors import (
    FleetError,
    JobNotFoundError,
    JobStateError,
    LeaseExpiredError,
)
from repro.fleet.scheduler import AdmissionControl, FairShareScheduler
from repro.retry import ExponentialBackoff, seed_from_name
from repro.wal import WriteAheadLog, scan

__all__ = [
    "FLEET_QUEUE_NAME",
    "FleetQueue",
    "Job",
    "JobLease",
    "JobState",
    "replay_queue",
]

#: File name of the job-queue WAL inside a fleet state directory.
FLEET_QUEUE_NAME = "queue.wal"

#: Compact once the journal holds more than ``max(this, 8 * live)`` records.
_COMPACT_MIN = 512

#: Attempt history entries kept per job (older entries are trimmed).
_HISTORY_LIMIT = 32


class JobState(str, Enum):
    """Lifecycle states a job moves through (see DESIGN.md state machine)."""

    PENDING = "pending"
    LEASED = "leased"
    DONE = "done"
    DEAD_LETTERED = "dead_lettered"


@dataclass
class Job:
    """One job's full queue-side state, folded from the WAL."""

    job_id: str
    tenant: str
    spec: Dict[str, Any]
    submitted_at: float
    max_attempts: int
    state: JobState = JobState.PENDING
    #: attempts started (== the attempt number of the latest lease)
    attempts: int = 0
    #: leases that expired without a report (presumed worker crash)
    crashes: int = 0
    #: attempts that reported a clean failure
    failures: int = 0
    #: earliest time the job may be leased again (retry backoff)
    not_before: float = 0.0
    worker: Optional[str] = None
    lease_expires: float = 0.0
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    dead_reason: Optional[str] = None
    dead_at: Optional[float] = None
    ended_at: Optional[float] = None
    #: FIFO tiebreaker: bumped each time the job (re)enters PENDING
    seq: int = 0
    #: per-attempt records, newest last (bounded at ``_HISTORY_LIMIT``)
    history: List[Dict[str, Any]] = field(default_factory=list)

    def copy(self) -> "Job":
        """Deep-enough copy handed to callers (mutating it is harmless)."""
        dup = replace(self)
        dup.spec = dict(self.spec)
        dup.history = [dict(h) for h in self.history]
        if self.result is not None:
            dup.result = dict(self.result)
        return dup

    def status_payload(self) -> Dict[str, Any]:
        """The JSON shape served by ``GET /api/v0/jobs/<id>``."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state.value,
            "spec": dict(self.spec),
            "submitted_at": self.submitted_at,
            "max_attempts": self.max_attempts,
            "attempts": self.attempts,
            "crashes": self.crashes,
            "failures": self.failures,
            "not_before": self.not_before,
            "worker": self.worker,
            "lease_expires": self.lease_expires,
            "result": self.result,
            "error": self.error,
            "dead_reason": self.dead_reason,
            "dead_at": self.dead_at,
            "ended_at": self.ended_at,
            "history": [dict(h) for h in self.history],
        }

    def snapshot_payload(self) -> Dict[str, Any]:
        """The single compaction record that reconstructs this job."""
        payload = self.status_payload()
        payload["seq"] = self.seq
        return payload


@dataclass(frozen=True)
class JobLease:
    """What a worker holds while it runs a job."""

    job_id: str
    tenant: str
    spec: Dict[str, Any]
    worker: str
    attempt: int
    expires: float
    lease_duration_s: float

    def to_payload(self) -> Dict[str, Any]:
        """JSON shape of a granted lease (the ``jobs:lease`` response)."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "spec": dict(self.spec),
            "worker": self.worker,
            "attempt": self.attempt,
            "expires": self.expires,
            "lease_duration_s": self.lease_duration_s,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "JobLease":
        """Rebuild a lease from its JSON shape (client side)."""
        return cls(
            job_id=str(payload["job_id"]),
            tenant=str(payload.get("tenant") or "default"),
            spec=dict(payload.get("spec") or {}),
            worker=str(payload["worker"]),
            attempt=int(payload["attempt"]),
            expires=float(payload["expires"]),
            lease_duration_s=float(payload.get("lease_duration_s") or 0.0),
        )


@dataclass
class _QueueState:
    """Mutable fold target shared by replay and live appends."""

    jobs: Dict[str, Job] = field(default_factory=dict)
    #: next FIFO sequence number
    seq: int = 0
    #: records folded since construction/compaction (valid ones)
    records: int = 0


def _trim_history(job: Job) -> None:
    if len(job.history) > _HISTORY_LIMIT:
        del job.history[: len(job.history) - _HISTORY_LIMIT]


def _close_open_attempt(job: Job, outcome: str, t: Any,
                        error: Optional[str] = None) -> None:
    """Mark the newest history entry terminal (idempotent on replay)."""
    if job.history and "outcome" not in job.history[-1]:
        entry = job.history[-1]
        entry["outcome"] = outcome
        entry["ended_at"] = t
        if error is not None:
            entry["error"] = error


def _fold(state: _QueueState, record: Mapping[str, Any]) -> Optional[str]:
    """Fold one WAL record into *state*; returns the job id it touched.

    Unknown kinds and records for unknown jobs are ignored (a newer
    writer's records must not poison an older reader's replay).  This is
    the single transition function — live appends call it too, so the
    in-memory state is always exactly what a restart would rebuild.
    """
    kind = record.get("k")
    job_id = record.get("job")
    if not isinstance(job_id, str) or not kind:
        return None
    state.records += 1
    job = state.jobs.get(job_id)
    if kind == "submit":
        if job is not None:  # duplicate submit: first write wins
            return job_id
        state.seq += 1
        state.jobs[job_id] = Job(
            job_id=job_id,
            tenant=str(record.get("tenant") or "default"),
            spec=dict(record.get("spec") or {}),
            submitted_at=float(record.get("t") or 0.0),
            max_attempts=int(record.get("max_attempts") or 1),
            seq=state.seq,
        )
        return job_id
    if kind == "snapshot":
        snap_seq = int(record.get("seq") or state.seq + 1)
        state.seq = max(state.seq, snap_seq)
        snap = Job(
            job_id=job_id,
            tenant=str(record.get("tenant") or "default"),
            spec=dict(record.get("spec") or {}),
            submitted_at=float(record.get("submitted_at") or 0.0),
            max_attempts=int(record.get("max_attempts") or 1),
            state=JobState(str(record.get("state") or "pending")),
            attempts=int(record.get("attempts") or 0),
            crashes=int(record.get("crashes") or 0),
            failures=int(record.get("failures") or 0),
            not_before=float(record.get("not_before") or 0.0),
            worker=record.get("worker"),
            lease_expires=float(record.get("lease_expires") or 0.0),
            result=record.get("result"),
            error=record.get("error"),
            dead_reason=record.get("dead_reason"),
            dead_at=record.get("dead_at"),
            ended_at=record.get("ended_at"),
            seq=snap_seq,
            history=[dict(h) for h in record.get("history") or []],
        )
        state.jobs[job_id] = snap
        return job_id
    if job is None:
        return None
    t = record.get("t")
    if kind == "lease":
        job.state = JobState.LEASED
        job.worker = str(record.get("worker") or "")
        job.attempts = int(record.get("attempt") or job.attempts + 1)
        job.lease_expires = float(record.get("expires") or 0.0)
        job.history.append({
            "attempt": job.attempts,
            "worker": job.worker,
            "leased_at": t,
        })
        _trim_history(job)
    elif kind == "renew":
        if (job.state is JobState.LEASED
                and job.worker == record.get("worker")
                and job.attempts == int(record.get("attempt") or 0)):
            job.lease_expires = float(record.get("expires") or 0.0)
    elif kind == "complete":
        job.state = JobState.DONE
        result = record.get("result")
        job.result = dict(result) if isinstance(result, Mapping) else None
        job.error = None
        job.worker = None
        job.lease_expires = 0.0
        job.ended_at = float(t) if t is not None else None
        _close_open_attempt(job, "completed", t)
    elif kind == "fail":
        job.state = JobState.PENDING
        job.failures += 1
        job.error = record.get("error")
        job.worker = None
        job.lease_expires = 0.0
        job.not_before = float(record.get("retry_at") or 0.0)
        state.seq += 1
        job.seq = state.seq
        _close_open_attempt(job, "failed", t, error=record.get("error"))
    elif kind == "expire":
        job.state = JobState.PENDING
        job.crashes += 1
        job.error = record.get("error") or job.error
        job.worker = None
        job.lease_expires = 0.0
        job.not_before = float(record.get("retry_at") or 0.0)
        state.seq += 1
        job.seq = state.seq
        _close_open_attempt(job, "expired", t,
                            error=record.get("error"))
    elif kind == "dead_letter":
        job.state = JobState.DEAD_LETTERED
        job.dead_reason = record.get("reason")
        job.dead_at = float(t) if t is not None else None
        job.worker = None
        job.lease_expires = 0.0
    elif kind == "requeue":
        job.state = JobState.PENDING
        job.attempts = 0
        job.crashes = 0
        job.failures = 0
        job.not_before = 0.0
        job.error = None
        job.dead_reason = None
        job.dead_at = None
        job.result = None
        job.ended_at = None
        state.seq += 1
        job.seq = state.seq
        job.history.append({"requeued_at": t, "outcome": "requeued"})
        _trim_history(job)
    elif kind == "purge":
        del state.jobs[job_id]
    else:
        state.records -= 1  # structurally valid but unknown: not replayed
        return None
    return job_id


def replay_queue(path: Union[str, Path]) -> Tuple[_QueueState, int]:
    """Fold a queue WAL into ``(state, bad record count)``.

    Unreadable lines (torn tail after SIGKILL, bit rot) are counted and
    skipped; every intact record is recovered.
    """
    wal = scan(path)
    state = _QueueState()
    for record in wal.records:
        _fold(state, record)
    return state, wal.bad_records


class FleetQueue:
    """Thread-safe durable job queue over a single ``queue.wal``.

    One process owns the WAL (the scheduler); workers reach it through
    that process (directly in tests, via REST in production).  ``clock``
    is injectable so lease expiry and backoff are testable without real
    waiting; ``on_event(kind, job)`` fires after each durable transition
    (outside the lock) and is how the manager publishes provenance.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        lease_duration_s: float = 30.0,
        max_attempts: int = 3,
        scheduler: Optional[FairShareScheduler] = None,
        admission: Optional[AdmissionControl] = None,
        retry_backoff: Optional[ExponentialBackoff] = None,
        clock: Callable[[], float] = _time.time,
        fsync: bool = True,
        on_event: Optional[Callable[[str, Job], None]] = None,
    ) -> None:
        if lease_duration_s <= 0:
            raise FleetError(
                f"lease_duration_s must be positive, got {lease_duration_s}")
        if max_attempts < 1:
            raise FleetError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / FLEET_QUEUE_NAME
        self.lease_duration_s = float(lease_duration_s)
        self.max_attempts = int(max_attempts)
        self.scheduler = scheduler or FairShareScheduler()
        self.admission = admission or AdmissionControl()
        self.retry_backoff = retry_backoff or ExponentialBackoff(
            base_s=0.5, factor=2.0, max_s=30.0, jitter=0.1)
        self.clock = clock
        self.on_event = on_event
        self._lock = threading.RLock()
        self._state, self.bad_records = replay_queue(self.path)
        #: structurally valid records replayed at startup (chaos proof)
        self.replayed_records = self._state.records
        self._wal = WriteAheadLog(self.path, fsync=fsync)
        if self.bad_records:
            # rewrite the file clean now, but keep the count: stats must
            # still report that this startup found damage
            bad = self.bad_records
            self._compact_locked()
            self.bad_records = bad

    # -- write path ----------------------------------------------------
    def _append_locked(self, record: Dict[str, Any]) -> Optional[Job]:
        if self._wal.closed:
            raise FleetError(f"fleet queue {self.path} is closed")
        self._wal.append(record)
        job_id = _fold(self._state, record)
        job = self._state.jobs.get(job_id) if job_id else None
        return job.copy() if job is not None else None

    def _maybe_compact_locked(self) -> None:
        live = len(self._state.jobs)
        if self._state.records > max(_COMPACT_MIN, 8 * live):
            self._compact_locked()

    def _fire(self, events: Iterable[Tuple[str, Optional[Job]]]) -> None:
        if self.on_event is None:
            return
        for kind, job in events:
            if job is not None:
                self.on_event(kind, job)

    # -- public API ----------------------------------------------------
    def submit(
        self,
        spec: Mapping[str, Any],
        tenant: str = "default",
        job_id: Optional[str] = None,
        max_attempts: Optional[int] = None,
    ) -> Job:
        """Durably enqueue a job; returns once the record is fsynced.

        Admission control runs first: a full queue (global or per-tenant
        cap) raises :class:`~repro.errors.QueueFullError` *before*
        anything is journaled, so overflow costs no durable state.
        """
        if not isinstance(spec, Mapping):
            raise FleetError(f"job spec must be a mapping, got {type(spec).__name__}")
        tenant = str(tenant or "default")
        with self._lock:
            active_total = 0
            active_tenant = 0
            for job in self._state.jobs.values():
                if job.state in (JobState.PENDING, JobState.LEASED):
                    active_total += 1
                    if job.tenant == tenant:
                        active_tenant += 1
            self.admission.check(tenant, active_tenant, active_total)
            new_id = job_id or f"job-{uuid.uuid4().hex[:12]}"
            if new_id in self._state.jobs:
                raise JobStateError(f"job {new_id!r} already exists")
            job = self._append_locked({
                "k": "submit",
                "job": new_id,
                "tenant": tenant,
                "spec": to_jsonable(dict(spec)),
                "t": self.clock(),
                "max_attempts": int(max_attempts or self.max_attempts),
            })
            self._maybe_compact_locked()
        self._fire([("submit", job)])
        assert job is not None
        return job

    def get(self, job_id: str) -> Job:
        """The current folded state of one job (a copy)."""
        with self._lock:
            job = self._state.jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(f"no such job: {job_id!r}")
            return job.copy()

    def jobs(
        self,
        state: Optional[JobState] = None,
        tenant: Optional[str] = None,
    ) -> List[Job]:
        """All jobs (copies), optionally filtered, in submission order."""
        with self._lock:
            out = [
                job.copy()
                for job in self._state.jobs.values()
                if (state is None or job.state is state)
                and (tenant is None or job.tenant == tenant)
            ]
        out.sort(key=lambda j: (j.submitted_at, j.job_id))
        return out

    def dead_letters(self) -> List[Job]:
        """The dead-letter queue, oldest first."""
        out = self.jobs(state=JobState.DEAD_LETTERED)
        out.sort(key=lambda j: (j.dead_at or 0.0, j.job_id))
        return out

    def lease(self, worker_id: str, now: Optional[float] = None) -> Optional[JobLease]:
        """Grant the fair-share pick of the ready jobs to *worker_id*.

        Reclaims expired leases first (so a crashed worker's job is
        offered to its successor), then asks the deficit-round-robin
        scheduler which tenant's turn it is.  Returns ``None`` when no
        job is ready.  The lease record is fsynced before the lease is
        returned — a scheduler killed mid-lease either never granted it
        (the job is still pending after replay) or granted it durably.
        """
        events: List[Tuple[str, Optional[Job]]] = []
        with self._lock:
            now = self.clock() if now is None else now
            events.extend(self._reclaim_expired_locked(now))
            ready: Dict[str, List[Job]] = {}
            for job in self._state.jobs.values():
                if job.state is JobState.PENDING and job.not_before <= now:
                    ready.setdefault(job.tenant, []).append(job)
            lease: Optional[JobLease] = None
            tenant = self.scheduler.pick(
                {t: len(js) for t, js in ready.items()})
            if tenant is not None:
                job = min(ready[tenant], key=lambda j: j.seq)
                attempt = job.attempts + 1
                expires = now + self.lease_duration_s
                leased = self._append_locked({
                    "k": "lease",
                    "job": job.job_id,
                    "worker": str(worker_id),
                    "attempt": attempt,
                    "t": now,
                    "expires": expires,
                })
                assert leased is not None
                events.append(("lease", leased))
                lease = JobLease(
                    job_id=leased.job_id,
                    tenant=leased.tenant,
                    spec=dict(leased.spec),
                    worker=str(worker_id),
                    attempt=attempt,
                    expires=expires,
                    lease_duration_s=self.lease_duration_s,
                )
            self._maybe_compact_locked()
        self._fire(events)
        return lease

    def _check_holder_locked(self, job_id: str, worker_id: str,
                             attempt: int) -> Job:
        job = self._state.jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no such job: {job_id!r}")
        if (job.state is not JobState.LEASED
                or job.worker != worker_id
                or job.attempts != attempt):
            raise LeaseExpiredError(
                f"job {job_id!r}: lease for worker {worker_id!r} attempt "
                f"{attempt} is no longer current (state={job.state.value}, "
                f"holder={job.worker!r}, attempt={job.attempts})")
        return job

    def renew(self, job_id: str, worker_id: str, attempt: int,
              now: Optional[float] = None) -> float:
        """Extend a held lease; returns the new expiry.

        Raises :class:`~repro.errors.LeaseExpiredError` when the lease
        was reclaimed — the worker must abandon the attempt.
        """
        with self._lock:
            now = self.clock() if now is None else now
            self._check_holder_locked(job_id, worker_id, attempt)
            expires = now + self.lease_duration_s
            self._append_locked({
                "k": "renew",
                "job": job_id,
                "worker": str(worker_id),
                "attempt": attempt,
                "t": now,
                "expires": expires,
            })
        return expires

    def complete(self, job_id: str, worker_id: str, attempt: int,
                 result: Optional[Mapping[str, Any]] = None,
                 now: Optional[float] = None) -> Job:
        """Report success for a held lease (fenced against stale holders)."""
        with self._lock:
            now = self.clock() if now is None else now
            self._check_holder_locked(job_id, worker_id, attempt)
            job = self._append_locked({
                "k": "complete",
                "job": job_id,
                "worker": str(worker_id),
                "attempt": attempt,
                "t": now,
                "result": to_jsonable(dict(result)) if result else None,
            })
            self._maybe_compact_locked()
        self._fire([("complete", job)])
        assert job is not None
        return job

    def fail(self, job_id: str, worker_id: str, attempt: int, error: str,
             now: Optional[float] = None) -> Job:
        """Report a clean failure; requeues with seeded backoff or DLQs.

        The retry delay is deterministic per job (the backoff is seeded
        from the job id), so a retried sweep remains reproducible.  Once
        ``max_attempts`` attempts have been burned the job is
        dead-lettered instead of retried forever.
        """
        events: List[Tuple[str, Optional[Job]]] = []
        with self._lock:
            now = self.clock() if now is None else now
            job = self._check_holder_locked(job_id, worker_id, attempt)
            retry_at = now + self._retry_delay(job_id, attempt)
            folded = self._append_locked({
                "k": "fail",
                "job": job_id,
                "worker": str(worker_id),
                "attempt": attempt,
                "t": now,
                "error": str(error),
                "retry_at": retry_at,
            })
            events.append(("fail", folded))
            if attempt >= job.max_attempts:
                events.append(self._dead_letter_locked(
                    job_id, now,
                    f"failed {attempt}/{job.max_attempts} attempts: {error}"))
            self._maybe_compact_locked()
        self._fire(events)
        return self.get(job_id)

    def reclaim_expired(self, now: Optional[float] = None) -> List[str]:
        """Reclaim every expired lease; returns the touched job ids.

        Each reclaim journals an ``expire`` record (the attempt counts as
        a crash — the worker vanished without reporting) and either
        requeues the job with backoff or dead-letters it once
        ``max_attempts`` leases have died.
        """
        with self._lock:
            now = self.clock() if now is None else now
            events = self._reclaim_expired_locked(now)
            self._maybe_compact_locked()
        self._fire(events)
        return [job.job_id for _, job in events if job is not None]

    def _reclaim_expired_locked(
            self, now: float) -> List[Tuple[str, Optional[Job]]]:
        events: List[Tuple[str, Optional[Job]]] = []
        expired = [
            job for job in self._state.jobs.values()
            if job.state is JobState.LEASED and job.lease_expires < now
        ]
        for job in expired:
            attempt = job.attempts
            retry_at = now + self._retry_delay(job.job_id, attempt)
            folded = self._append_locked({
                "k": "expire",
                "job": job.job_id,
                "worker": job.worker,
                "attempt": attempt,
                "t": now,
                "error": f"lease expired (worker {job.worker!r} presumed dead)",
                "retry_at": retry_at,
            })
            events.append(("expire", folded))
            if attempt >= job.max_attempts:
                events.append(self._dead_letter_locked(
                    job.job_id, now,
                    f"{attempt}/{job.max_attempts} leases expired "
                    f"(job crashes its workers)"))
        return events

    def _dead_letter_locked(self, job_id: str, now: float,
                            reason: str) -> Tuple[str, Optional[Job]]:
        job = self._append_locked({
            "k": "dead_letter",
            "job": job_id,
            "t": now,
            "reason": reason,
        })
        return ("dead_letter", job)

    def _retry_delay(self, job_id: str, attempt: int) -> float:
        backoff = replace(self.retry_backoff, seed=seed_from_name(job_id))
        return backoff.delay_for(max(1, attempt))

    def requeue(self, job_id: str) -> Job:
        """Return a dead-lettered job to the pending queue (counters reset)."""
        with self._lock:
            job = self._state.jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(f"no such job: {job_id!r}")
            if job.state is not JobState.DEAD_LETTERED:
                raise JobStateError(
                    f"job {job_id!r} is {job.state.value}, not dead-lettered; "
                    "only DLQ entries can be requeued")
            folded = self._append_locked({
                "k": "requeue",
                "job": job_id,
                "t": self.clock(),
            })
        self._fire([("requeue", folded)])
        assert folded is not None
        return folded

    def purge(self, job_id: str) -> Job:
        """Drop a settled (done or dead-lettered) job from the queue."""
        with self._lock:
            job = self._state.jobs.get(job_id)
            if job is None:
                raise JobNotFoundError(f"no such job: {job_id!r}")
            if job.state not in (JobState.DONE, JobState.DEAD_LETTERED):
                raise JobStateError(
                    f"job {job_id!r} is {job.state.value}; only done or "
                    "dead-lettered jobs can be purged")
            gone = job.copy()
            self._append_locked({
                "k": "purge",
                "job": job_id,
                "t": self.clock(),
            })
            self._maybe_compact_locked()
        self._fire([("purge", gone)])
        return gone

    def stats(self) -> Dict[str, Any]:
        """Counts by state and tenant plus journal health counters."""
        with self._lock:
            by_state = {state.value: 0 for state in JobState}
            by_tenant: Dict[str, int] = {}
            for job in self._state.jobs.values():
                by_state[job.state.value] += 1
                if job.state in (JobState.PENDING, JobState.LEASED):
                    by_tenant[job.tenant] = by_tenant.get(job.tenant, 0) + 1
            return {
                "jobs": len(self._state.jobs),
                "by_state": by_state,
                "active_by_tenant": by_tenant,
                "journal_records": self._state.records,
                "replayed_records": self.replayed_records,
                "bad_records": self.bad_records,
                "lease_duration_s": self.lease_duration_s,
                "max_attempts": self.max_attempts,
            }

    # -- maintenance ---------------------------------------------------
    def compact(self) -> None:
        """Atomically rewrite the WAL as one snapshot record per job."""
        with self._lock:
            self._compact_locked()

    def _compact_locked(self) -> None:
        self._wal.rewrite(
            {"k": "snapshot", "job": job.job_id,
             **to_jsonable(job.snapshot_payload())}
            for job in self._state.jobs.values()
        )
        self._state.records = len(self._state.jobs)
        self.bad_records = 0

    def close(self) -> None:
        """Flush and close; further appends raise. Idempotent."""
        with self._lock:
            self._wal.close()

    def __enter__(self) -> "FleetQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._wal.closed else "open"
        return (f"FleetQueue({str(self.path)!r}, {state}, "
                f"jobs={len(self._state.jobs)})")
