"""Durable repair journal: the router's repair queue survives SIGKILL.

The repair queue is the cluster's promise ledger — every quorum-acked
write that could not reach a preferred shard leaves an entry saying
"this copy still needs to be placed".  Keeping that ledger only in
memory (as PR 6 did) makes replica convergence a property of one
process's uptime: a router crash strands acked documents below full
replication with nothing left to notice but an eventual offline lint.

:class:`RepairLog` fixes that by journaling every queue transition to a
``repairs.wal`` under the cluster state directory, a crc-checked
write-ahead log (:mod:`repro.wal`) like every other journal.  The
router appends the *enqueue* record synchronously — before the write is
acked to the client — so a hinted-handoff obligation is durable by the
time the caller believes the document is stored.  On construction the
router replays the log and starts with the pending set a crashed
predecessor left behind.

Record kinds (all payloads carry ``doc`` and/or ``shard``):

``enqueue``
    ``(doc, shard)`` needs a copy placed on ``shard``.
``done``
    The copy landed (or the repair became moot); the pair is settled.
``drop-doc``
    The document was deleted: every pending entry for it is void.
``drop-shard``
    The shard left the cluster: every pending entry targeting it is void.

Replay folds the records in order into the surviving pending list
(order-preserving, first-enqueue order).  The log self-compacts: once
the settled records outnumber the pending ones by a wide margin the
whole file is atomically rewritten to just the pending entries, so a
long-lived router's journal stays proportional to its backlog, not its
history.  Corrupt or torn tail records are skipped by the log's reader
— a crash mid-append never poisons the intact prefix.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ClusterError
from repro.wal import WriteAheadLog, scan

__all__ = ["RepairLog", "replay_pending", "REPAIR_LOG_NAME"]

#: File name of the repair journal inside a cluster state directory.
REPAIR_LOG_NAME = "repairs.wal"

#: Compact when settled records exceed ``max(_COMPACT_MIN, 4 * pending)``.
_COMPACT_MIN = 256


def replay_pending(path: Union[str, Path]) -> Tuple[List[Tuple[str, str]], int]:
    """Fold a repair journal into ``(pending pairs, bad record count)``.

    Pending pairs come back in first-enqueue order.  Unreadable lines are
    counted and skipped (torn tail after SIGKILL, bit rot) — replay always
    recovers every intact record.
    """
    wal = scan(path)
    pending: Dict[Tuple[str, str], None] = {}
    bad = wal.bad_records
    for record in wal.records:
        kind = record.get("k")
        doc = record.get("doc")
        shard = record.get("shard")
        if kind == "enqueue" and doc and shard:
            pending.setdefault((str(doc), str(shard)), None)
        elif kind == "done" and doc and shard:
            pending.pop((str(doc), str(shard)), None)
        elif kind == "drop-doc" and doc:
            for pair in [p for p in pending if p[0] == doc]:
                del pending[pair]
        elif kind == "drop-shard" and shard:
            for pair in [p for p in pending if p[1] == shard]:
                del pending[pair]
        else:
            bad += 1  # structurally valid line, unknown/incomplete kind
    return list(pending), bad


class RepairLog:
    """Append-only, checksummed ledger of pending replica repairs.

    Thread-safe: the router appends from request threads, the heartbeat
    thread and the anti-entropy sweeper concurrently.  ``fsync`` (default
    on) makes each transition durable before the append returns —
    ``fsync=False`` keeps the ordering guarantees but leaves durability
    to OS writeback (tests, throwaway clusters).
    """

    def __init__(self, path: Union[str, Path], fsync: bool = True) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._pending, self.bad_records = replay_pending(self.path)
        self._settled_since_compact = 0
        self._wal = WriteAheadLog(self.path, fsync=fsync)
        if self.bad_records:
            # a torn tail would otherwise corrupt-check every future
            # replay; rewriting now leaves a clean, minimal journal
            self._compact_locked()

    # ------------------------------------------------------------------
    def pending(self) -> List[Tuple[str, str]]:
        """The surviving ``(doc, shard)`` pairs, in first-enqueue order."""
        with self._lock:
            return list(self._pending)

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    # ------------------------------------------------------------------
    def record_enqueue(self, doc_id: str, shard_id: str) -> None:
        """Durably note that *shard_id* owes a copy of *doc_id*."""
        self._append("enqueue", doc=doc_id, shard=shard_id)

    def record_done(self, doc_id: str, shard_id: str) -> None:
        """Settle one pending pair (repair landed or became moot)."""
        self._append("done", doc=doc_id, shard=shard_id)

    def record_drop_doc(self, doc_id: str) -> None:
        """Void every pending entry for a deleted document."""
        self._append("drop-doc", doc=doc_id)

    def record_drop_shard(self, shard_id: str) -> None:
        """Void every pending entry targeting a departed shard."""
        self._append("drop-shard", shard=shard_id)

    def _append(self, kind: str, doc: Optional[str] = None,
                shard: Optional[str] = None) -> None:
        record: Dict[str, str] = {"k": kind}
        if doc is not None:
            record["doc"] = doc
        if shard is not None:
            record["shard"] = shard
        with self._lock:
            if self._wal.closed:
                raise ClusterError(f"repair log {self.path} is closed")
            self._wal.append(record)
            self._fold_locked(kind, doc, shard)
            if self._settled_since_compact >= max(
                _COMPACT_MIN, 4 * len(self._pending)
            ):
                self._compact_locked()

    def _fold_locked(self, kind: str, doc: Optional[str],
                     shard: Optional[str]) -> None:
        if kind == "enqueue":
            if (doc, shard) not in self._pending:
                self._pending.append((doc, shard))
            return
        if kind == "done":
            if (doc, shard) in self._pending:
                self._pending.remove((doc, shard))
                self._settled_since_compact += 1
            return
        if kind == "drop-doc":
            survivors = [p for p in self._pending if p[0] != doc]
        else:  # drop-shard
            survivors = [p for p in self._pending if p[1] != shard]
        self._settled_since_compact += len(self._pending) - len(survivors)
        self._pending = survivors

    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Rewrite the journal to just the pending entries (atomic)."""
        with self._lock:
            self._compact_locked()

    def _compact_locked(self) -> None:
        self._wal.rewrite(
            {"k": "enqueue", "doc": doc, "shard": shard}
            for doc, shard in self._pending
        )
        self._settled_since_compact = 0
        self.bad_records = 0

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close; further appends raise. Idempotent."""
        with self._lock:
            self._wal.close()

    def __enter__(self) -> "RepairLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._wal.closed else "open"
        return (
            f"RepairLog({str(self.path)!r}, {state}, "
            f"pending={len(self._pending)})"
        )
