"""Write-ahead journal: every tracking call is durable before ``end_run``.

The tracker originally materialized provenance only at ``end_run`` — a run
killed mid-epoch (the 2-hour-walltime kills of the paper's Figure 3, a node
failure, an OOM) lost *all* of its lineage.  The journal closes that hole:
each logging call (params, metrics, artifacts, epoch boundaries, lifecycle
events) is appended to ``journal.wal`` in the run directory as a
length-prefixed, checksummed JSON record (the :mod:`repro.wal` format)
and flushed at a configurable cadence.  After a crash,
:mod:`repro.core.recover` replays the journal into a valid (partial) PROV
document; torn or corrupt records are skipped and reported.  A clean
``end_run`` compacts the journal away: the final PROV-JSON document *is*
the compacted form.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Union

from repro.errors import JournalError
from repro.wal import WalScan, WriteAheadLog, scan

PathLike = Union[str, Path]

#: File name of the write-ahead journal inside a run directory.
JOURNAL_NAME = "journal.wal"


def journal_path_for(run_dir: PathLike) -> Path:
    """The journal location for a run save directory."""
    return Path(run_dir) / JOURNAL_NAME


def to_jsonable(value: Any) -> Any:
    """Coerce a logged value into something JSON-serializable.

    NumPy scalars/arrays become Python scalars/lists; mappings and
    sequences are converted recursively; anything else falls back to
    ``str`` so a weird user value can never poison the journal.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        try:
            return value.item()  # numpy scalar
        except (TypeError, ValueError):
            pass
    if hasattr(value, "tolist"):
        return value.tolist()  # numpy array
    if isinstance(value, Mapping):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in value]
    return str(value)


class RunJournal:
    """Append-only, checksummed event log for one run.

    ``flush_every`` controls the durability cadence: after that many
    appended records the OS buffer is flushed and fsynced (1 — the default —
    makes every single event durable; larger values trade a bounded tail
    loss for fewer syscalls on hot logging paths).  ``fsync=False`` keeps
    the flush but skips the fsync (tests, throwaway runs).
    """

    def __init__(
        self,
        path: PathLike,
        flush_every: int = 1,
        fsync: bool = True,
    ) -> None:
        if flush_every < 1:
            raise JournalError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path)
        self.flush_every = int(flush_every)
        self._wal = WriteAheadLog(self.path, fsync=fsync)
        self._appended = 0

    # ------------------------------------------------------------------
    def append(self, kind: str, payload: Optional[Mapping[str, Any]] = None) -> None:
        """Append one event record (``kind`` plus payload fields)."""
        record: Dict[str, Any] = {"k": kind}
        if payload:
            record.update(payload)
        self._wal.append(record, sync=False)
        self._appended += 1
        if self._wal.pending >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Push buffered records to disk (fsync unless disabled)."""
        self._wal.sync()

    def close(self) -> None:
        """Flush and close; further appends raise."""
        self._wal.close()

    def compact(self) -> None:
        """Remove the journal file (the final PROV document supersedes it)."""
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    @property
    def closed(self) -> bool:
        """Whether the journal no longer accepts appends."""
        return self._wal.closed

    @property
    def record_count(self) -> int:
        """Number of records appended through this handle."""
        return self._appended

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"RunJournal({str(self.path)!r}, {state}, records={self._appended})"


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------

def read_journal(path: PathLike) -> WalScan:
    """Scan a journal file, validating every record.

    Corrupt or truncated lines are skipped and reported in the result —
    the caller always gets every record that made it to disk intact.
    """
    path = Path(path)
    if path.is_dir():
        path = journal_path_for(path)
    if not path.is_file():
        raise JournalError(f"journal not found: {path}")
    return scan(path)


def iter_journal(path: PathLike) -> Iterator[Dict[str, Any]]:
    """Iterate the intact records of a journal (convenience wrapper)."""
    return iter(read_journal(path).records)
