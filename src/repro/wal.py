"""Write-ahead log: the one append-only, checksummed record file.

The run journal, the workflow journal, the router's repair journal, the
fleet job queue and the segment store's WALs all share this format, one
record per line::

    <length:08x> <crc32:08x> <payload-json>\n

``length`` is the byte length of the UTF-8 payload and ``crc32`` its
checksum (both lowercase hex); every payload is a JSON object carrying its
kind under ``"k"``.  :func:`scan` skips a damaged line and continues, so a
torn tail or a flipped bit costs exactly the damaged record.  Opening a
log whose last line is torn first ends that line, so the next append
starts clean instead of being glued onto the damage and lost with it.
Consumers keep only their record kinds, their fold, and when to
:meth:`WriteAheadLog.rewrite` the file as a snapshot.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.atomicio import atomic_write_bytes
from repro.errors import JournalError

__all__ = ["WalScan", "WriteAheadLog", "decode_record", "encode_record", "scan"]

PathLike = Union[str, Path]

#: The fixed-width ``<length> <crc32> `` prefix of every record.
_PREFIX = re.compile(rb"([0-9a-f]{8}) ([0-9a-f]{8}) ")


def encode_record(payload: Mapping[str, Any]) -> bytes:
    """Serialize one record into its wire form."""
    try:
        body = json.dumps(payload, separators=(",", ":"), allow_nan=True)
    except (TypeError, ValueError) as exc:
        raise JournalError(f"journal payload is not JSON-serializable: {exc}") from exc
    raw = body.encode("utf-8")
    return b"%08x %08x " % (len(raw), zlib.crc32(raw)) + raw + b"\n"


def decode_record(line: bytes) -> Dict[str, Any]:
    """Parse and verify one wire-format line; raises :class:`JournalError`.

    The terminating newline is optional, so a record torn exactly at its
    newline still verifies.
    """
    line = line.rstrip(b"\n")
    prefix = _PREFIX.match(line)
    if prefix is None:
        raise JournalError("malformed journal line (missing length/crc prefix)")
    raw = line[prefix.end():]
    length = int(prefix.group(1), 16)
    if len(raw) != length:
        raise JournalError(
            f"journal record truncated: expected {length} bytes, got {len(raw)}"
        )
    if zlib.crc32(raw) != int(prefix.group(2), 16):
        raise JournalError("journal record failed its crc32 checksum")
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise JournalError(f"journal record payload is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or "k" not in payload:
        raise JournalError("journal record payload missing its kind ('k')")
    return payload


@dataclass
class WalScan:
    """Every intact record of a log file, in append order.

    ``spans[i]`` is the ``(offset, length)`` of ``records[i]`` in the
    file; ``bad_records`` counts the damaged lines that were skipped and
    ``issues`` describes them.
    """

    path: Path
    records: List[Dict[str, Any]] = field(default_factory=list)
    spans: List[Tuple[int, int]] = field(default_factory=list)
    bad_records: int = 0
    issues: List[str] = field(default_factory=list)

    @property
    def is_clean(self) -> bool:
        """True when every line verified."""
        return self.bad_records == 0


def scan(path: PathLike) -> WalScan:
    """Read every intact record of *path*, skipping damaged lines.

    A missing file scans as empty.  A line whose length prefix ends before
    the line does had its newline damaged: the record after it starts
    right past the claimed length, so one flipped bit never costs two
    records.
    """
    result = WalScan(path=Path(path))
    try:
        data = result.path.read_bytes()
    except FileNotFoundError:
        return result
    pos, size = 0, len(data)
    while pos < size:
        end = data.find(b"\n", pos) + 1 or size
        prefix = _PREFIX.match(data, pos, end)
        if prefix is not None:
            claimed_end = prefix.end() + int(prefix.group(1), 16)
            if claimed_end < end - 1:
                end = claimed_end + 1
        line = data[pos:end]
        if line.strip():
            try:
                result.records.append(decode_record(line))
                result.spans.append((pos, end - pos))
            except JournalError as exc:
                result.bad_records += 1
                result.issues.append(f"offset {pos}: {exc}")
        pos = end
    return result


class WriteAheadLog:
    """An open, append-only log file.

    :meth:`append` buffers one record and, with ``sync=True`` (the
    default), makes it durable before returning; ``sync=False`` leaves it
    for a later :meth:`sync` so batch writers pay one fsync per batch.
    ``fsync=False`` keeps the flush but leaves durability to OS writeback
    (tests, throwaway state).  Not thread-safe: consumers hold their own
    lock around appends.
    """

    def __init__(self, path: PathLike, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._fh: Optional[Any] = None
        self.size = 0
        #: records appended since the last :meth:`sync`
        self.pending = 0
        self._open()

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("ab")  # lint: disable=SL201 -- the append-only WAL is itself the crash-safety primitive; atomic rewrite would defeat it
        self.size = self._fh.tell()
        if self.size:
            with self.path.open("rb") as fh:
                fh.seek(-1, os.SEEK_END)
                torn = fh.read(1) != b"\n"
            if torn:  # end the torn line so the next record starts clean
                self._fh.write(b"\n")
                self.size += 1

    def append(self, record: Mapping[str, Any], sync: bool = True) -> Tuple[int, int]:
        """Append one record; returns its ``(offset, length)`` in the file."""
        if self._fh is None:
            raise JournalError(f"write-ahead log {self.path} is closed")
        line = encode_record(record)
        offset = self.size
        self._fh.write(line)
        self.size += len(line)
        self.pending += 1
        if sync:
            self.sync()
        return offset, len(line)

    def sync(self) -> None:
        """Flush pending records to disk (fsync unless disabled)."""
        if self._fh is None or not self.pending:
            return
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self.pending = 0

    def close(self) -> None:
        """Sync and close; further appends raise.  Idempotent."""
        if self._fh is None:
            return
        self.sync()
        self._fh.close()
        self._fh = None

    def rewrite(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Atomically replace the file with *records*, then reopen for append."""
        body = b"".join(encode_record(record) for record in records)
        self.close()
        atomic_write_bytes(self.path, body, fsync=self.fsync)
        self._open()

    @property
    def closed(self) -> bool:
        """Whether the log no longer accepts appends."""
        return self._fh is None
