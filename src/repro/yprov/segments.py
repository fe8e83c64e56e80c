"""LSM-style segment store: WAL ingest, immutable compacted segments.

The files backend of :class:`~repro.yprov.service.ProvenanceService`
writes one atomic ``.provjson`` + sidecar pair per document — two fsyncs
per PUT.  That is the right durability story for a handful of documents
and exactly the wrong one for the paper's scale regime, where thousands
of ranks publish provenance per epoch.  This module provides the
high-throughput alternative (``storage="segments"``):

* **Writes** append to a write-ahead log (:mod:`repro.wal`, the
  length-prefixed, crc-per-record format every journal uses) — one
  sequential write per document, one fsync per *batch*.
* **The memtable** keeps the text of every document whose latest version
  lives in the active WAL, so hot reads never touch disk.
* **Sealed WALs** (rotated once the active log passes ``seal_bytes``)
  are served through an in-memory ``doc id → (file, offset, length)``
  index built when the record was appended — a read seeks straight to
  the record and re-verifies its crc.
* **Segments** are what compaction produces: one immutable, sorted file
  holding every live document, terminated by an index footer (doc
  offsets + content hashes + value indexes) and a fixed-size trailer
  that locates the footer.  Opening a segment reads the trailer and the
  footer — never the records — so a restart over cold data is O(index),
  not O(data).  Reads are served by offset via ``mmap`` (falling back
  to regular reads where mapping fails).

Lookup order is always memtable → sealed-WAL index → newest segment.

**Compaction** (:meth:`SegmentStore.compact`) is a full merge: seal the
active WAL, stream every live document into a new segment (tombstones
die here — a deleted document simply is not carried forward), publish it
with temp-file + fsync + atomic rename, and only then delete the source
WALs and superseded segments.  A crash at any point leaves either the
old sources (segment never published) or a published segment whose
``covers`` sequence number makes the leftover sources recognizably
redundant — :class:`SegmentStore` finishes the cleanup at the next open.
Nothing acked is ever lost and no torn state is ambiguous.

Crash-injection hooks for the chaos suite: setting
``REPRO_SEG_KILL_AT`` to one of ``compact-mid-write``,
``compact-pre-rename``, ``compact-post-rename`` SIGKILLs the process at
that stage of a compaction; ``REPRO_SEG_KILL_AFTER_PUTS=<n>`` SIGKILLs
after the *n*-th WAL append (mid-batch server death).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import re
import signal
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.atomicio import fsync_dir
from repro.errors import JournalError, SegmentError
from repro.wal import WriteAheadLog, decode_record, encode_record, scan

__all__ = [
    "Segment",
    "SegmentStore",
    "StoreScan",
    "extract_value_index",
    "scan_store",
    "store_inventory",
]

#: Subdirectory of a service root that holds the segment store.
STORE_DIR = "store"

WAL_SUFFIX = ".wal"
SEG_SUFFIX = ".seg"

#: Fixed-size segment trailer: ``@<footer offset:016x> yprov-seg-v1\n``.
#: The footer record it points at is self-validating (wire-format crc),
#: so the trailer only needs to locate it.
_TRAILER_MAGIC = b"yprov-seg-v1"
_TRAILER_RE = re.compile(rb"^@([0-9a-f]{16}) yprov-seg-v1\n$")
TRAILER_LEN = 1 + 16 + 1 + len(_TRAILER_MAGIC) + 1

#: Footer schema version.
SEGMENT_VERSION = 1

#: Properties the segment footer's value indexes cover.  They are
#: recomputable from the raw PROV-JSON text alone (see
#: :func:`extract_value_index`), which is what lets ``yprov lint``
#: re-derive and cross-check them offline (PL115).
INDEXED_PROPS = ("label", "prov_type")

_PROP_ATTRS = (("prov:label", "label"), ("prov:type", "prov_type"))


def _maybe_kill(stage: str) -> None:
    """Chaos hook: die by SIGKILL when armed for *stage* (tests only)."""
    if os.environ.get("REPRO_SEG_KILL_AT") == stage:
        os.kill(os.getpid(), signal.SIGKILL)


def _attr_values(value: Any) -> List[str]:
    """String values of one PROV-JSON attribute (scalar, typed, or list)."""
    if value is None:
        return []
    if isinstance(value, list):
        out: List[str] = []
        for item in value:
            out.extend(_attr_values(item))
        return out
    if isinstance(value, dict):
        inner = value.get("$")
        return [str(inner)] if inner is not None else []
    return [str(value)]


def extract_value_index(text: str) -> Dict[str, Set[str]]:
    """Indexable values of one document, straight from its PROV-JSON text.

    Returns ``{"label": {...}, "prov_type": {...}}`` — the ``prov:label``
    and ``prov:type`` values of every element.  Deliberately a shallow,
    deterministic function of the bytes (no PROV model round trip), so a
    segment's footer index can be re-derived and verified offline.
    """
    out: Dict[str, Set[str]] = {prop: set() for prop in INDEXED_PROPS}
    try:
        payload = json.loads(text)
    except ValueError:
        return out
    if not isinstance(payload, dict):
        return out
    for section in ("entity", "activity", "agent"):
        table = payload.get(section)
        if not isinstance(table, dict):
            continue
        for attrs in table.values():
            if not isinstance(attrs, dict):
                continue
            for attr, prop in _PROP_ATTRS:
                for value in _attr_values(attrs.get(attr)):
                    out[prop].add(value)
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# segments
# ---------------------------------------------------------------------------

class Segment:
    """One immutable, index-carrying segment file (read-only).

    Opening validates the trailer and the footer record (length + crc)
    but touches none of the document records; per-document reads seek by
    the footer's offset index and re-verify the record's own crc.
    """

    def __init__(self, path: Path, data: Union[mmap.mmap, bytes],
                 footer: Dict[str, Any]) -> None:
        self.path = path
        self._data = data
        self.covers = int(footer["covers"])
        self.count = int(footer["count"])
        #: ``{doc id: [offset, length, sha256-of-text]}``
        self.docs: Dict[str, List[Any]] = footer["docs"]
        #: ``{prop: {value: [doc ids]}}`` for :data:`INDEXED_PROPS`.
        self.values: Dict[str, Dict[str, List[str]]] = footer.get("values", {})

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def open(cls, path: Union[str, Path]) -> "Segment":
        """Open *path* without replaying records (trailer → footer only)."""
        path = Path(path)
        try:
            size = path.stat().st_size
        except OSError as exc:
            raise SegmentError(f"cannot stat segment {path}: {exc}") from exc
        if size < TRAILER_LEN + 1:
            raise SegmentError(f"segment {path.name} too small ({size} bytes)")
        data: Union[mmap.mmap, bytes]
        with path.open("rb") as fh:
            try:
                # a private read-only mapping stays valid after fh closes
                data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                data = fh.read()
        match = _TRAILER_RE.match(bytes(data[size - TRAILER_LEN:size]))
        if match is None:
            raise SegmentError(f"segment {path.name} has a corrupt trailer")
        footer_offset = int(match.group(1), 16)
        if not 0 <= footer_offset < size - TRAILER_LEN:
            raise SegmentError(
                f"segment {path.name} trailer points outside the file"
            )
        footer_line = bytes(data[footer_offset:size - TRAILER_LEN])
        try:
            footer = decode_record(footer_line)
        except JournalError as exc:
            raise SegmentError(
                f"segment {path.name} footer failed verification: {exc}"
            ) from exc
        if footer.get("k") != "footer":
            raise SegmentError(f"segment {path.name} footer has wrong kind")
        if footer.get("version") != SEGMENT_VERSION:
            raise SegmentError(
                f"segment {path.name} has unsupported version "
                f"{footer.get('version')!r}"
            )
        if not isinstance(footer.get("docs"), dict):
            raise SegmentError(f"segment {path.name} footer lacks a doc index")
        return cls(path, data, footer)

    def close(self) -> None:
        if isinstance(self._data, mmap.mmap):
            self._data.close()
        self._data = b""

    # -- reads ---------------------------------------------------------
    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.docs

    def __len__(self) -> int:
        return len(self.docs)

    def doc_ids(self) -> List[str]:
        return sorted(self.docs)

    def read(self, doc_id: str) -> Optional[str]:
        """The text of *doc_id*, crc-verified, or ``None`` when absent."""
        entry = self.docs.get(doc_id)
        if entry is None:
            return None
        offset, length = int(entry[0]), int(entry[1])
        line = bytes(self._data[offset:offset + length])
        try:
            payload = decode_record(line)
        except JournalError as exc:
            raise SegmentError(
                f"segment {self.path.name} record for {doc_id!r} failed "
                f"verification: {exc}"
            ) from exc
        if payload.get("k") != "doc" or payload.get("id") != doc_id:
            raise SegmentError(
                f"segment {self.path.name} offset index points at the "
                f"wrong record for {doc_id!r}"
            )
        return payload["text"]

    def matching(self, prop: str, value: str) -> List[str]:
        """Doc ids whose *prop* value index contains *value*."""
        if prop not in INDEXED_PROPS:
            raise SegmentError(
                f"no value index for {prop!r}; indexed: {INDEXED_PROPS}"
            )
        return list(self.values.get(prop, {}).get(value, []))

    def inventory(self) -> Dict[str, str]:
        """``{doc id: sha256 of text}`` straight from the footer."""
        return {doc_id: str(entry[2]) for doc_id, entry in self.docs.items()}

    # -- verification --------------------------------------------------
    def verify(self) -> List[str]:
        """Cross-check the footer index against the records; returns issues.

        Reads every record at its indexed offset and verifies crc, doc
        id, and content hash; recomputes the value indexes from the
        texts and compares.  An empty list is the offline proof that the
        index and the data agree (what lint rule PL115 runs).
        """
        issues: List[str] = []
        if len(self.docs) != self.count:
            issues.append(
                f"footer count {self.count} != indexed docs {len(self.docs)}"
            )
        recomputed: Dict[str, Dict[str, List[str]]] = {
            prop: {} for prop in INDEXED_PROPS
        }
        for doc_id in sorted(self.docs):
            entry = self.docs[doc_id]
            try:
                text = self.read(doc_id)
            except SegmentError as exc:
                issues.append(str(exc))
                continue
            if text is None:  # pragma: no cover - read() of indexed id
                continue
            if _sha256(text) != str(entry[2]):
                issues.append(
                    f"record for {doc_id!r} does not match its footer hash"
                )
            for prop, values in extract_value_index(text).items():
                for value in sorted(values):
                    recomputed[prop].setdefault(value, []).append(doc_id)
        if not issues:
            for prop in INDEXED_PROPS:
                if recomputed[prop] != self.values.get(prop, {}):
                    issues.append(
                        f"footer value index for {prop!r} disagrees with "
                        "the records"
                    )
        return issues


# ---------------------------------------------------------------------------
# store scanning (shared by SegmentStore.open and offline lint)
# ---------------------------------------------------------------------------

@dataclass
class _WalRecord:
    seq: int
    kind: str  # "put" | "del"
    doc_id: str
    path: Path
    offset: int
    length: int
    text: Optional[str]


@dataclass
class StoreScan:
    """Read-only view of a store directory (no mutation, lint-safe)."""

    root: Path
    segment: Optional[Segment] = None
    #: valid but superseded segment files (older ``covers``).
    superseded_segments: List[Path] = field(default_factory=list)
    corrupt_segments: List[Path] = field(default_factory=list)
    #: WAL records newer than the segment, in seq order.
    records: List[_WalRecord] = field(default_factory=list)
    #: WALs fully covered by the segment (compaction cleanup leftovers).
    superseded_wals: List[Path] = field(default_factory=list)
    #: WALs carrying at least one record the segment does not cover.
    live_wals: List[Path] = field(default_factory=list)
    issues: List[str] = field(default_factory=list)
    max_seq: int = 0

    def live(self) -> Dict[str, _WalRecord]:
        """Latest live WAL-resident version per doc (deletes applied).

        A doc present here shadows any segment copy; a doc deleted by a
        WAL tombstone is recorded with ``kind="del"`` so callers know to
        suppress the segment copy too.
        """
        state: Dict[str, _WalRecord] = {}
        for record in self.records:
            state[record.doc_id] = record
        return state

    def inventory(self) -> Dict[str, str]:
        """``{doc id: sha256 of text}`` over the whole store."""
        out: Dict[str, str] = {}
        if self.segment is not None:
            out.update(self.segment.inventory())
        for doc_id, record in self.live().items():
            if record.kind == "del":
                out.pop(doc_id, None)
            elif record.text is not None:
                out[doc_id] = _sha256(record.text)
        return out


def _scan_wal(path: Path) -> Tuple[List[_WalRecord], List[str]]:
    try:
        wal = scan(path)
    except OSError as exc:
        return [], [f"{path.name}: unreadable: {exc}"]
    records: List[_WalRecord] = []
    issues = [f"{path.name} {issue}" for issue in wal.issues]
    for payload, (offset, length) in zip(wal.records, wal.spans):
        kind = payload.get("k")
        seq = payload.get("seq")
        doc_id = payload.get("id")
        if (kind in ("put", "del") and isinstance(seq, int)
                and isinstance(doc_id, str)):
            records.append(_WalRecord(
                seq=seq, kind=kind, doc_id=doc_id, path=path,
                offset=offset, length=length, text=payload.get("text"),
            ))
        else:
            issues.append(
                f"{path.name} offset {offset}: unknown record kind {kind!r}"
            )
    return records, issues


def scan_store(root: Union[str, Path]) -> StoreScan:
    """Scan a store directory without mutating it.

    Resolves the half-compacted states a crash can leave behind: of all
    validly published segments only the one with the highest ``covers``
    is authoritative; WAL records at or below that sequence are
    superseded (they were merged — or deleted — before the segment was
    published); everything newer replays over it.
    """
    root = Path(root)
    scan = StoreScan(root=root)
    best: Optional[Segment] = None
    for path in sorted(root.glob(f"*{SEG_SUFFIX}")):
        try:
            segment = Segment.open(path)
        except SegmentError as exc:
            scan.corrupt_segments.append(path)
            scan.issues.append(str(exc))
            continue
        if best is None or segment.covers > best.covers:
            if best is not None:
                scan.superseded_segments.append(best.path)
                best.close()
            best = segment
        else:
            scan.superseded_segments.append(path)
            segment.close()
    scan.segment = best
    covers = best.covers if best is not None else 0
    scan.max_seq = covers
    pending: List[_WalRecord] = []
    for path in sorted(root.glob(f"*{WAL_SUFFIX}")):
        records, issues = _scan_wal(path)
        scan.issues.extend(issues)
        kept = [r for r in records if r.seq > covers]
        if records and not kept and not issues:
            scan.superseded_wals.append(path)
            continue
        scan.live_wals.append(path)
        pending.extend(kept)
        if records:
            scan.max_seq = max(scan.max_seq, max(r.seq for r in records))
    pending.sort(key=lambda r: r.seq)
    scan.records = pending
    return scan


def store_inventory(root: Union[str, Path]) -> Dict[str, str]:
    """``{doc id: sha256 of text}`` for a store directory (read-only).

    What the cluster lint rules use to audit replication over compacted
    shards: the hashes are over the document *text* bytes, identical to
    hashing a files-backend ``.provjson``, so copies are comparable
    across storage backends.
    """
    scan = scan_store(root)
    inventory = scan.inventory()
    if scan.segment is not None:
        scan.segment.close()
    return inventory


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Loc:
    """Where the latest live version of a document is served from."""

    seq: int
    source: str  # "mem" | "wal" | "seg"
    path: Optional[Path] = None
    offset: int = 0
    length: int = 0


class SegmentStore:
    """Durable doc-id → text store: active WAL + sealed WALs + segments.

    Not a general KV store: it persists exactly what the provenance
    service needs — verbatim document texts keyed by id, with crash
    safety inherited from the journal wire format and read paths that
    never replay cold data.
    """

    def __init__(
        self,
        root: Union[str, Path],
        seal_bytes: int = 4 * 1024 * 1024,
        fsync: bool = True,
    ) -> None:
        if seal_bytes < 1:
            raise SegmentError(f"seal_bytes must be >= 1, got {seal_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.seal_bytes = int(seal_bytes)
        self.fsync = bool(fsync)
        self._lock = threading.RLock()
        self._memtable: Dict[str, str] = {}
        self._live: Dict[str, _Loc] = {}
        self._segment: Optional[Segment] = None
        self._active: Optional[WriteAheadLog] = None
        self._seq = 0
        self._wal_counter = 0
        self._puts = 0
        kill_after = os.environ.get("REPRO_SEG_KILL_AFTER_PUTS")
        self._kill_after_puts = int(kill_after) if kill_after else None
        self.issues: List[str] = []
        self._open()

    # -- open / recovery ----------------------------------------------
    def _open(self) -> None:
        # interrupted segment builds are garbage by definition
        for tmp in self.root.glob(".seg*.tmp"):
            tmp.unlink(missing_ok=True)
        scan = scan_store(self.root)
        self.issues = list(scan.issues)
        self._segment = scan.segment
        # finish an interrupted compaction's cleanup: superseded segments
        # and fully-covered WALs carry no record the survivor lacks
        for path in scan.superseded_segments + scan.superseded_wals:
            path.unlink(missing_ok=True)
        for path in scan.corrupt_segments:
            # keep the bytes for forensics, out of the next open's glob
            quarantined = path.with_suffix(SEG_SUFFIX + ".corrupt")
            os.replace(path, quarantined)  # lint: disable=SL201 -- quarantine rename of already-corrupt bytes; no data is written
        if self._segment is not None:
            for doc_id in self._segment.docs:
                self._live[doc_id] = _Loc(seq=0, source="seg")
        for record in scan.records:
            if record.kind == "del":
                self._live.pop(record.doc_id, None)
            else:
                self._live[record.doc_id] = _Loc(
                    seq=record.seq, source="wal", path=record.path,
                    offset=record.offset, length=record.length,
                )
        self._seq = scan.max_seq
        numbers = [
            int(p.stem.split("-", 1)[1])
            for p in self.root.glob(f"*{WAL_SUFFIX}")
            if p.stem.startswith("wal-") and p.stem.split("-", 1)[1].isdigit()
        ]
        self._wal_counter = max(numbers, default=0)

    # -- WAL plumbing --------------------------------------------------
    def _append(self, payload: Dict[str, Any], sync: bool) -> Tuple[Path, int, int]:
        """Append to the active WAL, starting a fresh file lazily.

        A new store (or a reopened one) always starts a *new* WAL rather
        than appending to an old one, so every sealed file is immutable.
        """
        if self._active is None:
            self._wal_counter += 1
            self._active = WriteAheadLog(
                self.root / f"wal-{self._wal_counter:012d}{WAL_SUFFIX}",
                fsync=self.fsync,
            )
        offset, length = self._active.append(payload, sync=False)
        if sync:
            self.sync()
        return self._active.path, offset, length

    def sync(self) -> None:
        """Flush + fsync the active WAL (amortized by batch writers)."""
        if self._active is not None:
            self._active.sync()

    def seal(self) -> Optional[Path]:
        """Close the active WAL; the next append starts a new one.

        Returns the sealed path (``None`` when there was nothing to
        seal).  Sealing clears the memtable — sealed-WAL reads go
        through the offset index instead.
        """
        with self._lock:
            if self._active is None:
                return None
            self._active.close()
            sealed = self._active.path
            self._active = None
            self._memtable.clear()
            return sealed

    def close(self) -> None:
        with self._lock:
            self.seal()
            if self._segment is not None:
                self._segment.close()

    # -- writes --------------------------------------------------------
    def put(self, doc_id: str, text: str, sync: bool = True) -> int:
        """Durably store *text* under *doc_id*; returns its sequence number.

        ``sync=False`` defers the fsync — batch writers append many
        records and call :meth:`sync` once, which is where the batch
        path's throughput comes from.
        """
        if not doc_id:
            raise SegmentError("doc_id must be non-empty")
        with self._lock:
            self._seq += 1
            path, offset, length = self._append(
                {"k": "put", "seq": self._seq, "id": doc_id, "text": text},
                sync=sync,
            )
            self._live[doc_id] = _Loc(
                seq=self._seq, source="wal", path=path,
                offset=offset, length=length,
            )
            self._memtable[doc_id] = text
            self._puts += 1
            if (self._kill_after_puts is not None
                    and self._puts >= self._kill_after_puts):
                self.sync()
                os.kill(os.getpid(), signal.SIGKILL)
            if self._active.size >= self.seal_bytes:
                self.seal()
            return self._seq

    def delete(self, doc_id: str, sync: bool = True) -> int:
        """Append a tombstone; the id stops being served immediately."""
        with self._lock:
            self._seq += 1
            self._append({"k": "del", "seq": self._seq, "id": doc_id},
                         sync=sync)
            self._live.pop(doc_id, None)
            self._memtable.pop(doc_id, None)
            return self._seq

    # -- reads ---------------------------------------------------------
    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._live

    def __len__(self) -> int:
        return len(self._live)

    def live_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._live)

    def get(self, doc_id: str) -> Optional[str]:
        """Text of *doc_id*: memtable → sealed-WAL offset → segment."""
        with self._lock:
            loc = self._live.get(doc_id)
            if loc is None:
                return None
            text = self._memtable.get(doc_id)
            if text is not None:
                return text
            if loc.source == "wal":
                assert loc.path is not None
                if self._active is not None and loc.path == self._active.path:
                    self.sync()  # the record may still be buffered
                try:
                    with loc.path.open("rb") as fh:
                        fh.seek(loc.offset)
                        line = fh.read(loc.length)
                except OSError as exc:
                    raise SegmentError(
                        f"WAL read for {doc_id!r} failed: {exc}"
                    ) from exc
                try:
                    payload = decode_record(line)
                except JournalError as exc:
                    raise SegmentError(
                        f"WAL record for {doc_id!r} failed verification: "
                        f"{exc}"
                    ) from exc
                if payload.get("id") != doc_id or payload.get("k") != "put":
                    raise SegmentError(
                        f"WAL offset index points at the wrong record for "
                        f"{doc_id!r}"
                    )
                return payload["text"]
            if self._segment is None:
                raise SegmentError(
                    f"live index names {doc_id!r} but no segment is open"
                )
            return self._segment.read(doc_id)

    @property
    def segment(self) -> Optional[Segment]:
        return self._segment

    def wal_paths(self) -> List[Path]:
        """Every WAL on disk, active last (sorted by number)."""
        return sorted(self.root.glob(f"*{WAL_SUFFIX}"))

    def sealed_wal_paths(self) -> List[Path]:
        with self._lock:
            active = self._active.path if self._active is not None else None
            return [p for p in self.wal_paths() if p != active]

    # -- verification / stats -----------------------------------------
    def verify(self) -> Dict[str, Any]:
        """Crc-verify every live document and the segment's own index.

        Returns ``{"checked": n, "bad": [doc ids], "issues": [...]}`` —
        a bad document is one whose authoritative record no longer
        decodes; the caller (the service's scrub) evicts it so the
        cluster restores a verified replica.
        """
        report: Dict[str, Any] = {"checked": 0, "bad": [], "issues": []}
        with self._lock:
            for doc_id in sorted(self._live):
                report["checked"] += 1
                try:
                    text = self.get(doc_id)
                except SegmentError as exc:
                    report["bad"].append(doc_id)
                    report["issues"].append(str(exc))
                    continue
                if text is None:  # pragma: no cover - live ids always read
                    report["bad"].append(doc_id)
            if self._segment is not None:
                report["issues"].extend(self._segment.verify())
        return report

    def stats(self) -> Dict[str, Any]:
        """Operational counters: live docs, WAL/segment shape, sequence."""
        with self._lock:
            return {
                "documents": len(self._live),
                "memtable": len(self._memtable),
                "wals": len(self.wal_paths()),
                "segment": (self._segment.path.name
                            if self._segment is not None else None),
                "segment_docs": len(self._segment) if self._segment else 0,
                "seq": self._seq,
            }

    # -- compaction ----------------------------------------------------
    def compact(self) -> Dict[str, Any]:
        """Full merge: every live doc into one fresh segment; sources go.

        Publication is atomic (temp file → fsync → rename → directory
        fsync) and the source WALs / superseded segment are deleted only
        *after* the new segment is durable, so a SIGKILL anywhere in
        here loses nothing:  before the rename the old sources still
        serve every record; after it, the leftovers are recognizably
        redundant (their sequences are ≤ the new segment's ``covers``)
        and the next open deletes them.
        """
        with self._lock:
            sealed = self.seal()
            source_wals = self.wal_paths()
            old_segment = self._segment
            if not source_wals and old_segment is None:
                return {"skipped": True, "reason": "store is empty"}
            if (not source_wals and old_segment is not None
                    and old_segment.covers >= self._seq):
                return {
                    "skipped": True, "reason": "nothing to compact",
                    "segment": old_segment.path.name,
                    "documents": len(old_segment),
                }
            covers = self._seq
            live_ids = sorted(self._live)
            docs_index: Dict[str, List[Any]] = {}
            values: Dict[str, Dict[str, List[str]]] = {
                prop: {} for prop in INDEXED_PROPS
            }
            fd, tmp = tempfile.mkstemp(prefix=".seg.", suffix=".tmp",
                                       dir=self.root)
            midpoint = len(live_ids) // 2
            offset = 0
            try:
                with os.fdopen(fd, "wb") as fh:
                    for index, doc_id in enumerate(live_ids):
                        text = self.get(doc_id)
                        if text is None:  # pragma: no cover
                            continue
                        line = encode_record(
                            {"k": "doc", "id": doc_id, "text": text}
                        )
                        fh.write(line)
                        docs_index[doc_id] = [offset, len(line), _sha256(text)]
                        offset += len(line)
                        for prop, vals in extract_value_index(text).items():
                            for value in sorted(vals):
                                values[prop].setdefault(value, []).append(doc_id)
                        if index + 1 == midpoint:
                            _maybe_kill("compact-mid-write")
                    footer_line = encode_record({
                        "k": "footer", "version": SEGMENT_VERSION,
                        "covers": covers, "count": len(docs_index),
                        "docs": docs_index, "values": values,
                    })
                    fh.write(footer_line)
                    fh.write(b"@%016x " % offset + _TRAILER_MAGIC + b"\n")
                    fh.flush()
                    os.fsync(fh.fileno())
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            _maybe_kill("compact-pre-rename")
            target = self.root / f"seg-{covers:012d}{SEG_SUFFIX}"
            os.replace(tmp, target)  # lint: disable=SL201 -- this IS the temp-file/fsync/rename publication step of compaction
            fsync_dir(self.root)
            _maybe_kill("compact-post-rename")
            segment = Segment.open(target)
            # the new segment is durable: the sources are now redundant
            removed_wals = 0
            for path in source_wals:
                path.unlink(missing_ok=True)
                removed_wals += 1
            removed_segments = 0
            if old_segment is not None and old_segment.path != target:
                old_segment.close()
                old_segment.path.unlink(missing_ok=True)
                removed_segments += 1
            self._segment = segment
            self._live = {
                doc_id: _Loc(seq=0, source="seg") for doc_id in segment.docs
            }
            self._memtable.clear()
            return {
                "skipped": False,
                "segment": target.name,
                "covers": covers,
                "documents": len(segment),
                "removed_wals": removed_wals,
                "removed_segments": removed_segments,
                "sealed": sealed.name if sealed is not None else None,
            }
