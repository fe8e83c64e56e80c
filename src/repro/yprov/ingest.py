"""High-throughput batch ingest: binary wire format + pipelined client.

The single-document path (``PUT /documents/<id>``) pays one HTTP round
trip and one durability point per document — correct, and two orders of
magnitude too slow when thousands of ranks publish provenance per epoch
(the asynchronous, batched capture regime of Souza et al.).  This module
promotes the WAL wire format of :mod:`repro.wal` to the
network:

**Batch codec.**  A batch is a header record followed by one record per
document, each in the length-prefixed, crc-per-record journal format::

    <length:08x> <crc32:08x> {"k":"batch","v":1,"n":<count>}\\n
    <length:08x> <crc32:08x> {"k":"doc","id":...,"text":...}\\n
    ...

The properties the journal format earns on disk transfer directly to the
wire: any single flipped bit fails a crc, any truncation yields a clean
record prefix (no partial record is ever surfaced), and
encode → decode is the identity.  :func:`decode_batch` is strict (one
damaged byte rejects the batch — the transport's job is to deliver it
intact); :func:`iter_batch_prefix` is the lenient spool/debug reader
that salvages the intact prefix.

**BatchClient.**  An asynchronous, pipelined publisher: ``publish()``
buffers documents, full batches are handed to a bounded queue, and a
small pool of workers — each with its own
:class:`~repro.yprov.client.ProvenanceClient` (circuit breakers are not
shared across threads) — keeps several batches in flight at once.  The
bounded queue is the memory story: a producer that outruns the service
blocks rather than buffering without bound.  The spool contract of
:meth:`ProvenanceClient.publish` is preserved batch-wise: a batch that
fails in transport is re-spooled *in full*, a batch the server partially
applies re-spools **only the failed records** (the server reports
per-record status), and hard per-record rejections are reported, not
spooled — re-sending an invalid document would just fail again.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.wal import decode_record, encode_record
from repro.errors import (
    CircuitOpenError,
    IngestError,
    JournalError,
    ReproError,
    TransportError,
)

__all__ = [
    "BatchClient",
    "BatchReport",
    "decode_batch",
    "encode_batch",
    "iter_batch_prefix",
]

#: Batch wire-format schema version.
BATCH_VERSION = 1

#: Default documents per batch frame.
DEFAULT_BATCH_SIZE = 64

#: Default number of batches kept in flight (workers + queue slots).
DEFAULT_MAX_IN_FLIGHT = 4


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

def encode_batch(records: Sequence[Tuple[str, str]]) -> bytes:
    """Serialize ``(doc_id, text)`` pairs into one batch frame."""
    if not records:
        raise IngestError("a batch must carry at least one document")
    parts = [encode_record({"k": "batch", "v": BATCH_VERSION,
                            "n": len(records)})]
    for doc_id, text in records:
        if not isinstance(doc_id, str) or not doc_id:
            raise IngestError(f"invalid doc id in batch: {doc_id!r}")
        if not isinstance(text, str):
            raise IngestError(
                f"batch text for {doc_id!r} must be str, got "
                f"{type(text).__name__}"
            )
        parts.append(encode_record({"k": "doc", "id": doc_id, "text": text}))
    return b"".join(parts)


def _decode_lines(data: bytes):
    """Yield ``(payload, clean)`` per newline-framed record; stop on damage.

    ``clean`` is ``None`` while records verify; the generator's last
    yield before stopping carries the issue string instead.  A trailing
    fragment without its newline is never surfaced as a record.
    """
    offset = 0
    size = len(data)
    while offset < size:
        newline = data.find(b"\n", offset)
        if newline == -1:
            yield None, f"truncated record at offset {offset} (no terminator)"
            return
        line = data[offset:newline + 1]
        try:
            payload = decode_record(line)
        except JournalError as exc:
            yield None, f"record at offset {offset} failed verification: {exc}"
            return
        yield payload, None
        offset = newline + 1


def decode_batch(data: bytes) -> List[Tuple[str, str]]:
    """Strictly decode one batch frame back into ``(doc_id, text)`` pairs.

    Raises :class:`~repro.errors.IngestError` on *any* damage — a bad
    header, a record failing its crc, a truncated tail, or a record
    count that disagrees with the header.  The caller retries or
    re-spools the whole batch; nothing partially applied is returned.
    """
    records: List[Tuple[str, str]] = []
    header: Optional[Dict[str, Any]] = None
    for payload, issue in _decode_lines(data):
        if issue is not None:
            raise IngestError(f"corrupt batch: {issue}")
        assert payload is not None
        if header is None:
            if payload.get("k") != "batch":
                raise IngestError(
                    f"corrupt batch: first record has kind "
                    f"{payload.get('k')!r}, expected 'batch'"
                )
            if payload.get("v") != BATCH_VERSION:
                raise IngestError(
                    f"unsupported batch version {payload.get('v')!r}"
                )
            if not isinstance(payload.get("n"), int) or payload["n"] < 1:
                raise IngestError("corrupt batch: bad record count in header")
            header = payload
            continue
        if payload.get("k") != "doc":
            raise IngestError(
                f"corrupt batch: unexpected record kind {payload.get('k')!r}"
            )
        doc_id = payload.get("id")
        text = payload.get("text")
        if not isinstance(doc_id, str) or not doc_id or not isinstance(text, str):
            raise IngestError("corrupt batch: doc record missing id/text")
        records.append((doc_id, text))
    if header is None:
        raise IngestError("corrupt batch: empty frame")
    if len(records) != header["n"]:
        raise IngestError(
            f"corrupt batch: header promises {header['n']} records, "
            f"frame carries {len(records)}"
        )
    return records


def iter_batch_prefix(
    data: bytes,
) -> Tuple[List[Tuple[str, str]], Optional[str]]:
    """Leniently decode the intact prefix of a (possibly damaged) frame.

    Returns ``(records, issue)`` where *records* is every complete,
    crc-verified document record before the first damage and *issue*
    describes that damage (``None`` for a fully intact frame).  Truncate
    the frame at any byte and the result is a clean prefix — a partial
    record is never surfaced, and a cut landing exactly on a record
    boundary is still reported, because the header's record count no
    longer matches what the frame carries.
    """
    records: List[Tuple[str, str]] = []
    promised: Optional[int] = None
    for payload, issue in _decode_lines(data):
        if issue is not None:
            return records, issue
        assert payload is not None
        if promised is None:
            if payload.get("k") != "batch":
                return records, (
                    f"first record has kind {payload.get('k')!r}, "
                    "expected 'batch'"
                )
            count = payload.get("n")
            promised = count if isinstance(count, int) else -1
            continue
        doc_id = payload.get("id")
        text = payload.get("text")
        if (payload.get("k") != "doc" or not isinstance(doc_id, str)
                or not isinstance(text, str)):
            return records, "malformed doc record"
        records.append((doc_id, text))
    if promised is None:
        return records, "empty frame"
    if len(records) != promised:
        return records, (
            f"header promises {promised} records, frame carries "
            f"{len(records)}"
        )
    return records, None


# ---------------------------------------------------------------------------
# pipelined client
# ---------------------------------------------------------------------------

@dataclass
class BatchReport:
    """Where every published document ended up (the flush()-time truth)."""

    acked: int = 0
    spooled: int = 0
    #: ``(doc_id, error)`` for hard per-record rejections (not retried).
    rejected: List[Tuple[str, str]] = field(default_factory=list)
    batches_sent: int = 0
    #: high-water mark of documents buffered client-side at once.
    peak_buffered: int = 0

    @property
    def safe(self) -> bool:
        """Every non-rejected document is acked or durably spooled."""
        return True  # flush() raises instead when the guarantee breaks

    def summary(self) -> str:
        return (
            f"acked={self.acked} spooled={self.spooled} "
            f"rejected={len(self.rejected)} batches={self.batches_sent} "
            f"peak_buffered={self.peak_buffered}"
        )


class BatchClient:
    """Pipelined batch publisher with the acked-or-spooled guarantee.

    ``publish()`` is cheap and non-blocking until ``max_in_flight``
    full batches are already queued (bounded client memory: at most
    ``batch_size × (max_in_flight + workers) + batch_size`` documents
    are ever held).  ``flush()`` drains everything in flight and
    returns the :class:`BatchReport`; with no spool configured an
    undeliverable batch makes ``flush()`` raise instead of dropping.

    Use as a context manager::

        with BatchClient(url, spool=spool) as batch:
            for doc_id, text in documents:
                batch.publish(doc_id, text)
        report = batch.report
    """

    def __init__(
        self,
        base_url: str,
        batch_size: int = DEFAULT_BATCH_SIZE,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        spool: Optional[Any] = None,
        client_factory: Optional[Callable[[], Any]] = None,
        timeout_s: float = 30.0,
        retries: int = 3,
    ) -> None:
        if batch_size < 1:
            raise IngestError(f"batch_size must be >= 1, got {batch_size}")
        if max_in_flight < 1:
            raise IngestError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        self.base_url = base_url
        self.batch_size = int(batch_size)
        self.max_in_flight = int(max_in_flight)
        self.spool = spool
        if client_factory is None:
            def client_factory() -> Any:  # pragma: no cover - default wiring
                from repro.yprov.client import ProvenanceClient

                return ProvenanceClient(
                    base_url, timeout_s=timeout_s, retries=retries
                )
        self._client_factory = client_factory
        self._pending: List[Tuple[str, str]] = []
        self._queue: "queue.Queue[Optional[List[Tuple[str, str]]]]" = (
            queue.Queue(maxsize=max_in_flight)
        )
        self._lock = threading.Lock()
        self._buffered = 0
        self._fatal: Optional[BaseException] = None
        self._undeliverable = 0
        self.report = BatchReport()
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"batch-ingest-{i}", daemon=True
            )
            for i in range(max_in_flight)
        ]
        for worker in self._workers:
            worker.start()
        self._closed = False

    # -- producer side -------------------------------------------------
    def publish(self, doc_id: str, text: str) -> None:
        """Buffer one document; ships when a full batch accumulates."""
        if self._closed:
            raise IngestError("BatchClient is closed")
        if not isinstance(doc_id, str) or not doc_id:
            raise IngestError(f"invalid doc id: {doc_id!r}")
        self._pending.append((doc_id, text))
        self._note_buffered(+1)
        if len(self._pending) >= self.batch_size:
            self._submit()

    def _note_buffered(self, delta: int) -> None:
        with self._lock:
            self._buffered += delta
            if self._buffered > self.report.peak_buffered:
                self.report.peak_buffered = self._buffered

    def _submit(self) -> None:
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self._queue.put(batch)  # blocks when max_in_flight batches queued

    def flush(self) -> BatchReport:
        """Ship the partial batch, wait for every batch in flight.

        Raises :class:`~repro.errors.IngestError` when documents could
        be neither delivered nor spooled (transport dead and no spool) —
        silence would break the acked-or-spooled contract.
        """
        self._submit()
        self._queue.join()
        if self._fatal is not None:
            fatal, self._fatal = self._fatal, None
            raise IngestError(
                f"batch worker failed: {fatal.__class__.__name__}: {fatal}"
            )
        if self._undeliverable:
            count, self._undeliverable = self._undeliverable, 0
            raise IngestError(
                f"{count} document(s) undeliverable and no spool configured"
            )
        return self.report

    def close(self) -> BatchReport:
        """Flush, stop the workers, and return the final report."""
        if self._closed:
            return self.report
        try:
            report = self.flush()
        finally:
            self._closed = True
            for _ in self._workers:
                self._queue.put(None)
            for worker in self._workers:
                worker.join(timeout=10)
        return report

    def __enter__(self) -> "BatchClient":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    # -- worker side ---------------------------------------------------
    def _worker(self) -> None:
        client = self._client_factory()
        while True:
            batch = self._queue.get()
            if batch is None:
                self._queue.task_done()
                return
            try:
                self._ship(client, batch)
            except BaseException as exc:  # keep the queue draining
                with self._lock:
                    if self._fatal is None:
                        self._fatal = exc
            finally:
                self._note_buffered(-len(batch))
                self._queue.task_done()

    def _ship(self, client: Any, batch: List[Tuple[str, str]]) -> None:
        try:
            results = client.put_documents_batch(batch)
        except (TransportError, CircuitOpenError):
            self._park(batch)
            return
        except ReproError as exc:
            # the server refused the whole frame (e.g. over the body
            # limit): a hard rejection of every record, not a retry case
            with self._lock:
                self.report.rejected.extend(
                    (doc_id, str(exc)) for doc_id, _ in batch
                )
            return
        retry: List[Tuple[str, str]] = []
        with self._lock:
            self.report.batches_sent += 1
            if len(results) < len(batch):
                # a torn response must not strand the unreported tail
                retry.extend(batch[len(results):])
                batch = batch[:len(results)]
            for (doc_id, text), result in zip(batch, results):
                status = result.get("status")
                if status == "stored":
                    self.report.acked += 1
                elif status == "unavailable":
                    retry.append((doc_id, text))
                else:
                    self.report.rejected.append(
                        (doc_id, str(result.get("error", "rejected")))
                    )
        if retry:
            # only the records the server could not take are re-spooled
            self._park(retry)

    def _park(self, records: List[Tuple[str, str]]) -> None:
        if self.spool is None:
            with self._lock:
                self._undeliverable += len(records)
            return
        for doc_id, text in records:
            self.spool.enqueue(doc_id, text)
        with self._lock:
            self.report.spooled += len(records)
