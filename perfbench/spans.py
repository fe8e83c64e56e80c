"""Spans around calls into each layer, recorded from the benchmark's files.

A span is ``[id, parent_id, name, start, end, thread, raised]`` with
``perf_counter`` times (CLOCK_MONOTONIC, shared by the load process and
the service process).  Wrappers are installed at the names callers look
the functions up by, kept in memory, and written out when the process
ends.  Only one request is ever in flight, so a service span belongs to
the client span that contains it in time.
"""

from __future__ import annotations

import functools
import itertools
import os
import socketserver
import statistics
import threading
from bisect import bisect_left
from http.server import BaseHTTPRequestHandler
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Tuple

Span = List[Any]
ID, PARENT, NAME, START, END, THREAD, RAISED = range(7)


class Tracer:
    """Per-thread span stacks over one shared span list."""

    def __init__(self, active: bool = True) -> None:
        self.spans: List[Span] = []
        self.active = active
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, local, ids = self.spans, self._local, self._ids

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [next(ids), stack[-1][ID] if stack else -1, name,
                    perf_counter(), 0.0, threading.get_ident(), False]
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (module or class attribute) by a wrapper."""
        previous = vars(owner).get(attr)  # None: inherited from a base class
        current = previous if previous is not None else getattr(owner, attr)
        if isinstance(current, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, current.__func__)))
        else:
            setattr(owner, attr, self.wrap(name, current))
        self._undo.append(lambda: delattr(owner, attr) if previous is None
                          else setattr(owner, attr, previous))

    def unpatch(self) -> None:
        while self._undo:
            self._undo.pop()()


def install_client(tracer: Tracer) -> None:
    """Wrap the tracker, save path and client verbs in the load process."""
    from repro.core import provgen
    from repro.core.experiment import RunExecution
    from repro.core.journal import RunJournal
    from repro.prov.document import ProvDocument
    from repro.storage.zarrlike import ZarrLikeStore
    from repro.yprov import client

    tracer.patch(os, "fsync", "fsync")
    tracer.patch(RunExecution, "log_metric", "log_metric")
    for verb in ("append", "flush", "compact"):
        tracer.patch(RunJournal, verb, f"journal.{verb}")
    for fn in ("save_run", "build_prov_document", "validate_document"):
        tracer.patch(provgen, fn, fn)
    tracer.patch(ProvDocument, "save", "document.save")
    tracer.patch(ZarrLikeStore, "write_series", "zarr.write")
    tracer.patch(ZarrLikeStore, "flush", "zarr.write")
    for verb in CLIENT_REQUESTS + ("publish",):
        tracer.patch(client.ProvenanceClient, verb, f"client.{verb}")
    # every HTTP attempt (retries included) goes through this name; the
    # client binds it at construction, so patch before building clients
    tracer.patch(client, "_urllib_transport", "client.attempt")


#: Client verbs that each issue one request per attempt.
CLIENT_REQUESTS = ("put_document", "get_document_text", "query",
                   "put_documents_batch")


def install_server(tracer: Tracer, services: List[Any]) -> None:
    """Wrap the HTTP front end, service verbs, storage and PROVQL stages."""
    from repro.prov.document import ProvDocument
    from repro.query import executor
    from repro.yprov import service, segments

    tracer.patch(os, "fsync", "fsync")
    tracer.patch(BaseHTTPRequestHandler, "handle", "rest.handle")
    tracer.patch(socketserver.ThreadingMixIn, "process_request", "rest.connection")
    for verb in ("put_document", "put_documents_batch", "get_document_text", "query"):
        tracer.patch(service.ProvenanceService, verb, f"service.{verb}")
    tracer.patch(ProvDocument, "from_json", "document.from_json")
    tracer.patch(service, "atomic_write_text", "store.write")
    tracer.patch(segments.SegmentStore, "put", "store.write")
    tracer.patch(segments.SegmentStore, "sync", "store.sync")
    tracer.patch(service, "parse_provql", "query.parse")
    tracer.patch(service, "execute", "query.execute")
    tracer.patch(executor, "plan", "query.plan")

    init = service.ProvenanceService.__init__

    def remember(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        services.append(self)

    service.ProvenanceService.__init__ = remember


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _dur(span: Span) -> float:
    return span[END] - span[START]


class SpanSet:
    """Spans of one process, indexed by name and parent."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = [s for s in spans if s[END] > 0.0]
        self.children: Dict[int, List[Span]] = {}
        self.by_name: Dict[str, List[Span]] = {}
        self.by_id: Dict[int, Span] = {}
        for span in self.spans:
            self.by_id[span[ID]] = span
            self.children.setdefault(span[PARENT], []).append(span)
            self.by_name.setdefault(span[NAME], []).append(span)

    def named(self, name: str) -> List[Span]:
        return self.by_name.get(name, [])

    def self_time(self, span: Span) -> float:
        return _dur(span) - sum(_dur(c) for c in self.children.get(span[ID], ()))

    def under(self, span: Span, names: Tuple[str, ...]) -> bool:
        """Whether an ancestor of *span* is named in *names*."""
        parent = self.by_id.get(span[PARENT])
        while parent is not None:
            if parent[NAME] in names:
                return True
            parent = self.by_id.get(parent[PARENT])
        return False

    def below(self, span: Span, names: Tuple[str, ...]) -> float:
        """Time of the outermost descendants of *span* named in *names*."""
        total = 0.0
        for child in self.children.get(span[ID], ()):
            total += _dur(child) if child[NAME] in names else self.below(child, names)
        return total


def _median(values: List[float], scale: float) -> float:
    if not values:
        raise RuntimeError("no spans for a per-layer metric")
    return statistics.median(values) * scale


def layer_metrics(client: SpanSet, server: SpanSet,
                  service_stats: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics from the spans of the measured window."""
    logs = client.named("log_metric")
    requests = [s for v in CLIENT_REQUESTS for s in client.named(f"client.{v}")]
    attempts = client.named("client.attempt")
    handles = sorted(server.named("rest.handle"), key=lambda s: s[START])
    starts = [s[START] for s in handles]

    def server_time_within(span: Span) -> float:
        i, total = bisect_left(starts, span[START]), 0.0
        while i < len(handles) and handles[i][START] < span[END]:
            total += _dur(handles[i])
            i += 1
        return total

    puts = server.named("service.put_document")
    # the journal's own fsyncs, not the save path's (zarr store, prov.json)
    journal_fsyncs = [s for s in client.named("fsync")
                      if client.under(s, ("journal.append", "journal.flush"))]
    return {
        "core.experiment.log_self_us": _median([client.self_time(s) for s in logs], 1e6),
        "core.journal.append_us": _median([_dur(s) for s in client.named("journal.append")], 1e6),
        "core.journal.fsync_per_log": len(journal_fsyncs) / len(logs),
        "core.journal.fsync_us_p50": _median([_dur(s) for s in journal_fsyncs], 1e6),
        "core.journal.compact_ms": _median([_dur(s) for s in client.named("journal.compact")], 1e3),
        "core.provgen.build_ms": _median([_dur(s) for s in client.named("build_prov_document")], 1e3),
        "prov.validation.validate_ms": _median([_dur(s) for s in client.named("validate_document")], 1e3),
        "prov.document.save_ms": _median([_dur(s) for s in client.named("document.save")], 1e3),
        "storage.zarrlike.write_ms": _median(
            [client.below(s, ("zarr.write",)) for s in client.named("save_run")], 1e3),
        "yprov.client.publish_ms": _median([_dur(s) for s in client.named("client.publish")], 1e3),
        "yprov.client.transport_ms": _median(
            [_dur(s) - server_time_within(s) for s in requests], 1e3),
        "yprov.client.retries": float(len(attempts) - len(requests)),
        "yprov.client.failed": float(sum(1 for s in requests if s[RAISED])),
        "yprov.rest.connections_per_request":
            len(server.named("rest.connection")) / len(attempts),
        "yprov.rest.handle_self_ms": _median([server.self_time(s) for s in handles], 1e3),
        "yprov.service.put_self_ms": _median([server.self_time(s) for s in puts], 1e3),
        "prov.document.parse_ms": _median([_dur(s) for s in server.named("document.from_json")], 1e3),
        "yprov.service.get_ms": _median([_dur(s) for s in server.named("service.get_document_text")], 1e3),
        "yprov.service.query_self_ms": _median(
            [server.self_time(s) for s in server.named("service.query")], 1e3),
        "yprov.graphdb.nodes_per_doc": service_stats["nodes"] / service_stats["documents"],
        "yprov.service.store_write_ms": _median(
            [server.below(s, ("store.write", "store.sync")) for s in puts], 1e3),
        "yprov.service.fsync_per_put": len(server.named("fsync")) / len(puts),
        "query.parse_us": _median([_dur(s) for s in server.named("query.parse")], 1e6),
        "query.plan_us": _median([_dur(s) for s in server.named("query.plan")], 1e6),
        "query.execute_ms": _median([_dur(s) for s in server.named("query.execute")], 1e3),
    }


def in_window(spans: Iterable[Span], window: Tuple[float, float]) -> List[Span]:
    return [s for s in spans if window[0] <= s[START] and s[END] <= window[1]]

