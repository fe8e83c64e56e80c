"""Closed-loop load generator and output checks for the two workloads.

One process, one thread, at most one request in flight: every caller
waits for its reply (``end_run`` blocks on publish, analysts wait for
rows).  The service runs in a separate process started through
``launcher.py``, i.e. exactly the configuration ``yprov serve --root
<fresh dir>`` builds, with the storage backend it picks on a fresh root.

Every workload reports every end-to-end metric.  The op kinds a workload's
own mix does not contain (training runs and PUTs on ``serve_read``) come
from side work interleaved into the loop after a fixed number of its own
ops; the latencies of the kinds a workload's mix contains come from its
mix alone.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro as prov4ml
from repro.core.journal import JOURNAL_NAME
from repro.errors import ReproError
from repro.prov.document import ProvDocument
from repro.prov.validation import validate_document
from repro.query import DocumentBackend, execute
from repro.yprov.client import ProvenanceClient
from repro.yprov.ingest import BatchClient

import gen

HERE = Path(__file__).resolve().parent

#: Failures a client call can surface: service/transport errors and
#: malformed bodies.  Anything else is a bug in the benchmark and aborts.
OP_ERRORS = (ReproError, OSError, ValueError)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are what the benchmark command runs."""

    corpus_docs: int = 400      # preloaded documents (serve_read)
    history_docs: int = 200     # prior runs preloaded for train_pipeline
    publish_ids: int = 100      # ids tracked runs publish under (bounds growth)
    ingest_ids: int = 80        # ids ingest PUTs rotate over (bounds growth)
    setups: int = 3             # set-ups per run; setup_s is their median
    warmup_s: float = 4.0       # untimed loop between set-up and window
    global_every: int = 5       # train_pipeline: runs between service-wide queries
    side_every: int = 50        # serve_read: own-mix ops per side-work unit
    side_cycles: int = 1        # serve_read side work: PUT cycles per training run


# ----------------------------------------------------------------------
# the service process
# ----------------------------------------------------------------------
class Server:
    """``yprov serve`` in its own process, via the benchmark's launcher."""

    def __init__(self, root: Path, spans: Optional[Path] = None) -> None:
        cmd = [sys.executable, str(HERE / "launcher.py"), "--root", str(root)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.root = root
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60)
            line = self.proc.stdout.readline() if ready else ""
            match = re.search(r"listening on (http://\S+)", line)
            if match is None:
                raise RuntimeError(f"service did not start: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.url = match.group(1)

    def peak_rss_mb(self) -> float:
        return proc_field(f"/proc/{self.proc.pid}/status", "VmHWM") / 1024.0

    def wchar(self) -> int:
        return proc_field(f"/proc/{self.proc.pid}/io", "wchar")

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def proc_field(path: str, key: str) -> int:
    """The integer after ``key:`` in a /proc file (kB for memory fields)."""
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{path} has no {key}")


def discard(path: Path) -> None:
    """Remove *path* and wait until the file system has finished with it.

    On a disk mounted with online discard, a removal costs the device work
    when the journal commits; ``os.sync`` forces that commit now, so the
    cost lands here and not in a later measured window.
    """
    shutil.rmtree(path, ignore_errors=True)
    os.sync()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# recording and checking
# ----------------------------------------------------------------------
def fingerprint(rows: List[Dict[str, Any]]) -> int:
    """Order-sensitive hash of result rows (compared after the loop)."""
    return hash(tuple(tuple(row.items()) for row in rows))


class Recorder:
    """Latency samples per (phase, kind), op counts and deferred checks.

    It also owns the acknowledged state the checks compare against: the
    live documents and the log of PUTs in acknowledgement order.
    """

    def __init__(self, preload: Dict[str, str]) -> None:
        self.phase = "setup"
        self.samples: Dict[Tuple[str, str], List[Tuple[int, float]]] = defaultdict(list)
        self.attempted = 0
        self.failed: Dict[int, str] = {}
        self.preload = preload
        self.live = dict(preload)                     # doc id -> acked text
        self.put_log: List[Tuple[str, str]] = []
        self.doc_checks: List[Tuple[int, str, str, str, int]] = []  # op, id, text, q, fp
        self.global_checks: List[Tuple[int, int, str, int]] = []    # op, PUTs so far, q, fp
        self.run_checks: List[Tuple[int, Path]] = []
        self.queries = self.cache_hits = self.seed_rows = self.returned_rows = 0

    def begin(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def sample(self, kind: str, op: int, seconds: float) -> None:
        self.samples[(self.phase, kind)].append((op, seconds))

    def ok(self, op: int, kind: str, seconds: float) -> None:
        self.sample(kind, op, seconds)

    def acked(self, doc_id: str, text: str) -> None:
        self.live[doc_id] = text
        self.put_log.append((doc_id, text))

    def fail(self, op: int, why: str) -> None:
        self.failed.setdefault(op, why)

    def values(self, kind: str) -> List[float]:
        """Latencies of *kind* from ops that passed every check.

        The workload's own mix when it ran this kind, else the side work's.
        """
        for phase in ("main", "side"):
            got = [s for op, s in self.samples.get((phase, kind), ())
                   if op not in self.failed]
            if got:
                return got
        raise RuntimeError(f"no successful {kind!r} samples")


class Reference:
    """In-process PROVQL answers: ``execute(q, DocumentBackend(doc))``."""

    def __init__(self) -> None:
        self._backends: Dict[Tuple[str, str], DocumentBackend] = {}
        self._rows: Dict[Tuple[str, str, str], List[Dict[str, Any]]] = {}

    def rows(self, doc_id: str, text: str, query: str) -> List[Dict[str, Any]]:
        key = (doc_id, text, query)
        if key not in self._rows:
            backend = self._backends.get((doc_id, text))
            if backend is None:
                backend = DocumentBackend(ProvDocument.from_json(text), doc_id=doc_id)
                self._backends[(doc_id, text)] = backend
            self._rows[key] = execute(query, backend).rows
        return self._rows[key]

    def union(self, docs: Dict[str, str], query: str) -> List[Dict[str, Any]]:
        """Service-wide answer: per-document answers in document-id order."""
        out: List[Dict[str, Any]] = []
        for doc_id in sorted(docs):
            out.extend(self.rows(doc_id, docs[doc_id], query))
        return out


def verify(rec: Recorder) -> None:
    """Run the deferred checks; every mismatch fails its op."""
    ref = Reference()
    for op, doc_id, text, query, fp in rec.doc_checks:
        if fingerprint(ref.rows(doc_id, text, query)) != fp:
            rec.fail(op, f"{doc_id}: rows differ from the in-process reference: {query}")
    live, applied = dict(rec.preload), 0
    for op, puts, query, fp in rec.global_checks:   # in op order
        live.update(rec.put_log[applied:puts])
        applied = puts
        if fingerprint(ref.union(live, query)) != fp:
            rec.fail(op, f"service-wide rows differ from the per-document union: {query}")
    for op, run_dir in rec.run_checks:
        if (run_dir / JOURNAL_NAME).exists():
            rec.fail(op, f"{run_dir.name}: journal.wal left behind")
        report = validate_document(ProvDocument.load(run_dir / "prov.json"),
                                   require_declared=True)
        if not report.is_valid:
            rec.fail(op, f"{run_dir.name}: prov.json invalid: {report.summary()}")


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------
class _TimedPublisher:
    """``end_run(publish_to=...)`` target that publishes under *doc_id* and
    times the client's publish."""

    def __init__(self, client: ProvenanceClient, doc_id: str) -> None:
        self.client = client
        self.doc_id = doc_id
        self.seconds = 0.0
        self.result = None

    def publish(self, run_id: str, text: str):
        start = perf_counter()
        self.result = self.client.publish(self.doc_id, text)
        self.seconds = perf_counter() - start
        return self.result


@dataclass
class Ctx:
    """Everything the ops of one measured service share."""

    client: ProvenanceClient
    rec: Recorder
    rng: random.Random
    runs_dir: Path


def op_get(ctx: Ctx, doc_id: str) -> None:
    op = ctx.rec.begin()
    start = perf_counter()
    try:
        body = ctx.client.get_document_text(doc_id)
    except OP_ERRORS as exc:
        ctx.rec.fail(op, f"GET {doc_id}: {exc}")
        return
    elapsed = perf_counter() - start
    if body != ctx.rec.live[doc_id]:
        ctx.rec.fail(op, f"GET {doc_id}: body differs from the PUT bytes")
        return
    ctx.rec.ok(op, "get", elapsed)


def op_query(ctx: Ctx, doc_id: Optional[str], query: str) -> None:
    op = ctx.rec.begin()
    start = perf_counter()
    try:
        reply = ctx.client.query(doc_id, query)
    except OP_ERRORS as exc:
        ctx.rec.fail(op, f"query {doc_id}: {exc}")
        return
    elapsed = perf_counter() - start
    rec, fp, stats = ctx.rec, fingerprint(reply["rows"]), reply["stats"]
    if doc_id is None:
        rec.global_checks.append((op, len(rec.put_log), query, fp))
    else:
        rec.doc_checks.append((op, doc_id, rec.live[doc_id], query, fp))
    rec.queries += 1
    rec.cache_hits += bool(stats.get("cache_hit"))
    rec.seed_rows += stats.get("seed_rows", 0)
    rec.returned_rows += stats.get("returned_rows", 0)
    rec.ok(op, "global" if doc_id is None else "query", elapsed)


def op_put(ctx: Ctx, doc_id: str, text: str) -> bool:
    op = ctx.rec.begin()
    start = perf_counter()
    try:
        result = ctx.client.publish(doc_id, text)
    except OP_ERRORS as exc:
        ctx.rec.fail(op, f"PUT {doc_id}: {exc}")
        return False
    elapsed = perf_counter() - start
    if not result.acked:
        ctx.rec.fail(op, f"PUT {doc_id}: not acknowledged")
        return False
    ctx.rec.acked(doc_id, text)
    ctx.rec.ok(op, "put", elapsed)
    return True


def op_train_run(ctx: Ctx, shape: gen.RunShape, doc_id: str) -> bool:
    """One tracked run through the session API, published by ``end_run``
    as *doc_id*."""
    op = ctx.rec.begin()
    values = iter(shape.values())
    artifact = bytes(shape.values_seed % 251 for _ in range(512))
    logs: List[float] = []
    publisher = _TimedPublisher(ctx.client, doc_id)
    train, val = prov4ml.Context.TRAINING, prov4ml.Context.VALIDATION
    try:
        start = perf_counter()
        prov4ml.start_run(experiment_name="perfbench",
                          provenance_save_dir=ctx.runs_dir, run_id=shape.run_id)
        for name, value in shape.params:
            prov4ml.log_param(name, value)
        for epoch in range(shape.train_epochs):
            prov4ml.start_epoch(train)
            for step in range(shape.steps):
                for metric in shape.metrics:
                    value = next(values)
                    t = perf_counter()
                    prov4ml.log_metric(metric, value, context=train,
                                       step=epoch * shape.steps + step)
                    logs.append(perf_counter() - t)
            prov4ml.end_epoch(train)
        prov4ml.start_epoch(val)
        for step in range(shape.val_steps):
            value = next(values)
            t = perf_counter()
            prov4ml.log_metric("val_loss", value, context=val, step=step)
            logs.append(perf_counter() - t)
        prov4ml.end_epoch(val)
        prov4ml.log_model("model", artifact)
        end_start = perf_counter()
        prov4ml.end_run(metric_format="zarrlike", publish_to=publisher)
        end = perf_counter()
    except OP_ERRORS as exc:
        prov4ml.abort_run()
        ctx.rec.fail(op, f"run {shape.run_id}: {exc}")
        return False
    if publisher.result is None or not publisher.result.acked:
        ctx.rec.fail(op, f"run {shape.run_id}: publish not acknowledged")
        return False
    run_dir = ctx.runs_dir / shape.run_id
    rec = ctx.rec
    rec.acked(doc_id, (run_dir / "prov.json").read_text(encoding="utf-8"))
    rec.run_checks.append((op, run_dir))
    for seconds in logs:
        rec.sample("log", op, seconds)
    rec.sample("put", op, publisher.seconds)
    rec.sample("end_run", op, end - end_start - publisher.seconds)
    rec.ok(op, "run", end - start)
    return True


def train_then_check(ctx: Ctx, inputs: Inputs) -> None:
    """A run, then the check GET and one per-run query (outside the run)."""
    doc_id = next(inputs.publish_ids)
    if op_train_run(ctx, inputs.train.next(), doc_id):
        op_get(ctx, doc_id)
        op_query(ctx, doc_id, ctx.rng.choice(gen.DOC_QUERIES))


class IngestStream:
    """New run documents for PUT cycles, rotating over a bounded id set.

    Cycle *i* writes id ``i mod K`` with body ``i mod (K + 1)``, so every
    PUT replaces the id's previous body with different bytes (never a
    dedup no-op) while growth stays at most K documents.
    """

    def __init__(self, prefix: str, bodies: List[str]) -> None:
        self.ids = [f"{prefix}-{i:05d}" for i in range(len(bodies) - 1)]
        self.bodies = bodies
        self.count = 0

    def next(self) -> Tuple[str, str]:
        i, self.count = self.count, self.count + 1
        return self.ids[i % len(self.ids)], self.bodies[i % len(self.bodies)]


def ingest_cycle(ctx: Ctx, stream: IngestStream) -> None:
    doc_id, text = stream.next()
    if op_put(ctx, doc_id, text):
        op_get(ctx, doc_id)
        op_query(ctx, doc_id, ctx.rng.choice(gen.DOC_QUERIES))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """Generated inputs of one workload run (made before any timing)."""

    preload: Dict[str, str]
    train: gen.ShapeStream
    #: tracked runs publish under these ids in turn, so the service holds
    #: the same number of documents however many runs a window completes
    publish_ids: Iterator[str]
    ingest: Optional[IngestStream] = None
    zipf: Optional[gen.Zipf] = None


def make_inputs(workload: str, seed: int, sizes: Sizes, gen_dir: Path) -> Inputs:
    rng = random.Random(seed)
    train = gen.ShapeStream(rng.randrange(2**31), f"run{seed}")
    publish_ids = itertools.cycle([f"pub{seed}-{i:05d}" for i in range(sizes.publish_ids)])
    if workload == "train_pipeline":
        history = gen.run_shapes(rng, f"hist{seed}", sizes.history_docs, heavy=True)
        return Inputs(gen.build_documents(history, gen_dir, seed), train, publish_ids)
    corpus = gen.run_shapes(rng, f"doc{seed}", sizes.corpus_docs, heavy=True)
    bodies = gen.run_shapes(rng, f"new{seed}", sizes.ingest_ids + 1, heavy=True)
    docs = gen.build_documents(corpus + bodies, gen_dir, seed)
    stream = IngestStream(f"ing{seed}", [docs.pop(s.run_id) for s in bodies])
    # popularity follows corpus order, so heavy documents hold the same
    # ranks under every seed
    zipf = gen.Zipf([s.run_id for s in corpus], gen.ZIPF_S, rng)
    return Inputs(docs, train, publish_ids, stream, zipf)


def step_train_pipeline(ctx: Ctx, inputs: Inputs, sizes: Sizes, n: int) -> None:
    train_then_check(ctx, inputs)
    if (n + 1) % sizes.global_every == 0:
        op_query(ctx, None, gen.GLOBAL_QUERY)


def step_serve_read(ctx: Ctx, inputs: Inputs, sizes: Sizes, n: int) -> None:
    u = ctx.rng.random()
    if u < 0.45:
        op_get(ctx, inputs.zipf.pick())
    elif u < 0.90:
        op_query(ctx, inputs.zipf.pick(), ctx.rng.choice(gen.DOC_QUERIES))
    else:
        op_query(ctx, None, gen.GLOBAL_QUERY)


def side_runs_and_puts(ctx: Ctx, inputs: Inputs, sizes: Sizes) -> None:
    train_then_check(ctx, inputs)
    for _ in range(sizes.side_cycles):
        ingest_cycle(ctx, inputs.ingest)


#: workload -> (one step of its own mix, side work for the op kinds the mix
#: lacks).  Side work is spread over the whole window, not run as a block,
#: so its numbers average over the same stretch of machine time.
WORKLOADS: Dict[str, Tuple[Callable, Optional[Callable]]] = {
    "train_pipeline": (step_train_pipeline, None),
    "serve_read": (step_serve_read, side_runs_and_puts),
}


def run_loop(ctx: Ctx, inputs: Inputs, sizes: Sizes, seconds: float,
             step: Callable, side: Optional[Callable],
             phases: Tuple[str, str] = ("main", "side")) -> None:
    """Closed loop for *seconds*.

    A side unit runs after every ``sizes.side_every`` steps (at least two
    in all, so every kind has samples).  The op sequence is therefore fixed
    by the seed alone: how many writes fall between two service-wide
    queries, and so what the service's cache can answer, does not depend
    on how fast the tracker or the service runs.  The step's and the side
    units' samples are recorded under *phases*.
    """
    end = perf_counter() + seconds
    sides, n = 0, 0
    ctx.rec.phase = phases[0]

    def side_unit() -> None:
        ctx.rec.phase = phases[1]
        side(ctx, inputs, sizes)
        ctx.rec.phase = phases[0]

    while perf_counter() < end:
        step(ctx, inputs, sizes, n)
        n += 1
        if side is not None and n % sizes.side_every == 0:
            side_unit()
            sides += 1
    while side is not None and sides < 2:
        side_unit()
        sides += 1


# ----------------------------------------------------------------------
# one measured run
# ----------------------------------------------------------------------
def percentile(values: List[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


@dataclass
class Measured:
    """What one pass of a workload measured."""

    rec: Recorder
    e2e: Dict[str, float]
    window: Tuple[float, float]
    batch_docs_per_s: float
    server_wchar: int           # bytes the service wrote during the window
    notes: Dict[str, float]


def preload(url: str, docs: Dict[str, str]) -> None:
    with BatchClient(url, max_in_flight=1) as batch:
        for doc_id, text in docs.items():
            batch.publish(doc_id, text)
    report = batch.report
    if report.acked != len(docs) or report.rejected or report.spooled:
        raise RuntimeError(f"preload incomplete: {report.summary()}")


def measure(workload: str, seed: int, seconds: float, work: Path, sizes: Sizes,
            spans: Optional[Path] = None,
            on_window: Optional[Callable[[bool], None]] = None,
            transport: Optional[Callable] = None) -> Measured:
    """Set up, run *workload* for *seconds*, check every output.

    *spans* makes the service record spans there; *on_window* is called
    with True/False as the measured window opens and closes (the client
    tracer); *transport* replaces the client's HTTP transport (tests).
    """
    step, side = WORKLOADS[workload]
    t_inputs = perf_counter()
    inputs = make_inputs(workload, seed, sizes, work / "gen")
    gen_seconds = perf_counter() - t_inputs
    setup_times: List[float] = []
    server: Optional[Server] = None
    rec = Recorder(inputs.preload)
    try:
        for k in range(sizes.setups):
            if server is not None:
                # its root stays until the next run starts: a removal here
                # would load the disk just before the measured window
                server.stop()
            t_setup = perf_counter()
            server = Server(work / f"root{k}", spans)
            t_preload = perf_counter()
            preload(server.url, inputs.preload)
            preload_seconds = perf_counter() - t_preload
            setup_times.append(perf_counter() - t_setup)
        ctx = Ctx(ProvenanceClient(server.url, transport=transport), rec,
                  random.Random(seed ^ 0x5EED), work / "runs")
        wchar0 = server.wchar()
        # the inputs and set-up garbage are the harness's, not the tracker's:
        # keep them out of the collections that measured calls pay for
        gc.collect()
        gc.freeze()
        # the first seconds after set-up run slower (the disk is still busy
        # with it); their ops are checked but not measured
        run_loop(ctx, inputs, sizes, sizes.warmup_s, step, side,
                 phases=("warmup", "warmup"))
        if on_window:
            on_window(True)
        w0 = perf_counter()
        try:
            run_loop(ctx, inputs, sizes, seconds, step, side)
        finally:
            w1 = perf_counter()
            if on_window:
                on_window(False)
            gc.unfreeze()
        wchar = server.wchar() - wchar0
        client_rss = proc_field("/proc/self/status", "VmHWM") / 1024.0
        server_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    t_checks = perf_counter()
    verify(rec)
    check_seconds = perf_counter() - t_checks
    live_bytes = sum(len(t.encode("utf-8")) for t in rec.live.values())
    reads = [s for kind in ("get", "query", "global") for s in rec.values(kind)]
    e2e = {
        "setup_s": statistics.median(setup_times),
        "log_us_p50": statistics.median(rec.values("log")) * 1e6,
        "client_rss_mb": client_rss,
        "put_ms_p50": statistics.median(rec.values("put")) * 1e3,
        "store_bytes_per_doc_byte": tree_bytes(server.root) / live_bytes,
        "get_ms_p50": statistics.median(rec.values("get")) * 1e3,
        "query_ms_p50": statistics.median(rec.values("query")) * 1e3,
        "global_query_ms_p50": statistics.median(rec.values("global")) * 1e3,
        "read_ops_per_s": len(reads) / sum(reads),
        "server_rss_mb": server_rss,
    }
    return Measured(rec, e2e, (w0, w1), len(inputs.preload) / preload_seconds,
                    wchar, _notes(rec, gen_seconds, check_seconds))


def _notes(rec: Recorder, gen_seconds: float, check_seconds: float) -> Dict[str, float]:
    """Free per-layer numbers (from the query stats), the p90 tails, the
    tracked runs' times with the ``end_run`` drift markers (see README.md,
    "What carries no bound"), and the untimed phases' wall time."""
    ends = rec.values("end_run")
    notes = {
        "inputs_s": gen_seconds,
        "checks_s": check_seconds,
        "query.cache_hit_ratio": rec.cache_hits / max(1, rec.queries),
        "query.seed_rows_per_returned_row": rec.seed_rows / max(1, rec.returned_rows),
        "log_us_p90": percentile(rec.values("log"), 90) * 1e6,
        "put_ms_p90": percentile(rec.values("put"), 90) * 1e3,
        "get_ms_p90": percentile(rec.values("get"), 90) * 1e3,
        "query_ms_p90": percentile(rec.values("query"), 90) * 1e3,
        "end_run_ms_p50": statistics.median(ends) * 1e3,
        "run_s_p50": statistics.median(rec.values("run")),
    }
    if len(ends) >= 8:
        quarter = len(ends) // 4
        notes["end_run_ms_p50.first_quarter"] = statistics.median(ends[:quarter]) * 1e3
        notes["end_run_ms_p50.last_quarter"] = statistics.median(ends[-quarter:]) * 1e3
    return notes
