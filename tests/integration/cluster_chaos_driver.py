"""SIGKILL chaos driver for the sharded cluster (CI ``cluster-chaos`` job).

Real processes, real sockets, real ``kill -9``: three ``yprov serve``
shard subprocesses with on-disk roots behind an in-process
:class:`~repro.yprov.cluster.router.ClusterRouter`, replication 1.  The
script then:

1. publishes a document set and records every *acked* write;
2. SIGKILLs one shard while scatter-gather queries are in flight —
   every query must return rows byte-identical to the healthy baseline
   or raise a clean typed error, and once the failure detector settles
   every query must be exact via replicas;
3. restarts the victim (its state reloads from disk), waits for repair
   to drain, then SIGKILLs a *different* shard while writes are in
   flight — acked writes must still reach a live quorum;
4. audits: every acked document is readable byte-identical through the
   router, and after the second victim heals the cluster manifest passes
   ``repro.lint`` PL113 (no under-replicated documents);
5. phase C — swaps the in-process router for a ``yprov cluster route``
   *subprocess* with a durable repair journal, SIGKILLs it mid-write,
   restarts it on the same port and state dir, and audits that every
   write the dead router acked is still readable byte-identical;
6. phase D — SIGKILLs a shard so hinted-handoff repairs queue (journaled
   before each ack), SIGKILLs the router with those repairs pending,
   restarts shard and router, and audits that the journal replayed the
   exact pending set; one anti-entropy sweep then restores every copy
   and ``yprov lint --cluster`` (PL113 + PL114) passes clean.

Exit 0 = all invariants held.  Any violation prints the failure and
exits 1; CI uploads the shard roots (journals included) as artifacts.
"""

import json
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.errors import (
    ClusterError,
    PartialResultError,
    QuorumError,
    ReproError,
    TransportError,
)
from repro.yprov.client import ProvenanceClient
from repro.yprov.cluster import (
    ClusterRouter,
    DEAD,
    Heartbeater,
    RouterConfig,
    ShardInfo,
    write_manifest,
)

N_DOCS = 12
N_SHARDS = 3
QUERIES = [
    "MATCH entity RETURN id, label",
    "MATCH entity WHERE label ~ 'artifact' RETURN id, doc",
    "MATCH entity RETURN id, doc LIMIT 6",
]
_URL_RE = re.compile(r"https?://\S+/api/v0")


def log(msg):
    print(f"[driver] {msg}", flush=True)


def doc_text(i):
    return json.dumps({
        "prefix": {"ex": "http://example.org/"},
        "entity": {f"ex:artifact{i}": {"prov:label": f"artifact {i}"}},
    })


class Shard:
    """One ``yprov serve`` subprocess with a persistent disk root."""

    def __init__(self, shard_id, root):
        self.shard_id = shard_id
        self.root = Path(root)
        self.url = None
        self.port = 0  # ephemeral on first boot, pinned on restart
        self.proc = None

    def start(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.yprov.cli",
             "--root", str(self.root), "serve",
             "--port", str(self.port), "--shard-id", self.shard_id],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        line = self.proc.stdout.readline()
        match = _URL_RE.search(line)
        if not match:
            raise RuntimeError(
                f"{self.shard_id} failed to announce a URL: {line!r}"
            )
        self.url = match.group(0)
        self.port = int(self.url.split(":")[2].split("/")[0])
        log(f"{self.shard_id} listening on {self.url} (pid {self.proc.pid})")
        return self

    def sigkill(self):
        log(f"SIGKILL -> {self.shard_id} (pid {self.proc.pid})")
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def stop(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()


class RouterProc:
    """A ``yprov cluster route`` subprocess with a durable state dir."""

    def __init__(self, state_dir, shards):
        self.state_dir = Path(state_dir)
        self.shards = shards
        self.url = None
        self.port = 0  # ephemeral on first boot, pinned on restart
        self.proc = None
        self.replayed = 0

    def start(self):
        cmd = [sys.executable, "-m", "repro.yprov.cli", "cluster", "route",
               "--state-dir", str(self.state_dir),
               "--replication", "1", "--port", str(self.port),
               "--heartbeat-interval", "0.2"]
        for shard in self.shards:
            cmd += ["--shard", f"{shard.shard_id}={shard.url}"]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        line = self.proc.stdout.readline()
        match = _URL_RE.search(line)
        if not match:
            raise RuntimeError(f"router failed to announce a URL: {line!r}")
        self.url = match.group(0)
        self.port = int(self.url.split(":")[2].split("/")[0])
        replayed = re.search(r"(\d+) repairs replayed", line)
        self.replayed = int(replayed.group(1)) if replayed else 0
        log(f"router listening on {self.url} (pid {self.proc.pid}, "
            f"{self.replayed} repairs replayed)")
        return self

    def sigkill(self):
        log(f"SIGKILL -> router (pid {self.proc.pid})")
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def stop(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()


def settle(beat, detector, shard_id, state, timeout_s=30.0):
    """Wait until *shard_id* reaches *state* (heartbeater runs in back)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if detector.state(shard_id) == state:
            return
        time.sleep(0.1)
    raise AssertionError(
        f"{shard_id} never became {state}: {detector.states()}"
    )


def wait_repaired(router, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if router.replication_lag == 0:
            return
        time.sleep(0.1)
    raise AssertionError(
        f"repair queue never drained: {router.pending_repairs()}"
    )


def main():
    # absolute, so the manifest's shard roots do not resolve twice
    # against the manifest's own (relative) directory
    workdir = Path(sys.argv[1] if len(sys.argv) > 1
                   else tempfile.mkdtemp(prefix="cluster-chaos-")).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    log(f"workdir: {workdir}")

    shards = [Shard(f"shard-{i}", workdir / f"shard-{i}").start()
              for i in range(N_SHARDS)]
    by_id = {s.shard_id: s for s in shards}
    config = RouterConfig(replication=1, request_timeout_s=2.0,
                          probe_timeout_s=0.5, suspect_after=1, dead_after=2)
    router = ClusterRouter(
        [ShardInfo(s.shard_id, s.url) for s in shards], config=config
    )
    beat = Heartbeater(router.detector, interval_s=0.2,
                       on_change=router.on_membership_change).start()

    acked = {}
    router_proc = None
    try:
        # -- load + healthy baseline ------------------------------------
        for i in range(N_DOCS):
            doc_id = f"doc-{i}"
            router.put_document(doc_id, doc_text(i))
            acked[doc_id] = doc_text(i)
        baseline = {q: router.query(None, q).rows for q in QUERIES}
        for query, rows in baseline.items():
            assert rows, f"empty healthy baseline for: {query}"
        log(f"published {N_DOCS} docs; baseline rows: "
            f"{[len(r) for r in baseline.values()]}")

        # -- phase A: SIGKILL mid scatter-gather ------------------------
        victim_a = by_id["shard-1"]
        results = []

        def hammer():
            for _ in range(40):
                for query in QUERIES:
                    try:
                        results.append((query, router.query(None, query).rows))
                    except (PartialResultError, ClusterError,
                            TransportError):
                        results.append((query, None))

        thread = threading.Thread(target=hammer)
        thread.start()
        time.sleep(0.2)  # let queries start flowing first
        victim_a.sigkill()
        thread.join(timeout=300)
        assert not thread.is_alive(), "query hammer wedged"
        exact = sum(1 for _, rows in results if rows is not None)
        for query, rows in results:
            if rows is not None:
                assert rows == baseline[query], \
                    f"silently short answer during kill: {query}"
        log(f"phase A: {exact}/{len(results)} queries exact during the kill, "
            f"rest errored cleanly")
        assert exact > 0, "no query survived the kill window"

        settle(beat, router.detector, victim_a.shard_id, DEAD)
        for query in QUERIES:
            result = router.query(None, query)
            assert result.rows == baseline[query], \
                f"replica answer diverged after settle: {query}"
            assert result.stats["failed_shards"] == [victim_a.shard_id]
        log("phase A: post-settle scatter-gather byte-identical via replicas")

        # -- heal, then phase B: SIGKILL mid-write ----------------------
        victim_a.start()  # same port, same disk root
        settle(beat, router.detector, victim_a.shard_id, "alive")
        wait_repaired(router)
        log("phase A victim healed; repair queue drained")

        victim_b = by_id["shard-2"]
        write_errors = []

        def writer(offset):
            for i in range(offset, N_DOCS * 2, 2):
                doc_id = f"w-{i}"
                try:
                    router.put_document(doc_id, doc_text(100 + i))
                    acked[doc_id] = doc_text(100 + i)
                except (QuorumError, ClusterError, TransportError):
                    write_errors.append(doc_id)

        threads = [threading.Thread(target=writer, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        time.sleep(0.1)
        victim_b.sigkill()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive(), "writer wedged"
        log(f"phase B: {len(acked) - N_DOCS} writes acked, "
            f"{len(write_errors)} errored during the kill")

        # -- audit: zero acked-doc loss ---------------------------------
        settle(beat, router.detector, victim_b.shard_id, DEAD)
        for doc_id, text in sorted(acked.items()):
            got = router.get_document_text(doc_id)
            assert json.loads(got) == json.loads(text), \
                f"acked document lost or corrupted: {doc_id}"
        log(f"audit: all {len(acked)} acked documents readable, "
            f"byte-identical")

        # -- heal victim B; the manifest must pass the PL113 audit ------
        victim_b.start()
        settle(beat, router.detector, victim_b.shard_id, "alive")
        wait_repaired(router)
        manifest = workdir / "cluster.json"
        write_manifest(manifest, replication=1, shards=[
            {"id": s.shard_id, "url": s.url, "root": str(s.root)}
            for s in shards
        ])
        lint = subprocess.run(
            [sys.executable, "-m", "repro.yprov.cli", "lint",
             "--cluster", str(manifest)],
            capture_output=True, text=True,
        )
        print(lint.stdout, end="", flush=True)
        assert lint.returncode == 0, \
            f"PL113 found under-replicated documents:\n{lint.stdout}"
        log("phases A/B passed: zero acked-doc loss, exact scatter-gather, "
            "full replication restored")

        # -- phase C: SIGKILL *the router* mid-write --------------------
        # The in-process router retires; a `yprov cluster route`
        # subprocess with a durable repair journal fronts the same shards.
        beat.stop()
        router.close()
        router_proc = RouterProc(workdir / "router", shards).start()

        kill_errors = []

        def router_writer(offset):
            client = ProvenanceClient(router_proc.url, timeout_s=2.0,
                                      retries=0)
            for i in range(offset, N_DOCS * 2, 2):
                doc_id = f"r-{i}"
                try:
                    client.put_document(doc_id, doc_text(200 + i))
                    acked[doc_id] = doc_text(200 + i)
                except (ReproError, OSError):
                    kill_errors.append(doc_id)

        threads = [threading.Thread(target=router_writer, args=(k,))
                   for k in (0, 1)]
        for t in threads:
            t.start()
        time.sleep(0.1)
        router_proc.sigkill()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive(), "router writer wedged"
        log(f"phase C: {len(kill_errors)} writes errored at the kill; "
            f"{len(acked)} total acked so far")

        router_proc.start()  # same port, same state dir
        client = ProvenanceClient(router_proc.url, timeout_s=5.0, retries=2)
        for doc_id, text in sorted(acked.items()):
            got = client.get_document_text(doc_id)
            assert json.loads(got) == json.loads(text), \
                f"doc acked by the dead router lost: {doc_id}"
        log(f"phase C: all {len(acked)} acked documents readable through "
            f"the restarted router")

        # -- phase D: SIGKILL the router mid-repair ---------------------
        # Kill a shard so hinted handoff queues journaled repairs, then
        # kill the router while they are still pending.
        victim_d = by_id["shard-0"]
        victim_d.sigkill()
        for i in range(N_DOCS):
            doc_id = f"h-{i}"
            try:
                client.put_document(doc_id, doc_text(300 + i))
            except ReproError:
                continue  # quorum unreachable for this placement: not acked
            acked[doc_id] = doc_text(300 + i)
        pending = client.cluster_repairs()["pending"]
        assert pending, "no hinted-handoff repairs queued against the victim"
        assert all(shard == victim_d.shard_id for _, shard in pending), \
            f"repairs queued against live shards: {pending}"
        log(f"phase D: {len(pending)} journaled repair(s) pending; "
            f"killing the router now")
        router_proc.sigkill()

        victim_d.start()
        router_proc.start()
        assert router_proc.replayed == len(pending), \
            f"journal replayed {router_proc.replayed} repairs, " \
            f"expected {len(pending)}"
        replayed = client.cluster_repairs()["pending"]
        assert sorted(map(tuple, replayed)) == sorted(map(tuple, pending)), \
            f"replayed set diverged: {replayed} != {pending}"
        log(f"phase D: restarted router replayed all "
            f"{router_proc.replayed} pending repairs from the journal")

        # one sweep restores every copy (and drains the replayed queue) ...
        sweep = subprocess.run(
            [sys.executable, "-m", "repro.yprov.cli", "cluster", "sweep",
             "--url", router_proc.url],
            capture_output=True, text=True,
        )
        print(sweep.stdout, end="", flush=True)
        assert client.cluster_repairs()["pending"] == [], \
            "repair queue not drained by the sweep"
        for doc_id, text in sorted(acked.items()):
            got = client.get_document_text(doc_id)
            assert json.loads(got) == json.loads(text), \
                f"acked document lost after router chaos: {doc_id}"

        # ... after which the offline audit must come up clean
        lint = subprocess.run(
            [sys.executable, "-m", "repro.yprov.cli", "lint",
             "--cluster", str(manifest)],
            capture_output=True, text=True,
        )
        print(lint.stdout, end="", flush=True)
        assert lint.returncode == 0, \
            f"PL113/PL114 dirty after the sweep:\n{lint.stdout}"
        log("PASS: router SIGKILL chaos — zero acked-doc loss, journal "
            "replay exact, cluster lint clean after one sweep")
        return 0
    finally:
        beat.stop()
        if router_proc is not None:
            router_proc.stop()
        for shard in shards:
            shard.stop()


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        log(f"FAIL: {exc}")
        sys.exit(1)
