"""Anti-entropy convergence driver (CI ``anti-entropy`` job).

Seeds real divergence *behind the cluster's back* and proves one sweep
heals all of it.  Three ``yprov serve`` shard subprocesses behind a
``yprov cluster route`` subprocess, replication 1 (two copies per doc):

1. publishes a document set through the router, then stops every
   process so the copies exist only on disk;
2. damages three documents out-of-band, one per failure mode:
   a replica copy *deleted* (under-replication), a replica copy
   *bit-rotted* under its stale checksum sidecar (corruption), and a
   replica copy *forked* to different valid bytes with a matching
   sidecar (divergence a checksum cannot catch);
3. audits the damage offline: ``yprov lint --cluster`` must flag PL113
   for the deleted copy and PL114 for both byte-level divergences;
4. restarts the cluster — the bit-rotted copy must be quarantined at
   ingest, never served — and runs ``yprov cluster sweep``: every
   damaged copy is re-replicated from its healthy peer;
5. audits convergence: a second sweep and a scrub both come back clean,
   the offline lint passes, every restored copy is byte-identical to
   its healthy replica, and the rotted bytes are preserved in the
   shard's quarantine for forensics.

Exit 0 = all invariants held; the sweep report and lint findings are
written to ``sweep_stats.json`` in the workdir for the CI artifact.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.yprov.client import ProvenanceClient
from repro.yprov.cluster import HashRing, write_manifest

from cluster_chaos_driver import RouterProc, Shard, doc_text, log

N_DOCS = 10
N_SHARDS = 3


def run_cli(*argv):
    """Run a ``yprov`` CLI verb; return (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.yprov.cli", *argv],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout


def fork_copy(root, doc_id, text):
    """Overwrite one stored copy with *text* and a matching sidecar."""
    (root / f"{doc_id}.provjson").write_text(text)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    (root / f"{doc_id}.provjson.sum").write_text(digest + "\n")


def main():
    # absolute, so the manifest's shard roots do not resolve twice
    # against the manifest's own (relative) directory
    workdir = Path(sys.argv[1] if len(sys.argv) > 1
                   else tempfile.mkdtemp(prefix="anti-entropy-")).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    log(f"workdir: {workdir}")

    shards = [Shard(f"shard-{i}", workdir / f"shard-{i}").start()
              for i in range(N_SHARDS)]
    by_id = {s.shard_id: s for s in shards}
    router = RouterProc(workdir / "router", shards).start()
    stats = {}
    try:
        # -- publish, then take the whole cluster down ------------------
        client = ProvenanceClient(router.url, timeout_s=5.0, retries=2)
        for i in range(N_DOCS):
            client.put_document(f"doc-{i}", doc_text(i))
        manifest = workdir / "cluster.json"
        write_manifest(manifest, replication=1, shards=[
            {"id": s.shard_id, "url": s.url, "root": str(s.root)}
            for s in shards
        ])
        router.stop()
        for shard in shards:
            shard.stop()
        log(f"published {N_DOCS} docs, cluster stopped; seeding damage")

        # -- seed one instance of each failure mode on disk -------------
        # damage the *second* copy in each preference walk so the
        # first-holder tiebreak never elects the damaged bytes
        ring = HashRing([s.shard_id for s in shards])

        def second_holder(doc_id):
            return by_id[ring.preference(doc_id, 2)[1]].root

        deleted_root = second_holder("doc-0")
        (deleted_root / "doc-0.provjson").unlink()
        (deleted_root / "doc-0.provjson.sum").unlink()

        rotted_root = second_holder("doc-1")
        stored = rotted_root / "doc-1.provjson"
        raw = stored.read_bytes()
        stored.write_bytes(raw[:-4] + b"rot}")  # sidecar now stale

        forked_root = second_holder("doc-2")
        fork_copy(forked_root, "doc-2", doc_text(777))  # valid, different
        log(f"damage: deleted copy on {deleted_root.name}, rotted copy on "
            f"{rotted_root.name}, forked copy on {forked_root.name}")

        # -- offline audit must see all three --------------------------
        code, out = run_cli("lint", "--cluster", str(manifest),
                            "--format", "json")
        assert code != 0, "lint missed the seeded damage entirely"
        findings = json.loads(out)["findings"]
        fired = {(f["rule_id"], f["element"]) for f in findings}
        assert ("PL113", "doc-0") in fired, f"deleted copy not flagged: {fired}"
        assert ("PL114", "doc-1") in fired, f"rotted copy not flagged: {fired}"
        assert ("PL114", "doc-2") in fired, f"forked copy not flagged: {fired}"
        stats["pre_sweep_lint"] = sorted(f"{r}:{e}" for r, e in fired)
        log(f"pre-sweep lint flagged the damage: {stats['pre_sweep_lint']}")

        # -- restart: bit-rot must be quarantined, not served -----------
        for shard in shards:
            shard.start()
        router.start()
        rot_health = ProvenanceClient(
            by_id[rotted_root.name].url, retries=2
        ).health()
        assert rot_health["quarantined_total"] == 1, \
            f"rotted copy not quarantined at ingest: {rot_health}"
        quarantined = list((rotted_root / "quarantine").glob("doc-1.provjson"))
        assert quarantined and quarantined[0].read_bytes() == raw[:-4] + b"rot}", \
            "rotted bytes not preserved for forensics"
        log("restart: rotted copy quarantined at ingest, bytes preserved")

        # -- one sweep converges everything -----------------------------
        code, out = run_cli("cluster", "sweep", "--url", router.url,
                            "--format", "json")
        report = json.loads(out)
        stats["sweep"] = report
        assert code == 1, f"first sweep claimed a clean cluster: {report}"
        # deleted + quarantined copies read as missing; the fork diverges
        assert report["missing"] == 2, f"expected 2 missing: {report}"
        assert report["divergent"] == 1, f"expected 1 divergent: {report}"
        assert report["repaired"] == 3, f"expected 3 repairs: {report}"
        assert report["failed_shards"] == [], f"shards unreachable: {report}"
        log(f"sweep: missing={report['missing']} divergent="
            f"{report['divergent']} repaired={report['repaired']}")

        # -- converged: sweep, scrub, and offline lint all clean --------
        code, out = run_cli("cluster", "sweep", "--url", router.url,
                            "--format", "json")
        second = json.loads(out)
        stats["second_sweep"] = second
        assert code == 0 and second["clean"], \
            f"cluster did not converge after one sweep: {second}"
        code, out = run_cli("cluster", "scrub", "--url", router.url)
        print(out, end="", flush=True)
        assert code == 0, "scrub found damage after convergence"
        code, out = run_cli("lint", "--cluster", str(manifest))
        print(out, end="", flush=True)
        assert code == 0, f"post-sweep lint still dirty:\n{out}"

        # every healed copy is byte-identical to its healthy replica
        for doc_id, victim_root in (("doc-0", deleted_root),
                                    ("doc-1", rotted_root),
                                    ("doc-2", forked_root)):
            healthy = by_id[ring.preference(doc_id, 2)[0]]
            restored = (victim_root / f"{doc_id}.provjson").read_bytes()
            original = (healthy.root / f"{doc_id}.provjson").read_bytes()
            assert restored == original, f"healed copy diverges: {doc_id}"
        log("PASS: one sweep healed deletion, bit-rot, and divergence; "
            "lint clean, quarantine preserved")
        return 0
    finally:
        (workdir / "sweep_stats.json").write_text(
            json.dumps(stats, indent=2, sort_keys=True) + "\n"
        )
        router.stop()
        for shard in shards:
            shard.stop()


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        log(f"FAIL: {exc}")
        sys.exit(1)
