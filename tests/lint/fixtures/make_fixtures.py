"""Regenerate the known-bad golden corpus for the PL1xx graph rules.

Each fixture directory is a minimal run directory whose ``prov.json``
violates exactly one provenance rule (named by its directory prefix).
Disk-dependent rules (PL106-PL111: missing chunks, corrupt stores,
journals, spools) are exercised from temporary directories built by the
tests instead — their breakage cannot be represented as a checked-in file.

Run from the repository root to refresh the corpus::

    PYTHONPATH=src python tests/lint/fixtures/make_fixtures.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.prov.document import ProvDocument
from repro.workflow.journal import WorkflowJournal, workflow_journal_path

HERE = Path(__file__).resolve().parent

RUN = "ex:run/r1"
CTX = "ex:run/r1/ctx/TRAINING"


def base_doc() -> ProvDocument:
    """A minimal healthy skeleton: run activity + training context."""
    doc = ProvDocument()
    doc.add_namespace("ex", "http://example.org/exp#")
    doc.add_namespace("yprov4ml", "https://github.com/HPCI-Lab/yProvML#")
    doc.activity(RUN, attributes={
        "prov:type": "yprov4ml:RunExecution",
        "prov:label": "r1",
        "yprov4ml:status": "FINISHED",
        "yprov4ml:metric_format": "inline",
    })
    doc.activity(CTX, attributes={
        "prov:type": "yprov4ml:Context",
        "prov:label": "TRAINING",
    })
    doc.was_informed_by(CTX, RUN)
    return doc


def write(name: str, doc: ProvDocument | None, raw: str | None = None) -> None:
    """Write one fixture directory (``doc`` as prov.json, or ``raw`` text)."""
    target = HERE / name
    target.mkdir(parents=True, exist_ok=True)
    if doc is not None:
        doc.save(target / "prov.json")
    elif raw is not None:
        (target / "prov.json").write_text(raw, encoding="utf-8")


def main() -> None:
    """Build every graph-rule fixture."""
    # PL100a: a run directory with no provenance at all (placeholder file
    # only, so git can track the otherwise-empty directory)
    empty = HERE / "pl100_missing"
    empty.mkdir(parents=True, exist_ok=True)
    (empty / ".gitkeep").write_text("")

    # PL100b: prov.json that is not PROV-JSON
    write("pl100_unparseable", None, raw="this is not JSON {]")

    # PL100c: valid PROV-JSON but no RunExecution activity (the two
    # entities relate to each other so PL101 stays quiet)
    doc = ProvDocument()
    doc.add_namespace("ex", "http://example.org/exp#")
    doc.entity("ex:left", {"prov:label": "no run here"})
    doc.entity("ex:right", {"prov:label": "still no run"})
    doc.was_derived_from("ex:left", "ex:right")
    write("pl100_no_run", doc)

    # PL101: an entity participating in no relation
    doc = base_doc()
    doc.entity("ex:orphan", {"prov:label": "unconnected"})
    write("pl101_orphan", doc)

    # PL102: a non-input Artifact with no wasGeneratedBy
    doc = base_doc()
    doc.entity("ex:artifact/model.bin", {
        "prov:type": "yprov4ml:Artifact",
        "prov:label": "model.bin",
        "yprov4ml:is_input": False,
    })
    doc.had_member(RUN, "ex:artifact/model.bin")  # connected, so PL101 stays quiet
    write("pl102_no_generation", doc)

    # PL103a: a Metric with no yprov4ml:context attribute
    doc = base_doc()
    doc.entity("ex:metric/loss@TRAINING", {
        "prov:type": "yprov4ml:Metric",
        "prov:label": "loss",
    })
    doc.was_generated_by("ex:metric/loss@TRAINING", CTX)
    write("pl103_no_context", doc)

    # PL103b: a Metric anchored to the run instead of its Context activity
    doc = base_doc()
    doc.entity("ex:metric/loss@TRAINING", {
        "prov:type": "yprov4ml:Metric",
        "prov:label": "loss",
        "yprov4ml:context": "TRAINING",
    })
    doc.was_generated_by("ex:metric/loss@TRAINING", RUN)
    write("pl103_bad_anchor", doc)

    # PL104: a wasDerivedFrom cycle
    doc = base_doc()
    for name in ("a", "b"):
        doc.entity(f"ex:artifact/{name}", {
            "prov:type": "yprov4ml:Artifact",
            "prov:label": name,
            "yprov4ml:is_input": True,
        })
        doc.used(RUN, f"ex:artifact/{name}")
    doc.was_derived_from("ex:artifact/a", "ex:artifact/b")
    doc.was_derived_from("ex:artifact/b", "ex:artifact/a")
    write("pl104_cycle", doc)

    # PL105a: a MetricStore whose path does not exist on disk
    doc = base_doc()
    doc.entity("ex:metric_store", {
        "prov:type": "yprov4ml:MetricStore",
        "yprov4ml:format": "zarrlike",
        "yprov4ml:path": "metrics.zarr",
    })
    doc.was_generated_by("ex:metric_store", RUN)
    write("pl105_dangling_path", doc)

    # PL105b: a Metric stored_in an undeclared entity
    doc = base_doc()
    doc.entity("ex:metric/loss@TRAINING", {
        "prov:type": "yprov4ml:Metric",
        "prov:label": "loss",
        "yprov4ml:context": "TRAINING",
        "yprov4ml:series": "loss@TRAINING",
        "yprov4ml:stored_in": "ex:ghost_store",
    })
    doc.was_generated_by("ex:metric/loss@TRAINING", CTX)
    write("pl105_ghost_store", doc)

    # PL112: a workflow state directory whose journal's last segment never
    # reached wf_end — the run was interrupted mid-attempt and never resumed.
    # Fixed timestamps / pid / run_id keep the checked-in bytes stable.
    target = HERE / "pl112_interrupted_wf"
    target.mkdir(parents=True, exist_ok=True)
    wal = workflow_journal_path(target)
    if wal.exists():
        wal.unlink()
    with WorkflowJournal(wal, fsync=False) as journal:
        journal.append("wf_start", {
            "workflow": "demo_pipeline", "run_id": "fixture", "pid": 4242,
            "t": 0.0,
            "tasks": {"a": {"deps": [], "retries": 0, "timeout_s": None},
                      "b": {"deps": ["a"], "retries": 0, "timeout_s": None}},
        })
        journal.append("attempt_start", {"task": "a", "attempt": 1, "t": 1.0})
        journal.append("attempt_end", {"task": "a", "attempt": 1, "t": 2.0,
                                       "outcome": "succeeded"})
        journal.append("task_result", {"task": "a", "state": "succeeded",
                                       "start_time": 1.0, "end_time": 2.0,
                                       "attempts": 1, "outputs": {"x": 1}})
        journal.append("attempt_start", {"task": "b", "attempt": 1, "t": 3.0})
        # no attempt_end for b and no wf_end: the process died right here

    # PL113 / PL114: two-shard cluster manifests with relative roots (the
    # cluster rules resolve them against the manifest, so the whole
    # deployment footprint can be checked in).  Replica copies are plain
    # bytes to the rules — tiny JSON stubs keep the fixtures readable.
    good = json.dumps({"doc": "same bytes everywhere"}) + "\n"
    stale = json.dumps({"doc": "older write, never repaired"}) + "\n"

    # PL113: doc-solo holds 1 of 2 copies
    target = HERE / "pl113_under_replicated"
    for shard in ("shard-0", "shard-1"):
        (target / shard).mkdir(parents=True, exist_ok=True)
    (target / "shard-0" / "doc-solo.provjson").write_text(good)
    (target / "shard-0" / "doc-fine.provjson").write_text(good)
    (target / "shard-1" / "doc-fine.provjson").write_text(good)
    (target / "cluster.json").write_text(json.dumps({
        "version": 1, "replication": 1,
        "shards": [{"id": "shard-0", "url": None, "root": "shard-0"},
                   {"id": "shard-1", "url": None, "root": "shard-1"}],
    }, indent=2, sort_keys=True) + "\n")

    # PL114: doc-split's two copies disagree on content
    target = HERE / "pl114_diverged"
    for shard in ("shard-0", "shard-1"):
        (target / shard).mkdir(parents=True, exist_ok=True)
    (target / "shard-0" / "doc-split.provjson").write_text(good)
    (target / "shard-1" / "doc-split.provjson").write_text(stale)
    (target / "shard-0" / "doc-fine.provjson").write_text(good)
    (target / "shard-1" / "doc-fine.provjson").write_text(good)
    (target / "cluster.json").write_text(json.dumps({
        "version": 1, "replication": 1,
        "shards": [{"id": "shard-0", "url": None, "root": "shard-0"},
                   {"id": "shard-1", "url": None, "root": "shard-1"}],
    }, indent=2, sort_keys=True) + "\n")

    # PL115a: a segment-store shard whose sealed WALs were never compacted.
    # Built with the real SegmentStore so the WAL bytes are the genuine
    # wire format; seq numbering and texts are fixed, so the checked-in
    # bytes are stable across regenerations.
    import shutil

    from repro.yprov.segments import STORE_DIR, SegmentStore

    prov_text = good  # replica content doubles as stored document text

    target = HERE / "pl115_uncompacted"
    store_dir = target / "shard-0" / STORE_DIR
    if store_dir.exists():
        shutil.rmtree(store_dir)
    store = SegmentStore(store_dir, fsync=False)
    for n in range(3):
        store.put(f"doc-{n}", prov_text, sync=False)
        store.seal()  # sealed, compaction-eligible, never compacted
    store.put("doc-live", prov_text, sync=False)  # active WAL, exempt
    store.close()
    (target / "cluster.json").write_text(json.dumps({
        "version": 1, "replication": 0,
        "shards": [{"id": "shard-0", "url": None, "root": "shard-0"}],
    }, indent=2, sort_keys=True) + "\n")

    # PL115b: a segment whose footer index disagrees with its records.
    # A genuine compaction builds the segment, then the footer is
    # re-written with one document's content hash corrupted — the record
    # bytes, record crcs and footer crc all still verify, so only the
    # index-vs-records cross-check (Segment.verify) can catch it.
    from repro.wal import decode_record, encode_record
    from repro.yprov.segments import TRAILER_LEN

    target = HERE / "pl115_bad_footer"
    store_dir = target / "shard-0" / STORE_DIR
    if store_dir.exists():
        shutil.rmtree(store_dir)
    store = SegmentStore(store_dir, fsync=False)
    for n in range(2):
        store.put(f"doc-{n}", prov_text, sync=False)
    store.compact()
    store.close()
    seg_path = sorted(store_dir.glob("seg-*.seg"))[-1]
    blob = seg_path.read_bytes()
    footer_offset = int(blob[-TRAILER_LEN:].split()[0][1:], 16)
    footer = decode_record(blob[footer_offset:-TRAILER_LEN])
    sha = footer["docs"]["doc-0"][2]
    footer["docs"]["doc-0"][2] = sha[:-4] + ("beef" if sha[-4:] != "beef"
                                             else "dead")
    doctored = blob[:footer_offset] + encode_record(footer)
    seg_path.write_bytes(
        doctored + b"@%016x yprov-seg-v1\n" % footer_offset
    )
    (target / "cluster.json").write_text(json.dumps({
        "version": 1, "replication": 0,
        "shards": [{"id": "shard-0", "url": None, "root": "shard-0"}],
    }, indent=2, sort_keys=True) + "\n")

    # PL116-PL118: fleet roots built with the real FleetQueue so the WAL
    # bytes are the genuine wire format.  A fixed clock and explicit job
    # ids keep the checked-in bytes stable across regenerations; the
    # fleet lint tests pass a matching fixed `now`.
    from repro.fleet.queue import FleetQueue

    class _FixedClock:
        """Deterministic fixture clock starting at t=1000."""

        def __init__(self):
            self.now = 1000.0

        def __call__(self):
            return self.now

    # PL116: a leased job whose lease expired long ago, never reclaimed
    target = HERE / "pl116_stuck_lease"
    if target.exists():
        shutil.rmtree(target)
    clock = _FixedClock()
    with FleetQueue(target, clock=clock, fsync=False,
                    lease_duration_s=10.0) as queue:
        queue.submit({"n": 1}, tenant="t", job_id="job-stuck")
        queue.lease("w-vanished")
        # the fleet dies here: nothing ever reclaims the expired lease

    # PL117: a jobs/<id> state dir with no queue record
    target = HERE / "pl117_orphan_dir"
    if target.exists():
        shutil.rmtree(target)
    clock = _FixedClock()
    with FleetQueue(target, clock=clock, fsync=False) as queue:
        queue.submit({"n": 1}, tenant="t", job_id="job-live")
    live_dir = target / "jobs" / "job-live"
    live_dir.mkdir(parents=True)
    (live_dir / ".gitkeep").write_text("", encoding="utf-8")
    orphan = target / "jobs" / "job-ghost"
    orphan.mkdir(parents=True)
    (orphan / "workflow.wal").write_text("", encoding="utf-8")

    # PL118: a dead-lettered job nobody triaged
    target = HERE / "pl118_stale_dlq"
    if target.exists():
        shutil.rmtree(target)
    clock = _FixedClock()
    with FleetQueue(target, clock=clock, fsync=False, lease_duration_s=10.0,
                    max_attempts=1) as queue:
        queue.submit({"n": 1}, tenant="t", job_id="job-poison")
        lease = queue.lease("w1")
        queue.fail(lease.job_id, "w1", lease.attempt, "boom")

    # healthy fleet: one done job with its state dir still present
    target = HERE / "fleet_clean"
    if target.exists():
        shutil.rmtree(target)
    clock = _FixedClock()
    with FleetQueue(target, clock=clock, fsync=False,
                    lease_duration_s=10.0) as queue:
        queue.submit({"n": 1}, tenant="t", job_id="job-fine")
        lease = queue.lease("w1")
        queue.complete(lease.job_id, "w1", lease.attempt, result={"ok": 1})
    fine_dir = target / "jobs" / "job-fine"
    fine_dir.mkdir(parents=True)
    (fine_dir / ".gitkeep").write_text("", encoding="utf-8")

    print(f"fixtures written under {HERE}")


if __name__ == "__main__":
    main()
