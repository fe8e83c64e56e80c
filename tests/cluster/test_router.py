"""Router tests: quorum writes, failover reads, repair, scatter-gather.

These run a real :class:`~repro.yprov.cluster.local.LocalCluster` — real
HTTP servers on ephemeral ports — because the router's whole job is
coordinating network calls.  Failure detection is driven deterministically
through ``cluster.heartbeater.tick()`` (the background thread stays off).
"""

import json

import pytest

from repro.errors import (
    ClusterError,
    DocumentNotFoundError,
    PartialResultError,
    QuorumError,
    ServiceError,
    ShardDepartedError,
)
from repro.yprov.client import ProvenanceClient
from repro.yprov.cluster import DEAD, LocalCluster
from repro.yprov.service import ProvenanceService

N_DOCS = 10


def _doc_text(i: int) -> str:
    return json.dumps({
        "prefix": {"ex": "http://example.org/"},
        "entity": {
            f"ex:artifact{i}": {"prov:label": f"artifact {i}"},
            f"ex:model{i}": {"prov:label": f"model {i}"},
        },
        "activity": {f"ex:train{i}": {"prov:label": f"train {i}"}},
        "wasGeneratedBy": {
            f"_:g{i}": {"prov:entity": f"ex:model{i}",
                        "prov:activity": f"ex:train{i}"},
        },
    })


@pytest.fixture()
def cluster():
    with LocalCluster(n_shards=3, replication=1) as c:
        yield c


def _load(router, n=N_DOCS):
    for i in range(n):
        router.put_document(f"doc-{i}", _doc_text(i))


def _mark_dead(cluster, *shard_ids):
    for shard_id in shard_ids:
        for _ in range(cluster.router.config.dead_after):
            cluster.router.detector.record_failure(shard_id)


class TestReplicatedWrites:
    def test_every_document_lands_on_n_copies_shards(self, cluster):
        _load(cluster.router)
        for i in range(N_DOCS):
            holders = [
                sid for sid, svc in cluster.services.items()
                if f"doc-{i}" in svc.list_documents()
            ]
            assert len(holders) == cluster.router.config.n_copies

    def test_copies_follow_the_ring_preference(self, cluster):
        _load(cluster.router)
        for i in range(N_DOCS):
            doc_id = f"doc-{i}"
            preferred = cluster.router.ring.preference(doc_id, 2)
            for shard_id in preferred:
                assert doc_id in cluster.services[shard_id].list_documents()

    def test_write_skips_dead_shard_and_queues_repair(self, cluster):
        doc_id = "handoff-doc"
        victim = cluster.router.ring.primary(doc_id)
        cluster.kill_shard(victim)
        _mark_dead(cluster, victim)
        cluster.router.put_document(doc_id, _doc_text(0))
        # the write still reached n_copies *live* shards (sloppy quorum)
        holders = [
            sid for sid, svc in cluster.services.items()
            if sid != victim and doc_id in svc.list_documents()
        ]
        assert len(holders) == 2
        assert (doc_id, victim) in cluster.router.pending_repairs()
        assert cluster.router.replication_lag == 1

    def test_repair_restores_the_preferred_copy(self, cluster):
        doc_id = "healed-doc"
        victim = cluster.router.ring.primary(doc_id)
        cluster.kill_shard(victim)
        _mark_dead(cluster, victim)
        cluster.router.put_document(doc_id, _doc_text(1))
        cluster.restart_shard(victim)
        cluster.heartbeater.tick()  # detector sees it alive -> repairs run
        assert cluster.router.replication_lag == 0
        assert doc_id in cluster.services[victim].list_documents()

    def test_quorum_failure_raises_not_acks(self, cluster):
        cluster.kill_shard("shard-0")
        cluster.kill_shard("shard-1")
        _mark_dead(cluster, "shard-0", "shard-1")
        with pytest.raises(QuorumError) as err:
            cluster.router.put_document("lost-doc", _doc_text(2))
        assert err.value.acked == 1
        assert err.value.needed == 2

    def test_invalid_document_propagates_immediately(self, cluster):
        with pytest.raises(ServiceError):
            cluster.router.put_document("bad", "this is not json")


class TestReadsAndDeletes:
    def test_read_fails_over_to_the_replica(self, cluster):
        _load(cluster.router, 4)
        cluster.kill_shard("shard-0")
        _mark_dead(cluster, "shard-0")
        for i in range(4):
            text = cluster.router.get_document_text(f"doc-{i}")
            assert json.loads(text) == json.loads(_doc_text(i))

    def test_missing_document_raises_not_found(self, cluster):
        with pytest.raises(DocumentNotFoundError):
            cluster.router.get_document_text("nope")

    def test_not_found_is_untrusted_when_copies_may_hide(self, cluster):
        cluster.kill_shard("shard-0")
        cluster.kill_shard("shard-1")
        _mark_dead(cluster, "shard-0", "shard-1")
        # 2 = n_copies shards unreachable: both copies may be behind them
        with pytest.raises(ClusterError):
            cluster.router.get_document_text("nope")

    def test_delete_removes_every_copy(self, cluster):
        _load(cluster.router, 3)
        cluster.router.delete_document("doc-0")
        for svc in cluster.services.values():
            assert "doc-0" not in svc.list_documents()
        with pytest.raises(DocumentNotFoundError):
            cluster.router.delete_document("doc-0")

    def test_doc_scoped_reads_route(self, cluster):
        _load(cluster.router, 2)
        sub = cluster.router.get_subgraph("doc-0", "ex:model0",
                                          direction="both")
        assert "ex:train0" in sub
        stats = cluster.router.stats("doc-0")
        assert stats["documents"] == 1


class TestScatterGather:
    DIFFERENTIAL_QUERIES = [
        "MATCH entity RETURN *",
        "MATCH entity RETURN id, label",
        "MATCH entity WHERE label ~ 'model' RETURN id, label, doc",
        "MATCH entity RETURN id LIMIT 5",
        "MATCH entity RETURN id, doc LIMIT 4 OFFSET 3",
        "MATCH activity RETURN id, label",
        "MATCH entity WHERE label ~ 'model' "
        "TRAVERSE upstream VIA wasGeneratedBy RETURN kind, id",
        "MATCH entity WHERE label = 'no such label' RETURN *",
    ]

    def _single_node(self):
        service = ProvenanceService()
        for i in range(N_DOCS):
            service.put_document(f"doc-{i}", _doc_text(i))
        return service

    def test_cluster_rows_equal_single_node_rows(self, cluster):
        """The differential invariant: scatter-gather is byte-identical."""
        _load(cluster.router)
        single = self._single_node()
        for query in self.DIFFERENTIAL_QUERIES:
            expected = single.query(None, query).rows
            got = cluster.router.query(None, query).rows
            assert got == expected, f"diverged on: {query}"

    def test_rows_survive_one_shard_loss(self, cluster):
        _load(cluster.router)
        single = self._single_node()
        cluster.kill_shard("shard-1")
        _mark_dead(cluster, "shard-1")
        for query in self.DIFFERENTIAL_QUERIES:
            expected = single.query(None, query).rows
            result = cluster.router.query(None, query)
            assert result.rows == expected, f"diverged on: {query}"
            assert result.stats["failed_shards"] == ["shard-1"]

    def test_two_shard_loss_is_a_loud_partial_result(self, cluster):
        _load(cluster.router)
        cluster.kill_shard("shard-0")
        cluster.kill_shard("shard-2")
        _mark_dead(cluster, "shard-0", "shard-2")
        with pytest.raises(PartialResultError) as err:
            cluster.router.query(None, "MATCH entity RETURN id")
        assert err.value.failed_shards == ("shard-0", "shard-2")

    def test_doc_scoped_query_routes_without_scatter(self, cluster):
        _load(cluster.router, 3)
        result = cluster.router.query("doc-1", "MATCH entity RETURN id, label")
        assert {"id": "ex:model1", "label": "model 1"} in result.rows
        assert result.stats.get("backend") != "cluster"

    def test_list_documents_is_the_deduped_union(self, cluster):
        _load(cluster.router, 5)
        assert cluster.router.list_documents() == [
            f"doc-{i}" for i in range(5)
        ]

    def test_find_elements_dedups_replicas(self, cluster):
        _load(cluster.router, 4)
        single = self._single_node()
        expected = single.find_elements(label="model 2")
        assert cluster.router.find_elements(label="model 2") == expected


class TestRebalancing:
    def test_add_shard_restores_placement_and_moves_bounded_keys(self, cluster):
        _load(cluster.router)
        before = {
            f"doc-{i}": set(cluster.router.ring.preference(f"doc-{i}", 2))
            for i in range(N_DOCS)
        }
        service = ProvenanceService()
        from repro.yprov.rest import serve

        server = serve(service, node_role="shard", shard_id="shard-3")
        try:
            from repro.yprov.cluster import ShardInfo

            report = cluster.router.add_shard(
                ShardInfo(shard_id="shard-3", url=server.url)
            )
            moved = 0
            for i in range(N_DOCS):
                doc_id = f"doc-{i}"
                preferred = set(cluster.router.ring.preference(doc_id, 2))
                if preferred != before[doc_id]:
                    moved += 1
                # every preferred shard now holds a copy
                for shard_id in preferred:
                    holder = (
                        cluster.services[shard_id]
                        if shard_id in cluster.services else service
                    )
                    assert doc_id in holder.list_documents()
            assert report["copied"] >= 1
            assert moved < N_DOCS  # bounded movement: not everything moved
            # reads and queries still exact after the move
            got = cluster.router.query(None, "MATCH entity RETURN id, doc")
            assert len(got.rows) == 2 * N_DOCS  # 2 entities per document
        finally:
            server.stop()

    def test_remove_shard_moves_its_keys_to_survivors(self, cluster):
        _load(cluster.router)
        # need 4 shards to remove one while keeping n_copies=2 headroom
        from repro.yprov.rest import serve
        from repro.yprov.cluster import ShardInfo

        service = ProvenanceService()
        server = serve(service, node_role="shard", shard_id="shard-3")
        try:
            cluster.router.add_shard(ShardInfo("shard-3", server.url))
            cluster.router.remove_shard("shard-0")
            assert "shard-0" not in cluster.router.ring
            for i in range(N_DOCS):
                doc_id = f"doc-{i}"
                for shard_id in cluster.router.ring.preference(doc_id, 2):
                    holder = (
                        cluster.services[shard_id]
                        if shard_id in cluster.services else service
                    )
                    assert doc_id in holder.list_documents()
        finally:
            server.stop()

    def test_cannot_shrink_below_replication(self, cluster):
        # 3 shards -> 2 is fine (exactly n_copies); 2 -> 1 must refuse
        cluster.router.remove_shard("shard-0")
        with pytest.raises(ClusterError):
            cluster.router.remove_shard("shard-1")

    def test_rebalance_keeps_extra_copies_until_preferred_copy_lands(
        self, cluster
    ):
        """The drop phase must never leave a document below quorum.

        A new shard joins dead: documents whose preference list now
        includes it cannot get their new preferred copy, so the copies
        they already have — even ones now outside the preference list —
        must survive the rebalance.  Once the shard heals and repairs
        run, a second rebalance finishes the move.
        """
        from repro.yprov.cluster import ShardInfo
        from repro.yprov.rest import serve
        from repro.yprov.service import ProvenanceService as Svc

        _load(cluster.router)
        service = Svc()
        server = serve(service, node_role="shard", shard_id="shard-3")
        try:
            cluster.router.add_shard(
                ShardInfo("shard-3", server.url), rebalance=False
            )
            server.stop()  # the newcomer dies before rebalancing starts
            cluster.router.rebalance()
            # every document still holds n_copies copies on the old shards
            for i in range(N_DOCS):
                holders = [
                    sid for sid, svc in cluster.services.items()
                    if f"doc-{i}" in svc.list_documents()
                ]
                assert len(holders) >= cluster.router.config.n_copies, (
                    f"doc-{i} dropped below quorum during rebalance"
                )
            # docs that wanted a shard-3 copy are queued for repair
            moved = [
                f"doc-{i}" for i in range(N_DOCS)
                if "shard-3" in cluster.router.ring.preference(f"doc-{i}", 2)
            ]
            if moved:  # ring placement is hash-driven; usually non-empty
                assert cluster.router.replication_lag >= len(moved)
        finally:
            server.stop()

    def test_call_fails_over_when_a_shard_departs_mid_request(self, cluster):
        # a request thread holding a pre-removal ring walk must get the
        # ordinary fail-over error, not a KeyError crash
        with pytest.raises(ShardDepartedError):
            cluster.router._call("departed-shard", lambda c: c.health())


class TestCoverageWithPendingRepairs:
    """Quorum-acked documents only guarantee ``write_quorum`` copies."""

    @pytest.fixture()
    def wide_cluster(self):
        # replication=2: n_copies=3, write_quorum=2 — the only regime
        # where an acked write can hold fewer than n_copies copies
        with LocalCluster(n_shards=4, replication=2) as c:
            yield c

    def test_quorum_many_failures_raise_while_repairs_pending(
        self, wide_cluster
    ):
        router = wide_cluster.router
        doc_id = "under-replicated"
        preferred = router.ring.preference(doc_id, router.config.n_copies)
        # kill two of the three preferred shards: the write acks at
        # quorum=2 via handoff but repairs stay pending for the victims
        for victim in preferred[:2]:
            wide_cluster.kill_shard(victim)
            _mark_dead(wide_cluster, victim)
        router.put_document(doc_id, _doc_text(0))
        assert router.replication_lag >= 1
        # two silent shards >= write_quorum: the two live copies could
        # both be behind them, so a merged answer cannot be trusted
        with pytest.raises(PartialResultError):
            router.query(None, "MATCH entity RETURN id")

    def test_full_replication_tolerates_up_to_n_copies_minus_one(
        self, wide_cluster
    ):
        router = wide_cluster.router
        _load(router, 4)
        assert router.replication_lag == 0
        wide_cluster.kill_shard("shard-0")
        wide_cluster.kill_shard("shard-1")
        _mark_dead(wide_cluster, "shard-0", "shard-1")
        # lag == 0: every doc holds n_copies=3 copies, so two silent
        # shards still leave one answering copy of everything
        result = router.query(None, "MATCH entity RETURN id, doc")
        assert len(result.rows) == 2 * 4


class TestRepairQueueDedup:
    def test_enqueue_is_not_quadratic(self, cluster):
        """Regression: dedup used an O(n) list scan under the lock.

        200k membership checks against a 20k-entry list would take tens
        of seconds; the set-backed queue finishes well inside the budget
        even on a loaded CI machine.
        """
        import time as _time

        router = cluster.router
        start = _time.monotonic()
        for i in range(20_000):
            router._enqueue_repair(f"doc-{i}", "shard-0")
        for i in range(20_000):  # duplicate round: pure dedup hits
            router._enqueue_repair(f"doc-{i}", "shard-0")
        elapsed = _time.monotonic() - start
        assert router.replication_lag == 20_000
        assert elapsed < 5.0, f"enqueue took {elapsed:.1f}s — quadratic?"

    def test_order_preserved_alongside_the_set(self, cluster):
        router = cluster.router
        pairs = [("b", "shard-0"), ("a", "shard-1"), ("c", "shard-0")]
        for doc_id, shard_id in pairs:
            router._enqueue_repair(doc_id, shard_id)
        router._enqueue_repair("b", "shard-0")  # dup: no reorder
        assert router.pending_repairs() == pairs


class TestDurableRepairJournal:
    @pytest.fixture()
    def persistent(self, tmp_path):
        with LocalCluster(n_shards=3, replication=1, root=tmp_path) as c:
            yield c

    def _strand_repair(self, cluster, doc_id):
        victim = cluster.router.ring.primary(doc_id)
        cluster.kill_shard(victim)
        _mark_dead(cluster, victim)
        cluster.router.put_document(doc_id, _doc_text(0))
        assert (doc_id, victim) in cluster.router.pending_repairs()
        return victim

    def test_pending_repairs_survive_router_restart(self, tmp_path):
        with LocalCluster(n_shards=3, replication=1, root=tmp_path) as c:
            victim = self._strand_repair(c, "stranded-doc")
        # the whole cluster went down with the repair still pending; a
        # restart over the same root replays the journal, the shard
        # heals, and the repair completes
        with LocalCluster(n_shards=3, replication=1, root=tmp_path) as c:
            assert ("stranded-doc", victim) in c.router.pending_repairs()
            assert c.router.run_repairs() == 1
            assert c.router.replication_lag == 0
            assert "stranded-doc" in c.services[victim].list_documents()

    def test_journal_settles_completed_repairs(self, persistent):
        from repro.yprov.cluster.repairlog import replay_pending

        victim = self._strand_repair(persistent, "healed-doc")
        persistent.restart_shard(victim)
        persistent.heartbeater.tick()
        assert persistent.router.replication_lag == 0
        wal = persistent.root / "router" / "repairs.wal"
        assert replay_pending(wal) == ([], 0)

    def test_delete_voids_journaled_repairs(self, persistent):
        from repro.yprov.cluster.repairlog import replay_pending

        victim = self._strand_repair(persistent, "doomed-doc")
        persistent.restart_shard(victim)
        persistent.router.detector.record_success(victim)
        persistent.router.delete_document("doomed-doc")
        assert persistent.router.replication_lag == 0
        wal = persistent.root / "router" / "repairs.wal"
        assert replay_pending(wal) == ([], 0)

    def test_enqueue_journaled_before_write_acks(self, persistent):
        """The hinted-handoff entry must be durable by ack time."""
        from repro.wal import decode_record

        victim = self._strand_repair(persistent, "hinted-doc")
        # inspect the live journal bytes — no close, no flush helpers:
        # if the record were buffered the read would miss it
        wal = persistent.root / "router" / "repairs.wal"
        records = [
            decode_record(line)
            for line in wal.read_bytes().splitlines()
            if line.strip()
        ]
        assert {"k": "enqueue", "doc": "hinted-doc", "shard": victim} \
            in records


class TestMembershipFlapping:
    @pytest.fixture()
    def persistent(self, tmp_path):
        with LocalCluster(n_shards=3, replication=1, root=tmp_path) as c:
            yield c

    def test_flap_keeps_queued_repairs_and_applies_once(self, persistent):
        """alive → suspect → alive mid-sweep: no loss, no double-apply."""
        from repro.wal import decode_record

        router = persistent.router
        doc_id = "flap-doc"
        victim = self._strand(persistent, doc_id)
        persistent.restart_shard(victim)
        # flap: demote to SUSPECT (not DEAD), then recover — the queued
        # repair must survive the whole cycle
        for _ in range(router.config.suspect_after):
            router.detector.record_failure(victim)
        assert (doc_id, victim) in router.pending_repairs()
        router.detector.record_success(victim)
        assert (doc_id, victim) in router.pending_repairs()
        # first drain applies it; the immediate re-drain (a second
        # membership change racing in) must be a no-op
        assert router.run_repairs() == 1
        assert router.run_repairs() == 0
        assert doc_id in persistent.services[victim].list_documents()
        # idempotence is visible in the journal too: exactly one enqueue
        # and one done for the pair, however many flaps occurred
        wal = persistent.root / "router" / "repairs.wal"
        records = [
            decode_record(line)
            for line in wal.read_bytes().splitlines()
            if line.strip()
        ]
        mine = [r for r in records if r.get("doc") == doc_id]
        assert [r["k"] for r in mine] == ["enqueue", "done"]

    def test_flap_during_sweep_does_not_double_enqueue(self, persistent):
        router = persistent.router
        doc_id = "sweep-flap-doc"
        victim = self._strand(persistent, doc_id)
        persistent.restart_shard(victim)
        # recover the detector *without* the membership hook, so the
        # write-time repair is still pending when the sweep re-detects
        # the same missing copy: the durable queue must dedup, not
        # double-journal
        router.detector.record_success(victim)
        report = persistent.anti_entropy.sweep()
        assert router.replication_lag == 0
        assert report["repaired"] >= 1
        assert doc_id in persistent.services[victim].list_documents()
        assert persistent.anti_entropy.sweep()["clean"]

    def _strand(self, cluster, doc_id):
        victim = cluster.router.ring.primary(doc_id)
        cluster.kill_shard(victim)
        _mark_dead(cluster, victim)
        cluster.router.put_document(doc_id, _doc_text(1))
        return victim


class TestReadRepair:
    def test_missing_preferred_copy_queued_on_read(self, cluster):
        _load(cluster.router, 4)
        doc_id = "doc-1"
        lagging = cluster.router.ring.preference(doc_id, 2)[0]
        cluster.services[lagging].delete_document(doc_id)
        text = cluster.router.get_document_text(doc_id)
        assert text  # the surviving replica served the read
        assert (doc_id, lagging) in cluster.router.pending_repairs()
        assert cluster.router.run_repairs() == 1
        assert doc_id in cluster.services[lagging].list_documents()

    def test_inline_read_repair_fixes_before_returning(self, tmp_path):
        from repro.yprov.cluster import RouterConfig

        config = RouterConfig(
            replication=1, read_repair_inline=True, journal_fsync=False
        )
        with LocalCluster(
            n_shards=3, router_config=config, root=tmp_path
        ) as c:
            _load(c.router, 4)
            doc_id = "doc-2"
            # only a lagging copy *earlier* in the walk than the serving
            # one is observable in "missing" mode: lose the primary
            lagging = c.router.ring.preference(doc_id, 2)[0]
            c.services[lagging].delete_document(doc_id)
            c.router.get_document_text(doc_id)
            # fixed on the read path itself: nothing left pending
            assert c.router.replication_lag == 0
            assert doc_id in c.services[lagging].list_documents()

    def test_verify_mode_catches_stale_bytes(self, tmp_path):
        from repro.yprov.cluster import RouterConfig

        config = RouterConfig(
            replication=1, read_repair="verify", journal_fsync=False
        )
        with LocalCluster(
            n_shards=3, router_config=config, root=tmp_path
        ) as c:
            _load(c.router, 4)
            doc_id = "doc-3"
            first, second = c.router.ring.preference(doc_id, 2)
            c.services[second].put_document(doc_id, _doc_text(3, ))
            c.services[second].put_document(
                doc_id, _doc_text(9)
            )  # diverged valid copy
            c.router.get_document_text(doc_id)
            assert (doc_id, second) in c.router.pending_repairs()
            c.router.run_repairs()
            assert (
                c.services[second].get_document_text(doc_id)
                == c.services[first].get_document_text(doc_id)
            )

    def test_off_mode_never_queues(self, tmp_path):
        from repro.yprov.cluster import RouterConfig

        config = RouterConfig(replication=1, read_repair="off")
        with LocalCluster(n_shards=3, router_config=config) as c:
            _load(c.router, 4)
            doc_id = "doc-1"
            lagging = c.router.ring.preference(doc_id, 2)[0]
            c.services[lagging].delete_document(doc_id)
            c.router.get_document_text(doc_id)
            assert c.router.pending_repairs() == []

    def test_bad_read_repair_mode_rejected(self):
        from repro.yprov.cluster import RouterConfig

        with pytest.raises(ClusterError):
            RouterConfig(read_repair="sometimes")
