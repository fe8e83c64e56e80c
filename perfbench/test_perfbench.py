"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the root.

Each workload runs once untraced and once traced at a tiny size and must
emit every metric ``BENCHMARK.json`` names, with its unit; a GET body
corrupted in flight must surface as a failed operation.
"""

from __future__ import annotations

import math

import pytest

import run  # first: puts the checkout's src/ on sys.path

import loadgen
from repro.yprov import client as yprov_client

TINY = loadgen.Sizes(corpus_docs=30, history_docs=5, ingest_ids=6, setups=1,
                     warmup_s=0.2, global_every=3, side_every=10, side_cycles=2)


def _assert_emits(result, spec):
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", sorted(loadgen.WORKLOADS))
def test_every_metric_is_emitted(workload, tmp_path):
    untraced = run.run_untraced(workload, 3, 1.5, tmp_path / "plain", TINY)
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] > 0
    _assert_emits(untraced, run.SPEC["end_to_end"])

    traced = run.run_traced(workload, 3, 1.5, tmp_path / "traced", untraced, TINY)
    assert traced["correct"] and traced["failed"] == 0
    _assert_emits(traced, run.SPEC["per_layer"])


def test_wrong_get_body_is_a_failed_op(tmp_path):
    gets = []

    def corrupting(method, url, body, timeout_s):
        """The real transport, with every other GET body altered."""
        status, headers, payload = yprov_client._urllib_transport(
            method, url, body, timeout_s)
        if method == "GET" and status == 200:
            gets.append(url)
            if len(gets) % 2:
                payload = payload.replace(b"yprov4ml", b"yprov4mL", 1)
        return status, headers, payload

    result = run.run_untraced("serve_read", 4, 1.0, tmp_path, TINY,
                              transport=corrupting)
    planted = (len(gets) + 1) // 2
    assert planted > 0
    assert result["correct"] is False
    assert result["failed"] >= planted
