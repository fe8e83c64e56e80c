"""The repository's end-to-end benchmark: tracker -> journal -> PROV save ->
publish -> ingest -> GET -> PROVQL, against the shipped defaults.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_pipeline --seed 1 --seconds 15 --trace 0

Workloads: ``train_pipeline`` and ``serve_read`` (see
``perfbench/README.md``).  ``--trace 0`` prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` first runs the same command untraced in a
child process, then a traced pass, and prints every per-layer metric
including the tracing overhead on each end-to-end metric.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when any output
check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"error: no repro sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import loadgen  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _named(values: Dict[str, float], spec: list) -> Dict[str, Dict[str, Any]]:
    """``{name: {value, unit}}`` for every metric *spec* names, in order."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in spec}


def run_untraced(workload: str, seed: int, seconds: float, work: Path,
                 sizes: loadgen.Sizes = loadgen.Sizes(),
                 transport: Optional[Callable] = None) -> Dict[str, Any]:
    m = loadgen.measure(workload, seed, seconds, work, sizes, transport=transport)
    return _result(m.rec, _named(m.e2e, SPEC["end_to_end"]), m.notes)


def run_traced(workload: str, seed: int, seconds: float, work: Path,
               untraced: Dict[str, Any],
               sizes: loadgen.Sizes = loadgen.Sizes()) -> Dict[str, Any]:
    """A traced pass; overhead is its end-to-end numbers minus *untraced*."""
    tracer = spans.Tracer(active=False)
    spans.install_client(tracer)
    span_file = work / "server-spans.json"
    try:
        m = loadgen.measure(workload, seed, seconds, work,
                            dataclasses.replace(sizes, setups=1), spans=span_file,
                            on_window=lambda on: setattr(tracer, "active", on))
    finally:
        tracer.unpatch()
    dump = json.loads(span_file.read_text(encoding="utf-8"))
    server = spans.SpanSet(spans.in_window(dump["spans"], m.window))
    layers = spans.layer_metrics(spans.SpanSet(tracer.spans), server, dump["service"])
    put_bytes = sum(len(text.encode("utf-8")) for _, text in m.rec.put_log)
    layers["yprov.service.write_bytes_per_doc_byte"] = m.server_wchar / put_bytes
    layers["yprov.ingest.batch_docs_per_s"] = m.batch_docs_per_s
    layers["core.provgen.prov_bytes_per_run"] = statistics.median(
        (d / "prov.json").stat().st_size for _, d in m.rec.run_checks)
    layers.update({k: v for k, v in m.notes.items() if k.startswith("query.")})
    for name, metric in untraced["metrics"].items():
        layers[f"overhead.{name}"] = m.e2e[name] - metric["value"]
    result = _result(m.rec, _named(layers, SPEC["per_layer"]), m.notes)
    result["correct"] = result["correct"] and untraced["correct"]
    result["attempted"] += untraced["attempted"]
    result["failed"] += untraced["failed"]
    return result


def _result(rec: loadgen.Recorder, metrics: Dict[str, Any],
            notes: Dict[str, float]) -> Dict[str, Any]:
    for why in list(rec.failed.values())[:10]:
        print(f"failed: {why}", file=sys.stderr)
    return {"correct": not rec.failed, "attempted": rec.attempted,
            "failed": len(rec.failed), "metrics": metrics, "notes": notes}


def _untraced_child(args: argparse.Namespace) -> Dict[str, Any]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"untraced pass printed nothing (exit {out.returncode})")
    return json.loads(lines[-1])


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(loadgen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    untraced = _untraced_child(args) if args.trace else None
    # At most one run's files are kept: earlier runs' (the untraced child's
    # too) are removed before this run generates its inputs.
    loadgen.discard(WORK)
    work = WORK / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True)
    if untraced is not None:
        result = run_traced(args.workload, args.seed, args.seconds, work, untraced)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds, work)
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:14.4f} {metric['unit']}")
    for name, value in result.pop("notes").items():
        print(f"{name:42s} {value:14.4f} (note)")
    print(f"attempted {result['attempted']}  failed {result['failed']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
