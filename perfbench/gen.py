"""Seeded inputs: run shapes, run-shaped PROV documents, queries, Zipf picks.

Everything here runs before timing starts.  The documents are built by
the tracker itself (an in-memory ``RunExecution`` with the journal off
and a fake clock), so their shape is exactly what ``end_run`` publishes;
the same seed always yields the same bytes.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.core.context import Context
from repro.core.experiment import RunExecution
from repro.core.provgen import build_prov_document
from repro.prov.provjson import to_provjson

#: Per-document PROVQL instances (the template families of the workloads):
#: a type filter, ``yprov4ml:context`` equality on values every run shares,
#: and a lineage traversal from the model artifact.
DOC_QUERIES: Tuple[str, ...] = (
    "MATCH entity WHERE type = 'yprov4ml:Metric' RETURN id, label",
    "MATCH entity WHERE type = 'yprov4ml:Parameter' RETURN id, attr.'yprov4ml:value'",
    "MATCH entity WHERE attr.'yprov4ml:context' = 'TRAINING' RETURN id, label",
    "MATCH entity WHERE attr.'yprov4ml:context' = 'VALIDATION' RETURN id, label",
    "MATCH entity WHERE type = 'yprov4ml:ModelVersion' "
    "TRAVERSE upstream DEPTH 3 RETURN id, kind",
)

#: Service-wide PROVQL: an attribute scan over every activity of every
#: document that returns the heavy (inline-format) runs.  One template, so
#: the median of a run is not a coin flip between two cost clusters.
GLOBAL_QUERY = "MATCH activity WHERE attr.'yprov4ml:metric_format' = 'inline' RETURN doc, id"

#: Zipf exponent of document popularity (``serve_read``).
ZIPF_S = 1.1

#: One generated document in this many is a heavy ``inline`` run (Table 1's
#: large case: every sample embedded in the PROV-JSON).
HEAVY_EVERY = 16


#: Every run logs the same training metrics.  Each metric is one series,
#: and each series is a fixed number of files in the zarr store, so every
#: save writes as many files: with a random metric count, the median
#: ``end_run`` fell between two cost clusters and swung from run to run.
METRICS = ("loss", "accuracy", "lr")

#: Every light run has the same length, and so has every heavy one; only
#: the values and parameters come from the seed.  With lengths drawn per
#: run, a tracked run's time spanned 3x between the shortest and longest
#: runs, and the few hundred runs of a window left its median to the draw.
LIGHT_EPOCHS, LIGHT_STEPS = 2, 30
HEAVY_EPOCHS, HEAVY_STEPS = 2, 130
VAL_STEPS = 10


@dataclass(frozen=True)
class RunShape:
    """One run's logging plan; values are drawn from ``values_seed``."""

    run_id: str
    params: Tuple[Tuple[str, float], ...]
    train_epochs: int
    steps: int
    metrics: Tuple[str, ...]
    val_steps: int
    metric_format: str
    values_seed: int

    @property
    def log_calls(self) -> int:
        return self.train_epochs * self.steps * len(self.metrics) + self.val_steps

    def values(self) -> List[float]:
        """The metric values, one per ``log_metric`` call, in call order."""
        rng = random.Random(self.values_seed)
        return [rng.random() for _ in range(self.log_calls)]


def run_shapes(rng: random.Random, prefix: str, count: int,
               heavy: bool = False) -> List[RunShape]:
    """*count* run shapes; with *heavy*, every ``HEAVY_EVERY``-th one is a
    long inline run.

    Heavy runs sit at fixed positions, so every seed has the same share of
    them at the same popularity ranks and only their content varies.
    """
    return [_shape(rng, f"{prefix}-{i:05d}",
                   heavy and i % HEAVY_EVERY == HEAVY_EVERY // 2)
            for i in range(count)]


class ShapeStream:
    """Light run shapes made on demand, so no run count is fixed in advance.

    The stream draws from its own seeded generator: the same seed gives
    the same sequence however many runs a window reaches.
    """

    def __init__(self, seed: int, prefix: str) -> None:
        self._rng = random.Random(seed)
        self._prefix = prefix
        self._count = 0

    def next(self) -> RunShape:
        i, self._count = self._count, self._count + 1
        return _shape(self._rng, f"{self._prefix}-{i:05d}", False)


def _shape(rng: random.Random, run_id: str, big: bool) -> RunShape:
    return RunShape(
        run_id=run_id,
        params=(("lr", round(rng.uniform(1e-4, 1e-2), 6)),
                ("batch_size", float(rng.choice((32, 64, 128)))),
                ("weight_decay", round(rng.uniform(0.0, 0.1), 4)),
                ("seed", float(rng.randrange(1000)))),
        train_epochs=HEAVY_EPOCHS if big else LIGHT_EPOCHS,
        steps=HEAVY_STEPS if big else LIGHT_STEPS,
        metrics=METRICS,
        val_steps=VAL_STEPS,
        metric_format="inline" if big else "zarrlike",
        values_seed=rng.randrange(2**31),
    )


def build_document(shape: RunShape, gen_dir: Path, artifact: Path,
                   t0: float) -> str:
    """PROV-JSON of *shape*, built by an in-memory tracker run."""
    ticks = itertools.count()
    run = RunExecution(
        "perfbench", run_id=shape.run_id, save_dir=gen_dir, journal=False,
        clock=lambda: t0 + 0.01 * next(ticks),
    )
    run.start()
    for name, value in shape.params:
        run.log_param(name, value)
    run.log_artifact(artifact, name="dataset", is_input=True, copy=False)
    values = iter(shape.values())
    for epoch in range(shape.train_epochs):
        run.start_epoch(Context.TRAINING)
        for step in range(shape.steps):
            for metric in shape.metrics:
                run.log_metric(metric, next(values), context=Context.TRAINING,
                               step=epoch * shape.steps + step)
        run.end_epoch(Context.TRAINING)
    run.start_epoch(Context.VALIDATION)
    for step in range(shape.val_steps):
        run.log_metric("val_loss", next(values), context=Context.VALIDATION,
                       step=step)
    run.end_epoch(Context.VALIDATION)
    run.log_artifact(artifact, name="model", is_model=True, copy=False)
    run.end()
    store = None if shape.metric_format == "inline" else "metrics.zarr"
    return to_provjson(build_prov_document(
        run, metric_format=shape.metric_format, metric_store_path=store))


def build_documents(shapes: Sequence[RunShape], gen_dir: Path,
                    seed: int) -> Dict[str, str]:
    """``{run_id: PROV-JSON}`` for every shape."""
    gen_dir.mkdir(parents=True, exist_ok=True)
    artifact = gen_dir / "blob.bin"
    artifact.write_bytes(random.Random(seed).randbytes(256))
    t0 = 1.7e9 + seed % 10**6
    return {s.run_id: build_document(s, gen_dir, artifact, t0 + 100.0 * i)
            for i, s in enumerate(shapes)}


class Zipf:
    """Seeded Zipf(*s*) picker; ``items[0]`` is the most popular."""

    def __init__(self, items: Sequence[str], s: float, rng: random.Random) -> None:
        self.items = list(items)
        total, self._cdf = 0.0, []
        for rank in range(1, len(self.items) + 1):
            total += rank ** -s
            self._cdf.append(total)
        self._rng = rng

    def pick(self) -> str:
        u = self._rng.random() * self._cdf[-1]
        return self.items[min(bisect.bisect_left(self._cdf, u), len(self.items) - 1)]
