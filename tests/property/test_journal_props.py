"""Property tests: journal append → replay reproduces provenance exactly."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import RunExecution, RunStatus
from repro.core.provgen import build_prov_document
from repro.core.recover import replay_journal

_CONTEXTS = ("training", "validation", "testing")

# one logging action = (kind, payload...) drawn from the API surface
_ACTIONS = st.one_of(
    st.tuples(st.just("param"), st.text("abc", min_size=1, max_size=6),
              st.floats(allow_nan=False, allow_infinity=False,
                        width=32)),
    st.tuples(st.just("metric"), st.sampled_from(("loss", "acc")),
              st.sampled_from(_CONTEXTS),
              st.floats(-1e6, 1e6)),
    st.tuples(st.just("epoch"), st.sampled_from(_CONTEXTS)),
    st.tuples(st.just("artifact"), st.text("xyz", min_size=1, max_size=5),
              st.binary(min_size=0, max_size=32)),
    st.tuples(st.just("command"), st.text("ls -la", min_size=1, max_size=10)),
)


class _Ticker:
    """Strictly increasing deterministic clock."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.5
        return self.t


def _drive(run, actions):
    """Apply a generated action sequence through the public logging API."""
    step = 0
    epoch_open = {c: False for c in _CONTEXTS}
    epoch_idx = {c: 0 for c in _CONTEXTS}
    seen_params = set()
    seen_artifacts = set()
    for action in actions:
        kind = action[0]
        if kind == "param":
            name = action[1]
            if name in seen_params:
                continue
            seen_params.add(name)
            run.log_param(name, action[2])
        elif kind == "metric":
            run.log_metric(action[1], action[3], context=action[2], step=step)
            step += 1
        elif kind == "epoch":
            ctx = action[1]
            if epoch_open[ctx]:
                run.end_epoch(ctx)
                epoch_open[ctx] = False
            else:
                run.start_epoch(ctx, epoch_idx[ctx])
                epoch_idx[ctx] += 1
                epoch_open[ctx] = True
        elif kind == "artifact":
            name = f"{action[1]}.bin"
            if name in seen_artifacts:
                continue
            seen_artifacts.add(name)
            run.log_artifact_bytes(name, action[2], context="training")
        elif kind == "command":
            run.log_execution_command(action[1], "", 0)


class TestJournalRoundTrip:
    @given(actions=st.lists(_ACTIONS, max_size=25),
           clean_end=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_replay_equals_original(self, actions, clean_end,
                                    tmp_path_factory):
        """For any event sequence, journal replay rebuilds the same PROV
        document a clean end_run would have produced (aborted marker aside)."""
        tmp = tmp_path_factory.mktemp("wal")
        run = RunExecution("prop", run_id="p0", save_dir=tmp / "p0",
                           clock=_Ticker())
        run.start()
        _drive(run, actions)
        if clean_end:
            run.end(RunStatus.FINISHED)
            original = build_prov_document(run).to_json(indent=2)
            replayed, report = replay_journal(tmp / "p0")
            assert build_prov_document(replayed).to_json(indent=2) == original
            assert report.is_clean
        else:
            replayed, report = replay_journal(tmp / "p0")
            assert report.aborted
            assert report.is_clean
            assert len(replayed.artifacts) == len(run.artifacts)
            assert replayed.params.as_dict() == run.params.as_dict()

