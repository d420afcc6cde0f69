"""The explorer's verdicts, counts and witnesses, pinned.

For every fixture: the four goals of the acceptance oracle check under
`dfs` and `dfs-sym`, and each task's `never Failed` and `eventually
Processed` under `dfs-sym`. Each run records its verdict, the states and
transitions it took and the event names of its witness. A change to the
model or the explorer that keeps all of these keeps the search itself.
Each witness also carries the state it ends in, which must be the state
its steps replay to.

Regenerate (only when a change is meant to alter the search) with

    PYTHONPATH=src:tests python tests/test_explore_golden.py
"""

import json
from pathlib import Path

import pytest

from fixtures import FIXTURES
from test_acceptance import _GOALS_TEXT

from schedcheck.checker import (TaskAssertion, parse_properties, verify,
                                verify_assertion)
from schedcheck.model import (FAILED, PROCESSED, build_cluster, canonical_key,
                              make_witness, replay)

GOLDEN = Path(__file__).parent / "data" / "explore_golden.json"


def _record(result) -> dict:
    return {"verdict": result.verdict, "states": result.states,
            "transitions": result.transitions,
            "witness": (None if result.witness is None
                        else [s.event for s in result.witness.steps])}


def explorations():
    """(run id, initial state, result) for every run, fixtures in name
    order."""
    _, goals = parse_properties(_GOALS_TEXT)
    for name in sorted(FIXTURES):
        fx = FIXTURES[name]
        initial = build_cluster(fx.config, fx.trace)
        for goal in goals:
            for strategy in ("dfs", "dfs-sym"):
                yield (f"{name}/{goal.name}/{strategy}", initial,
                       verify(initial, goal, strategy))
        for tid in initial.statics.tids:
            for mode, phase in (("never", FAILED), ("eventually", PROCESSED)):
                yield (f"{name}/{tid} {mode}/dfs-sym", initial,
                       verify_assertion(initial,
                                        TaskAssertion(tid, mode, phase),
                                        "dfs-sym"))


def explore_runs(runs) -> dict:
    """Run id -> record."""
    return {run_id: _record(result) for run_id, _, result in runs}


@pytest.fixture(scope="module")
def explored():
    return list(explorations())


def test_explorer_matches_golden(explored):
    golden = json.loads(GOLDEN.read_text())
    runs = explore_runs(explored)
    assert len(runs) == 224
    assert sorted(runs) == sorted(golden)
    diffs = [k for k in golden if runs[k] != golden[k]]
    assert not diffs, f"{len(diffs)} runs differ, first {diffs[0]}: " \
        f"{runs[diffs[0]]} != {golden[diffs[0]]}"


def test_witness_state_is_where_its_steps_replay_to(explored):
    witnessed = [(run_id, initial, result.witness)
                 for run_id, initial, result in explored if result.witness]
    assert len(witnessed) == 101
    for run_id, initial, witness in witnessed:
        replayed = replay(initial, witness.steps)
        for sym in (False, True):
            assert canonical_key(witness.state, sym) == \
                canonical_key(replayed, sym), run_id
            assert witness.state.fingerprint(sym) == \
                replayed.fingerprint(sym), run_id


def test_witnesses_with_equal_steps_are_equal(explored):
    run_id, initial, result = next(r for r in explored if r[2].witness
                                   and r[2].witness.steps)
    witness = result.witness
    other = make_witness(witness.steps, initial)
    assert canonical_key(other.state, False) != \
        canonical_key(witness.state, False), run_id
    assert other == witness and hash(other) == hash(witness)
    assert make_witness(witness.steps[:-1], witness.state) != witness


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(explore_runs(explorations()), indent=1,
                                 sort_keys=True) + "\n")
