"""The explorer's verdicts, counts and witnesses, pinned.

For every fixture: the four goals of the acceptance oracle check under
`dfs` and `dfs-sym`, and each task's `never Failed` and `eventually
Processed` under `dfs-sym`. Each run records its verdict, the states and
transitions it took and the event names of its witness. A change to the
model or the explorer that keeps all of these keeps the search itself.

Regenerate (only when a change is meant to alter the search) with

    PYTHONPATH=src:tests python tests/test_explore_golden.py
"""

import json
from pathlib import Path

from fixtures import FIXTURES
from test_acceptance import _GOALS_TEXT

from schedcheck.checker import (TaskAssertion, parse_properties, verify,
                                verify_assertion)
from schedcheck.model import FAILED, PROCESSED, build_cluster

GOLDEN = Path(__file__).parent / "data" / "explore_golden.json"


def _record(result) -> dict:
    return {"verdict": result.verdict, "states": result.states,
            "transitions": result.transitions,
            "witness": (None if result.witness is None
                        else [s.event for s in result.witness.steps])}


def explore_runs() -> dict:
    """Run id -> record, over every fixture in name order."""
    _, goals = parse_properties(_GOALS_TEXT)
    runs = {}
    for name in sorted(FIXTURES):
        fx = FIXTURES[name]
        initial = build_cluster(fx.config, fx.trace)
        for goal in goals:
            for strategy in ("dfs", "dfs-sym"):
                runs[f"{name}/{goal.name}/{strategy}"] = _record(
                    verify(initial, goal, strategy))
        for tid in initial.statics.tids:
            for mode, phase in (("never", FAILED), ("eventually", PROCESSED)):
                runs[f"{name}/{tid} {mode}/dfs-sym"] = _record(
                    verify_assertion(initial, TaskAssertion(tid, mode, phase),
                                     "dfs-sym"))
    return runs


def test_explorer_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    runs = explore_runs()
    assert len(runs) == 224
    assert sorted(runs) == sorted(golden)
    diffs = [k for k in golden if runs[k] != golden[k]]
    assert not diffs, f"{len(diffs)} runs differ, first {diffs[0]}: " \
        f"{runs[diffs[0]]} != {golden[diffs[0]]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(explore_runs(), indent=1, sort_keys=True)
                      + "\n")
