"""Randomized invariant tests over small random workloads.

The acceptance suite runs the same checks (tests/invariants.py) over a much
larger number of draws; this module keeps a quick always-on sample.
"""

import random

import pytest

from fixtures import FIXTURES, random_workload
from invariants import check_state, check_workload, run_suite

from schedcheck.checker import GoalExpr, parse_properties, verify
from schedcheck.model import build_cluster, iter_transitions


class TestRandomizedWorkloads:
    def test_invariants_hold_over_random_draws(self):
        run_suite(random.Random(20260826), n_workloads=60)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_repeat_walks_on_one_workload(self, seed):
        rng = random.Random(seed)
        config, trace = random_workload(rng)
        for _ in range(5):
            check_workload(config, trace, rng)

    def test_walks_are_seed_deterministic(self):
        config, trace = random_workload(random.Random(7))
        config2, trace2 = random_workload(random.Random(7))
        assert config == config2
        assert trace.records == trace2.records


class TestExhaustiveOnFixtures:
    @pytest.mark.parametrize("name", ["map_reduce_gate", "speculative_copy",
                                      "deadlock_cycle", "queue_wait"])
    def test_state_invariants_on_full_space(self, name):
        fx = FIXTURES[name]
        stack = [build_cluster(fx.config, fx.trace)]
        seen = set()
        while stack:
            state = stack.pop()
            check_state(state)
            for t in iter_transitions(state):
                fp = t.state.fingerprint(sym=False)
                if fp not in seen:
                    seen.add(fp)
                    stack.append(t.state)

    def test_checker_witnesses_replay_on_random_workloads(self):
        rng = random.Random(99)
        defines, obligations = parse_properties(
            "#define goal0 completedscheduled == workload && workload > 0;\n"
            "#assert cluster reaches goal0;\n")
        goal = obligations[0]
        assert isinstance(goal, GoalExpr)
        hits = 0
        for _ in range(20):
            config, trace = random_workload(rng)
            initial = build_cluster(config, trace)
            res = verify(initial, goal, strategy="dfs")
            if res.verdict == "reachable":
                hits += 1
                rates = res.witness.terminal["rates"]
                assert rates["completedscheduled"] == rates["workload"]
        assert hits > 0, "goal0 should be reachable for some random draws"
