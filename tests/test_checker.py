import dataclasses
import gc
import operator
import random
import re
from types import GeneratorType, SimpleNamespace

import pytest

from fixtures import FIXTURES, mk_trace, random_workload, rec

import oracle
from test_acceptance import _GOALS_TEXT

import schedcheck.checker as checker_mod
import schedcheck.model as model_mod
from schedcheck.checker import (STRATEGIES, Atom, GoalExpr, TaskAssertion,
                                parse_properties, verify, verify_assertion)
from schedcheck.config import ClusterConfig
from schedcheck.errors import PropertySyntaxError, UnknownTask
from schedcheck.model import (PHASE_BY_NAME, GlobalState, build_cluster,
                              canonical_key, iter_transitions, replay)
from schedcheck.rates import RateMetrics, compute_rates
from schedcheck.trace import GeneratorSpec, synthesize

GOAL0 = GoalExpr("goal0", (Atom("completedscheduled", "==", "workload"),
                           Atom("workload", ">", 0.0)))


def build(name):
    fx = FIXTURES[name]
    return build_cluster(fx.config, fx.trace)


class TestParseProperties:
    def test_define_and_reach(self):
        defines, asserts = parse_properties(
            "#define goal0 completedscheduled == workload && workload > 0;\n"
            "#assert cluster reaches goal0;\n")
        assert set(defines) == {"goal0"}
        (goal,) = asserts
        assert goal.atoms == (Atom("completedscheduled", "==", "workload"),
                              Atom("workload", ">", 0.0))

    def test_reach_with_extra_atoms(self):
        _, asserts = parse_properties(
            "#define g schedulabilityrate >= 50;\n"
            "#assert cluster reaches g && localityrate >= 10;\n")
        assert asserts[0].atoms == (Atom("schedulabilityrate", ">=", 50.0),
                                    Atom("localityrate", ">=", 10.0))

    def test_task_assertions(self):
        _, asserts = parse_properties(
            "#assert task m1 eventually Processed;\n"
            "#assert task r9 never Failed;\n")
        assert asserts == [
            TaskAssertion("m1", "eventually", PHASE_BY_NAME["Processed"]),
            TaskAssertion("r9", "never", PHASE_BY_NAME["Failed"])]

    def test_comments_and_blank_lines(self):
        defines, asserts = parse_properties(
            "// goals\n\n#define g workload > 0;  // note\n"
            "#assert cluster reaches g;\n")
        assert len(asserts) == 1

    @pytest.mark.parametrize("bad", [
        "#define g workload > 0",                 # missing ;
        "#define g bogusmetric > 0;",             # unknown metric
        "#define g workload ~ 0;",                # no operator
        "#assert cluster reaches undefined_goal;",
        "#assert task t1 always Processed;",      # unknown mode
        "#assert task t1 eventually Sleeping;",   # unknown phase
        "gibberish;",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(PropertySyntaxError):
            parse_properties(bad + "\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity"])
    def test_non_finite_comparison_value_rejected(self, value):
        text = (f"#define g completedscheduled >= {value};\n"
                "#assert cluster reaches g;\n")
        with pytest.raises(PropertySyntaxError,
                           match=f"bad comparison value '{value}'"):
            parse_properties(text)

    def test_rate_equality_becomes_at_least(self):
        _, (goal,) = parse_properties(
            "#define g schedulabilityrate == 50;\n#assert cluster reaches g;\n")
        # a state whose rate overshoots 50 must still satisfy the goal: the
        # end of single_map's first run, where its one task finished in time
        state = build("single_map")
        while (t := next(iter_transitions(state), None)) is not None:
            state = t.state
        assert compute_rates(state).schedulabilityrate == 100.0
        assert goal.holds(state)
        assert compute_rates(build("single_map")).schedulabilityrate == 0.0
        assert not goal.holds(build("single_map"))


_METRICS = tuple(f.name for f in dataclasses.fields(RateMetrics))
_OPS = {"==": operator.eq, "!=": operator.ne, "<=": operator.le,
        ">=": operator.ge, "<": operator.lt, ">": operator.gt}


def _by_rates(rates, metric, op, rhs):
    """One atom read off a RateMetrics, the way goals were tested before
    they were compiled: rate == number reads as >=, a metric on the right
    is compared exactly."""
    if isinstance(rhs, str):
        rhs = getattr(rates, rhs)
    elif op == "==" and isinstance(getattr(rates, metric), float):
        op = ">="
    return _OPS[op](getattr(rates, metric), rhs)


class TestCompiledGoals:
    def test_compiled_test_equals_a_compute_rates_reading(self):
        """Every metric x every operator x right-hand sides 0, 50, 100 and
        each metric name, alone and in random conjunctions, on every state
        of seeded random walks: the compiled test gives what compute_rates
        gives, and an atom flagged vacuous has its flagged truth value."""
        atoms = [Atom(m, op, rhs) for m in _METRICS for op in _OPS
                 for rhs in (0.0, 50.0, 100.0) + _METRICS]
        singles = [GoalExpr("g", (atom,)) for atom in atoms]
        rng = random.Random(14)
        conjunctions = [rng.sample(range(len(atoms)), rng.randint(2, 3))
                        for _ in range(200)]
        conj_goals = [GoalExpr("c", tuple(atoms[k] for k in ks))
                      for ks in conjunctions]
        flagged = [(k, goal.vacuous[0][1])
                   for k, goal in enumerate(singles) if goal.vacuous]
        assert flagged
        states = 0
        for _ in range(40):
            init = build_cluster(*random_workload(rng))
            for _walk in range(3):
                state = init
                while state is not None:
                    states += 1
                    rates = compute_rates(state)
                    want = [_by_rates(rates, *atom) for atom in atoms]
                    assert [g.holds(state) for g in singles] == want
                    assert [g.holds(state) for g in conj_goals] == [
                        all(want[k] for k in ks) for ks in conjunctions]
                    assert all(want[k] == truth for k, truth in flagged)
                    succs = [t.state for t in iter_transitions(state)]
                    state = rng.choice(succs) if succs else None
        assert states > 1_000

    def test_unknown_metric_in_a_goal_made_directly(self):
        with pytest.raises(PropertySyntaxError):
            GoalExpr("g", (("bogus", ">=", 1.0),))


def _goal(text: str) -> GoalExpr:
    _, (goal,) = parse_properties(f"#define g {text};\n"
                                  "#assert cluster reaches g;\n")
    return goal


class TestVacuousAtoms:
    """GoalExpr.vacuous flags the atoms that the metric ranges decide:
    rates lie in [0, 100], counts are >= 0 and the workload is >= 1."""

    @pytest.mark.parametrize("text, always", [
        ("failurerate == 0", True),        # rate == reads as >=
        ("localityrate >= 0", True),
        ("fairnessrate <= 100", True),
        ("failurerate != 150", True),
        ("workload > 0", True),
        ("trackercount >= 0", True),
        ("schedulabilityrate > 100", False),
        ("resourcedeadlockrate == 101", False),
        ("failurerate < 0", False),
        ("workload < 1", False),
        ("completedscheduled < 0", False),
    ])
    def test_flagged(self, text, always):
        goal = _goal(text)
        assert goal.vacuous == ((goal.atoms[0], always),)

    @pytest.mark.parametrize("text", [
        "failurerate == 50", "failurerate >= 50", "failurerate != 50",
        "schedulabilityrate < 100", "localityrate > 0", "workload > 1",
        "workload == 1", "completedscheduled >= 5", "trackercount > 0",
        "completedscheduled == workload", "failurerate > localityrate",
        "failurerate == localityrate",
    ])
    def test_not_flagged(self, text):
        assert _goal(text).vacuous == ()

    def test_each_atom_of_a_conjunction_is_judged(self):
        goal = _goal("completedscheduled == workload && workload > 0 "
                     "&& failurerate > 100")
        assert goal.vacuous == ((Atom("workload", ">", 0.0), True),
                                (Atom("failurerate", ">", 100.0), False))

    def test_flags_leave_verdicts_alone(self):
        init = build("map_reduce_gate")
        assert verify(init, _goal("workload > 0")).verdict == "reachable"
        assert verify(init, _goal("failurerate > 100")).verdict == \
            "unreachable"


class TestVerify:
    @pytest.mark.parametrize("name", ["single_map", "map_reduce_gate",
                                      "two_jobs_fifo", "timeout_cascade",
                                      "deadlock_cycle"])
    @pytest.mark.parametrize("strategy", ["dfs", "dfs-sym"])
    def test_matches_bruteforce(self, name, strategy):
        init = build(name)
        for goal in (GOAL0,
                     GoalExpr("dl", (Atom("resourcedeadlockrate", ">=", 50.0),))):
            expected = oracle.goal_verdict(init, goal)
            assert verify(init, goal, strategy=strategy).verdict == expected

    def test_witness_state_satisfies_goal(self):
        init = build("map_reduce_gate")
        result = verify(init, GOAL0, strategy="dfs-sym")
        assert result.verdict == "reachable"
        final = replay(init, result.witness.steps)
        assert GOAL0.holds(final)

    def test_state_budget_yields_unknown(self):
        init = build("two_jobs_fifo")
        result = verify(init, GoalExpr("never", (Atom("failurerate", ">", 50.0),)),
                        strategy="dfs", state_budget=5)
        assert result.verdict == "unknown"
        assert "state budget" in result.reason

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_unknown_counts_exactly_the_state_budget(self, strategy):
        """A budget of b states visits b states at most: a search that
        stops on it reports b, and one whose space has b states ends."""
        init = build("speculative_copy")
        never = GoalExpr("never", (Atom("workload", "<", 0.0),))
        space = verify(init, never, strategy).states
        for budget in (1, 2, 7, space // 2, space - 1):
            result = verify(init, never, strategy, state_budget=budget)
            assert (result.verdict, result.states) == ("unknown", budget)
        assert verify(init, never, strategy,
                      state_budget=space).verdict == "unreachable"

    def test_budget_reason_says_how_far_the_run_got(self):
        """A spent state budget names the depth and clock of the state
        being expanded. The model is acyclic, so a first-successor chain
        never meets a visited state, and a budget of b states, the initial
        one included, stops the search as it expands the chain's state at
        depth b - 1."""
        init = build("speculative_copy")
        chain = [init]
        while (t := next(iter_transitions(chain[-1]), None)) is not None:
            chain.append(t.state)
        depth = next(d for d, s in enumerate(chain) if s.clock > 0)
        assert depth + 1 < len(chain)
        never = GoalExpr("never", (Atom("workload", "<", 0.0),))
        result = verify(init, never, strategy="dfs", state_budget=depth + 1)
        assert result.verdict == "unknown"
        assert result.reason == (f"state budget exhausted at depth {depth}, "
                                 f"clock_ms {chain[depth].clock}")

    def test_time_budget_yields_unknown(self):
        init = build("three_anon_nodes")
        result = verify(init, GoalExpr("never", (Atom("failurerate", ">", 50.0),)),
                        strategy="dfs", time_budget_s=1e-9)
        assert result.verdict in ("unknown", "unreachable")

    def test_time_budget_checked_at_duplicate_checkpoints(self, monkeypatch):
        """The deadline is read every 2,048 transitions, duplicates
        included: a clock past the deadline after its first read must stop
        the search at the first checkpoint."""
        import schedcheck.checker as checker_mod
        reads = iter([0.0])
        clock = SimpleNamespace(monotonic=lambda: next(reads, 1e9))
        monkeypatch.setattr(checker_mod, "time", clock)
        never = GoalExpr("never", (Atom("workload", "<", 0.0),))
        result = verify(build("speculative_copy"), never, strategy="dfs",
                        time_budget_s=1.0)
        assert result.verdict == "unknown"
        assert "time budget" in result.reason
        assert re.fullmatch(r"time budget exhausted at depth \d+, "
                            r"clock_ms \d+", result.reason)
        assert result.transitions <= 2048

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            verify(build("single_map"), GOAL0, strategy="bfs")

    @pytest.mark.parametrize("name,plain,sym", [
        ("map_reduce_gate", 214, 74), ("speculative_copy", 2526, 276),
        ("deadlock_cycle", 26, 16), ("queue_wait", 18, 18),
        ("three_anon_nodes", 6582, 418)])
    def test_fingerprints_partition_like_canonical_keys(self, name, plain,
                                                        sym):
        """An exhaustive search visits exactly one state per distinct
        structural key: the fingerprint partition is the canonical_key one,
        with and without symmetry reduction. `dfs` visits every reachable
        state; `dfs-sym` expands the initial state by activate_nn alone, so
        it visits the initial state and one state per symmetric key of the
        states reachable from activate_nn's successor."""
        init = build(name)

        def reach(start):
            reached = {canonical_key(start, sym=False): start}
            stack = [start]
            while stack:
                for t in iter_transitions(stack.pop()):
                    key = canonical_key(t.state, sym=False)
                    if key not in reached:
                        reached[key] = t.state
                        stack.append(t.state)
            return reached

        reached = reach(init)
        sym_keys = {canonical_key(s, sym=True) for s in reached.values()}
        assert (len(reached), len(sym_keys)) == (plain, sym)
        after_nn = reach(next(iter_transitions(init)).state)
        reduced_keys = {canonical_key(s, sym=True) for s in after_nn.values()}
        never = GoalExpr("never", (Atom("workload", "<", 0.0),))
        for strategy, states in (("dfs", len(reached)),
                                 ("dfs-sym", 1 + len(reduced_keys))):
            result = verify(init, never, strategy=strategy)
            assert result.verdict == "unreachable"
            assert result.states == states, strategy

    def test_fingerprints_partition_like_canonical_keys_on_random_draws(
            self):
        """Over random workloads explored to the end, two reachable states
        have equal fingerprints exactly when they have equal canonical
        keys, with and without symmetry. The draws put copies on named
        nodes and occupants of mixed classes on anonymous nodes: node facts
        that the fingerprint reads off the task views or packs into one
        class code a node."""
        rng = random.Random(1)
        cap = 800
        explored = named_copies = mixed_anon = 0
        for _ in range(200):
            init = build_cluster(*random_workload(rng))
            reached = {canonical_key(init, sym=False): init}
            stack = [init]
            while stack and len(reached) <= cap:
                for t in iter_transitions(stack.pop()):
                    key = canonical_key(t.state, sym=False)
                    if key not in reached:
                        reached[key] = t.state
                        stack.append(t.state)
            if len(reached) > cap:
                continue
            explored += 1
            for sym in (False, True):
                key_of, fp_of = {}, {}
                for state in reached.values():
                    fp, key = state.fingerprint(sym), canonical_key(state, sym)
                    assert key_of.setdefault(fp, key) == key, sym
                    assert fp_of.setdefault(key, fp) == fp, sym
            st = init.statics
            n, named = st.workload, st.named_nodes
            for state in reached.values():
                for i, node in enumerate(state.nodes):
                    occ = [o for o in node.slots if o is not None]
                    if i in named:
                        named_copies += any(o >= n for o in occ)
                    else:
                        mixed_anon += len({st.kind[o % n] + 2 * (o >= n)
                                           for o in occ}) > 1
        assert explored >= 100, explored
        assert named_copies > 0 and mixed_anon > 0, (named_copies, mixed_anon)

    def test_sym_explores_fewer_states(self):
        init = build("three_anon_two_jobs")
        unreach = GoalExpr("no", (Atom("failurerate", ">", 99.0),))
        plain = verify(init, unreach, strategy="dfs")
        sym = verify(init, unreach, strategy="dfs-sym")
        assert plain.verdict == sym.verdict == "unreachable"
        assert sym.states * 2 <= plain.states


class TestAssertions:
    def test_eventually_holds(self):
        init = build("map_reduce_gate")
        res = verify_assertion(
            init, TaskAssertion("m1", "eventually", PHASE_BY_NAME["Processed"]))
        assert res.verdict == "holds"

    def test_eventually_violated_by_cascade(self):
        init = build("timeout_cascade")
        res = verify_assertion(
            init, TaskAssertion("r1", "eventually",
                                PHASE_BY_NAME["Processed"]))
        assert res.verdict == "violated"
        assert res.witness is not None

    def test_never_failed_violated(self):
        init = build("timeout_cascade")
        res = verify_assertion(
            init, TaskAssertion("bad", "never", PHASE_BY_NAME["Failed"]))
        assert res.verdict == "violated"

    def test_never_failed_holds(self):
        init = build("map_reduce_gate")
        res = verify_assertion(
            init, TaskAssertion("m1", "never", PHASE_BY_NAME["Failed"]))
        assert res.verdict == "holds"

    def test_matches_bruteforce_on_fixtures(self):
        for name in ("map_reduce_gate", "timeout_cascade", "queue_wait"):
            init = build(name)
            for tid in init.statics.tids:
                for mode, phase in (("eventually", PHASE_BY_NAME["Processed"]),
                                    ("never", PHASE_BY_NAME["Failed"])):
                    a = TaskAssertion(tid, mode, phase)
                    assert verify_assertion(init, a).verdict == \
                        oracle.assertion_verdict(init, a), (name, tid, mode)

    def test_unknown_task_rejected(self):
        with pytest.raises(UnknownTask, match="^unknown task 'ghost'$"):
            verify_assertion(build("single_map"),
                             TaskAssertion("ghost", "never", 6))

    @pytest.mark.xfail(strict=True, reason="task_ever_reached(SCHEDULED) "
                       "counts a task failed by cascade while still queued")
    @pytest.mark.parametrize("strategy", ["dfs", "dfs-sym"])
    def test_cascade_failure_in_queue_is_not_scheduled(self, strategy):
        """One slot: m1 runs past the timeout and fails job j1 while m2 is
        still queued, so m2 fails by cascade without ever being scheduled."""
        trace = mk_trace([rec("m1", "j1", "map", 0, 500),
                          rec("m2", "j1", "map", 0, 50)])
        config = ClusterConfig(node_count=1, slots_per_node=1,
                               task_timeout_ms=100, max_speculative=0)
        _, (never_scheduled,) = parse_properties(
            "#assert task m2 never Scheduled;")
        res = verify_assertion(build_cluster(config, trace), never_scheduled,
                               strategy=strategy)
        assert res.verdict == "holds", [s.event for s in res.witness.steps]


class TestAmpleSet:
    """dfs-sym expands a NameNode-off state by activate_nn alone. That
    keeps every verdict only because activate_nn is the state's first move
    and changes nothing but the NameNode flag, which gates no other move."""

    @pytest.mark.parametrize("policy", ["fifo", "fair", "capacity"])
    def test_activate_nn_is_first_and_changes_only_the_flag(self, policy):
        """On every reachable NameNode-off state of every fixture: the
        first move is activate_nn, its successor differs only in
        namenode_on, and the state's moves are activate_nn followed by the
        successor's."""
        others = [f for f in GlobalState.__slots__ if f != "namenode_on"]
        checked = 0
        for fx in FIXTURES.values():
            init = build_cluster(fx.config.override(scheduler=policy),
                                 fx.trace)
            seen = {canonical_key(init, sym=False)}
            stack = [init]
            while stack:
                state = stack.pop()
                assert not state.namenode_on
                first, *rest = iter_transitions(state)
                assert first.event.name == "activate_nn"
                twin = first.state
                assert twin.namenode_on
                for f in others:
                    assert getattr(twin, f) == getattr(state, f), f
                assert [first.event.name] + [t.event.name for t in rest] == \
                    ["activate_nn"] + [t.event.name
                                       for t in iter_transitions(twin)]
                checked += 1
                # no move but activate_nn turns the NameNode on
                for t in rest:
                    key = canonical_key(t.state, sym=False)
                    if key not in seen:
                        seen.add(key)
                        stack.append(t.state)
        assert checked > 1000, checked

    def test_dfs_and_dfs_sym_agree_on_random_draws(self):
        """The unreduced `dfs` and the reduced `dfs-sym` give the same
        verdict on the acceptance goals and on each task's `never Failed`
        and `eventually Processed`, over random workloads. A draw is
        skipped for size when its `dfs-sym` space exceeds the cap."""
        _, goals = parse_properties(_GOALS_TEXT)
        never = GoalExpr("never", (Atom("workload", "<", 0.0),))
        rng = random.Random(23)
        draws, cap = 620, 60
        compared = skipped = 0
        verdicts = set()
        for _ in range(draws):
            init = build_cluster(*random_workload(rng))
            if verify(init, never, "dfs-sym", state_budget=cap).verdict == \
                    "unknown":
                skipped += 1
                continue
            checks = [(verify, goal) for goal in goals] + [
                (verify_assertion, TaskAssertion(tid, mode,
                                                 PHASE_BY_NAME[phase]))
                for tid in init.statics.tids
                for mode, phase in (("never", "Failed"),
                                    ("eventually", "Processed"))]
            for check, prop in checks:
                plain = check(init, prop, "dfs").verdict
                assert check(init, prop, "dfs-sym").verdict == plain, prop
                verdicts.add(plain)
                compared += 1
        print(f"\n{compared} verdicts agree over {draws - skipped} draws, "
              f"{skipped} skipped for size")
        assert draws - skipped >= 300, skipped
        assert verdicts == {"reachable", "unreachable", "holds", "violated"}


class TestSearchStack:
    def test_goal_hit_retains_no_step_frames(self):
        """At the goal hit of a deep first-witness search, the stack holds
        no transition builder and no suspended step generator, and the
        states of the path only at checkpoints and in its last
        CHECKPOINT_EVERY levels."""
        n = 2_000
        trace = synthesize(GeneratorSpec(n_tasks=n, node_count=8), seed=1)
        init = build_cluster(ClusterConfig(node_count=8, slots_per_node=2),
                             trace)
        goal = GoalExpr("half", (Atom("completedscheduled", ">=", n / 2),))
        census = {}

        class Census:
            def holds(self, state):
                if not goal.holds(state):
                    return False
                live = gc.get_objects()
                census["builders"] = sum(
                    type(o).__name__ == "_Builder" for o in live)
                census["generators"] = sum(
                    isinstance(o, GeneratorType)
                    and o.gi_code.co_filename == model_mod.__file__
                    for o in live)
                census["states"] = sum(isinstance(o, GlobalState)
                                       for o in live)
                return True

        result = verify(init, Census(), strategy="dfs-sym")
        assert result.verdict == "reachable"
        steps = len(result.witness.steps)
        assert steps > 1_000
        assert census["builders"] == 0, census
        assert census["generators"] == 0, census
        every = checker_mod.CHECKPOINT_EVERY
        assert census["states"] <= steps // every + every + 2, \
            (census, steps)


class TestCheckpoints:
    """Any checkpoint spacing gives the same search: every verdict, count,
    budget reason and witness of the default spacing, on the runs of the
    golden pin (tests/test_explore_golden.py) and a search of each
    fixture that a budget of 100 states stops or lets end. Spacings of 2,
    3 and 5 rebuild on almost every backtrack. Time-budget stops depend on
    the clock and are left out."""

    NEVER = GoalExpr("never", (Atom("workload", "<", 0.0),))

    @staticmethod
    def _runs():
        _, goals = parse_properties(_GOALS_TEXT)
        out = {}
        for name in sorted(FIXTURES):
            init = build(name)
            for strategy in STRATEGIES:
                for goal in goals:
                    out[name, goal.name, strategy] = verify(init, goal,
                                                            strategy)
                out[name, "budget", strategy] = verify(
                    init, TestCheckpoints.NEVER, strategy, state_budget=100)
            for tid in init.statics.tids:
                for mode, phase in (("never", "Failed"),
                                    ("eventually", "Processed")):
                    out[name, tid, mode] = verify_assertion(
                        init, TaskAssertion(tid, mode, PHASE_BY_NAME[phase]),
                        "dfs-sym")
        return {key: (r.verdict, r.states, r.transitions, r.reason,
                      None if r.witness is None else r.witness.steps)
                for key, r in out.items()}

    @pytest.fixture(scope="class")
    def default(self):
        return self._runs()

    @pytest.mark.parametrize("every", [2, 3, 5])
    def test_spacing_changes_nothing(self, monkeypatch, default, every):
        rebuilds = [0]
        real = checker_mod._rebuild

        def counting(*args):
            rebuilds[0] += 1
            return real(*args)

        monkeypatch.setattr(checker_mod, "CHECKPOINT_EVERY", every)
        monkeypatch.setattr(checker_mod, "_rebuild", counting)
        runs = self._runs()
        assert sum(r[0] == "unknown" for r in runs.values()) >= 15
        assert rebuilds[0] > 0
        diffs = [key for key in default if runs[key] != default[key]]
        assert not diffs, (diffs[0], runs[diffs[0]], default[diffs[0]])

    @pytest.mark.parametrize("every", [None, 2])
    def test_searches_sum_only_the_initial_state_from_scratch(
            self, monkeypatch, every):
        """A search takes the O(n) sum (model.position_sum) once, for its
        initial state, and chains every other state's from its parent's
        entry, _rebuild included: at every state a search fingerprints,
        at the default spacing or at 2, which rebuilds on almost every
        backtrack, the sum it passes equals the sum from scratch. A state
        fingerprinted without a sum takes it from scratch."""
        real_sum, real_fp = model_mod.position_sum, GlobalState.fingerprint
        real_search, real_rebuild = checker_mod._search, checker_mod._rebuild
        summed, searched, chained, rebuilds = [], [], [0], [0]

        def counting_sum(state, sym):
            summed.append(state)
            return real_sum(state, sym)

        def checked_fp(state, sym, psum=None):
            if psum is not None:
                chained[0] += 1
                assert psum == real_sum(state, sym)
            return real_fp(state, sym, psum)

        def counting_search(initial, *args):
            searched.append(initial)
            return real_search(initial, *args)

        def counting_rebuild(*args):
            rebuilds[0] += 1
            return real_rebuild(*args)

        for module in (model_mod, checker_mod):
            monkeypatch.setattr(module, "position_sum", counting_sum)
        monkeypatch.setattr(GlobalState, "fingerprint", checked_fp)
        monkeypatch.setattr(checker_mod, "_search", counting_search)
        monkeypatch.setattr(checker_mod, "_rebuild", counting_rebuild)
        if every is not None:
            monkeypatch.setattr(checker_mod, "CHECKPOINT_EVERY", every)
        assert len(self._runs()) > 200
        assert len(searched) > 200
        assert summed == searched
        assert chained[0] > 10 * len(searched)
        assert (rebuilds[0] > 0) == (every is not None)
        del summed[:]
        init = build("map_reduce_gate")
        child = next(iter_transitions(init)).state
        next(iter_transitions(child)).state.fingerprint(True)
        assert len(summed) == 1


class _Probe:
    """A goal that records whether the cyclic collector runs each time the
    explorer tests a state, and may run a step of its own first."""

    def __init__(self, goal, step=None):
        self.goal, self.step, self.seen = goal, step, []

    def holds(self, state):
        if self.step is not None:
            self.step()
        self.seen.append(gc.isenabled())
        return self.goal.holds(state)


@pytest.fixture
def collector_on():
    """The collector runs when the test starts, and again after it."""
    gc.enable()
    yield
    gc.enable()


class TestCollectorPause:
    """_explore pauses the cyclic collector for the span of one search and
    puts it back as it was on every way out."""

    NEVER = GoalExpr("never", (Atom("workload", "<", 0.0),))
    # way out -> (fixture, goal, verify options, verdict)
    EXITS = {
        "hit": ("map_reduce_gate", GOAL0, {}, "reachable"),
        "end": ("map_reduce_gate", NEVER, {}, "unreachable"),
        "state budget": ("speculative_copy", NEVER, {"state_budget": 50},
                         "unknown"),
        "time budget": ("speculative_copy", NEVER, {"time_budget_s": 1.0},
                        "unknown")}

    @pytest.mark.parametrize("exit_by", list(EXITS))
    def test_restored_after_every_result(self, collector_on, monkeypatch,
                                         exit_by):
        fixture, goal, options, verdict = self.EXITS[exit_by]
        if exit_by == "time budget":
            # the deadline has passed at the first check
            reads = iter([0.0])
            monkeypatch.setattr(checker_mod, "time", SimpleNamespace(
                monotonic=lambda: next(reads, 1e9)))
        probe = _Probe(goal)
        result = verify(build(fixture), probe, strategy="dfs", **options)
        assert result.verdict == verdict
        if verdict == "unknown":
            assert result.reason.startswith(exit_by)
        assert probe.seen and not any(probe.seen)
        assert gc.isenabled()

    def test_restored_after_an_exception_from_found(self, collector_on):
        def fail():
            raise RuntimeError("goal test failed")

        probe = _Probe(GOAL0, step=fail)
        with pytest.raises(RuntimeError, match="goal test failed"):
            verify(build("map_reduce_gate"), probe)
        assert gc.isenabled()

    def test_a_paused_collector_stays_paused(self, collector_on):
        gc.disable()
        probe = _Probe(GOAL0)
        assert verify(build("map_reduce_gate"), probe).verdict == "reachable"
        assert not gc.isenabled()
        assert_res = verify_assertion(
            build("timeout_cascade"),
            TaskAssertion("bad", "never", PHASE_BY_NAME["Failed"]))
        assert assert_res.verdict == "violated"
        assert not gc.isenabled()

    def test_a_nested_search_leaves_it_paused_for_the_outer(
            self, collector_on):
        inner = build("single_map")
        after_inner = []

        def nested():
            assert verify(inner, GOAL0).verdict == "reachable"
            after_inner.append(gc.isenabled())

        probe = _Probe(self.NEVER, step=nested)
        result = verify(build("map_reduce_gate"), probe, strategy="dfs")
        assert result.verdict == "unreachable"
        assert after_inner and not any(after_inner)
        assert not any(probe.seen)
        assert gc.isenabled()

    def test_explorer_makes_no_cycles(self, collector_on, monkeypatch):
        """What makes the pause safe: with the collector off, deep and
        exhaustive searches, hits and budget stops, leave nothing for it
        to collect, at the default checkpoint spacing and at a spacing of
        3, where the searches rebuild path states, some of them more than
        200 levels deep: the 100-task model's first path ends near depth
        300, and the search backtracks from there."""
        rebuilt_at = []  # the path depth of each rebuild
        real = checker_mod._rebuild

        def rebuild(stack, *args):
            rebuilt_at.append(len(stack) - 1)
            return real(stack, *args)

        monkeypatch.setattr(checker_mod, "_rebuild", rebuild)
        n = 2_000
        trace = synthesize(GeneratorSpec(n_tasks=n, node_count=8), seed=1)
        deep = build_cluster(ClusterConfig(node_count=8, slots_per_node=2),
                             trace)
        half = GoalExpr("half", (Atom("completedscheduled", ">=", n / 2),))
        last = deep.statics.tids[-1]
        mid = build_cluster(ClusterConfig(node_count=8, slots_per_node=2),
                            synthesize(GeneratorSpec(n_tasks=100,
                                                     node_count=8), seed=1))
        small = build("speculative_copy")
        runs = [
            (deep, half, TaskAssertion(last, "never",
                                       PHASE_BY_NAME["Scheduled"])),
            (deep, self.NEVER, TaskAssertion(last, "eventually",
                                             PHASE_BY_NAME["Failed"])),
            (mid, self.NEVER, TaskAssertion(mid.statics.tids[-1], "never",
                                            PHASE_BY_NAME["Failed"])),
            (small, GOAL0, TaskAssertion("slow", "never",
                                         PHASE_BY_NAME["Failed"])),
            (small, self.NEVER, TaskAssertion("f1", "eventually",
                                              PHASE_BY_NAME["Processed"]))]
        verdicts = []
        for every in (checker_mod.CHECKPOINT_EVERY, 3):
            monkeypatch.setattr(checker_mod, "CHECKPOINT_EVERY", every)
            gc.collect()
            gc.disable()
            for init, goal, assertion in runs:
                for strategy in STRATEGIES:
                    verdicts.append(verify(init, goal, strategy=strategy,
                                           state_budget=3_000).verdict)
                    verdicts.append(verify_assertion(
                        init, assertion, strategy=strategy,
                        state_budget=3_000).verdict)
            assert gc.collect() == 0, every
        assert {"reachable", "unreachable", "violated", "holds",
                "unknown"} <= set(verdicts), verdicts
        assert max(rebuilt_at) > 200, max(rebuilt_at)


class TestTracerContract:
    """The explorer draws every transition through the module name
    `checker.iter_transitions` with next() alone, so a tracer may rebind
    that name to a plain generator and see every transition."""

    @pytest.mark.parametrize("strategy", ["dfs", "dfs-sym"])
    @pytest.mark.parametrize("name", ["map_reduce_gate", "speculative_copy",
                                      "timeout_cascade", "deadlock_cycle"])
    def test_generator_wrapper_changes_nothing(self, monkeypatch, name,
                                               strategy):
        def run():
            init = build(name)
            out = [verify(init, GOAL0, strategy)]
            for tid in init.statics.tids:
                out.append(verify_assertion(
                    init, TaskAssertion(tid, "never", PHASE_BY_NAME["Failed"]),
                    strategy))
            return [(r.verdict, r.states, r.transitions,
                     None if r.witness is None else r.witness.steps)
                    for r in out]

        plain = run()
        real = checker_mod.iter_transitions
        drawn = [0]

        def counting(state):
            for t in real(state):
                drawn[0] += 1
                yield t

        monkeypatch.setattr(checker_mod, "iter_transitions", counting)
        assert run() == plain
        assert drawn[0] >= sum(r[2] for r in plain)
