import pytest

from fixtures import FIXTURES, mk_trace, rec

import oracle

from schedcheck import whatif
from schedcheck.analysis import run_to_quiescence
from schedcheck.checker import Atom, GoalExpr, verify
from schedcheck.config import ClusterConfig
from schedcheck.model import (CAUSE_NAMES, FAILED, FINISHED_AFTER_DEADLINE,
                              FINISHED_WITHIN_DEADLINE, build_cluster, replay)
from schedcheck.whatif import Scenario, run, sweep

GOAL0 = GoalExpr("goal0", (Atom("completedscheduled", "==", "workload"),
                           Atom("workload", ">", 0.0)))
ANY = GoalExpr("any", (Atom("workload", ">", 0.0),))
DL = GoalExpr("dl", (Atom("resourcedeadlockrate", ">=", 50.0),))


class TestRun:
    def test_identity_scenario_is_null(self):
        fx = FIXTURES["timeout_cascade"]
        report = run(Scenario(fx.config, {}, "identity"), fx.trace, GOAL0)
        assert report.baseline_failure_pct == report.scenario_failure_pct
        assert report.absolute_reduction_pts == 0.0
        assert report.reduction_rate_pct == 0.0
        assert report.baseline.cause_counts == report.scenario.cause_counts

    def test_reduction_arithmetic(self):
        fx = FIXTURES["timeout_cascade"]
        # doubling the timeout clears every failure in this fixture
        report = run(Scenario(fx.config, {"task_timeout_ms": 4_000}, "t4s"),
                     fx.trace, GOAL0)
        assert report.baseline_failure_pct == pytest.approx(100.0)
        assert report.scenario_failure_pct == pytest.approx(0.0)
        assert report.absolute_reduction_pts == pytest.approx(100.0)
        assert report.reduction_rate_pct == pytest.approx(100.0)
        # the identity the spec requires: rate recomputable from the pcts
        recomputed = 100.0 * report.absolute_reduction_pts / \
            report.baseline_failure_pct
        assert report.reduction_rate_pct == pytest.approx(recomputed, abs=0.01)

    def test_added_slot_clears_deadlock(self):
        fx = FIXTURES["deadlock_self"]
        report = run(Scenario(fx.config, {"slots_per_node": 2}, "slots+1"),
                     fx.trace, DL)
        assert report.scenario_failure_pct < report.baseline_failure_pct
        # cross-check both legs with the exhaustive enumerator
        base_min, base_max = oracle.failure_pct_range(
            build_cluster(fx.config, fx.trace))
        scen_min, scen_max = oracle.failure_pct_range(
            build_cluster(fx.config.override(slots_per_node=2), fx.trace))
        assert base_max == pytest.approx(100.0)  # deadlock dead end exists
        assert scen_max == pytest.approx(0.0)    # and is gone with the slot
        assert report.baseline.verdict == "reachable"
        assert report.scenario.verdict == "unreachable"

    def test_inconclusive_leg_flagged(self):
        fx = FIXTURES["two_jobs_fifo"]
        report = run(Scenario(fx.config, {}, "tight"), fx.trace,
                     GoalExpr("no", (Atom("failurerate", ">", 99.0),)),
                     state_budget=3)
        assert not report.conclusive


class TestSweep:
    def test_timeout_sweep_single_task_arithmetic(self):
        # one 500 s task: fails at timeout 300 000 ms, succeeds at 600 000
        trace = mk_trace([rec("m1", "j1", "map", 0, 500_000)])
        base = ClusterConfig(node_count=1, slots_per_node=1)
        reports = sweep(base, "timeout", [300_000, 600_000], trace, ANY)
        fail_counts = [sum(r.scenario.cause_counts.values()) for r in reports]
        assert fail_counts == [1, 0]

    def test_scheduler_sweep_rows(self):
        fx = FIXTURES["two_jobs_fifo"]
        reports = sweep(fx.config, "scheduler", ["fifo", "fair", "capacity"],
                        fx.trace, GOAL0)
        assert [r.label for r in reports] == [
            "scheduler=fifo", "scheduler=fair", "scheduler=capacity"]
        assert all(r.conclusive for r in reports)

    def test_scheduler_sweep_verifies_the_baseline_once(self, monkeypatch):
        fx = FIXTURES["fair_two_pools"]  # base scheduler: fair
        values = ["fifo", "fair", "capacity"]
        verified = []
        verify = whatif.verify

        def counting_verify(initial, *args, **kwargs):
            verified.append(initial.config.scheduler)
            return verify(initial, *args, **kwargs)

        monkeypatch.setattr(whatif, "verify", counting_verify)
        reports = sweep(fx.config, "scheduler", values, fx.trace, GOAL0)
        # the base leg once, then one leg per value unlike the base
        assert verified == ["fair", "fifo", "capacity"]
        monkeypatch.undo()
        assert reports == [
            run(Scenario(fx.config, {"scheduler": v}, f"scheduler={v}"),
                fx.trace, GOAL0)
            for v in values]

    def test_bad_dimension_and_short_values(self):
        fx = FIXTURES["two_jobs_fifo"]
        with pytest.raises(ValueError):
            sweep(fx.config, "disks", [1, 2], fx.trace, GOAL0)
        with pytest.raises(ValueError):
            sweep(fx.config, "nodes", [4], fx.trace, GOAL0)

    def test_determinism(self):
        fx = FIXTURES["timeout_cascade"]
        s = Scenario(fx.config, {"node_count": 3}, "n3")
        r1 = run(s, fx.trace, GOAL0)
        r2 = run(s, fx.trace, GOAL0)
        assert r1.as_dict() == r2.as_dict()


def own_tally(config, trace, goal):
    """(failure %, cause -> count) read off the phases of the run a leg
    grades: the goal witness replayed, or the initial state when there is
    none, extended to quiescence."""
    initial = build_cluster(config, trace)
    result = verify(initial, goal)
    final = run_to_quiescence(replay(initial, result.witness.steps)
                              if result.witness else initial)
    counts: dict = {}
    for tid in final.statics.tids:
        rt = final.task(tid)
        if rt.phase in (FINISHED_WITHIN_DEADLINE, FINISHED_AFTER_DEADLINE):
            continue
        cause = CAUSE_NAMES[rt.cause] if rt.phase == FAILED else "Unresolved"
        counts[cause] = counts.get(cause, 0) + 1
    return 100.0 * sum(counts.values()) / len(final.statics.tids), counts


class TestLegTally:
    @pytest.mark.parametrize("name, delta, goal, verdict, counts", [
        ("timeout_cascade", {}, GOAL0, "unreachable",
         {"Timeout": 1, "Cascade": 2}),
        ("timeout_cascade", {}, ANY, "reachable",
         {"Timeout": 1, "Cascade": 2}),
        ("timeout_cascade", {"task_timeout_ms": 4_000}, GOAL0, "reachable",
         {}),
        ("deadlock_self", {}, DL, "reachable", {"Unresolved": 2}),
        ("deadlock_self", {"slots_per_node": 2}, DL, "unreachable", {}),
        ("two_jobs_fifo", {}, GOAL0, "reachable", {}),
        ("fair_two_pools", {"scheduler": "capacity"}, GOAL0, "reachable", {}),
    ])
    def test_leg_matches_own_tally(self, name, delta, goal, verdict, counts):
        fx = FIXTURES[name]
        leg = run(Scenario(fx.config, delta), fx.trace, goal).scenario
        assert leg.verdict == verdict
        assert leg.cause_counts == counts
        assert (leg.failure_pct, leg.cause_counts) == \
            own_tally(fx.config.override(**delta), fx.trace, goal)
