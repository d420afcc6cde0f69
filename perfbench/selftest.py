"""The benchmark's own tests: every workload at a tiny size passes its
checks, and every check rejects a deliberately wrong answer, so none of
them passes vacuously.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir():
    # inside the checkout, like the benchmark's own working files
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as d:
        yield d


def _round(workload):
    ctx = workload.setup()
    return ctx, workload.run_round(ctx)


def _problems(workload, ctx, out, results):
    return workload.check(ctx, out._replace(results=results)).problems


# --------------------------------------------------------------------------
# analyze-large

@pytest.fixture
def analyze(workdir):
    w = workloads.AnalyzeLarge(3, workdir, n_tasks=400)
    ctx, out = _round(w)
    return w, ctx, out


def test_analyze_large_passes(analyze):
    w, ctx, out = analyze
    checked = w.check(ctx, out)
    assert checked == (3, 0, [])
    assert out.transitions > 0
    assert out.check_s > 0 and out.analyze_s > 0


def test_analyze_large_rejects_flipped_goal_verdict(analyze):
    w, ctx, out = analyze
    goal_r, task_r, analysis = out.results
    bad = dataclasses.replace(goal_r, verdict="unreachable")
    assert _problems(w, ctx, out, (bad, task_r, analysis))


def test_analyze_large_rejects_broken_witnesses(analyze):
    w, ctx, out = analyze
    goal_r, task_r, analysis = out.results
    steps = goal_r.witness.steps
    short = dataclasses.replace(goal_r, witness=dataclasses.replace(
        goal_r.witness, steps=steps[: len(steps) // 2]))
    assert _problems(w, ctx, out, (short, task_r, analysis))
    late = steps[-1]._replace(clock_ms=steps[-1].clock_ms + 1)
    moved = dataclasses.replace(goal_r, witness=dataclasses.replace(
        goal_r.witness, steps=steps[:-1] + (late,)))
    assert _problems(w, ctx, out, (moved, task_r, analysis))
    t_steps = task_r.witness.steps
    cut = dataclasses.replace(task_r, witness=dataclasses.replace(
        task_r.witness, steps=t_steps[:-1]))
    assert _problems(w, ctx, out, (goal_r, cut, analysis))


def test_analyze_large_rejects_wrong_grading(analyze):
    w, ctx, out = analyze
    goal_r, task_r, analysis = out.results
    cm = analysis["cm"]
    wrong_cm = dict(analysis, cm=dataclasses.replace(
        cm, tp_count=cm.tp_count - 1, fn_count=cm.fn_count + 1))
    assert _problems(w, ctx, out, (goal_r, task_r, wrong_cm))
    df = analysis["df"]
    wrong_df = dict(analysis, df=df._replace(df_pct=df.df_pct - 1.0))
    assert _problems(w, ctx, out, (goal_r, task_r, wrong_df))
    rates = analysis["rates"]
    wrong_rate = dict(analysis, rates=dataclasses.replace(
        rates, failurerate=rates.failurerate + 0.5))
    assert _problems(w, ctx, out, (goal_r, task_r, wrong_rate))
    tid = sorted(w.over_timeout)[0]
    wrong_pred = dict(analysis, predicted=dict(analysis["predicted"],
                                               **{tid: "Finished"}))
    assert _problems(w, ctx, out, (goal_r, task_r, wrong_pred))


def test_analyze_large_rejects_occupied_slot(analyze):
    w, ctx, out = analyze
    goal_r, task_r, analysis = out.results
    final = analysis["final"]
    busy = object.__new__(type(final))
    for name in type(final).__slots__:
        setattr(busy, name, getattr(final, name))
    node = final.nodes[0]
    busy.nodes = (node._replace(slots=("t0",) + node.slots[1:]),) + \
        final.nodes[1:]
    assert _problems(w, ctx, out, (goal_r, task_r, dict(analysis, final=busy)))


# --------------------------------------------------------------------------
# whatif-policies

@pytest.fixture
def whatif(workdir):
    w = workloads.WhatifPolicies(3, workdir, n_tasks=150)
    ctx, out = _round(w)
    return w, ctx, out


def test_whatif_passes(whatif):
    w, ctx, out = whatif
    assert w.check(ctx, out) == (6, 0, [])
    assert out.check_s > 0 and out.analyze_s > 0 and out.transitions > 0


def _with_leg(reports, i, side, **changes):
    r = reports[i]
    leg = dataclasses.replace(getattr(r, side), **changes)
    return reports[:i] + [dataclasses.replace(r, **{side: leg})] + \
        reports[i + 1:]


def test_whatif_rejects_non_identical_baseline(whatif):
    w, ctx, out = whatif
    reports = out.results
    bad = _with_leg(reports, 2, "baseline", states=reports[2].baseline.states + 1)
    assert _problems(w, ctx, out, bad)


def test_whatif_rejects_base_scenario_unlike_baseline(whatif):
    w, ctx, out = whatif
    reports = out.results
    pct = reports[0].scenario.failure_pct
    bad = _with_leg(reports, 0, "scenario", failure_pct=pct + 1.0)
    assert _problems(w, ctx, out, bad)


def test_whatif_rejects_inconclusive_leg(whatif):
    w, ctx, out = whatif
    bad = _with_leg(out.results, 1, "scenario", conclusive=False,
                    verdict="unknown")
    assert _problems(w, ctx, out, bad)


def test_whatif_rejects_failures_below_over_timeout_share(whatif):
    w, ctx, out = whatif
    bad = _with_leg(out.results, 1, "scenario", failure_pct=0.0,
                    cause_counts={})
    assert w.n_over > 0
    assert _problems(w, ctx, out, bad)


def test_whatif_rejects_cause_counts_off_by_one(whatif):
    w, ctx, out = whatif
    counts = dict(out.results[2].scenario.cause_counts)
    counts["Timeout"] = counts.get("Timeout", 0) + 1
    bad = _with_leg(out.results, 2, "scenario", cause_counts=counts)
    assert _problems(w, ctx, out, bad)


# --------------------------------------------------------------------------
# exhaustive-small

@pytest.fixture(scope="module")
def exhaustive():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as d:
        # model 4 is seeded index 3, the first drawn with a cascade
        w = workloads.ExhaustiveSmall(3, d, n_models=4)
        ctx, out = _round(w)
        yield w, ctx, out


def _fault_ops(w):
    return sum(2 for m in w.models for p in m.props if p.fault_pattern)


def test_exhaustive_passes_and_counts_the_known_fault(exhaustive):
    w, ctx, out = exhaustive
    checked = w.check(ctx, out)
    assert checked.problems == []
    assert checked.attempted == 2 * sum(len(m.props) for m in w.models)
    # the cascade model's Scheduled assertions on `late` and `r1`: 2 tasks
    # x 2 modes x 2 strategies, of which the fault spoils 6 (see the
    # reference tests below)
    assert w.models[0].faulty == {"late", "r1"}
    assert _fault_ops(w) == 8
    assert checked.failed == 6


def test_exhaustive_seeded_cascade_asks_processed(exhaustive):
    """A seeded model with a task that can fail unscheduled asks that
    task's Processed pair in place of its Scheduled pair, so every seed asks
    as many questions and none the fault spoils."""
    w, _, _ = exhaustive
    plain, cascade = w.models[1:4], w.models[4]
    assert all(not m.faulty for m in plain) and cascade.faulty
    for tid in cascade.faulty:
        phases = {p.assertion[2] for p in cascade.props
                  if p.assertion is not None and p.assertion[0] == tid}
        assert phases == {ref.FINISHED_WITHIN, ref.FAILED, ref.PROCESSED}
    assert len({len(m.props) for m in w.models if len(m.spec.tasks) == 3}) \
        == 1


def _with_result(out, model_i, prop_i, strategy_i, **changes):
    verdicts, analyses = out.results
    verdicts = [list(per) for per in verdicts]
    pair = list(verdicts[model_i][prop_i])
    pair[strategy_i] = dataclasses.replace(pair[strategy_i], **changes)
    verdicts[model_i][prop_i] = tuple(pair)
    return verdicts, analyses


def _find(w, out, pred, models=None):
    for mi, per in enumerate(out.results[0]):
        if mi not in (models or range(1, len(w.models))):
            continue
        for pi, pair in enumerate(per):
            if pred(w.models[mi].props[pi], pair):
                return mi, pi
    raise AssertionError("no such operation in the tiny model set")


def test_exhaustive_rejects_flipped_verdict(exhaustive):
    w, ctx, out = exhaustive
    mi, pi = _find(w, out, lambda p, pair: pair[0].verdict == "holds")
    for strategy_i in (0, 1):
        bad = _with_result(out, mi, pi, strategy_i, verdict="violated")
        assert _problems(w, ctx, out, bad)


def test_exhaustive_rejects_wrong_state_count(exhaustive):
    w, ctx, out = exhaustive
    mi, pi = _find(w, out, lambda p, pair: pair[0].verdict == "unreachable")
    plain = out.results[0][mi][pi][0]
    bad = _with_result(out, mi, pi, 0, states=plain.states - 1)
    assert _problems(w, ctx, out, bad)
    bad = _with_result(out, mi, pi, 1, states=plain.states + 1)
    assert _problems(w, ctx, out, bad)


def test_exhaustive_rejects_strategy_disagreement(exhaustive):
    w, ctx, out = exhaustive
    mi, pi = _find(w, out, lambda p, pair: pair[0].verdict == "reachable")
    bad = _with_result(out, mi, pi, 1, verdict="unreachable", witness=None)
    assert _problems(w, ctx, out, bad)


def test_exhaustive_rejects_witness_that_shows_nothing(exhaustive):
    w, ctx, out = exhaustive
    mi, pi = _find(w, out, lambda p, pair: p.assertion is not None
                   and p.assertion[1] == "never"
                   and pair[1].verdict == "violated")
    witness = out.results[0][mi][pi][1].witness
    bad = _with_result(out, mi, pi, 1, witness=dataclasses.replace(
        witness, steps=()))
    assert _problems(w, ctx, out, bad)


def test_exhaustive_fault_pattern_is_by_task_not_model(exhaustive):
    """On the fixed cascade model, a wrong answer outside the fault's
    pattern is a problem, not a failed operation."""
    w, ctx, out = exhaustive
    mi, pi = _find(w, out, lambda p, pair: p.assertion is not None
                   and p.assertion[2] == ref.SCHEDULED
                   and p.assertion[0] not in w.models[0].faulty, models=(0,))
    want = out.results[0][mi][pi][0].verdict
    flipped = "holds" if want == "violated" else "violated"
    bad = _with_result(out, mi, pi, 0, verdict=flipped)
    checked = w.check(ctx, out._replace(results=bad))
    assert checked.problems and checked.failed == 6


def test_exhaustive_rejects_wrong_grading(exhaustive):
    w, ctx, out = exhaustive
    verdicts, analyses = out.results
    rows = [list(r) for r in analyses]
    cm = rows[1][0]["cm"]
    rows[1][0] = dict(rows[1][0], cm=dataclasses.replace(
        cm, tp_count=cm.tp_count + 1, fp_count=cm.fp_count - 1))
    assert _problems(w, ctx, out, (verdicts, rows))


# --------------------------------------------------------------------------
# the reference itself

def test_reference_sees_the_scheduled_fault(workdir):
    """On the cascade model the map `bad` times out; in some runs `late`
    is still queued then and never holds a slot, and `r1` never does in
    any run. The enumeration judges by each run's phase history."""
    w = workloads.ExhaustiveSmall(1, workdir, n_models=0)
    (m,) = w.models
    got = {p.label: v for p, v in zip(m.props, m.expected)}
    assert got["late eventually 2"] == "violated"
    assert got["r1 eventually 2"] == "violated"
    assert got["r1 never 2"] == "holds"
    assert got["late never 2"] == "violated"
    assert got["bad never 6"] == "violated"


def test_reference_goal_arithmetic():
    class C:
        n_fin_within, n_scheduled, n_served_fair = 4, 5, 5
        n_deadlock, locality, nonlocality, n_failed = 0, 3, 1, 1
        completedscheduled, trackercount = 5, 2

    class S:
        counters = C()

        class statics:
            tids = tuple(f"t{i}" for i in range(5))

    m = ref.metrics(S())
    assert m["schedulabilityrate"] == 80.0 and m["failurerate"] == 20.0
    assert ref.goal_met(S(), (("schedulabilityrate", "==", 70),))
    assert not ref.goal_met(S(), (("failurerate", "<=", 0),))
    assert ref.goal_met(S(), (("completedscheduled", "==", "workload"),))


# --------------------------------------------------------------------------
# measurement

def test_clock_counts_at_the_probe_speed(monkeypatch):
    """While the probe takes twice its reference time, the clock runs at
    half speed, and the probe's own time is left out."""
    def slow_probe():
        t = clock.perf()
        while clock.perf() - t < 2 * clock.PROBE_REF_S:
            pass
        return clock.perf() - t
    monkeypatch.setattr(clock, "probe", slow_probe)
    clock.start()
    try:
        t0, w0, p0 = clock.now(), clock.perf(), clock.probe_s
        while clock.perf() - w0 < 0.5:
            pass
        t1, w1, p1 = clock.now(), clock.perf(), clock.probe_s
    finally:
        clock.stop()
    assert clock.ticks >= 4
    assert t1 - t0 == pytest.approx((w1 - w0 - (p1 - p0)) / 2, rel=0.05)


def test_rounds_pass_their_figures_and_checks_through():
    class Fixed:
        def setup(self):
            return None

        def run_round(self, ctx):
            return workloads.RoundOut(2.0, 1.0, 3.0, 10, "outputs")

        def check(self, ctx, out):
            assert out.results == "outputs"
            return workloads.Checked(4, 1, [])

    tally, setups = run.Tally(), []
    rounds = run.run_rounds(Fixed(), 0, tally, setups)
    assert [(r.check_s, r.analyze_s, r.round_s, r.results) for r in rounds] \
        == [(2.0, 1.0, 3.0, None)]
    assert len(setups) == run.SETUP_REPEATS
    assert (tally.attempted, tally.failed) == (4, 1)
    m = run.end_to_end(setups, rounds)
    assert m["transitions_per_s"] == (5.0, "1/s")


def test_tracer_sees_every_layer_and_restores_the_program(workdir):
    import schedcheck.checker as checker_mod
    import schedcheck.model as model_mod
    originals = (model_mod.iter_transitions, checker_mod.verify,
                 model_mod.GlobalState.fingerprint, checker_mod.GoalExpr.holds)
    w = workloads.AnalyzeLarge(5, workdir, n_tasks=300)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ctx, out = _round(w)
    finally:
        tracer.uninstall()
    assert (model_mod.iter_transitions, checker_mod.verify,
            model_mod.GlobalState.fingerprint,
            checker_mod.GoalExpr.holds) == originals
    assert w.check(ctx, out).problems == []
    m = tracing.layer_metrics(tracer, 1)
    assert m["checker.transitions"][0] == out.transitions
    assert m["model.transitions"][0] > out.transitions  # replay, quiescence
    for name in ("trace.parse_s", "model.build_cluster_s", "model.step_us",
                 "model.fingerprint_us", "model.task_ever_reached_us",
                 "model.replay_s", "policies.select_us",
                 "rates.compute_rates_us", "checker.goal_holds_us",
                 "checker.explore_self_us", "analysis.run_to_quiescence_s",
                 "analysis.quiescence_steps"):
        assert m[name][0] > 0, name
    assert m["whatif.legs"][0] == 0


# --------------------------------------------------------------------------
# the command

def test_run_fails_without_the_program(workdir):
    """With only the benchmark's files, the command exits non-zero and
    prints no result."""
    bare = Path(workdir) / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".perfbench-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
