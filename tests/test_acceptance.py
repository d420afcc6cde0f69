"""Acceptance gate: one test per criterion, tolerances stated inline.

Each criterion prints its measured numbers so a failed run shows how far
off it landed, and each asserts its own wall-clock budget.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fixtures import ANON3_FIXTURES, FIXTURES, mk_trace, rec
from invariants import run_suite
import oracle

import schedcheck
from schedcheck.analysis import (FAILED_LABEL, FINISHED, breakdown, classify,
                                 df_from_percentages, run_to_quiescence)
from schedcheck.checker import (STRATEGIES, GoalExpr, TaskAssertion,
                                parse_properties, verify, verify_assertion)
from schedcheck.cli import main
from schedcheck.config import ClusterConfig
from schedcheck.model import (FAILED, FINISHED_WITHIN_DEADLINE, PROCESSED,
                              build_cluster, make_witness)
from schedcheck.trace import GeneratorSpec, synthesize
from schedcheck.whatif import ComparisonReport, LegResult, sweep

# Goal forms checked against the brute-force oracle on every fixture.
_GOALS_TEXT = """
#define goal0 completedscheduled == workload && workload > 0;
#define dl50 resourcedeadlockrate >= 50;
#define nofail failurerate == 0 && completedscheduled == workload;
#define sched80 schedulabilityrate >= 80 && completedscheduled == workload;
#assert cluster reaches goal0;
#assert cluster reaches dl50;
#assert cluster reaches nofail;
#assert cluster reaches sched80;
"""

# Criterion 1 adds goals that constrain failures, which land only at
# completion: goal0's verdict is nofail's on every fixture, not theirs.
_FAILURE_GOALS_TEXT = """
#define clean failurerate <= 0 && schedulabilityrate >= 100 && completedscheduled == workload;
#define anyfail failurerate > 0;
#assert cluster reaches clean;
#assert cluster reaches anyfail;
"""


def _build(name):
    fx = FIXTURES[name]
    return build_cluster(fx.config, fx.trace)


def test_criterion_1_oracle_equivalence():
    """Checker verdicts equal the independent brute-force enumerator's on
    every bundled small fixture, for goal and assertion forms, under the
    full `dfs` and the reduced `dfs-sym`. Exact."""
    t0 = time.monotonic()
    spent = {"oracle": 0.0, "checker": 0.0}

    def timed(side, fn, *args):
        t = time.monotonic()
        out = fn(*args)
        spent[side] += time.monotonic() - t
        return out

    _, goals = parse_properties(_GOALS_TEXT + _FAILURE_GOALS_TEXT)
    names = sorted(FIXTURES)
    assert len(names) >= 12
    compared = 0
    verdicts = {goal.name: [] for goal in goals}
    for name in names:
        initial = _build(name)
        space = timed("oracle", oracle.explore, initial)
        for goal in goals:
            want = timed("oracle", oracle.goal_verdict, space, goal)
            verdicts[goal.name].append(want)
            for strategy in STRATEGIES:
                got = timed("checker", verify, initial, goal,
                            strategy).verdict
                assert got == want, \
                    f"{name}/{goal.name}/{strategy}: {got} != oracle {want}"
                compared += 1
        for tid in initial.statics.tids:
            for mode, phase in (("eventually", FINISHED_WITHIN_DEADLINE),
                                ("eventually", PROCESSED),
                                ("never", FAILED)):
                a = TaskAssertion(tid, mode, phase)
                want = timed("oracle", oracle.assertion_verdict, space, a)
                for strategy in STRATEGIES:
                    got = timed("checker", verify_assertion, initial, a,
                                strategy).verdict
                    assert got == want, f"{name}/{tid} {mode}/{strategy}: " \
                        f"{got} != oracle {want}"
                    compared += 1
    elapsed = time.monotonic() - t0
    print(f"\ncriterion 1: {compared} verdicts across {len(names)} fixtures "
          f"all match the oracle ({elapsed:.1f}s: oracle "
          f"{spent['oracle']:.1f}s, checker {spent['checker']:.1f}s)")
    assert compared == 480
    # each failure goal parts from goal0 on some fixture
    for goal in ("clean", "anyfail"):
        assert verdicts[goal] != verdicts["goal0"], goal
    assert elapsed < 60.0


def test_criterion_2_symmetry_soundness_and_effect():
    """dfs and dfs-sym agree on every fixture; on fixtures with >=3
    anonymous identical nodes, dfs-sym explores >=2x fewer states."""
    t0 = time.monotonic()
    _, goals = parse_properties(_GOALS_TEXT)
    for name in sorted(FIXTURES):
        initial = _build(name)
        for goal in goals:
            plain = verify(initial, goal, strategy="dfs")
            sym = verify(initial, goal, strategy="dfs-sym")
            assert plain.verdict == sym.verdict, f"{name}/{goal.name}"
    ratios = {}
    unreachable = GoalExpr("nohit", (("failurerate", ">", 99.0),))
    for name in ANON3_FIXTURES:
        initial = _build(name)
        plain = verify(initial, unreachable, strategy="dfs")
        sym = verify(initial, unreachable, strategy="dfs-sym")
        ratios[name] = plain.states / sym.states
        assert ratios[name] >= 2.0, \
            f"{name}: only {ratios[name]:.2f}x reduction"
    elapsed = time.monotonic() - t0
    print(f"\ncriterion 2: reduction " +
          ", ".join(f"{n} {r:.1f}x" for n, r in ratios.items()) +
          f" ({elapsed:.1f}s)")
    assert elapsed < 60.0


def test_criterion_3_confusion_matrix_arithmetic():
    t0 = time.monotonic()
    truth = mk_trace([
        rec("t1", "j1", "map", 0, 100, outcome="SUCCESS"),
        rec("t2", "j1", "map", 0, 100, outcome="SUCCESS"),
        rec("t3", "j1", "map", 0, 100, outcome="SUCCESS"),
        rec("t4", "j2", "map", 0, 100, outcome="FAIL"),
        rec("t5", "j2", "map", 0, 100, outcome="SUCCESS"),
        rec("t6", "j2", "map", 0, 100, outcome="FAIL"),
    ])
    predicted = {"t1": FINISHED, "t2": FINISHED, "t3": FINISHED,
                 "t4": FINISHED, "t5": FAILED_LABEL, "t6": FAILED_LABEL}
    cm = classify(predicted, truth)
    assert cm.tp_pct == pytest.approx(50.00, abs=0.01)
    assert cm.tn_pct == pytest.approx(16.67, abs=0.01)
    assert cm.fp_pct == pytest.approx(16.67, abs=0.01)
    assert cm.fn_pct == pytest.approx(16.67, abs=0.01)
    df = df_from_percentages(tn_pct=4.62, fp_pct=1.26)
    assert df == pytest.approx(78.57, abs=0.01)
    elapsed = time.monotonic() - t0
    print(f"\ncriterion 3: matrix 50.00/16.67/16.67/16.67, DF {df:.2f} "
          f"({elapsed:.3f}s)")
    assert elapsed < 1.0


def test_criterion_4_whatif_arithmetic_and_direction():
    t0 = time.monotonic()

    # Arithmetic: supplied baseline 5.88% vs scenario 3.54%.
    base = LegResult(5.88, {}, 0, True, "reachable")
    scen = LegResult(3.54, {}, 0, True, "reachable")
    report = ComparisonReport("fixture", base, scen)
    assert report.absolute_reduction_pts == pytest.approx(2.34, abs=0.02)
    assert report.reduction_rate_pct == pytest.approx(39.79, abs=0.02)

    # Direction: on a saturated synthetic fixture, 4 -> 8 nodes strictly
    # reduces queue-wait-caused failures.
    trace = synthesize(GeneratorSpec(n_tasks=120, failure_fraction=0.0,
                                     interarrival_ms=15000, node_count=4),
                       seed=5)
    cfg = ClusterConfig(node_count=4, slots_per_node=1, deadline_factor=10.0)
    _, goals = parse_properties(
        "#define any workload > 0;\n#assert cluster reaches any;\n")
    rows = sweep(cfg, "nodes", [4, 8], trace, goals[0])
    qw = [r.scenario.cause_counts.get("QueueWait", 0) for r in rows]
    assert all(r.scenario.conclusive for r in rows)
    assert qw[1] < qw[0], f"queue-wait failures did not drop: {qw}"
    elapsed = time.monotonic() - t0
    print(f"\ncriterion 4: reduction 2.34pts / 39.79%, queue-wait "
          f"{qw[0]} -> {qw[1]} at 8 nodes ({elapsed:.1f}s)")
    assert elapsed < 120.0


def test_criterion_5_scale_smoke(tmp_path):
    """100,000-task synthesized trace; cmd_verify with dfs-sym and a
    5M-state budget must conclude (exit 0 or 1, never 2)."""
    t0 = time.monotonic()
    spec = tmp_path / "gen.conf"
    spec.write_text("n_tasks = 100000\nfailure_fraction = 0.0588\n"
                    "node_count = 8\n")
    trace = tmp_path / "big.csv"
    assert main(["gen", "--spec", str(spec), "--seed", "1",
                 "--out", str(trace)]) == 0
    props = tmp_path / "props.txt"
    props.write_text("#define busy completedscheduled >= 50000;\n"
                     "#assert cluster reaches busy;\n")
    config = tmp_path / "cluster.conf"
    config.write_text("node_count = 8\nslots_per_node = 2\n"
                      "deadline_factor = 200\n")
    out = tmp_path / "report.json"
    code = main(["verify", "--config", str(config), "--trace", str(trace),
                 "--properties", str(props), "--strategy", "dfs-sym",
                 "--state-budget", "5000000", "--out", str(out)])
    assert code in (0, 1), f"exit {code}: budget exhausted or error"
    report = json.loads(out.read_text())
    states = report["properties"][0]["states"]
    elapsed = time.monotonic() - t0
    print(f"\ncriterion 5: exit {code}, {states} states ({elapsed:.0f}s)")
    assert elapsed < 1800.0


# The child reads its peak RSS from VmHWM, which a new program image
# starts afresh; ru_maxrss would carry over the RSS of the process that
# spawned it.
_PARSE_AND_BUILD = """
import sys, time
from schedcheck.config import load_config
from schedcheck.model import build_cluster
from schedcheck.trace import parse
t = time.perf_counter()
state = build_cluster(load_config(sys.argv[2]), parse(sys.argv[1]))
seconds = time.perf_counter() - t
with open("/proc/self/status") as fh:
    kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM"))
print(seconds, kb / 1024)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc (Linux)")
def test_criterion_5_trace_and_model_fit_in_85_mb(tmp_path):
    """Criterion 5's 100,000-task `gen` trace, parsed and built in a fresh
    process, peaks at no more than 85 MB max RSS, interpreter included
    (the record-per-row parse and copying build peaked at 100 MB)."""
    t0 = time.monotonic()
    spec = tmp_path / "gen.conf"
    spec.write_text("n_tasks = 100000\nfailure_fraction = 0.0588\n"
                    "node_count = 8\n")
    trace = tmp_path / "big.csv"
    assert main(["gen", "--spec", str(spec), "--seed", "1",
                 "--out", str(trace)]) == 0
    config = tmp_path / "cluster.conf"
    config.write_text("node_count = 8\nslots_per_node = 2\n"
                      "deadline_factor = 200\n")
    src = Path(schedcheck.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", _PARSE_AND_BUILD, str(trace), str(config)],
        env=env, capture_output=True, text=True, check=True).stdout
    seconds, max_rss_mb = map(float, out.split())
    elapsed = time.monotonic() - t0
    print(f"\ncriterion 5 set-up: parse + build_cluster {seconds:.2f}s, "
          f"max RSS {max_rss_mb:.1f} MB ({elapsed:.0f}s)")
    assert max_rss_mb <= 85.0
    assert elapsed < 120.0


def test_criterion_6_invariant_suite():
    t0 = time.monotonic()
    run_suite(random.Random(20260826), n_workloads=1000)
    elapsed = time.monotonic() - t0
    print(f"\ncriterion 6: 1000 randomized workloads clean ({elapsed:.0f}s)")
    assert elapsed < 600.0


def test_criterion_7_failure_cause_profile():
    t0 = time.monotonic()
    spec = GeneratorSpec(n_tasks=1000, profile="opencloud", node_count=8)
    trace = synthesize(spec, seed=42)
    cfg = ClusterConfig(node_count=8, slots_per_node=2,
                        task_timeout_ms=spec.timeout_ms,
                        deadline_factor=200.0, speculation_factor=1.5)
    steps = []
    final = run_to_quiescence(build_cluster(cfg, trace), on_step=steps.append)
    b = breakdown(make_witness(steps, final))
    assert b.timeout_pct == pytest.approx(32.0, abs=5.0)
    assert b.speculative_pct == pytest.approx(26.0, abs=5.0)
    elapsed = time.monotonic() - t0
    print(f"\ncriterion 7: timeout {b.timeout_pct:.1f}%, "
          f"speculative {b.speculative_pct:.1f}% of {b.failed_total} "
          f"failures ({elapsed:.0f}s)")
    assert elapsed < 300.0


@pytest.mark.parametrize("max_queue", [10_000, 1_000],
                         ids=["queue-in-window", "window-binds"])
def test_no_scaling_cliff_across_policies(max_queue):
    """On an 8,000-task trace with a standing queue (the shape of the
    benchmark's policy sweep: 8 x 2 slots, four fair pools, three capacity
    queues), a fair or capacity first-witness verify takes at most twice
    as long as fifo's, best of 3 each. With max_queue at 1,000 the queue
    outgrows the window, so the policies must also tell which pool heads
    lie in it."""
    t0 = time.monotonic()
    n = 8_000
    trace = synthesize(GeneratorSpec(n_tasks=n, interarrival_ms=10_000,
                                     node_count=8, profile="opencloud"),
                       seed=1)
    _, (goal,) = parse_properties(
        f"#define busy completedscheduled >= {n // 2};\n"
        "#assert cluster reaches busy;\n")
    base = ClusterConfig(
        node_count=8, slots_per_node=2, deadline_factor=200.0, fair_pools=4,
        capacity_queues=(("prod", 0.5), ("batch", 0.3), ("adhoc", 0.2)),
        max_queue=max_queue)
    best = {}
    for policy in ("fifo", "fair", "capacity"):
        initial = build_cluster(base.override(scheduler=policy), trace)
        times = []
        for _ in range(3):
            t = time.perf_counter()
            result = verify(initial, goal, "dfs-sym")
            times.append(time.perf_counter() - t)
            assert result.verdict == "reachable", f"{policy}: {result}"
        best[policy] = min(times)
    elapsed = time.monotonic() - t0
    print(f"\nno scaling cliff: best of 3 verifies at {n} tasks, max_queue "
          f"{max_queue}, " +
          ", ".join(f"{p} {s:.2f}s" for p, s in best.items()) +
          f" ({elapsed:.0f}s)")
    for policy in ("fair", "capacity"):
        assert best[policy] <= 2.0 * best["fifo"], \
            f"{policy} is {best[policy] / best['fifo']:.1f}x fifo"
    assert elapsed < 300.0
