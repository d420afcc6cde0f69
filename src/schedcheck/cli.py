"""Command-line front end: load config and traces, verify properties,
analyze failures against ground truth, run what-if comparisons, generate
synthetic traces.

Exit codes: 0 all properties valid / analysis complete; 1 some property
invalid; 2 inconclusive (state or time budget exhausted); 3 usage, parse or
input error. The code is a pure function of the report contents.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__, analysis, checker, trace as trace_mod, whatif
from .config import ClusterConfig, load_config, parse_config_text
from .errors import SchedCheckError, UnknownTask
from .model import PHASE_NAMES, build_cluster
from .rates import compute_rates

MAX_WITNESS_STEPS_IN_REPORT = 1000


def _load_inputs(args):
    config = load_config(args.config) if args.config else ClusterConfig()
    if args.scheduler:
        config = config.override(scheduler=args.scheduler)
    workload = trace_mod.parse(args.trace)
    return config, workload


def _witness_json(witness):
    if witness is None:
        return None
    steps = [{"event": s.event, "payload": s.payload, "clock_ms": s.clock_ms,
              "changed": [list(c) for c in s.changed]}
             for s in witness.steps[:MAX_WITNESS_STEPS_IN_REPORT]]
    return {"steps": steps,
            "steps_total": len(witness.steps),
            "steps_truncated": len(witness.steps) > MAX_WITNESS_STEPS_IN_REPORT,
            "terminal": witness.terminal}


def _result_json(label, result):
    return {"property": label,
            "verdict": result.verdict,
            "states": result.states,
            "transitions": result.transitions,
            "time_s": round(result.elapsed_s, 3),
            "strategy": result.strategy,
            "reason": result.reason,
            "witness": _witness_json(result.witness)}


def _write_report(report, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _exit_code(report) -> int:
    verdicts = [p["verdict"] for p in report.get("properties", [])]
    if any(v == "unknown" for v in verdicts):
        return 2
    if any(v in ("unreachable", "violated") for v in verdicts):
        return 1
    return 0


def _config_echo(config) -> dict:
    d = dataclasses.asdict(config)
    d["capacity_queues"] = [list(q) for q in d["capacity_queues"]]
    return d


def _obligations(args, workload) -> list:
    """The property file's assertions in file order; every task assertion
    must name a task of the trace."""
    with open(args.properties, encoding="utf-8") as fh:
        _defs, obligations = checker.parse_properties(fh.read())
    if not obligations:
        raise SchedCheckError("property file contains no assertions")
    known = {r.task_id for r in workload.records}
    for prop in obligations:
        if isinstance(prop, checker.TaskAssertion) and \
                prop.task_id not in known:
            raise UnknownTask(prop.task_id)
    return obligations


def _first_goal(args, workload, command: str) -> checker.GoalExpr:
    """The first 'cluster reaches' goal: the one property analyze and
    whatif report, and so the only one they verify."""
    for prop in _obligations(args, workload):
        if isinstance(prop, checker.GoalExpr):
            return prop
    raise SchedCheckError(f"{command} needs a 'cluster reaches' assertion")


def _warn_vacuous(goal: checker.GoalExpr) -> None:
    """One stderr line per atom of the goal that the metric ranges alone
    decide (GoalExpr.vacuous); the verdict is unaffected."""
    for (metric, op, rhs), always in goal.vacuous:
        value = rhs if isinstance(rhs, str) else f"{rhs:g}"
        print(f"warning: goal {goal.name}: {metric} {op} {value} holds in "
              f"{'every' if always else 'no'} state, judged from the metric "
              f"ranges alone", file=sys.stderr)


def _verify_properties(args, initial, obligations) -> list:
    rows = []
    for prop in obligations:
        if isinstance(prop, checker.GoalExpr):
            _warn_vacuous(prop)
            label = f"cluster reaches {prop.name}"
            check = checker.verify
        else:
            label = f"task {prop.task_id} {prop.mode} {PHASE_NAMES[prop.phase]}"
            check = checker.verify_assertion
        rows.append((label, check(initial, prop, strategy=args.strategy,
                                  state_budget=args.state_budget,
                                  time_budget_s=args.time_budget)))
    return rows


def _print_table(rows):
    print(f"{'Property':<48} {'Valid?':<8} {'#States':>10} {'Time(s)':>9}")
    for label, result in rows:
        valid = {"reachable": "Yes", "holds": "Yes",
                 "unreachable": "No", "violated": "No"}.get(result.verdict, "?")
        print(f"{label:<48} {valid:<8} {result.states:>10} "
              f"{result.elapsed_s:>9.2f}")


def cmd_verify(args) -> int:
    config, workload = _load_inputs(args)
    initial = build_cluster(config, workload)
    rows = _verify_properties(args, initial, _obligations(args, workload))
    report = {
        "version": __version__,
        "command": "verify",
        "config": _config_echo(config),
        "trace_stats": dataclasses.asdict(trace_mod.stats(workload)),
        "properties": [_result_json(label, r) for label, r in rows],
    }
    _print_table(rows)
    _write_report(report, args.out)
    return _exit_code(report)


def cmd_analyze(args) -> int:
    config, workload = _load_inputs(args)
    initial = build_cluster(config, workload)
    goal = _first_goal(args, workload, "analysis")
    ((label, result),) = _verify_properties(args, initial, [goal])
    report = {
        "version": __version__,
        "command": "analyze",
        "config": _config_echo(config),
        "trace_stats": dataclasses.asdict(trace_mod.stats(workload)),
        "properties": [_result_json(label, result)],
    }
    if result.conclusive:
        # an unreachable goal has no witness: grade the run from the start
        final = analysis.run_to_quiescence(
            result.witness.state if result.witness else initial)
        witness = checker.make_witness((), final)
        predicted = analysis.predicted_outcomes(final)
        cm = analysis.classify(predicted, workload)
        report["rates"] = compute_rates(final).as_dict()
        report["confusion_matrix"] = cm.as_dict()
        report["breakdown"] = analysis.breakdown(witness).as_dict()
        if workload.failed_count > 0:
            df = analysis.detected_failures(cm, workload)
            report["detected_failures"] = {"df_pct": df.df_pct,
                                           "defined_over": df.defined_over}
        print(f"{'':<14} {'TP':>8} {'TN':>8} {'FP':>8} {'FN':>8} {'DF':>8}")
        df_txt = (f"{report['detected_failures']['df_pct']:.2f}"
                  if "detected_failures" in report else "n/a")
        print(f"{'% of tasks':<14} {cm.tp_pct:>8.2f} {cm.tn_pct:>8.2f} "
              f"{cm.fp_pct:>8.2f} {cm.fn_pct:>8.2f} {df_txt:>8}")
    _write_report(report, args.out)
    return _exit_code(report)


def _parse_scenario_file(path, base: ClusterConfig) -> whatif.Scenario:
    """`label = ...` names the scenario; every other line overrides its
    field of the base config, even with the field's default value."""
    label = ""
    lines, keys = [], []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#")[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key == "label":
                label = value.strip()
            else:
                lines.append(line)
                keys.append(key)
    overridden = parse_config_text("\n".join(lines))
    delta = {key: getattr(overridden, key) for key in keys}
    return whatif.Scenario(base, delta, label or path)


def cmd_whatif(args) -> int:
    config, workload = _load_inputs(args)
    goal = _first_goal(args, workload, "what-if")
    reports = []
    if args.sweep:
        values = [v.strip() for v in args.values.split(",") if v.strip()]
        if len(values) < 2:
            raise SchedCheckError(
                "--sweep needs at least two comma-separated --values")
        if args.sweep != "scheduler":
            try:
                values = [int(v) for v in values]
            except ValueError:
                raise SchedCheckError(f"--sweep {args.sweep} takes integer "
                                      f"values, got {args.values!r}") from None
        _warn_vacuous(goal)
        reports = whatif.sweep(config, args.sweep, values, workload, goal,
                               strategy=args.strategy,
                               state_budget=args.state_budget,
                               time_budget_s=args.time_budget)
    else:
        if not args.scenario:
            raise SchedCheckError("--scenario FILE or --sweep required")
        scenario = _parse_scenario_file(args.scenario, config)
        _warn_vacuous(goal)
        reports = [whatif.run(scenario, workload, goal,
                              strategy=args.strategy,
                              state_budget=args.state_budget,
                              time_budget_s=args.time_budget)]
    report = {
        "version": __version__,
        "command": "whatif",
        "config": _config_echo(config),
        "goal": goal.name,
        "comparisons": [r.as_dict() for r in reports],
        "properties": [{"property": r.label,
                        "verdict": r.scenario.verdict if r.conclusive
                        else "unknown",
                        "states": r.baseline.states + r.scenario.states}
                       for r in reports],
    }
    print(f"{'Scenario':<24} {'Base%':>8} {'Scen%':>8} {'Δpts':>8} {'Rate%':>8}")
    for r in reports:
        print(f"{r.label:<24} {r.baseline_failure_pct:>8.2f} "
              f"{r.scenario_failure_pct:>8.2f} "
              f"{r.absolute_reduction_pts:>8.2f} "
              f"{r.reduction_rate_pct:>8.2f}")
    _write_report(report, args.out)
    if any(not r.conclusive for r in reports):
        return 2
    return 0


def cmd_gen(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        spec = trace_mod.parse_generator_spec(fh.read())
    generated = trace_mod.synthesize(spec, seed=args.seed)
    trace_mod.write(generated, args.out)
    st = trace_mod.stats(generated)
    print(f"wrote {st.task_count} tasks / {st.job_count} jobs to {args.out} "
          f"(failure fraction {st.failure_fraction_pct:.2f}%)")
    return 0


def _at_least(least, kind):
    """An argparse type: a `kind` number no smaller than `least`."""
    def parse(text):
        value = kind(text)
        if not value >= least:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {text}")
        return value
    parse.__name__ = kind.__name__  # names the type in argparse's messages
    return parse


def _build_parser():
    p = argparse.ArgumentParser(
        prog="schedcheck",
        description="Formal analysis of cluster scheduler behaviour: "
                    "verify reachability properties, grade predictions "
                    "against trace ground truth, compare configurations.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="cluster config file (key=value)")
        sp.add_argument("--trace", nargs="+", required=True,
                        help="workload trace CSV file(s)")
        sp.add_argument("--scheduler", choices=["fifo", "fair", "capacity"],
                        help="override the configured scheduling policy")
        sp.add_argument("--strategy", choices=list(checker.STRATEGIES),
                        default="dfs-sym")
        sp.add_argument("--state-budget", type=_at_least(1, int),
                        default=5_000_000,
                        help="distinct states to visit at most (>= 1)")
        sp.add_argument("--time-budget", type=_at_least(0, float),
                        default=0.0,
                        help="wall-clock budget in seconds (>= 0; 0 = none)")
        sp.add_argument("--out", help="write the JSON report here")
        sp.add_argument("--properties", required=True)

    sp = sub.add_parser("verify", help="check properties against a workload")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("analyze",
                        help="grade model predictions against trace outcomes")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("whatif", help="compare configurations")
    common(sp)
    sp.add_argument("--scenario", help="config-override file")
    sp.add_argument("--sweep", choices=["nodes", "slots", "timeout",
                                        "scheduler"])
    sp.add_argument("--values", default="",
                    help="comma-separated sweep values")
    sp.set_defaults(func=cmd_whatif)

    sp = sub.add_parser("gen", help="synthesize a workload trace CSV")
    sp.add_argument("--spec", required=True,
                    help="generator parameters (key=value)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="write the trace CSV here")
    sp.set_defaults(func=cmd_gen)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; --help exits 0
        return 0 if exc.code in (0, None) else 3
    except SchedCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
