"""The benchmark's three workloads.

Each workload makes its inputs from the seed when constructed (untimed),
then offers `setup()` (parse the CSV input and build the initial state:
the timed set-up), `run_round()` (one whole round of the user-visible
operations, timed on the reference clock) and `check()` (the round's
outputs against the benchmark's own answers, untimed). Every call into
the program goes through a module attribute, so the traced run's wrappers
see it.
"""

from __future__ import annotations

import os
import random
from typing import NamedTuple

import schedcheck.analysis as analysis_mod
import schedcheck.checker as checker_mod
import schedcheck.model as model_mod
import schedcheck.rates as rates_mod
import schedcheck.trace as trace_mod
import schedcheck.whatif as whatif_mod
from schedcheck.config import ClusterConfig

import clock
import inputs
import reference as ref


class RoundOut(NamedTuple):
    """One round's timings and outputs."""
    check_s: float        # time inside verify / verify_assertion
    analyze_s: float      # the program's time outside them: replay,
    #                       quiescence, grading and, in a sweep, leg builds
    round_s: float        # the whole round
    transitions: int      # checker transitions in the round
    results: object       # workload-specific outputs for check()


class Checked(NamedTuple):
    attempted: int
    failed: int           # operations that hit the known fault
    problems: list        # wrong answers; any makes the run incorrect


def _analyze(initial, witness, workload):
    """The `schedcheck analyze` pipeline on one verdict: extend the witness
    run (or, without one, the initial state) to quiescence and grade it."""
    start = (model_mod.replay(initial, witness.steps) if witness is not None
             else initial)
    final = analysis_mod.run_to_quiescence(start)
    predicted = analysis_mod.predicted_outcomes(final)
    cm = analysis_mod.classify(predicted, workload)
    out = {"final": final, "predicted": predicted, "cm": cm,
           "rates": rates_mod.compute_rates(final),
           "breakdown": analysis_mod.breakdown(
               model_mod.make_witness((), final)),
           "df": None}
    if workload.failed_count > 0:
        out["df"] = analysis_mod.detected_failures(cm, workload)
    return out


def _grading_problems(analysis, labels, where) -> list:
    """The confusion matrix must equal the benchmark's own tally of the
    final phases against its labels, and DF must be TN over the FAILs."""
    problems = []
    tally = ref.phase_tally(analysis["final"], labels)
    cm = analysis["cm"]
    got = {k: getattr(cm, k) for k in ("tp_count", "tn_count", "fp_count",
                                       "fn_count")}
    want = {k: tally[k] for k in got}
    if got != want:
        problems.append(f"{where}: confusion matrix {got}, own tally {want}")
    n_fail = sum(1 for o in labels.values() if o == "FAIL")
    df = analysis["df"]
    if n_fail and (df is None or df.defined_over != n_fail
                   or df.df_pct != 100.0 * tally["tn_count"] / n_fail):
        problems.append(f"{where}: DF {df}, own {tally['tn_count']}/{n_fail}")
    if analysis["rates"].failurerate != \
            100.0 * tally["failed_phase"] / len(labels):
        problems.append(f"{where}: failurerate {analysis['rates'].failurerate}"
                        f" != 100 x {tally['failed_phase']} / {len(labels)}")
    return problems


def _large_config(**extra) -> ClusterConfig:
    return ClusterConfig(node_count=inputs.NODE_COUNT,
                         slots_per_node=inputs.SLOTS_PER_NODE,
                         task_timeout_ms=inputs.TIMEOUT_MS, max_speculative=1,
                         deadline_factor=200.0, **extra)


# --------------------------------------------------------------------------

class AnalyzeLarge:
    """One first-witness dfs-sym goal check and one task assertion over a
    ~10k-task fifo trace, then the analyze pipeline on the goal witness:
    what `schedcheck analyze` does with a two-line property file."""

    name = "analyze-large"

    def __init__(self, seed: int, workdir: str, n_tasks: int = 10_000):
        tasks = inputs.large_trace(n_tasks, 50_000, seed)
        self.csv = os.path.join(workdir, "analyze-large.csv")
        inputs.write_csv(tasks, self.csv)
        self.config = _large_config(scheduler="fifo")
        self.labels = {t.task_id: t.outcome for t in tasks}
        self.over_timeout = {t.task_id for t in tasks
                             if t.duration_ms > inputs.TIMEOUT_MS}
        self.threshold = n_tasks // 2
        self.watched = next(t.task_id for t in tasks if t.outcome == "FAIL")
        _, (self.goal, self.assertion) = checker_mod.parse_properties(
            f"#define busy completedscheduled >= {self.threshold};\n"
            "#assert cluster reaches busy;\n"
            f"#assert task {self.watched} never Failed;\n")

    def setup(self):
        workload = trace_mod.parse(self.csv)
        return workload, model_mod.build_cluster(self.config, workload)

    def run_round(self, ctx) -> RoundOut:
        workload, initial = ctx
        t0 = clock.now()
        goal_r = checker_mod.verify(initial, self.goal, "dfs-sym")
        task_r = checker_mod.verify_assertion(initial, self.assertion,
                                              "dfs-sym")
        t1 = clock.now()
        analysis = (_analyze(initial, goal_r.witness, workload)
                    if goal_r.witness is not None else None)
        t2 = clock.now()
        return RoundOut(t1 - t0, t2 - t1, t2 - t0,
                        goal_r.transitions + task_r.transitions,
                        (goal_r, task_r, analysis))

    def check(self, ctx, out: RoundOut) -> Checked:
        _, initial = ctx
        goal_r, task_r, analysis = out.results
        problems = []
        if goal_r.verdict != "reachable" or goal_r.witness is None:
            problems.append(f"goal verdict {goal_r.verdict}, want reachable")
        else:
            steps = goal_r.witness.steps
            clock = 0
            processed = set()
            for i, s in enumerate(steps):
                if s.clock_ms < clock:
                    problems.append(f"witness clock falls at step {i}")
                clock = s.clock_ms
                for tid, old, new in s.changed:
                    if new <= old:
                        problems.append(f"step {i}: {tid} moves {old}->{new}")
                    if new == ref.PROCESSED:
                        processed.add(tid)
            if len(processed) < self.threshold:
                problems.append(f"witness processes {len(processed)} tasks, "
                                f"goal needs {self.threshold}")
            try:
                final, _, _ = ref.replay_steps(initial, steps)
                if not ref.goal_met(final, ((
                        "completedscheduled", ">=", self.threshold),)):
                    problems.append("replayed witness misses the goal")
            except ValueError as exc:
                problems.append(f"goal witness does not replay: {exc}")
        if task_r.verdict != "violated" or task_r.witness is None:
            problems.append(f"{self.watched} never Failed: verdict "
                            f"{task_r.verdict}, want violated")
        else:
            try:
                _, history, _ = ref.replay_steps(initial, task_r.witness.steps)
                if (self.watched, ref.FAILED) not in history:
                    problems.append(f"witness never fails {self.watched}")
            except ValueError as exc:
                problems.append(f"assertion witness does not replay: {exc}")
        if analysis is None:
            problems.append("no analysis: the goal had no witness")
            return Checked(3, 0, problems)
        final = analysis["final"]
        for tid in sorted(self.over_timeout):
            if analysis["predicted"][tid] != "Failed" or \
                    final.task(tid).phase != ref.FAILED:
                problems.append(f"over-timeout task {tid} not predicted "
                                "Failed")
                break
        df = analysis["df"]
        if df is None or df.df_pct != 100.0:
            problems.append(f"DF {df}, want 100 %")
        problems += _grading_problems(analysis, self.labels, "analysis")
        occupied = sum(s is not None for n in final.nodes for s in n.slots)
        slots = self.config.node_count * self.config.slots_per_node
        if occupied or final.counters.free_slots != slots:
            problems.append(f"at quiescence {occupied} slots occupied, "
                            f"free_slots {final.counters.free_slots} of "
                            f"{slots}")
        return Checked(3, 0, problems)


# --------------------------------------------------------------------------

class WhatifPolicies:
    """`whatif.sweep` over the scheduler, fifo base, on a ~1k-task trace
    with a standing queue, so the fair and capacity legs spend their time
    choosing among queued entries."""

    name = "whatif-policies"
    VALUES = ("fifo", "fair", "capacity")

    def __init__(self, seed: int, workdir: str, n_tasks: int = 1_000):
        tasks = inputs.large_trace(n_tasks, 20_000, seed)
        self.csv = os.path.join(workdir, "whatif-policies.csv")
        inputs.write_csv(tasks, self.csv)
        self.n_tasks = n_tasks
        self.config = _large_config(
            scheduler="fifo", fair_pools=4,
            capacity_queues=(("prod", 0.5), ("batch", 0.3), ("adhoc", 0.2)))
        self.n_over = sum(t.duration_ms > inputs.TIMEOUT_MS for t in tasks)
        _, (self.goal,) = checker_mod.parse_properties(
            f"#define busy completedscheduled >= {n_tasks // 2};\n"
            "#assert cluster reaches busy;\n")

    def setup(self):
        workload = trace_mod.parse(self.csv)
        return workload, model_mod.build_cluster(self.config, workload)

    def run_round(self, ctx) -> RoundOut:
        workload, _ = ctx
        legs = []             # (seconds, transitions) of each verify call
        verify = whatif_mod.verify

        def timed_verify(*args, **kwargs):
            t = clock.now()
            result = verify(*args, **kwargs)
            legs.append((clock.now() - t, result.transitions))
            return result

        whatif_mod.verify = timed_verify
        try:
            t0 = clock.now()
            reports = whatif_mod.sweep(self.config, "scheduler",
                                       list(self.VALUES), workload, self.goal,
                                       strategy="dfs-sym")
            t1 = clock.now()
        finally:
            whatif_mod.verify = verify
        # the rest of the sweep is each leg's build, replay, quiescence and
        # tally
        check_s = sum(d for d, _ in legs)
        return RoundOut(check_s, (t1 - t0) - check_s, t1 - t0,
                        sum(n for _, n in legs), reports)

    def check(self, ctx, out: RoundOut) -> Checked:
        reports = out.results
        n = self.n_tasks
        problems = []
        if [r.label for r in reports] != \
                [f"scheduler={v}" for v in self.VALUES]:
            problems.append(f"sweep labels {[r.label for r in reports]}")
            return Checked(2 * len(reports), 0, problems)
        floor = 100.0 * self.n_over / n
        for r in reports:
            for side, leg in (("baseline", r.baseline),
                              ("scenario", r.scenario)):
                where = f"{r.label} {side}"
                if not leg.conclusive or leg.verdict != "reachable":
                    problems.append(f"{where}: verdict {leg.verdict}")
                if leg.failure_pct < floor:
                    problems.append(f"{where}: failure {leg.failure_pct} % "
                                    f"below the over-timeout share {floor} %")
                if 100.0 * sum(leg.cause_counts.values()) / n != \
                        leg.failure_pct:
                    problems.append(f"{where}: causes {leg.cause_counts} do "
                                    f"not sum to {leg.failure_pct} %")
            if r.baseline != reports[0].baseline:
                problems.append(f"{r.label}: baseline differs from the first")
        base = reports[self.VALUES.index(self.config.scheduler)]
        if base.scenario != base.baseline:
            problems.append(f"{base.label}: scenario of the base value "
                            "differs from its baseline")
        return Checked(2 * len(reports), 0, problems)


# --------------------------------------------------------------------------

GOALS = (
    ("goal0", (("completedscheduled", "==", "workload"),
               ("workload", ">", 0))),
    ("dl50", (("resourcedeadlockrate", ">=", 50),)),
    ("nofail", (("failurerate", "<=", 0), ("completedscheduled", "==",
                                           "workload"))),
    ("sched80", (("schedulabilityrate", ">=", 80),
                 ("completedscheduled", "==", "workload"))),
)
ASSERTIONS = (("eventually", "FinishedWithinDeadline"), ("never", "Failed"),
              ("eventually", "Scheduled"), ("never", "Scheduled"))
# On a seeded model, the Scheduled pair of a task that the known fault can
# spoil is asked of Processed instead (see ExhaustiveSmall._asked).
SUBSTITUTE = {"Scheduled": "Processed"}
STRATEGIES = ("dfs", "dfs-sym")


def _properties_text(asked) -> str:
    """Goal definitions and assertions, then `asked`: (task, mode, phase
    name) triples."""
    lines = [f"#define {name} " + " && ".join(f"{m} {op} {v}"
                                             for m, op, v in atoms) + ";"
             for name, atoms in GOALS]
    lines += [f"#assert cluster reaches {name};" for name, _ in GOALS]
    lines += [f"#assert task {tid} {mode} {phase};"
              for tid, mode, phase in asked]
    return "\n".join(lines) + "\n"


class Prop(NamedTuple):
    label: str
    obligation: object    # GoalExpr or TaskAssertion, parsed by the program
    atoms: tuple | None   # own form of a goal
    assertion: tuple | None   # own form: (task_id, mode, phase number)
    fault_pattern: bool   # a Scheduled assertion on a task that, in some
    #                       run, fails by cascade before it is scheduled


class Model(NamedTuple):
    spec: inputs.SmallModel
    csv: str
    config: ClusterConfig
    labels: dict
    props: tuple
    expected: tuple       # reference verdict per prop
    plain_states: int     # distinct states under canonical_key(sym=False)
    sym_states: int       # distinct states under canonical_key(sym=True)
    faulty: frozenset     # tasks that fail unscheduled in some run


class ExhaustiveSmall:
    """Small anonymous-node models explored to exhaustion with dfs and
    dfs-sym against a fixed goal set and four task assertions per task,
    then the analyze pipeline on every verdict, as `schedcheck analyze`
    would run it with that one property."""

    name = "exhaustive-small"

    # Seeded models at these indices are drawn so that some task can fail
    # by cascade before it is ever scheduled, the others so that none can:
    # every seed then gives the same mix. 3, 4 and 5 run fifo, fair and
    # capacity.
    CASCADE_INDICES = frozenset((3, 4, 5))
    # Per (shape, cascade), the band of exploration work a seeded model must
    # fall in: the work any checker must do on it, (distinct plain +
    # symmetric states) x the number of its properties whose verdict
    # (holds, unreachable) needs an exhaustive search, both from the
    # benchmark's own enumeration. A first-witness search costs little
    # beside it. Each band holds one of the most common values of its kind,
    # so every seed gives a round of nearly the same cost.
    WORK_BAND = {((2, 3), False): (4_500, 4_600),
                 ((3, 2), False): (3_700, 3_750),
                 ((2, 3), True): (1_000, 1_500),
                 ((3, 2), True): (1_190, 1_200)}
    MAX_PAIRS = 20_000   # larger state spaces are drawn again
    MAX_TRIES = 400

    def __init__(self, seed: int, workdir: str, n_models: int = 9):
        """The fixed cascade model plus `n_models` seeded ones; model i runs
        policy i mod 3 on shape i mod 2, so every seed yields the same
        number of properties, hence of operations, per round."""
        self.workdir = workdir
        rng = random.Random(seed)
        self.models = [self._prepare(inputs.CASCADE_MODEL)]
        self.models += [self._draw(rng, index) for index in range(n_models)]

    def _draw(self, rng, index):
        """Draw models of the index's policy and shape until one of the
        index's kind (cascade or not) has its work in the band; after
        MAX_TRIES, take the closest of that kind."""
        cascade = index in self.CASCADE_INDICES
        best, best_gap = None, None
        for _ in range(self.MAX_TRIES):
            spec = inputs.small_model(rng, index)
            lo, hi = self.WORK_BAND[inputs.shape(spec), cascade]
            model = self._prepare(spec)
            if model is None or bool(model.faulty) != cascade:
                continue
            gap = max(lo - self._units(model), self._units(model) - hi, 0)
            if gap == 0:
                return model
            if best is None or gap < best_gap:
                best, best_gap = model, gap
        if best is None:
            raise RuntimeError(f"no model of shape {inputs.shape(spec)}, "
                               f"cascade {cascade}, small enough in "
                               f"{self.MAX_TRIES} draws")
        return best

    @staticmethod
    def _units(model) -> int:
        exhaustive = sum(v in ("holds", "unreachable") for v in model.expected)
        return exhaustive * (model.plain_states + model.sym_states)

    def _prepare(self, spec: inputs.SmallModel):
        csv = os.path.join(self.workdir, f"{spec.name}.csv")
        inputs.write_csv(spec.tasks, csv)
        config = ClusterConfig(**spec.config)
        initial = model_mod.build_cluster(config, trace_mod.parse(csv))
        try:
            space = ref.enumerate_space(initial, self.MAX_PAIRS)
        except ref.TooLarge:
            return None
        tids = [t.task_id for t in spec.tasks]
        faulty = {tid for tid in tids if ref.fails_unscheduled(space, tid)}
        asked = self._asked(spec, tids, faulty)
        _, obligations = checker_mod.parse_properties(_properties_text(asked))
        own = [("goal", name, atoms) for name, atoms in GOALS]
        own += [("task", tid, (tid, mode, ref.PHASE_NUMBER[phase]))
                for tid, mode, phase in asked]
        props, expected = [], []
        for obligation, (kind, label, detail) in zip(obligations, own):
            if kind == "goal":
                props.append(Prop(label, obligation, detail, None, False))
                expected.append(ref.goal_verdict(space, detail))
            else:
                tid, mode, phase = detail
                props.append(Prop(f"{tid} {mode} {phase}", obligation, None,
                                  detail,
                                  phase == ref.SCHEDULED and tid in faulty))
                expected.append(ref.assertion_verdict(space, *detail))
        return Model(spec, csv, config,
                     {t.task_id: t.outcome for t in spec.tasks}, tuple(props),
                     tuple(expected), space.plain_states, space.sym_states,
                     frozenset(faulty))

    @staticmethod
    def _asked(spec, tids, faulty) -> list:
        """Every task's four assertions. The known fault spoils Scheduled
        answers on a task that can fail by cascade while still queued; on
        the fixed model that happens for the same tasks every round. On a
        seeded model it would come and go with the seed, so there such a
        task's Scheduled pair is asked of Processed, which the fault leaves
        alone, and every seed asks the same number of questions."""
        return [(tid, mode, phase if spec.fixed or tid not in faulty
                 else SUBSTITUTE.get(phase, phase))
                for tid in tids for mode, phase in ASSERTIONS]

    def setup(self):
        out = []
        for m in self.models:
            workload = trace_mod.parse(m.csv)
            out.append((workload, model_mod.build_cluster(m.config, workload)))
        return out

    def run_round(self, ctx) -> RoundOut:
        t0 = clock.now()
        check_s = 0.0
        transitions = 0
        verdicts = []
        for m, (_, initial) in zip(self.models, ctx):
            per_model = []
            for prop in m.props:
                pair = []
                for strategy in STRATEGIES:
                    t = clock.now()
                    if prop.atoms is not None:
                        r = checker_mod.verify(initial, prop.obligation,
                                               strategy)
                    else:
                        r = checker_mod.verify_assertion(
                            initial, prop.obligation, strategy)
                    check_s += clock.now() - t
                    transitions += r.transitions
                    pair.append(r)
                per_model.append(tuple(pair))
            verdicts.append(per_model)
        t1 = clock.now()
        analyses = []
        for per_model, (workload, initial) in zip(verdicts, ctx):
            analyses.append([_analyze(initial, r.witness, workload)
                             for pair in per_model for r in pair])
        t2 = clock.now()
        return RoundOut(check_s, t2 - t1, t2 - t0, transitions,
                        (verdicts, analyses))

    def check(self, ctx, out: RoundOut) -> Checked:
        """Each verify call, with the analysis of its witness, is one
        operation. A wrong answer that matches the known fault's pattern (a
        Scheduled assertion on a task that fails unscheduled in some run)
        counts as failed; any other wrong answer is a problem."""
        verdicts, analyses = out.results
        attempted = failed = 0
        problems = []
        for m, (_, initial), per_model, rows in zip(self.models, ctx,
                                                   verdicts, analyses):
            for prop, want, (plain, sym) in zip(m.props, m.expected,
                                                per_model):
                where = f"{m.spec.name} {prop.label}"
                for strategy, r in zip(STRATEGIES, (plain, sym)):
                    attempted += 1
                    wrong = self._op_problems(initial, m, prop, want,
                                              strategy, r)
                    if wrong and prop.fault_pattern:
                        failed += 1
                    else:
                        problems += [f"{where}: {w}" for w in wrong]
                if plain.verdict != sym.verdict:
                    problems.append(f"{where}: dfs {plain.verdict} != "
                                    f"dfs-sym {sym.verdict}")
                if sym.states > plain.states:
                    problems.append(f"{where}: dfs-sym visits {sym.states} "
                                    f"states, dfs {plain.states}")
            for i, analysis in enumerate(rows):
                problems += _grading_problems(
                    analysis, m.labels, f"{m.spec.name} analysis {i}")
        return Checked(attempted, failed, problems)

    @staticmethod
    def _op_problems(initial, model, prop, want, strategy, r) -> list:
        if r.verdict != want:
            return [f"{strategy} says {r.verdict}, the enumeration {want}"]
        if r.verdict in ("holds", "unreachable"):
            if strategy == "dfs" and r.states != model.plain_states:
                return [f"dfs visits {r.states} states, the enumeration "
                        f"finds {model.plain_states}"]
            return []
        try:
            final, history, dead_end = ref.replay_steps(initial,
                                                        r.witness.steps)
        except ValueError as exc:
            return [f"{strategy} witness does not replay: {exc}"]
        if prop.atoms is not None:
            ok = ref.goal_met(final, prop.atoms)
        else:
            ok = ref.assertion_broken(history, dead_end, *prop.assertion)
        return [] if ok else [f"{strategy} witness does not show "
                              f"{r.verdict}"]


WORKLOADS = {w.name: w for w in (AnalyzeLarge, WhatifPolicies,
                                 ExhaustiveSmall)}
