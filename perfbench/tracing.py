"""Span tracing for the traced run, done entirely from outside the program.

`Tracer.install` replaces public functions and methods of the schedcheck
modules with wrappers that record one span per call (one per resumption of
the transition generator) and `uninstall` puts the originals back. Spans
are kept in memory, in flat arrays, until the run ends; each has a name, a
start, an end and the span that was open when it began, so the spans of one
operation form a tree under its outermost call. A span's self time is its
duration minus the durations of its direct children, which never overlap
because the program runs on one thread. Spans are timed on the reference
clock (clock.py), like the end-to-end figures.
"""

from __future__ import annotations

from array import array

import schedcheck.analysis as analysis_mod
import schedcheck.checker as checker_mod
import schedcheck.model as model_mod
import schedcheck.policies as policies_mod
import schedcheck.rates as rates_mod
import schedcheck.trace as trace_mod
import schedcheck.whatif as whatif_mod

import clock

# span name -> every (owner, attribute) through which the program or the
# benchmark reaches that function. A module that imported a name keeps its
# own binding, so each binding is replaced.
CALL_SPANS = {
    "trace.parse": [(trace_mod, "parse")],
    "model.build_cluster": [(model_mod, "build_cluster"),
                            (whatif_mod, "build_cluster")],
    "model.fingerprint": [(model_mod.GlobalState, "fingerprint")],
    "model.task_ever_reached": [(model_mod.GlobalState, "task_ever_reached")],
    "model.replay": [(model_mod, "replay")],
    "policies.select": [(policies_mod, "select")],
    "rates.compute_rates": [(rates_mod, "compute_rates"),
                            (checker_mod, "compute_rates")],
    "checker.goal_holds": [(checker_mod.GoalExpr, "holds")],
    "checker.verify": [(checker_mod, "verify"),
                       (checker_mod, "verify_assertion"),
                       (whatif_mod, "verify")],
    "analysis.run_to_quiescence": [(analysis_mod, "run_to_quiescence"),
                                   (whatif_mod, "run_to_quiescence")],
    "whatif.sweep": [(whatif_mod, "sweep")],
}
STEP_SPAN = "model.step"
STEP_BINDINGS = [(model_mod, "iter_transitions"),
                 (checker_mod, "iter_transitions"),
                 (analysis_mod, "iter_transitions")]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_id: dict = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list = []
        self._saved: list = []
        # counts taken at the same boundaries
        self.produced = 0          # transitions the model generated
        self.quiescence_steps = 0  # transitions run_to_quiescence took
        self.states = 0            # summed over the checker's results
        self.transitions = 0
        self.sweep_legs = 0        # checker calls made inside a sweep
        self._in_sweep = 0

    def _id(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(clock.now())
        return i

    def _finish(self, i: int) -> None:
        self.end[i] = clock.now()
        self._open.pop()

    def _wrap(self, name, fn):
        nid = self._id(name)
        tracer = self

        def span(*args, **kwargs):
            i = tracer._begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._finish(i)

        if name == "checker.verify":
            def verify(*args, **kwargs):
                result = span(*args, **kwargs)
                tracer.states += result.states
                tracer.transitions += result.transitions
                tracer.sweep_legs += tracer._in_sweep > 0
                return result
            return verify
        if name == "analysis.run_to_quiescence":
            def quiesce(*args, **kwargs):
                before = tracer.produced
                try:
                    return span(*args, **kwargs)
                finally:
                    tracer.quiescence_steps += tracer.produced - before
            return quiesce
        if name == "whatif.sweep":
            def sweep(*args, **kwargs):
                tracer._in_sweep += 1
                try:
                    return span(*args, **kwargs)
                finally:
                    tracer._in_sweep -= 1
            return sweep
        return span

    def _steps(self, fn):
        """One span per resumption of the transition generator, so a step
        span covers the work of producing one transition (or of finding
        there is none) and nothing is open while the caller runs."""
        nid = self._id(STEP_SPAN)
        tracer = self

        def iter_transitions(state):
            gen = fn(state)
            while True:
                i = tracer._begin(nid)
                try:
                    t = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._finish(i)
                tracer.produced += 1
                yield t
        return iter_transitions

    def install(self) -> None:
        wrapped = {}
        for name, bindings in CALL_SPANS.items():
            for owner, attr in bindings:
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(name, fn)
                setattr(owner, attr, wrapped[fn])
        stepper = self._steps(model_mod.iter_transitions)
        for owner, attr in STEP_BINDINGS:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, stepper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def totals(self) -> dict:
        """name -> (spans, total seconds, self seconds)."""
        n = len(self.start)
        start, end, parent, name_of = (self.start, self.end, self.parent,
                                       self.name_of)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        rows = [[0, 0.0, 0.0] for _ in self.names]
        for i in range(n):
            d = end[i] - start[i]
            row = rows[name_of[i]]
            row[0] += 1
            row[1] += d
            row[2] += d - child[i]
        return {name: tuple(row) for name, row in zip(self.names, rows)}


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """The per-layer metrics, as name -> (value, unit). Counts are per
    round; `_us` figures are per call (per produced transition for the
    step); `_s` figures are per call. A layer the workload never calls
    reads 0."""
    tot = tracer.totals()

    def row(name):
        return tot.get(name, (0, 0.0, 0.0))

    def per_call(name, scale, own=False):
        calls, total, self_t = row(name)
        return (self_t if own else total) * scale / calls if calls else 0.0

    _, _, step_self = row(STEP_SPAN)
    _, _, verify_self = row("checker.verify")
    _, sweep_total, _ = row("whatif.sweep")
    r = rounds
    return {
        "trace.parse_s": (per_call("trace.parse", 1.0), "s"),
        "model.build_cluster_s": (per_call("model.build_cluster", 1.0), "s"),
        "model.step_us": (1e6 * step_self / tracer.produced
                          if tracer.produced else 0.0, "us"),
        "model.transitions": (tracer.produced / r, "count"),
        "model.fingerprint_us": (per_call("model.fingerprint", 1e6), "us"),
        "model.fingerprint_calls": (row("model.fingerprint")[0] / r, "count"),
        "model.task_ever_reached_us": (
            per_call("model.task_ever_reached", 1e6), "us"),
        "model.replay_s": (per_call("model.replay", 1.0), "s"),
        "policies.select_us": (per_call("policies.select", 1e6), "us"),
        "policies.select_calls": (row("policies.select")[0] / r, "count"),
        "rates.compute_rates_us": (per_call("rates.compute_rates", 1e6), "us"),
        "checker.goal_holds_us": (
            per_call("checker.goal_holds", 1e6, own=True), "us"),
        "checker.explore_self_us": (1e6 * verify_self / tracer.transitions
                                    if tracer.transitions else 0.0, "us"),
        "checker.states": (tracer.states / r, "count"),
        "checker.transitions": (tracer.transitions / r, "count"),
        "checker.new_state_ratio": (tracer.states / tracer.transitions
                                    if tracer.transitions else 0.0, "ratio"),
        "analysis.run_to_quiescence_s": (
            per_call("analysis.run_to_quiescence", 1.0), "s"),
        "analysis.quiescence_steps": (tracer.quiescence_steps / r, "count"),
        "whatif.legs": (tracer.sweep_legs / r, "count"),
        "whatif.leg_s": (sweep_total / tracer.sweep_legs
                         if tracer.sweep_legs else 0.0, "s"),
    }
