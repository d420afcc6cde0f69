"""Explicit-state reachability checking over the cluster model.

Two strategies share one first-witness depth-first search: `dfs` deduplicates
on the full state, `dfs-sym` on a canonical form that treats nodes no task
prefers (and slots within a node) as interchangeable, which is sound because
such nodes are behaviourally identical.

`dfs-sym` also expands a state whose NameNode is off by `activate_nn`
alone, an ample set (Peled, "All from one, one for all", 1993): that move
enables and disables no other, commutes with every other, and sets a flag
that no goal or task assertion reads. So every state with the NameNode off
has a twin with it on that meets the same goals and has the same moves but
`activate_nn`, no dead end has the NameNode off, and the cycle proviso
holds trivially because the relation is acyclic. No move turns the
NameNode off, so only an initial state is ever reduced, and the reduced
search is the unreduced one stopped after the root's first subtree,
`activate_nn`'s: every verdict and witness is the same, and a search that
runs to its end visits about half the states. `dfs` stays the full,
unreduced search, the reference the reduced one is checked against.

The search stack is the current path, one entry per state (see _search):
the state's successor iterator, its fingerprint's position sum, chained
from its parent's (model.sum_after), and the StepRecord that reached it,
from which a hit's witness is read. Path states and sums are kept only at
checkpoints, every CHECKPOINT_EVERY levels, and in the last
CHECKPOINT_EVERY levels of the path: deeper entries drop them, and a
backtrack into them rebuilds them by redrawing the same transitions from
the checkpoint below (state-space caching with replay: Godefroid, Holzmann
& Pirottin, "State-space caching revisited", 1995). Moves are pure, so the
rebuilt states are the dropped ones. A search of depth d so keeps
O(d / 64 + 64) states alive, and one StepRecord per step.

The cyclic garbage collector is paused for the span of a search. A deep
search keeps one StepRecord per step alive, and each collection would
walk them all again, making the search superlinear in its depth; the
explorer and the model build no reference cycles, so the pause leaves no
garbage behind (tests/test_checker.py checks both).

Properties come from a small assertion language:

    #define goal0 completedscheduled == workload && workload > 0;
    #assert cluster reaches goal0;
    #assert cluster reaches goal0 && schedulabilityrate >= 50;
    #assert task t3 eventually Processed;
    #assert task t3 never Failed;

Goal atoms compare the metrics of `rates.compute_rates` (plus the raw
counters listed there). Equality on the fractional rate metrics is read as
"reaches at least", since a run sweeps through rate values and exact float
equality would make most goals vacuously unreachable; equality on the
integer metrics, and any comparison with a metric on the right, stays
exact.

Goals are compiled where a GoalExpr is made (_compile): its atoms become
one test that reads the state's counters and workload through the
per-metric readers of `rates.READERS`, so a goal test builds no
RateMetrics. The same step notes the atoms that the metric ranges alone
decide (`rates.RANGES`, _decided): `GoalExpr.vacuous` lists them, and the
command line warns about each.
"""

from __future__ import annotations

import gc
import math
import operator
import re
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import PropertySyntaxError, UnknownTask
from .model import (PHASE_BY_NAME, GlobalState, StepRecord, WitnessTrace,
                    iter_transitions, make_witness, position_sum, sum_after)
# compute_rates is no longer called here, but perfbench/tracing.py times it
# through this module's binding too
from .rates import PERCENT, RANGES, READERS, compute_rates

STRATEGIES = ("dfs", "dfs-sym")

# _search keeps the state and sum of every path level that is a multiple
# of this, and rebuilds the levels between from there on a deep backtrack
CHECKPOINT_EVERY = 64

_METRICS = frozenset(READERS)
_RATE_METRICS = frozenset([m for m, r in RANGES.items() if r == PERCENT])
# in parse order: "<=" must be tried before "<"
_CMP = {"==": operator.eq, "!=": operator.ne, "<=": operator.le,
        ">=": operator.ge, "<": operator.lt, ">": operator.gt}
_OPS = tuple(_CMP)


class Atom(NamedTuple):
    metric: str
    op: str
    rhs: object  # float or metric name


@dataclass(frozen=True)
class GoalExpr:
    """A conjunction of metric atoms; reachable iff some state satisfies all.

    Made once, tested on every state: construction compiles the atoms into
    the one test that holds runs, and lists in `vacuous` each atom that the
    metric ranges decide, as (atom, True) if every state satisfies it and
    (atom, False) if none can."""
    name: str
    atoms: tuple
    _test: object = field(init=False, repr=False, compare=False)
    vacuous: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tested = [_as_tested(*atom) for atom in self.atoms]
        object.__setattr__(self, "_test", _compile(tested))
        decided = [(Atom(*atom), _decided(*read))
                   for atom, read in zip(self.atoms, tested)]
        object.__setattr__(self, "vacuous", tuple(
            (atom, verdict) for atom, verdict in decided
            if verdict is not None))

    def holds(self, state: GlobalState) -> bool:
        return self._test(state)


def _as_tested(metric: str, op: str, rhs) -> tuple:
    """The atom as a goal tests it: rate == number reads as >= (see
    above)."""
    if op == "==" and metric in _RATE_METRICS and not isinstance(rhs, str):
        op = ">="
    return metric, op, rhs


def _reader(metric: str):
    try:
        return READERS[metric]
    except KeyError:
        raise PropertySyntaxError(f"unknown metric {metric!r}") from None


def _compile(atoms: list):
    """The test of a conjunction of tested atoms (_as_tested), a function
    of a state: it reads each side of each atom from the state's counters
    and workload through rates.READERS."""
    checks = []
    for metric, op, rhs in atoms:
        if isinstance(rhs, str):
            read_rhs = _reader(rhs)
        else:
            read_rhs = lambda _c, _n, value=rhs: value
        checks.append((_reader(metric), _CMP[op], read_rhs))

    def test(state: GlobalState) -> bool:
        c = state.counters
        n = state.statics.workload
        for read, cmp, read_rhs in checks:
            if not cmp(read(c, n), read_rhs(c, n)):
                return False
        return True
    return test


def _decided(metric: str, op: str, rhs) -> bool | None:
    """True if every state satisfies the tested atom, False if none can,
    judged from rates.RANGES alone (a number reads as the range [rhs,
    rhs]); None if the ranges leave it open."""
    lo, hi = RANGES[metric]
    rlo, rhi = RANGES[rhs] if isinstance(rhs, str) else (rhs, rhs)
    always, never = {
        ">=": (lo >= rhi, hi < rlo),
        ">": (lo > rhi, hi <= rlo),
        "<=": (hi <= rlo, lo > rhi),
        "<": (hi < rlo, lo >= rhi),
        "==": (lo == hi == rlo == rhi, hi < rlo or rhi < lo),
        "!=": (hi < rlo or rhi < lo, lo == hi == rlo == rhi),
    }[op]
    return True if always else False if never else None


class TaskAssertion(NamedTuple):
    task_id: str
    mode: str    # "eventually" | "never"
    phase: int


# --------------------------------------------------------------------------
# Property file parsing

_DEFINE_RE = re.compile(r"#define\s+(\w+)\s+(.+)$")
_REACH_RE = re.compile(r"#assert\s+cluster\s+reaches\s+(\w+)(\s*&&\s*(.+))?$")
_TASK_RE = re.compile(r"#assert\s+task\s+(\S+)\s+(eventually|never)\s+(\w+)$")


def _parse_atom(text: str) -> Atom:
    for op in _OPS:
        if op in text:
            lhs, rhs = text.split(op, 1)
            lhs, rhs = lhs.strip(), rhs.strip()
            if lhs not in _METRICS:
                raise PropertySyntaxError(f"unknown metric {lhs!r}")
            if rhs in _METRICS:
                return Atom(lhs, op, rhs)
            # nan and inf parse as floats, but no metric value compares
            # with them usefully
            try:
                value = float(rhs)
                if math.isfinite(value):
                    return Atom(lhs, op, value)
            except ValueError:
                pass
            raise PropertySyntaxError(f"bad comparison value {rhs!r}")
    raise PropertySyntaxError(f"no comparison operator in {text!r}")


def _parse_conjunction(text: str) -> tuple:
    return tuple(_parse_atom(part) for part in text.split("&&"))


def parse_properties(text: str):
    """Parse a property file into ({name: GoalExpr}, [GoalExpr | TaskAssertion]).

    The second element lists the asserted obligations in file order; reach
    assertions referencing a define inherit its atoms plus any extra ones.
    """
    defines: dict = {}
    asserts: list = []
    for raw in text.splitlines():
        line = raw.split("//")[0].strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise PropertySyntaxError(f"missing ';' in: {raw.strip()!r}")
        line = line[:-1].strip()
        m = _DEFINE_RE.match(line)
        if m:
            name, body = m.group(1), m.group(2)
            defines[name] = GoalExpr(name, _parse_conjunction(body))
            continue
        m = _REACH_RE.match(line)
        if m:
            name, extra = m.group(1), m.group(3)
            if name not in defines:
                raise PropertySyntaxError(f"undefined goal {name!r}")
            atoms = defines[name].atoms
            if extra:
                atoms = atoms + _parse_conjunction(extra)
            asserts.append(GoalExpr(name, atoms))
            continue
        m = _TASK_RE.match(line)
        if m:
            tid, mode, phase_name = m.groups()
            if phase_name not in PHASE_BY_NAME:
                raise PropertySyntaxError(f"unknown phase {phase_name!r}")
            asserts.append(TaskAssertion(tid, mode, PHASE_BY_NAME[phase_name]))
            continue
        raise PropertySyntaxError(f"cannot parse: {raw.strip()!r}")
    return defines, asserts


# --------------------------------------------------------------------------
# Exploration

@dataclass(frozen=True)
class VerificationResult:
    verdict: str          # reachable|unreachable|holds|violated|unknown
    states: int           # distinct states visited
    transitions: int      # transitions taken
    elapsed_s: float
    strategy: str
    witness: WitnessTrace | None = None
    reason: str = ""

    @property
    def conclusive(self) -> bool:
        return self.verdict in ("reachable", "unreachable", "holds", "violated")


def _explore(initial: GlobalState, strategy: str, state_budget: int,
             time_budget_s: float, found, verdicts: tuple) -> VerificationResult:
    """_search with the cyclic collector paused until it returns or raises.
    A caller that has paused it already keeps it paused, so a search run
    from inside another's `found` leaves it off for the outer one."""
    was = gc.isenabled()
    gc.disable()
    try:
        return _search(initial, strategy, state_budget, time_budget_s, found,
                       verdicts)
    finally:
        if was:
            gc.enable()


def _search(initial: GlobalState, strategy: str, state_budget: int,
            time_budget_s: float, found, verdicts: tuple) -> VerificationResult:
    """First-witness DFS. `found(state, is_terminal)` returns truthy when the
    target is hit. `verdicts` names the outcome as (hit, no hit): the first
    hit gives verdicts[0] and its witness, a search that runs to the end
    verdicts[1], and a spent budget "unknown", with a reason that names the
    depth and clock of the state being expanded. The state budget is spent
    when a new state is met with state_budget states visited already, so
    an unknown result counts exactly state_budget.

    A stack entry is [first, successors, checkpoint, drawn, psum, step]
    for the state at the depth of its index: the first transition its
    iterator gave, drawn early to learn whether the state is a dead end,
    or None once it is taken; its successors iterator, from
    iter_transitions; the state itself if the depth is a multiple of k =
    CHECKPOINT_EVERY (a checkpoint), else None; how many transitions the
    iterator has given; the state's position sum (only the initial
    state's is taken from scratch); and the StepRecord that reached it
    (None for the initial state). As the path reaches depth d, the entry
    at d - k loses its iterator, and with it its state, and its sum,
    unless it is a checkpoint, so the stack keeps O(d / k + k) of each. A
    top entry without an iterator is rebuilt from the checkpoint below it
    (_rebuild); the transitions redrawn there are not counted in
    `transitions`. Every transition is drawn through this module's
    iter_transitions with next() alone, so a tracer may rebind that name
    to any iterator.

    Under dfs-sym an initial state with the NameNode off is expanded by its
    first transition alone, activate_nn (model.enabled_moves lists it
    first; see the module docstring): its entry draws that one and holds
    an empty iterator in place of its successors, which _rebuild cannot
    take for a dropped one (None)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; use one of {STRATEGIES}")
    sym = strategy == "dfs-sym"
    every = CHECKPOINT_EVERY
    t0 = time.monotonic()
    deadline = t0 + time_budget_s if time_budget_s else None
    psum = position_sum(initial, sym)
    visited = {initial.fingerprint(sym, psum)}
    n_trans = 0

    def result(verdict, hit=None, steps=(), reason=""):
        elapsed = time.monotonic() - t0
        witness = make_witness(steps, hit) if hit is not None else None
        return VerificationResult(verdict, len(visited), n_trans, elapsed,
                                  strategy, witness, reason)

    def spent(budget):
        step = stack[-1][5]
        clock = initial.clock if step is None else step.clock_ms
        return result("unknown", reason=f"{budget} budget exhausted at depth "
                                        f"{len(stack) - 1}, clock_ms {clock}")

    if found(initial, initial.is_terminal()):
        return result(verdicts[0], initial)

    successors = iter_transitions(initial)
    if sym and not initial.namenode_on:
        # the ample set {activate_nn}: its first move, and its only one
        stack = [[next(successors), iter(()), initial, 1, psum, None]]
    else:
        stack = [[None, successors, initial, 0, psum, None]]
    check_every = 2048
    while stack:
        entry = stack[-1]
        t = entry[0]
        if t is None:
            successors = entry[1]
            if successors is None:
                successors = _rebuild(stack, every, sym)
            t = next(successors, None)
            if t is None:
                stack.pop()
                continue
            entry[3] += 1
        else:
            entry[0] = None
        n_trans += 1
        # ahead of the visited lookup, so a duplicate cannot skip a check
        if deadline is not None and n_trans % check_every == 0 and \
                time.monotonic() > deadline:
            return spent("time")
        succ = t.state
        psum = sum_after(t, entry[4], sym)
        fp = succ.fingerprint(sym, psum)
        if fp in visited:
            continue
        if len(visited) >= state_budget:
            return spent("state")
        visited.add(fp)
        succ_it = iter_transitions(succ)
        first = next(succ_it, None)
        terminal = first is None
        step = StepRecord(t.event.name, t.event.payload, t.changed,
                          succ.clock)
        depth = len(stack)
        if depth >= every and (depth - every) % every:
            dropped = stack[depth - every]
            dropped[1] = dropped[4] = None
        if found(succ, terminal):
            return result(verdicts[0], succ,
                          [e[5] for e in stack[1:]] + [step])
        if terminal:
            continue
        stack.append([first, succ_it, None if depth % every else succ, 1,
                      psum, step])
    return result(verdicts[1])


def _rebuild(stack: list, every: int, sym: bool):
    """Give the top entry of a _search stack its iterator and position sum
    back, and every entry between it and the nearest checkpoint below that
    lost theirs. From the checkpoint's state and sum, each level draws as
    many transitions from a new iterator as its entry drew; the last one
    drawn leads to the next level, whose sum it chains (model.sum_after).
    Moves are pure, so each state, each iterator's position and each sum
    are the dropped ones. Returns the top entry's iterator."""
    top = len(stack) - 1
    base = top - top % every
    state, psum = stack[base][2], stack[base][4]
    for entry in stack[base:]:
        successors = iter_transitions(state)
        for _ in range(entry[3]):
            t = next(successors)
        if entry[1] is None:  # the checkpoint keeps its own
            entry[1], entry[4] = successors, psum
        state, psum = t.state, sum_after(t, psum, sym)
    return stack[top][1]


def verify(initial: GlobalState, goal: GoalExpr, strategy: str = "dfs-sym",
           state_budget: int = 5_000_000,
           time_budget_s: float = 0.0) -> VerificationResult:
    """Is some state satisfying `goal` reachable? First hit yields a witness."""
    return _explore(initial, strategy, state_budget, time_budget_s,
                    lambda s, _term: goal.holds(s),
                    ("reachable", "unreachable"))


def verify_assertion(initial: GlobalState, assertion: TaskAssertion,
                     strategy: str = "dfs-sym",
                     state_budget: int = 5_000_000,
                     time_budget_s: float = 0.0) -> VerificationResult:
    """Check a per-task obligation; a violation comes with its witness run.

    `never P` is violated by any reachable state where the task has been in
    phase P; `eventually P` is violated by a dead-end state where it never
    was. The model's transition relation is acyclic (logical time, queue
    position and activation all progress), so every maximal run ends in a
    dead end and the dead-end check is complete.
    """
    if assertion.task_id not in initial.statics.idx_of:
        raise UnknownTask(assertion.task_id)
    tid, mode, phase = assertion

    if mode == "never":
        def bad(s, _term):
            return s.task_ever_reached(tid, phase)
    else:
        def bad(s, term):
            return term and not s.task_ever_reached(tid, phase)

    return _explore(initial, strategy, state_budget, time_budget_s, bad,
                    ("violated", "holds"))
