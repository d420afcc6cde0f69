"""The benchmark's own answers, computed apart from the program's checker,
analysis and what-if code.

The enumeration shares only the transition relation (`iter_transitions`)
and exact structural state identity (`canonical_key`) with the program.
Goals are judged by this module's own arithmetic on a state's `counters`;
task assertions by each run's phase history, the (task, phase) pairs taken
from the `changed` tuples of the transitions along the run. Both functions
are bound here at import, before a traced run wraps the program's modules,
so the checks never show up in the trace.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from schedcheck.model import canonical_key, iter_transitions

# Phase numbers of the documented lifecycle order, Submitted (0) .. Failed.
SCHEDULED, PROCESSED = 2, 3
FINISHED_WITHIN, FINISHED_AFTER, FAILED = 4, 5, 6
PHASE_NUMBER = {"FinishedWithinDeadline": FINISHED_WITHIN, "Failed": FAILED,
                "Scheduled": SCHEDULED, "Processed": PROCESSED}

RATE_METRICS = {"schedulabilityrate", "fairnessrate", "resourcedeadlockrate",
                "localityrate", "failurerate"}


def _pct(a, b):
    return 100.0 * a / b if b else 0.0


def metrics(state) -> dict:
    """Goal metrics from the state's counters, by the documented formulas."""
    c = state.counters
    n = len(state.statics.tids)
    return {"schedulabilityrate": _pct(c.n_fin_within, c.n_scheduled),
            "fairnessrate": _pct(c.n_served_fair, n),
            "resourcedeadlockrate": _pct(c.n_deadlock, n),
            "localityrate": _pct(c.locality, c.locality + c.nonlocality),
            "failurerate": _pct(c.n_failed, n),
            "completedscheduled": c.completedscheduled,
            "workload": n,
            "trackercount": c.trackercount}


def goal_met(state, atoms) -> bool:
    """`atoms` is a tuple of (metric, op, number or metric name); `==` on
    a rate against a number reads "reaches at least", as the property
    language defines."""
    m = metrics(state)
    for metric, op, rhs in atoms:
        lhs = m[metric]
        if isinstance(rhs, str):
            rhs = m[rhs]
        elif op == "==" and metric in RATE_METRICS:
            op = ">="
        ok = {"==": lhs == rhs, "!=": lhs != rhs, "<": lhs < rhs,
              "<=": lhs <= rhs, ">": lhs > rhs, ">=": lhs >= rhs}[op]
        if not ok:
            return False
    return True


def initial_history(state) -> frozenset:
    return frozenset((tid, state.task(tid).phase) for tid in state.statics.tids)


def assertion_broken(history, terminal, task_id, mode, phase) -> bool:
    """Does a run with this history (ending in a dead end or not) break
    `task <task_id> <mode> <phase>`?"""
    if mode == "never":
        return (task_id, phase) in history
    return terminal and (task_id, phase) not in history


class Space(NamedTuple):
    pairs: list          # every reachable (state, history)
    terminals: list      # the pairs with no enabled transition
    plain_states: int    # distinct canonical_key(state, sym=False)
    sym_states: int      # distinct canonical_key(state, sym=True)


class TooLarge(Exception):
    pass


def enumerate_space(initial, max_pairs: int) -> Space:
    """Breadth-first over (state, history) pairs, deduplicated on the exact
    structural key of the state together with its history."""
    root = (initial, initial_history(initial))
    key0 = canonical_key(initial, sym=False)
    seen = {(key0, root[1])}
    plain = {key0}
    sym = {canonical_key(initial, sym=True)}
    frontier = deque([root])
    pairs, terminals = [], []
    while frontier:
        node = frontier.popleft()
        state, history = node
        pairs.append(node)
        dead_end = True
        for t in iter_transitions(state):
            dead_end = False
            succ_history = history.union(
                (tid, new) for tid, _old, new in t.changed)
            succ_key = canonical_key(t.state, sym=False)
            if (succ_key, succ_history) in seen:
                continue
            seen.add((succ_key, succ_history))
            if len(seen) > max_pairs:
                raise TooLarge(f"more than {max_pairs} (state, history) pairs")
            if succ_key not in plain:
                plain.add(succ_key)
                sym.add(canonical_key(t.state, sym=True))
            frontier.append((t.state, succ_history))
        if dead_end:
            terminals.append(node)
    return Space(pairs, terminals, len(plain), len(sym))


def goal_verdict(space: Space, atoms) -> str:
    return ("reachable" if any(goal_met(s, atoms) for s, _ in space.pairs)
            else "unreachable")


def assertion_verdict(space: Space, task_id, mode, phase) -> str:
    if mode == "never":
        bad = any((task_id, phase) in h for _, h in space.pairs)
    else:
        bad = any((task_id, phase) not in h for _, h in space.terminals)
    return "violated" if bad else "holds"


def fails_unscheduled(space: Space, task_id) -> bool:
    """Does some run fail the task (by cascade) before it is ever
    scheduled?"""
    return any((task_id, FAILED) in h and (task_id, SCHEDULED) not in h
               for _, h in space.pairs)


def replay_steps(initial, steps):
    """Re-run a witness by matching each step's event name and payload
    against the enabled transitions; the matched transition must also
    report the step's phase changes and clock. Returns the final state,
    the run's phase history and whether the final state is a dead end.
    Raises ValueError when a step does not match."""
    state = initial
    history = set(initial_history(initial))
    for i, step in enumerate(steps):
        for t in iter_transitions(state):
            if t.event.name == step.event and t.event.payload == step.payload:
                break
        else:
            raise ValueError(f"step {i} ({step.event}) is not enabled")
        if tuple(t.changed) != tuple(step.changed):
            raise ValueError(f"step {i} ({step.event}) changes "
                             f"{t.changed}, the witness says {step.changed}")
        if t.state.clock != step.clock_ms:
            raise ValueError(f"step {i} ({step.event}) clock "
                             f"{t.state.clock}, the witness says "
                             f"{step.clock_ms}")
        state = t.state
        history.update((tid, new) for tid, _old, new in t.changed)
    dead_end = next(iter_transitions(state), None) is None
    return state, frozenset(history), dead_end


def phase_tally(state, labels: dict) -> dict:
    """Predictions read from the final state's phases (Finished when the
    task finished, within or after its deadline), tallied against the
    labels: the four confusion-matrix counts and the failed count."""
    tally = {"tp_count": 0, "tn_count": 0, "fp_count": 0, "fn_count": 0}
    failed = 0
    for tid, outcome in labels.items():
        phase = state.task(tid).phase
        failed += phase == FAILED
        finished = phase in (FINISHED_WITHIN, FINISHED_AFTER)
        ok = outcome == "SUCCESS"
        key = ("tp_count" if finished and ok else
               "tn_count" if not finished and not ok else
               "fp_count" if finished else "fn_count")
        tally[key] += 1
    tally["failed_phase"] = failed
    return tally
