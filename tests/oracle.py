"""Independent brute-force oracle for the checker.

Enumerates the full reachable state space breadth-first with exact
structural state keys (no fingerprints, no symmetry), recomputes every
metric from raw task fields (never trusting the model's incremental
counters), and evaluates goal atoms with its own evaluator. Only the
transition relation (`iter_transitions`) and exact state identity
(`canonical_key`) are shared with the package — the oracle exists to check
the *checker*: exploration, deduplication, counter maintenance and
witness logic.

Per-task assertions are judged from each run's own phase history: the
(task, phase) pairs it has passed through, taken from the `changed` tuples
of the transitions along the run, never from the model's
`task_ever_reached`. A state reached by runs with different histories is
kept once per history. WaitingResources never appears in `changed` (it is
a derived view of a queued task, not a stored phase), so an assertion on it
has nothing independent to compare against and raises ValueError.

One `explore` call yields the whole space; every verdict function takes
either an initial state or that space, so a caller asking many questions of
one model enumerates it once.
"""

from collections import deque
from typing import NamedTuple

from schedcheck.model import (FAILED, FINISHED_AFTER_DEADLINE,
                              FINISHED_WITHIN_DEADLINE, WAITING_RESOURCES,
                              canonical_key, iter_transitions)

_RATE_METRICS = {"schedulabilityrate", "fairnessrate", "resourcedeadlockrate",
                 "localityrate", "failurerate"}


def recount_metrics(state) -> dict:
    """Recompute the rate inputs by scanning every task's raw fields."""
    st = state.statics
    cfg = state.config
    n = st.workload
    n_sched = n_started = n_fin_within = n_failed = 0
    n_local = n_remote = n_fair = n_dl = 0
    for tid, submit in zip(st.tids, st.submit):
        rt = state.task(tid)
        if rt.node >= 0:  # ever held a slot assignment
            n_sched += 1
        if rt.start >= 0:
            n_started += 1
            if rt.local == 1:
                n_local += 1
            elif rt.local == 0:
                n_remote += 1
            if rt.start - submit <= cfg.fairness_wait_ms:
                n_fair += 1
        if rt.phase == FINISHED_WITHIN_DEADLINE:
            n_fin_within += 1
        if rt.phase == FAILED:
            n_failed += 1
        if rt.dl:
            n_dl += 1

    def pct(a, b):
        return 100.0 * a / b if b else 0.0

    return {
        "schedulabilityrate": pct(n_fin_within, n_sched),
        "fairnessrate": pct(n_fair, n),
        "resourcedeadlockrate": pct(n_dl, n),
        "localityrate": pct(n_local, n_local + n_remote),
        "failurerate": pct(n_failed, n),
        "completedscheduled": n_started,
        "workload": n,
        "trackercount": sum(1 for nd in state.nodes if nd.on),
    }


def atom_holds(metrics, metric, op, rhs) -> bool:
    lhs = metrics[metric]
    r = metrics[rhs] if isinstance(rhs, str) else rhs
    if op == "==" and metric in _RATE_METRICS and not isinstance(rhs, str):
        op = ">="
    return {"==": lhs == r, "!=": lhs != r, "<": lhs < r,
            "<=": lhs <= r, ">": lhs > r, ">=": lhs >= r}[op]


def goal_holds(state, goal) -> bool:
    metrics = recount_metrics(state)
    return all(atom_holds(metrics, m, op, rhs) for m, op, rhs in goal.atoms)


class StateSpace(NamedTuple):
    """Every reachable (state, history) pair; `terminals` is the subset with
    no enabled transition. A history is a frozenset of (task_id, phase)."""
    states: list
    terminals: list


def explore(initial, max_states=2_000_000) -> StateSpace:
    """Full BFS over (state, history) pairs, deduplicated on the exact
    structural key of the state together with its history."""
    root = (initial, frozenset((tid, initial.task(tid).phase)
                               for tid in initial.statics.tids))
    seen = {(canonical_key(initial, sym=False), root[1])}
    frontier = deque([root])
    states, terminals = [], []
    while frontier:
        node = frontier.popleft()
        state, history = node
        states.append(node)
        any_succ = False
        for t in iter_transitions(state):
            any_succ = True
            succ_history = history.union(
                (tid, new) for tid, _old, new in t.changed)
            key = (canonical_key(t.state, sym=False), succ_history)
            if key in seen:
                continue
            seen.add(key)
            if len(seen) > max_states:
                raise RuntimeError("oracle state budget exhausted")
            frontier.append((t.state, succ_history))
        if not any_succ:
            terminals.append(node)
    return StateSpace(states, terminals)


def _space(initial_or_space, max_states) -> StateSpace:
    if isinstance(initial_or_space, StateSpace):
        return initial_or_space
    return explore(initial_or_space, max_states)


def goal_verdict(initial, goal, max_states=2_000_000) -> str:
    """`initial` is a GlobalState or a StateSpace from `explore`."""
    space = _space(initial, max_states)
    return "reachable" if any(goal_holds(s, goal) for s, _ in space.states) \
        else "unreachable"


def assertion_verdict(initial, assertion, max_states=2_000_000) -> str:
    """`never P` is violated by a run that has passed through P; `eventually
    P` by a maximal run that never has. `initial` is a GlobalState or a
    StateSpace from `explore`."""
    tid, mode, phase = assertion
    if phase == WAITING_RESOURCES:
        raise ValueError("WaitingResources is a derived view that never "
                         "appears in a transition's phase changes; the "
                         "oracle has no independent history for it")
    space = _space(initial, max_states)
    if mode == "never":
        bad = any((tid, phase) in h for _, h in space.states)
    else:
        bad = any((tid, phase) not in h for _, h in space.terminals)
    return "violated" if bad else "holds"


def failure_pct_range(initial, max_states=2_000_000):
    """(min, max) model-predicted failure percentage over all dead ends;
    the spec's 'exhaustive what-if mode' for small fixtures."""
    pcts = []
    for s, _ in _space(initial, max_states).terminals:
        n_bad = sum(
            1 for tid in s.statics.tids
            if s.task(tid).phase not in (FINISHED_WITHIN_DEADLINE,
                                         FINISHED_AFTER_DEADLINE))
        pcts.append(100.0 * n_bad / s.statics.workload)
    return min(pcts), max(pcts)
