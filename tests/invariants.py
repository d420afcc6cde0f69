"""Model invariants checked over randomized workloads.

Shared between the unit-level randomized tests and the acceptance suite,
which runs the same checks over a much larger draw count.
"""

from fixtures import random_workload

from schedcheck.model import (CODE_REDUCE, FAILED, PROCESSED, SUBMITTED,
                              StepRecord, build_cluster, iter_transitions,
                              replay, terminal_summary)
from schedcheck.rates import compute_rates

_PCT_RATES = ("schedulabilityrate", "fairnessrate", "resourcedeadlockrate",
              "localityrate", "failurerate")


def check_state(state):
    """Invariants that must hold in every reachable state."""
    occupied = sum(1 for n in state.nodes for s in n.slots if s is not None)
    on_slots = sum(len(n.slots) for n in state.nodes if n.on)
    assert occupied + state.counters.free_slots == on_slots, \
        "slot conservation violated"

    st = state.statics
    for tid in st.tids:
        rt = state.task(tid)
        # Failed reduces are exempt: cascades fail them without executing.
        if st.kind[tid] == CODE_REDUCE and PROCESSED <= rt.phase < FAILED:
            jid = st.job_of[tid]
            assert state.job(jid).fin_maps == st.total_maps[jid], \
                f"reduce {tid} executed before all maps of {jid} finished"

    # the base queue: consumed below the head, pending at it, and scanned
    # as exactly the SUBMITTED tasks from the head on, in queue order
    base = st.queue
    head = state.queue_head
    assert all(state.task(tid).phase != SUBMITTED
               for _code, _jid, tid in base[:head]), \
        "a SUBMITTED task sits below the queue head"
    if head < len(base):
        assert state.task(base[head][2]).phase == SUBMITTED, \
            "the queue head entry is already consumed"
    pending = [(i,) + base[i] for i in range(head, len(base))
               if state.task(base[i][2]).phase == SUBMITTED]
    scanned = [e for e in state.iter_queue() if e[0] < len(base)]
    assert scanned == pending[:state.config.max_queue], \
        "iter_queue does not yield the pending base entries"

    # the speculative queue: only pending entries, none of a failed job,
    # and each speculation of a running task either queued or running
    assert not any(state.job(jid).failed for _code, jid, _tid in state.extra), \
        "a speculative entry of a failed job is still queued"
    for tid in st.tids:
        rt = state.task(tid)
        if rt.phase == PROCESSED:
            queued = sum(1 for e in state.extra if e[2] == tid)
            assert queued + len(rt.copies) == rt.spec_count, \
                f"speculations of {tid} neither queued nor running"

    rates = compute_rates(state).as_dict()
    for name in _PCT_RATES:
        assert 0.0 <= rates[name] <= 100.0, f"{name} out of [0, 100]"


def random_walk(initial, rng, max_steps=200_000):
    """Follow uniformly random transitions to a dead end, checking the
    per-state and per-step invariants; returns the step log and final state."""
    check_state(initial)
    state, steps = initial, []
    for _ in range(max_steps):
        choices = list(iter_transitions(state))
        if not choices:
            return steps, state
        t = rng.choice(choices)
        for tid, old, new in t.changed:
            assert new > old, f"{tid} phase moved backwards: {old}->{new}"
        steps.append(StepRecord(t.event.name, t.event.payload, t.changed,
                                t.state.clock))
        state = t.state
        check_state(state)
    raise AssertionError("random walk did not reach a dead end")


def check_workload(config, trace, rng):
    """One full invariant pass: random walk plus witness-replay determinism."""
    initial = build_cluster(config, trace)
    steps, final = random_walk(initial, rng)
    replayed = replay(initial, steps)
    assert terminal_summary(replayed) == terminal_summary(final), \
        "replaying the recorded steps reached a different terminal state"


def run_suite(rng, n_workloads):
    for _ in range(n_workloads):
        config, trace = random_workload(rng)
        check_workload(config, trace, rng)
