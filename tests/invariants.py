"""Model invariants checked over randomized workloads.

Shared between the unit-level randomized tests and the acceptance suite,
which runs the same checks over a much larger draw count.
"""

from fixtures import random_workload
import queue_reference

from schedcheck.model import (CODE_MAP, CODE_REDUCE, FAILED, PROCESSED,
                              SCHEDULED, SUBMITTED, StepRecord,
                              _pending_before, build_cluster,
                              iter_transitions, replay, terminal_summary)
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
    n = st.workload
    for p, tid in enumerate(st.tids):
        rt = state.task(tid)
        # Failed reduces are exempt: cascades fail them without executing.
        if st.kind[p] == CODE_REDUCE and PROCESSED <= rt.phase < FAILED:
            j = st.job_of[p]
            jid = st.job_ids[j]
            assert state.job(jid).fin_maps == st.total_maps[j], \
                f"reduce {tid} executed before all maps of {jid} finished"

    # base entry i is task i's (code, job_id, task_id), its code its kind
    base = [(st.kind[i], st.job_ids[st.job_of[i]], tid)
            for i, tid in enumerate(st.tids)]
    pending = [(i,) + base[i] for i in range(n)
               if state.task(base[i][2]).phase == SUBMITTED]
    # each pool's head is its first eligible entry in the window of the
    # queue read from its definition
    first = [None] * len(st.pool_tasks)
    for entry in queue_reference.eligible_entries(state):
        p = entry[0] if entry[0] < n else state.extra[entry[0] - n]
        if first[st.pool[p]] is None:
            first[st.pool[p]] = entry[0]
    assert state.pool_heads() == first, \
        "the pool heads are not each pool's first eligible entry in the window"
    # the deadlock flags are sticky, so every blocked task of a job on a
    # cycle of the wait-for graph carries one
    assert all(state.task(tid).dl
               for tid in queue_reference.deadlocked_tasks(state)), \
        "a blocked task of a job on a wait-for cycle carries no deadlock flag"
    # the policies skip the failed flag of a pending entry's job
    assert not any(state.job(entry[2]).failed for entry in pending), \
        "a pending base entry belongs to a failed job"

    # per pool (fifo has one): the running slots are a recount of the
    # occupied slots, the cursor is the pool's first pending map and held
    # the pool's pending reduces below it, gone lists the pool's consumed
    # entries past its cursor, and the least first pending entry of the
    # pools is the queue head
    n_pools = len(st.pool_tasks)
    recount = [0] * n_pools
    for node in state.nodes:
        for occ in node.slots:
            if occ is not None:
                recount[st.pool[occ % n]] += 1
    assert state.pool_running == tuple(recount), \
        "pool running counts disagree with a slot recount"
    heads = []
    for q in range(n_pools):
        order = st.pool_tasks[q]
        assert order[-1] == n and list(order[:-1]) == [
            p for p in range(n) if st.pool[p] == q], \
            f"pool {q}'s queue order is not its tasks in queue order"
        cursor = state.pool_cursor[q]
        front = order[cursor]
        assert front == n or (
            st.kind[front] == CODE_MAP
            and state.task(base[front][2]).phase == SUBMITTED), \
            f"pool {q}'s cursor entry is not a pending map"
        below = [p for p in order[:cursor]
                 if state.task(base[p][2]).phase == SUBMITTED]
        assert not any(st.kind[p] == CODE_MAP for p in below), \
            f"a pending map of pool {q} sits below its cursor"
        assert state.pool_held[q] == tuple(below), \
            f"pool {q}'s held is not its pending reduces below its cursor"
        assert state.pool_gone[q] == tuple(
            p for p in order[cursor + 1:-1]
            if state.task(base[p][2]).phase != SUBMITTED), \
            f"pool {q}'s gone is not its consumed entries past its cursor"
        heads.append(below[0] if below else front)
    assert min(heads) == (pending[0][0] if pending else n), \
        "the pools' first pending entries miss the queue head"
    # the pools' count of the pending entries before each queue index,
    # which decides the window once the queue outgrows max_queue
    before = 0
    for qpos in range(n + len(state.extra)):
        assert _pending_before(st, state.pool_cursor, state.pool_held,
                               state.pool_gone, qpos) == before, \
            f"the pools miscount the pending entries before {qpos}"
        before += qpos >= n or \
            state.task(base[qpos][2]).phase == SUBMITTED

    # the speculative queue: only pending entries, none of a failed job,
    # and each speculation of a running task either queued or running
    assert not any(state.job(base[p][1]).failed for p in state.extra), \
        "a speculative entry of a failed job is still queued"
    for p, tid in enumerate(st.tids):
        rt = state.task(tid)
        if rt.phase == PROCESSED:
            queued = state.extra.count(p)
            assert queued + len(rt.copies) == rt.spec_count, \
                f"speculations of {tid} neither queued nor running"

    # the straggler bound: no running task with speculations left and a
    # finished sibling of its kind is due before it
    cfg = state.config
    for p, tid in enumerate(st.tids):
        rt = state.task(tid)
        if rt.phase == PROCESSED and rt.spec_count < cfg.max_speculative:
            job = state.job(st.job_ids[st.job_of[p]])
            cnt, tot = ((job.fin_maps, job.fin_map_dur)
                        if st.kind[p] == CODE_MAP
                        else (job.fin_reds, job.fin_red_dur))
            if cnt:
                assert state.spec_due <= \
                    rt.start + cfg.speculation_factor * (tot / cnt), \
                    f"{tid} is due before the straggler bound"

    # back-pointers: the occupied slots are exactly the slots that the
    # SCHEDULED and PROCESSED tasks and their copies claim, one claim each
    # (a slot holds the position p of a task or n + p of its copy)
    claims = []
    for p, tid in enumerate(st.tids):
        rt = state.task(tid)
        if rt.phase in (SCHEDULED, PROCESSED):
            claims.append(((rt.node, rt.slot), p))
        claims.extend(((cn, ck), n + p) for cn, ck, _cs in rt.copies)
    slots = {(i, k): occ for i, node in enumerate(state.nodes)
             for k, occ in enumerate(node.slots) if occ is not None}
    assert len(claims) == len(slots) and dict(claims) == slots, \
        "slot occupants and task slot claims disagree"
    assert [st.tids[p] for p in state.sched_pending] == sorted(
        tid for tid in st.tids if state.task(tid).phase == SCHEDULED), \
        "sched_pending is not the SCHEDULED tasks in id order"
    timeout = state.config.task_timeout_ms
    assert [(end, st.tids[p]) for end, _rank, p in state.running] == sorted(
        (rt.start + min(st.duration[p], timeout), tid)
        for p, tid in enumerate(st.tids) for rt in [state.task(tid)]
        if rt.phase == PROCESSED), \
        "running is not the PROCESSED tasks in (end, id) order"

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
