"""The scheduler queue and the resources-deadlock wait-for graph, written
from their definitions, as the reference that the tests compare the pool
fields against (GlobalState.pool_cursor, pool_held, pool_gone and the
policies and deadlock flags built on them). Nothing here reads those
fields, the slowstart gate of Statics or the model's counters: the queue is
read from the task records, the gate from the config, and the holders from
the nodes' slots.
"""

import math

from schedcheck.model import (CODE_MAP, CODE_REDUCE, PROCESSED, SUBMITTED,
                              table_get)


def queue_window(state) -> list:
    """The pending entries in queue order, capped at max_queue, as
    (queue_index, code, job_id, task_id): positions 0 .. n-1 whose task is
    SUBMITTED, with the task's kind as code, then the speculative entries
    of `extra`, entry k at queue index n + k with its task's kind + 2."""
    st = state.statics
    n = st.workload
    entries = [(p, st.kind[p], st.job_ids[st.job_of[p]], st.tids[p])
               for p in range(n)
               if table_get(state.tasks, p).phase == SUBMITTED]
    entries += [(n + k, st.kind[p] + 2, st.job_ids[st.job_of[p]], st.tids[p])
                for k, p in enumerate(state.extra)]
    return entries[:state.config.max_queue]


def _maps(state) -> dict:
    """Job id -> the number of its maps."""
    st = state.statics
    maps = dict.fromkeys(st.job_ids, 0)
    for p in range(st.workload):
        if st.kind[p] == CODE_MAP:
            maps[st.job_ids[st.job_of[p]]] += 1
    return maps


def eligible_entries(state) -> list:
    """The entries of queue_window that assignment may take: none of a
    failed job, a reduce only once its gate is open, a copy only while its
    original runs. A reduce's gate is the finished maps its job needs
    before it may be assigned: reduce_slowstart of its maps, rounded up."""
    maps = _maps(state)
    slowstart = state.config.reduce_slowstart
    eligible = []
    for entry in queue_window(state):
        code, jid, tid = entry[1:]
        job = state.job(jid)
        if job.failed:
            continue
        if code == CODE_REDUCE and \
                job.fin_maps < math.ceil(slowstart * maps[jid]):
            continue
        if code > CODE_REDUCE and state.task(tid).phase != PROCESSED:
            continue
        eligible.append(entry)
    return eligible


def wait_for_graph(state):
    """The wait-for graph over jobs when the cluster is slot-starved, as
    (edges, blocked): edges maps a blocked job to the jobs whose stuck
    reduces hold the slots it needs, blocked maps a job to its eligible
    queued tasks in the window, which wait only on slots. (None, None)
    unless no slot is free and every occupied slot holds a reduce whose own
    maps have not all finished. Any free slot would serve any blocked task,
    so every blocked job waits on every holder."""
    if any(None in node.slots for node in state.nodes if node.on):
        return None, None
    st = state.statics
    n = st.workload
    maps = _maps(state)
    holders = set()
    for node in state.nodes:
        for occ in node.slots:
            if occ is None:
                continue
            if occ >= n:
                return None, None  # a copy resolves with its original
            tid, jid = st.tids[occ], st.job_ids[st.job_of[occ]]
            if state.task(tid).phase == PROCESSED:
                return None, None  # a running task completes
            if st.kind[occ] != CODE_REDUCE or \
                    state.job(jid).fin_maps == maps[jid]:
                return None, None  # an executable occupant will progress
            holders.add(jid)
    if not holders:
        return None, None
    blocked = {}
    for _qpos, code, jid, tid in eligible_entries(state):
        if code <= CODE_REDUCE:
            blocked.setdefault(jid, []).append(tid)
    if not blocked:
        return None, None
    return {jid: set(holders) for jid in blocked}, blocked


def deadlocked_tasks(state) -> set:
    """The tasks that must carry the deadlock flag in `state`: the blocked
    tasks of every job on a cycle of the wait-for graph. The graph is
    complete from the blocked jobs to the holders, so a job lies on a cycle
    exactly when it is both."""
    edges, blocked = wait_for_graph(state)
    if edges is None:
        return set()
    holders = set().union(*edges.values())
    return {tid for jid, tids in blocked.items() if jid in holders
            for tid in tids}
