"""The list-based queue-selection policies as they were before `select`
learnt to stop early, kept verbatim as the reference that the differential
tests in test_policies.py compare `schedcheck.policies.select` against.
Nothing here is imported from the policies module, so pool membership and
pool accounting are computed independently of the code under test.
"""

from __future__ import annotations

from typing import NamedTuple
from zlib import crc32


def job_number(job_id: str) -> int:
    digits = "".join(ch for ch in str(job_id) if ch.isdigit())
    if digits:
        return int(digits)
    return crc32(str(job_id).encode())


class PoolState(NamedTuple):
    running_slots: int
    entitled_slots: float


def _occupied_by_pool(state, pool_of_job) -> dict:
    # a slot holds the position p of a task or n + p of its copy
    counts = {}
    st = state.statics
    n = len(st.tids)
    for node in state.nodes:
        for occ in node.slots:
            if occ is None:
                continue
            pool = pool_of_job(st.job_ids[st.job_of[occ % n]])
            counts[pool] = counts.get(pool, 0) + 1
    return counts


def pool_states(state) -> dict:
    """Fair-scheduler pool accounting: pool id -> PoolState."""
    cfg = state.config
    on_slots = sum(len(n.slots) for n in state.nodes if n.on)
    entitled = on_slots / cfg.fair_pools
    running = _occupied_by_pool(state, lambda j: job_number(j) % cfg.fair_pools)
    return {p: PoolState(running.get(p, 0), entitled)
            for p in range(cfg.fair_pools)}


def capacity_states(state) -> dict:
    """Capacity-scheduler queue accounting: queue index -> PoolState."""
    cfg = state.config
    on_slots = sum(len(n.slots) for n in state.nodes if n.on)
    nq = len(cfg.capacity_queues)
    running = _occupied_by_pool(state, lambda j: job_number(j) % nq)
    return {q: PoolState(running.get(q, 0), frac * on_slots)
            for q, (_, frac) in enumerate(cfg.capacity_queues)}


def select(policy: str, eligible, state) -> int | None:
    """Pick one entry from `eligible`, an iterable of
    (queue_index, code, job_id, task_id) already filtered for eligibility
    and capped at the max_queue scan window. Returns the chosen entry's
    queue index (its global queue position), or None when empty.
    """
    if policy == "fifo":
        first = next(iter(eligible), None)
        return None if first is None else first[0]

    eligible = list(eligible)
    if not eligible:
        return None

    if policy == "fair":
        pools = pool_states(state)
        n = state.config.fair_pools
        best = None
        best_deficit = None
        for qpos, _code, jid, _tid in eligible:
            pool = job_number(jid) % n
            ps = pools[pool]
            deficit = ps.entitled_slots - ps.running_slots
            # strictly greater: a tie keeps the earlier entry (queue order)
            if best_deficit is None or deficit > best_deficit:
                best, best_deficit = qpos, deficit
        return best

    if policy == "capacity":
        caps = capacity_states(state)
        nq = len(state.config.capacity_queues)
        by_queue = {}
        for entry in eligible:
            q = job_number(entry[2]) % nq
            by_queue.setdefault(q, entry[0])
        for q in range(nq):  # listed order is priority order
            if q in by_queue and caps[q].running_slots < caps[q].entitled_slots:
                return by_queue[q]
        return eligible[0][0]  # all at capacity

    raise ValueError(f"unknown policy {policy!r}")
