"""Queue-selection policies: FIFO, Fair and Capacity.

The model exposes the scan-window of eligible queue entries; a policy only
decides which of them a free slot should take. Pool membership is derived
deterministically from the job id (the trace has no user/pool column), so
runs are reproducible; `pool_table` computes it once per run.

Every policy reads the eligible entries in queue order and stops as soon as
its answer is certain:

- fifo takes the first entry.
- fair takes the first entry of the pool with the largest deficit
  (entitlement minus running slots). Every pool is entitled to the same
  share, so that is the pool with the fewest running slots, and among tied
  pools the earlier entry wins. The scan stops at the first entry of a pool
  that has the cluster-wide minimum.
- capacity takes the first entry of the highest-priority (first listed)
  queue that runs fewer slots than its fraction of the switched-on slots,
  else the first entry. The scan stops at the first entry of the
  highest-priority under-capacity queue, or at the first entry when every
  queue is at capacity.

So a fair or capacity decision costs one pass over the slots plus the
entries read up to the deciding one. It reads the whole max_queue window
only when no eligible entry belongs to a min-running pool (fair) or to the
top under-capacity queue (capacity).
"""

from __future__ import annotations

from zlib import crc32


def job_number(job_id: str) -> int:
    digits = "".join(ch for ch in str(job_id) if ch.isdigit())
    if digits:
        return int(digits)
    return crc32(str(job_id).encode())


def pool_table(config, job_ids) -> dict | None:
    """job id -> its fair pool or capacity queue under config.scheduler;
    None under fifo, which has no pools."""
    if config.scheduler == "fair":
        n = config.fair_pools
    elif config.scheduler == "capacity":
        n = len(config.capacity_queues)
    else:
        return None
    return {j: job_number(j) % n for j in job_ids}


def _running_by_pool(state, n_pools: int) -> list:
    """Occupied slots per pool, speculative copies included: a slot holds
    the position p of a task or n + p of its copy (n tasks)."""
    counts = [0] * n_pools
    st = state.statics
    pool_of, jids, job_of, n = st.pool_of, st.job_ids, st.job_of, st.workload
    for node in state.nodes:
        for occ in node.slots:
            if occ is not None:
                counts[pool_of[jids[job_of[occ % n]]]] += 1
    return counts


def select(policy: str, eligible, state) -> int | None:
    """Pick one entry from `eligible`, an iterable of
    (queue_index, code, job_id, task_id) already filtered for eligibility
    and capped at the max_queue scan window. Returns the chosen entry's
    queue index (its global queue position), or None when empty. Fair and
    capacity read the pools of `state.config`, so `policy` must be its
    scheduler.
    """
    if policy == "fifo":
        first = next(iter(eligible), None)
        return None if first is None else first[0]
    if policy == "fair":
        return _select_fair(eligible, state)
    if policy == "capacity":
        return _select_capacity(eligible, state)
    raise ValueError(f"unknown policy {policy!r}")


def _select_fair(eligible, state) -> int | None:
    running = _running_by_pool(state, state.config.fair_pools)
    least = min(running)
    pool_of = state.statics.pool_of
    best = None
    best_running = None
    for qpos, _code, jid, _tid in eligible:
        r = running[pool_of[jid]]
        if r == least:
            return qpos
        if best_running is None or r < best_running:
            best, best_running = qpos, r
    return best


def _select_capacity(eligible, state) -> int | None:
    queues = state.config.capacity_queues
    running = _running_by_pool(state, len(queues))
    on_slots = sum(len(n.slots) for n in state.nodes if n.on)
    # listed order is priority order
    under = [q for q, (_, frac) in enumerate(queues)
             if running[q] < frac * on_slots]
    pool_of = state.statics.pool_of
    first = None
    candidate = {}  # lower-priority under-capacity queue -> its first entry
    for qpos, _code, jid, _tid in eligible:
        if first is None:
            first = qpos
            if not under:
                break  # every queue is at capacity
        q = pool_of[jid]
        if q == under[0]:
            return qpos
        if q in under and q not in candidate:
            candidate[q] = qpos
    for q in under:
        if q in candidate:
            return candidate[q]
    return first
