"""Queue-selection policies: FIFO, Fair and Capacity.

The model splits its queue into pools (fair pools, capacity queues, or
fifo's one pool); a policy only decides which pool's first eligible entry a
free slot should take. Pool membership is derived deterministically from
the job id (the trace has no user/pool column), so runs are reproducible;
`pool_table` computes it once per run.

- fifo takes the least pool head, the first eligible entry.
- fair takes the first entry of the pool with the largest deficit
  (entitlement minus running slots). Every pool is entitled to the same
  share, so that is the pool with the fewest running slots, and among tied
  pools the earlier entry wins.
- capacity takes the first entry of the highest-priority (first listed)
  queue that runs fewer slots than its fraction of the switched-on slots,
  else the first entry.

No policy walks the window. A state keeps each pool's running slots and a
cursor into the pool's own queue order (GlobalState.pool_running and
pool_cursor), so GlobalState.pool_heads finds each pool's first eligible
entry in the window from a few reads: its first held reduce whose gate is
open, else its cursor map, else its first speculative entry whose original
runs. That entry is the one a scan of the window would meet first among
the pool's, so fifo takes the least head, fair the least (running slots,
queue index) over the pools, and capacity the head of the first
under-capacity queue that has one, else the least head. A decision costs O(pools) plus the held reduces
and speculative entries it reads. Only a queue longer than max_queue can
hide a head from the window; then an O(1) bound admits most heads, and an
exact count of the pending entries before a head, in O(pools log n),
settles the rest (GlobalState.pool_heads).
"""

from __future__ import annotations

from zlib import crc32


def job_number(job_id: str) -> int:
    digits = "".join(ch for ch in str(job_id) if ch.isdigit())
    if digits:
        return int(digits)
    return crc32(str(job_id).encode())


def pool_table(config, job_ids) -> tuple:
    """The pool (fair pool, capacity queue, or fifo's one pool) of each job
    under config.scheduler, in the order of job_ids, and the number of
    pools. Fair numbers only the pools that hold a job, densely and in
    pool-number order: an empty pool never has a head or a running slot,
    and fair breaks ties on (running slots, queue index), never on the
    pool, so leaving it out changes no pick, and a state's per-pool fields
    grow with the jobs, not with fair_pools. Capacity keeps every listed
    queue, since it reads them in priority order."""
    if config.scheduler == "fair":
        pools = [job_number(j) % config.fair_pools for j in job_ids]
        dense = {q: i for i, q in enumerate(sorted(set(pools)))}
        return [dense[q] for q in pools], len(dense)
    if config.scheduler == "capacity":
        n = len(config.capacity_queues)
        return [job_number(j) % n for j in job_ids], n
    return [0] * len(job_ids), 1


def select(state) -> int | None:
    """The queue index (global queue position) of the eligible entry in
    the max_queue scan window that a free slot of `state` takes under its
    scheduler, or None when the window holds no eligible entry."""
    heads = state.pool_heads()
    config = state.statics.config
    policy = config.scheduler
    if policy == "fair":
        best = None
        for running, head in zip(state.pool_running, heads):
            if head is not None and (best is None or (running, head) < best):
                best = (running, head)
        return None if best is None else best[1]
    if policy == "capacity":
        running = state.pool_running
        on_slots = state.counters.trackercount * config.slots_per_node
        # listed order is priority order
        for q, (_, frac) in enumerate(config.capacity_queues):
            if heads[q] is not None and running[q] < frac * on_slots:
                return heads[q]
    # fifo, or capacity with no queue under capacity: the first entry
    least = None
    for head in heads:
        if head is not None and (least is None or head < least):
            least = head
    return least
