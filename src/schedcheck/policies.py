"""Queue-selection policies: FIFO, Fair and Capacity.

The model exposes the window of eligible queue entries (the first max_queue
pending entries, filtered for eligibility); a policy only decides which of
them a free slot should take. Pool membership is derived deterministically
from the job id (the trace has no user/pool column), so runs are
reproducible; `pool_table` computes it once per run.

- fifo takes the first entry.
- fair takes the first entry of the pool with the largest deficit
  (entitlement minus running slots). Every pool is entitled to the same
  share, so that is the pool with the fewest running slots, and among tied
  pools the earlier entry wins.
- capacity takes the first entry of the highest-priority (first listed)
  queue that runs fewer slots than its fraction of the switched-on slots,
  else the first entry.

Fair and capacity do not walk the window. A fair or capacity state keeps
each pool's running slots and a cursor into the pool's own queue order
(model.Pools), so GlobalState.pool_heads finds each pool's first eligible
entry in the window from a few reads: its first held reduce whose gate is
open, else its cursor map, else its first speculative entry whose original
runs. Either entry is the one a scan of the window would meet first among
the pool's, so fair takes the least (running slots, queue index) over the
pools, and capacity the head of the first under-capacity queue that has
one, else the least head. A decision costs O(pools) plus the held reduces
and speculative entries it reads. Only a queue longer than max_queue can
hide a head from the window; then an O(1) bound admits most heads, and an
exact count of the pending entries before a head, in O(pools log n),
settles the rest (GlobalState._in_window).
"""

from __future__ import annotations

from zlib import crc32


def job_number(job_id: str) -> int:
    digits = "".join(ch for ch in str(job_id) if ch.isdigit())
    if digits:
        return int(digits)
    return crc32(str(job_id).encode())


def pool_count(config) -> int:
    """The fair pools or capacity queues under config.scheduler; 0 under
    fifo, which has none."""
    if config.scheduler == "fair":
        return config.fair_pools
    if config.scheduler == "capacity":
        return len(config.capacity_queues)
    return 0


def pool_table(config, job_ids) -> list | None:
    """The pool (fair pool or capacity queue) of each job under
    config.scheduler, in the order of job_ids; None under fifo."""
    n = pool_count(config)
    return [job_number(j) % n for j in job_ids] if n else None


def select(policy: str, eligible, state) -> int | None:
    """Pick one entry from `eligible`, an iterable of
    (queue_index, code, job_id, task_id) already filtered for eligibility
    and capped at the max_queue scan window. Returns the chosen entry's
    queue index (its global queue position), or None when empty. Fair and
    capacity find the same entry from the pools of `state`, without reading
    `eligible`, so `policy` must be the state's scheduler and `eligible`
    its eligible entries.
    """
    if policy == "fifo":
        first = next(iter(eligible), None)
        return None if first is None else first[0]
    if policy == "fair":
        return _fair(state)
    if policy == "capacity":
        return _capacity(state)
    raise ValueError(f"unknown policy {policy!r}")


def _fair(state) -> int | None:
    best = None
    for running, head in zip(state.pools.running, state.pool_heads()):
        if head is not None and (best is None or (running, head) < best):
            best = (running, head)
    return None if best is None else best[1]


def _capacity(state) -> int | None:
    heads = state.pool_heads()
    running = state.pools.running
    config = state.config
    on_slots = state.counters.trackercount * config.slots_per_node
    # listed order is priority order
    for q, (_, frac) in enumerate(config.capacity_queues):
        if heads[q] is not None and running[q] < frac * on_slots:
            return heads[q]
    return min((h for h in heads if h is not None), default=None)
