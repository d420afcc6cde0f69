"""Seeded input generators for the benchmark's workloads.

Everything here is made from `random.Random(seed)`, so the same seed gives
the same traces, configs and properties. The program only ever sees the
generated CSV files, configs and property text.
"""

from __future__ import annotations

import csv
import random
from typing import NamedTuple

# The documented trace CSV header (see the trace module's docstring).
HEADER = ("task_id", "job_id", "kind", "submit_ms", "duration_ms",
          "deadline_ms", "preferred_node", "outcome", "failure_cause")


class Task(NamedTuple):
    task_id: str
    job_id: str
    kind: str                # map | reduce
    submit_ms: int
    duration_ms: int
    deadline_ms: int | None
    preferred_node: int | None
    outcome: str             # SUCCESS | FAIL


def write_csv(tasks, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(HEADER)
        for t in tasks:
            w.writerow([t.task_id, t.job_id, t.kind, t.submit_ms,
                        t.duration_ms,
                        "" if t.deadline_ms is None else t.deadline_ms,
                        "" if t.preferred_node is None else t.preferred_node,
                        t.outcome, ""])


# --------------------------------------------------------------------------
# Large traces (analyze-large, whatif-policies)

NODE_COUNT = 8
SLOTS_PER_NODE = 2
TIMEOUT_MS = 600_000
# The failure mix of the program's own "opencloud" generator profile
# (`GeneratorSpec` in src/schedcheck/trace.py), which records the mix of a
# real month-scale Hadoop trace: 5.88 % of tasks fail; of the failures, 32 %
# are lone one-task jobs that run past the timeout, 26 % are stragglers
# whose speculative copy runs out too, and the rest are the stragglers'
# reduces, failed by cascade. 30 % of tasks have a preferred node, the
# profile's default `locality_fraction`.
FAILURE_SHARE = 0.0588
TIMEOUT_OF_FAILURES = 0.32
SPECULATIVE_OF_FAILURES = 0.26
PREFERRED_SHARE = 0.3


def failure_mix(n_tasks: int) -> tuple:
    """(lone timeouts, speculative-limit stragglers, cascade reduces) for a
    trace of n_tasks, rounded as the opencloud profile rounds them."""
    n_fail = max(3, round(n_tasks * FAILURE_SHARE))
    n_timeout = max(1, round(TIMEOUT_OF_FAILURES * n_fail))
    n_spec = max(1, round(SPECULATIVE_OF_FAILURES * n_fail))
    return n_timeout, n_spec, n_fail - n_timeout - n_spec


def large_trace(n_tasks: int, interarrival_max_ms: int, seed: int) -> list:
    """Jobs in random order, the gap between jobs uniform on
    [0, interarrival_max_ms]:

    - lone-timeout jobs: one map that runs past the timeout;
    - straggler jobs: 3 maps of ordinary length, then a map that runs past
      the timeout and so draws a speculative copy once its siblings have
      finished, then the job's share of the cascade reduces;
    - ordinary jobs of 2-6 maps and 0-2 reduces, the last one cut to make
      n_tasks in all.

    Ordinary tasks run 45-60 s, so no sibling of them looks like a
    straggler to the speculation test. Exactly the over-timeout maps and
    the straggler jobs' reduces are labelled FAIL."""
    rng = random.Random(seed)
    n_timeout, n_spec, n_cascade = failure_mix(n_tasks)
    cascades = [n_cascade // n_spec] * n_spec
    for k in rng.sample(range(n_spec), n_cascade % n_spec):
        cascades[k] += 1
    # a job is a list of (kind, over timeout, label)
    jobs = [[("map", True, "FAIL")] for _ in range(n_timeout)]
    jobs += [[("map", False, "SUCCESS")] * 3 + [("map", True, "FAIL")]
             + [("reduce", False, "FAIL")] * c for c in cascades]
    left = n_tasks - sum(map(len, jobs))
    if left < 0:
        raise ValueError(f"{n_tasks} tasks cannot hold the failure mix")
    while left > 0:
        n_maps, n_reds = rng.randint(2, 6), rng.randint(0, 2)
        job = ([("map", False, "SUCCESS")] * n_maps
               + [("reduce", False, "SUCCESS")] * n_reds)[:left]
        jobs.append(job)
        left -= len(job)
    rng.shuffle(jobs)
    tasks = []
    submit = 0
    for j, job in enumerate(jobs, 1):
        for kind, over, outcome in job:
            duration = (TIMEOUT_MS + rng.randint(TIMEOUT_MS // 10,
                                                 TIMEOUT_MS // 2)
                        if over else rng.randint(45_000, 60_000))
            preferred = (rng.randrange(NODE_COUNT)
                         if rng.random() < PREFERRED_SHARE else None)
            tasks.append(Task(f"t{len(tasks)}", f"j{j}", kind, submit,
                              duration, None, preferred, outcome))
        submit += rng.randint(0, interarrival_max_ms)
    return tasks


# --------------------------------------------------------------------------
# Small models (exhaustive-small)

class SmallModel(NamedTuple):
    name: str
    config: dict           # ClusterConfig keyword arguments
    tasks: tuple           # Task tuples
    fixed: bool            # the fixed model, asked every Scheduled assertion


POLICIES = ("fifo", "fair", "capacity")
SHAPES = ((2, 3), (3, 2))   # (nodes, tasks)
OVER_TIMEOUT_SHARE = 0.25   # of a small model's tasks

# A map that times out while a sibling map and the job's reduce are still
# queued: the queued tasks fail by cascade without ever holding a slot.
CASCADE_MODEL = SmallModel(
    "cascade",
    dict(node_count=2, slots_per_node=1, scheduler="fifo",
         task_timeout_ms=1_000, max_speculative=0, deadline_factor=1000.0),
    (Task("bad", "j1", "map", 0, 2_000, None, None, "FAIL"),
     Task("late", "j1", "map", 0, 300, None, None, "SUCCESS"),
     Task("r1", "j1", "reduce", 0, 100, None, None, "SUCCESS")),
    True)


def small_model(rng: random.Random, index: int) -> SmallModel:
    """One anonymous-node model with the index's policy and shape: 3 tasks
    on 2 nodes or 2 tasks on 3 nodes, whose state spaces hold about 100-500
    states (4 tasks on 2 nodes, or 3 on 3, already hold over 1000).

    Any task may run past the timeout, maps that share their job included,
    so a map's failure can cascade to a sibling still queued, under every
    policy and with speculation on or off. The map deadlines (1000 x
    duration) lie far beyond any clock these models reach."""
    policy = POLICIES[index % len(POLICIES)]
    node_count, n_tasks = SHAPES[index % len(SHAPES)]
    timeout = rng.choice((1_000, 2_000))
    config = dict(
        node_count=node_count, slots_per_node=1, scheduler=policy,
        task_timeout_ms=timeout, max_speculative=rng.randint(0, 1),
        reduce_slowstart=rng.choice((0.0, 0.5, 1.0)), fair_pools=2,
        capacity_queues=(("prod", 0.5), ("adhoc", 0.5)),
        deadline_factor=1000.0, speculation_factor=rng.choice((1.2, 2.0)))
    tasks = []
    lone = rng.random() < 0.3
    n_jobs = 2 if n_tasks - lone >= 3 and rng.random() < 0.6 else 1
    for i in range(n_tasks - lone):
        jid = f"j{1 + i % n_jobs}"
        first = i < n_jobs
        kind = "map" if first or rng.random() < 0.65 else "reduce"
        duration = rng.randint(50, timeout)
        if rng.random() < OVER_TIMEOUT_SHARE:
            duration = timeout + rng.randint(1, timeout)
        deadline = None
        if kind == "reduce" and rng.random() < 0.5:
            deadline = rng.randint(200, 4_000)
        tasks.append(Task(f"t{i + 1}", jid, kind, rng.choice((0, 0, 10, 100)),
                          duration, deadline, None,
                          "FAIL" if duration > timeout else "SUCCESS"))
    if lone:
        tasks.append(Task(f"t{n_tasks}", "j9", "map", rng.choice((0, 10)),
                          timeout + rng.randint(1, timeout), None, None,
                          "FAIL"))
    return SmallModel(f"m{index}-{policy}", config, tuple(tasks), False)


def shape(model: SmallModel) -> tuple:
    return model.config["node_count"], len(model.tasks)
