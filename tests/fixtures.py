"""Hand-built workload fixtures used across the test suite.

Every fixture stays tiny (<= 3 nodes, <= 2 slots per node, <= 6 tasks) so
the brute-force enumerator can cover its full state space quickly. Each
entry records what behaviour it was built to exhibit.
"""

from schedcheck.config import ClusterConfig
from schedcheck.trace import TaskRecord, from_rows


def rec(tid, jid, kind, submit, dur, deadline=None, pref=None,
        outcome="SUCCESS", cause=None):
    return TaskRecord(tid, jid, kind, submit, dur, deadline, pref,
                      outcome, cause)


def mk_trace(records):
    return from_rows((i + 1, r) for i, r in enumerate(records))


class Fixture:
    def __init__(self, name, config, records, notes=""):
        self.name = name
        self.config = config
        self.records = tuple(records)
        self.trace = mk_trace(records)
        self.notes = notes


def _all_fixtures():
    fx = []

    fx.append(Fixture(
        "single_map",
        ClusterConfig(node_count=1, slots_per_node=1),
        [rec("m1", "j1", "map", 0, 100)],
        "smallest possible workload"))

    fx.append(Fixture(
        "map_only_parallel",
        ClusterConfig(node_count=2, slots_per_node=1),
        [rec("m1", "j1", "map", 0, 100),
         rec("m2", "j1", "map", 0, 150),
         rec("m3", "j1", "map", 0, 120)],
        "map-only job across two interchangeable nodes"))

    fx.append(Fixture(
        "map_reduce_gate",
        ClusterConfig(node_count=2, slots_per_node=1),
        [rec("m1", "j1", "map", 0, 100),
         rec("m2", "j1", "map", 0, 100),
         rec("r1", "j1", "reduce", 0, 200)],
        "reduce must wait for both maps"))

    fx.append(Fixture(
        "two_jobs_fifo",
        ClusterConfig(node_count=2, slots_per_node=1),
        [rec("a1", "j1", "map", 0, 100),
         rec("a2", "j1", "map", 0, 100),
         rec("b1", "j2", "map", 50, 100),
         rec("b2", "j2", "map", 50, 100)],
        "two jobs competing for two slots"))

    fx.append(Fixture(
        "fair_two_pools",
        ClusterConfig(node_count=2, slots_per_node=1, scheduler="fair",
                      fair_pools=2),
        [rec("a1", "j1", "map", 0, 100),
         rec("a2", "j1", "map", 0, 100),
         rec("b1", "j2", "map", 0, 100),
         rec("b2", "j2", "map", 0, 100)],
        "fair policy balances two pools"))

    fx.append(Fixture(
        "capacity_two_queues",
        ClusterConfig(node_count=2, slots_per_node=1, scheduler="capacity",
                      capacity_queues=(("prod", 0.5), ("adhoc", 0.5))),
        [rec("a1", "j1", "map", 0, 100),
         rec("b1", "j2", "map", 0, 100),
         rec("a2", "j1", "map", 0, 100),
         rec("b2", "j2", "map", 0, 100)],
        "capacity policy honours queue entitlements"))

    fx.append(Fixture(
        "locality_preference",
        ClusterConfig(node_count=2, slots_per_node=1),
        [rec("m1", "j1", "map", 0, 100, pref=0),
         rec("m2", "j1", "map", 0, 100, pref=1),
         rec("m3", "j1", "map", 0, 100, pref=0)],
        "preferred nodes make both nodes named (no anonymity)"))

    fx.append(Fixture(
        "speculative_copy",
        ClusterConfig(node_count=3, slots_per_node=1, task_timeout_ms=10_000,
                      max_speculative=1),
        [rec("f1", "j1", "map", 0, 100),
         rec("f2", "j1", "map", 0, 100),
         rec("slow", "j1", "map", 0, 5_000)],
        "straggler gets a speculative copy after siblings finish"))

    fx.append(Fixture(
        "timeout_cascade",
        ClusterConfig(node_count=2, slots_per_node=1, task_timeout_ms=1_000),
        [rec("bad", "j1", "map", 0, 2_000, outcome="FAIL", cause="Timeout"),
         rec("late", "j1", "map", 0, 1_500, outcome="FAIL", cause="Cascade"),
         rec("r1", "j1", "reduce", 0, 100, deadline=10_000, outcome="FAIL",
             cause="Cascade")],
        "map timeout fails the job; unfinished siblings cascade"))

    fx.append(Fixture(
        "speculative_limit",
        ClusterConfig(node_count=3, slots_per_node=1, task_timeout_ms=1_000,
                      max_speculative=1),
        [rec("f1", "j1", "map", 0, 100),
         rec("f2", "j1", "map", 0, 100),
         rec("slow", "j1", "map", 0, 2_000, outcome="FAIL",
             cause="SpeculativeLimit")],
        "speculated straggler still times out -> SpeculativeLimit"))

    fx.append(Fixture(
        "queue_wait",
        ClusterConfig(node_count=1, slots_per_node=1),
        [rec("m1", "j1", "map", 0, 1_000),
         rec("m2", "j2", "map", 0, 100, deadline=500, outcome="FAIL",
             cause="QueueWait")],
        "queued task starts after its deadline already passed"))

    fx.append(Fixture(
        "deadlock_cycle",
        ClusterConfig(node_count=2, slots_per_node=1, reduce_slowstart=0.0),
        [rec("ar", "j1", "reduce", 0, 100),
         rec("br", "j2", "reduce", 0, 100),
         rec("am", "j1", "map", 10, 100),
         rec("bm", "j2", "map", 10, 100)],
        "early-assigned reduces occupy both slots; each job's maps starve "
        "behind the other job's stuck reduce"))

    fx.append(Fixture(
        "deadlock_self",
        ClusterConfig(node_count=1, slots_per_node=1, reduce_slowstart=0.0),
        [rec("r1", "j1", "reduce", 0, 100),
         rec("m1", "j1", "map", 10, 100)],
        "single job deadlocks itself on one slot (self-cycle)"))

    fx.append(Fixture(
        "finish_after_deadline",
        ClusterConfig(node_count=1, slots_per_node=1),
        [rec("m1", "j1", "map", 0, 1_000, deadline=500)],
        "starts in time, finishes late: FinishedAfterDeadline, no failure"))

    fx.append(Fixture(
        "three_anon_nodes",
        ClusterConfig(node_count=3, slots_per_node=1),
        [rec("m1", "j1", "map", 0, 100),
         rec("m2", "j1", "map", 0, 150),
         rec("m3", "j1", "map", 0, 200),
         rec("r1", "j1", "reduce", 0, 100)],
        "three fully anonymous nodes; symmetry reduction target"))

    fx.append(Fixture(
        "three_anon_two_jobs",
        ClusterConfig(node_count=3, slots_per_node=1),
        [rec("a1", "j1", "map", 0, 100),
         rec("a2", "j1", "map", 0, 100),
         rec("b1", "j2", "map", 0, 100),
         rec("b2", "j2", "map", 0, 100)],
        "three anonymous nodes, two competing jobs"))

    return {f.name: f for f in fx}


FIXTURES = _all_fixtures()

# Names with at least three nodes no task prefers, used by the symmetry
# acceptance check.
ANON3_FIXTURES = ("three_anon_nodes", "three_anon_two_jobs")


def random_workload(rng):
    """Draw a small random (config, trace) pair for invariant testing.

    Kept within the brute-force envelope: <= 3 nodes, <= 2 slots per node,
    <= 6 tasks, and timeouts/deadlines short enough that timeout,
    speculation, queue-wait, and cascade behaviour all occur across draws.
    """
    node_count = rng.randint(1, 3)
    config = ClusterConfig(
        node_count=node_count,
        slots_per_node=rng.randint(1, 2),
        scheduler=rng.choice(("fifo", "fair", "capacity")),
        task_timeout_ms=rng.choice((500, 1000, 5000)),
        max_speculative=rng.randint(0, 1),
        reduce_slowstart=rng.choice((0.0, 0.5, 1.0)),
        fair_pools=rng.randint(1, 2),
        deadline_factor=rng.choice((1.5, 3.0)),
        speculation_factor=rng.choice((1.2, 2.0)),
    )
    n_tasks = rng.randint(1, 6)
    n_jobs = rng.randint(1, min(2, n_tasks))
    jids = [f"j{rng.randint(1, n_jobs)}" for _ in range(n_tasks)]
    first_of_job = {jid: jids.index(jid) for jid in jids}
    records = []
    for i in range(n_tasks):
        jid = jids[i]
        # A job with reduces must have a map, so the first task is one.
        kind = ("map" if i == first_of_job[jid] or rng.random() < 0.7
                else "reduce")
        pref = (rng.randint(0, node_count - 1)
                if rng.random() < 0.3 else None)
        deadline = rng.choice((None, rng.randint(200, 4000)))
        records.append(rec(
            f"t{i + 1}", jid, kind,
            submit=rng.choice((0, 0, 10, 100)),
            dur=rng.randint(50, 1500),
            deadline=deadline, pref=pref))
    return config, mk_trace(records)
