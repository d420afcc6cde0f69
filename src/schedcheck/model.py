"""The cluster transition system: master/worker activation, the scheduler
queue, task execution with data locality, speculative copies, deadlines,
timeouts and failure cascades.

States are immutable values; every transition produces a new state, so
exploration may share them freely. Logical time advances only at completion
transitions, jumping to the earliest finish time among running tasks; queue
wait is measured as start - submit.

A state's successors are listed as moves: enabled_moves gives each enabled
transition as a (build, arg) pair, in the fixed exploration order, without
building any, and build(state, arg) makes the Transition. iter_transitions
builds them one per next() and lets go of the state with the last one, so a
search that keeps an iterator per path state keeps no half-run step code,
and no state whose moves are all taken. Moves are pure: a new iterator over
an equal state gives equal transitions in the same order, which lets the
explorer drop the iterators of deep path states and rebuild them later by
drawing the same number again (checker._rebuild).

A state's fingerprint is a Zobrist-style sum (Zobrist 1970; the idea behind
SPIN and TLC fingerprints): every task and job position has a fixed random
key, a record's digest is the built-in hash() of an int tuple, and the
position part of the fingerprint is the sum of key times digest change from
the default record. A transition lists the records it wrote (Transition.
writes), so a caller that holds the source's position sum takes the
successor's from those alone (sum_after); a state keeps no sum itself, and
a walk that never fingerprints (replay, run_to_quiescence) hashes no record.
The scalar and node parts are digested per fingerprint; the node part holds
only what the task records leave open (the on flags, and under symmetry one
class code per anonymous node), since on a reachable state the records fix
which task holds which slot. See GlobalState.fingerprint for the collision
bound.

A completion scans the running tasks for stragglers only once the clock
has reached a bound that each state carries (GlobalState.spec_due): a
lower bound on the earliest clock at which a running task could be
copied, lowered where a task starts or a sibling's finish changes an
estimate. Most completions so skip the scan; see _speculation_scan.

A state holds its run (Statics, the config among it) by one pointer, and
beside it only what a transition writes. The base queue is split once, per
pool (fifo has one pool): each pool reads its own tasks from a cursor, its
first pending map, after the few pending reduces below it (`pool_held`), so
a reduce that waits for its maps does not make every pick re-walk the
entries consumed behind it. With each pool's running slots, that lets every
policy find its pick without a scan.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

from . import policies
from .config import ClusterConfig
from .errors import EmptyWorkload, SlotConflict
from .trace import MAP, WorkloadTrace

# Task lifecycle phases. WAITING_RESOURCES is a derived view of a queued
# task (sticky deadlock flag, or wait beyond the fairness bound); the stored
# phase stays SUBMITTED so the linear order below is never violated.
SUBMITTED = 0
WAITING_RESOURCES = 1
SCHEDULED = 2
PROCESSED = 3
FINISHED_WITHIN_DEADLINE = 4
FINISHED_AFTER_DEADLINE = 5
FAILED = 6

PHASE_NAMES = ("Submitted", "WaitingResources", "Scheduled", "Processed",
               "FinishedWithinDeadline", "FinishedAfterDeadline", "Failed")
PHASE_BY_NAME = {n: i for i, n in enumerate(PHASE_NAMES)}

# failure causes
CAUSE_NONE = 0
CAUSE_TIMEOUT = 1
CAUSE_SPECULATIVE = 2
CAUSE_CASCADE = 3
CAUSE_QUEUEWAIT = 4
CAUSE_NAMES = ("", "Timeout", "SpeculativeLimit", "Cascade", "QueueWait")

# queue entry codes, as in the scheduler script; a copy's is its kind + 2
CODE_MAP = 1
CODE_REDUCE = 2

class TaskRT(NamedTuple):
    """Dynamic per-task state; static attributes live in Statics."""
    phase: int = SUBMITTED
    start: int = -1      # execution start (max(clock, submit))
    finish: int = -1     # resolution clock (finish, failure or discard)
    node: int = -1
    slot: int = -1
    local: int = -1      # 1 data-local, 0 remote, -1 not dispatched
    cause: int = CAUSE_NONE
    spec_count: int = 0
    copies: tuple = ()   # running speculative copies: (node, slot, start)
    dl: int = 0          # sticky resources-deadlock flag


DEFAULT_RT = TaskRT()


class JobRT(NamedTuple):
    fin_maps: int = 0
    fin_map_dur: int = 0
    fin_reds: int = 0
    fin_red_dur: int = 0
    failed: int = 0


DEFAULT_JOB = JobRT()


# A state keeps its task and job records in persistent tables indexed by
# position: a task's trace record index, a job's index in Statics.job_ids.
# A table is Bagwell's array-mapped trie cut to three levels of 32-way
# tuples, the layout of Clojure's PersistentVector: position i sits at
# table[i >> 10][(i >> 5) & 31][i & 31]. A read is three indexings; a write
# copies the three tuples on its path and shares the rest. The root has one
# entry per 1,024 positions and every slot starts at the default record.

def new_table(n: int, default) -> tuple:
    """A table of n positions (rounded up to 1,024), all `default`."""
    return (((default,) * 32,) * 32,) * -(-n // 1024)


def table_get(table: tuple, i: int):
    return table[i >> 10][(i >> 5) & 31][i & 31]


def table_set(table: tuple, i: int, value) -> tuple:
    """A new table with position i set to value; `table` is unchanged."""
    r, j = i >> 10, (i >> 5) & 31
    mid = list(table[r])
    leaf = list(mid[j])
    leaf[i & 31] = value
    mid[j] = tuple(leaf)
    root = list(table)
    root[r] = tuple(mid)
    return tuple(root)


def table_records(table: tuple, n: int) -> list:
    """The records at positions 0 .. n-1, in order; no padding is read
    beyond the last leaf."""
    out = []
    for p in range(-(-n // 32)):
        out.extend(table[p >> 5][p & 31])
    del out[n:]
    return out


class NodeRT(NamedTuple):
    on: bool
    # per slot: None free, p the task at position p, n + p its speculative
    # copy (n tasks); position 0 is an occupant, so test `is None`
    slots: tuple


class Counters(NamedTuple):
    trackercount: int = 0
    completedscheduled: int = 0
    locality: int = 0
    nonlocality: int = 0
    n_scheduled: int = 0       # tasks that ever reached Scheduled
    n_fin_within: int = 0
    n_fin_after: int = 0
    n_failed: int = 0
    n_served_fair: int = 0     # started with wait <= fairness_wait_ms
    n_deadlock: int = 0        # sticky deadlock flags set
    free_slots: int = 0


# Counters fields by index: a _Builder keeps the counters as a list, which
# the transitions add to in place
(_TRACKERS, _COMPLETED, _LOCAL, _NONLOCAL, _SCHEDULED, _FIN_WITHIN,
 _FIN_AFTER, _FAILED, _SERVED_FAIR, _DEADLOCK, _FREE) = range(11)
# by phase: the counter of the tasks that entered it (_Builder.set_task)
_ENTERED = (None, None, _SCHEDULED, _COMPLETED, _FIN_WITHIN, _FIN_AFTER,
            _FAILED)


# Fingerprint keys are drawn in turn from one generator with a fixed seed
# (any constant will do), each 2r + 1 for 128 random bits r, odd and so
# never zero. The first two are those of the scalar and node parts; the
# next ones, kept at _POSITION_KEYS[k], those of the positions k in order.
_KEY_RNG = random.Random(0x5C4ED_C4EC)
_SCALAR_KEY, _NODES_KEY = [_KEY_RNG.getrandbits(128) << 1 | 1
                           for _ in range(2)]
_POSITION_KEYS: list = []


def _keys(n: int) -> list:
    """The keys of positions 0 .. n - 1 at least: one table per process,
    which only grows, so every model shares the keys of the largest yet
    and a set-up makes none again. Each key is drawn once, in position
    order, so key k is the same whatever was drawn before."""
    draw = _KEY_RNG.getrandbits
    _POSITION_KEYS.extend([draw(128) << 1 | 1
                           for _ in range(n - len(_POSITION_KEYS))])
    return _POSITION_KEYS


class Statics:
    """Per-run data shared by every state of one exploration, the config
    among it; immutable but for `keys`, the process's key table, which may
    grow past this run's positions."""
    __slots__ = ("config", "tids", "idx_of", "rank", "kind", "submit",
                 "duration", "deadline", "preferred", "job_of", "job_tasks",
                 "total_maps", "gate", "workload", "named_nodes", "job_ids",
                 "job_idx_of", "pool", "pool_tasks", "class_weight", "keys")

    def __init__(self, config: ClusterConfig, trace: WorkloadTrace):
        self.config = config
        # Per-task attributes are tuples indexed by task position, per-job
        # ones by job position; idx_of and job_idx_of serve the id boundary.
        recs = trace.records
        self.tids = tuple(r.task_id for r in recs)
        self.idx_of = {t: i for i, t in enumerate(self.tids)}
        # position -> rank of its task id in id order, the tie-break order
        # of sched_pending and running: the inverse of the id-order sort
        by_id = sorted(range(len(recs)), key=self.tids.__getitem__)
        self.rank = tuple(sorted(range(len(recs)), key=by_id.__getitem__))
        self.kind = tuple(CODE_MAP if r.kind == MAP else CODE_REDUCE
                          for r in recs)
        self.submit = tuple(r.submit_ms for r in recs)
        self.duration = tuple(r.duration_ms for r in recs)
        self.deadline = tuple(
            r.deadline_ms if r.deadline_ms is not None
            else r.submit_ms + int(config.deadline_factor * r.duration_ms)
            for r in recs)
        self.preferred = tuple(r.preferred_node for r in recs)
        self.job_ids = tuple(trace.job_index)
        self.job_idx_of = {j: i for i, j in enumerate(self.job_ids)}
        self.job_of = tuple(self.job_idx_of[r.job_id] for r in recs)
        # the positions of each job's tasks, in trace order
        self.job_tasks = tuple(trace.job_index.values())
        self.total_maps = tuple(
            sum(1 for p in ps if self.kind[p] == CODE_MAP)
            for ps in self.job_tasks)
        # per job, the maps that must finish before a reduce may be assigned
        ss = config.reduce_slowstart
        self.gate = self.total_maps if ss >= 1.0 else tuple(
            math.ceil(ss * total) for total in self.total_maps)
        self.workload = len(recs)
        # The pool (fair pool, capacity queue, or fifo's one pool) of each
        # task position, and the positions of each pool's tasks in queue
        # order, ending in the sentinel n; built job by job.
        job_pool, n_pools = policies.pool_table(config, self.job_ids)
        self.pool = tuple([job_pool[j] for j in self.job_of])
        tasks = [[] for _ in range(n_pools)]
        for q, ps in zip(job_pool, self.job_tasks):
            tasks[q].extend(ps)
        self.pool_tasks = tuple([tuple(sorted(ps)) + (self.workload,)
                                 for ps in tasks])
        self.named_nodes = frozenset(
            p for p in self.preferred
            if p is not None and 0 <= p < config.node_count)
        # an anonymous node's class code (see _node_view) adds
        # class_weight[c] per occupant of class c: 2 (k + 1)^(c - 1) for
        # k slots a node, so the codes of different class counts differ
        base = config.slots_per_node + 1
        self.class_weight = (0, 2, 2 * base, 2 * base ** 2, 2 * base ** 3)
        # fingerprint keys (see GlobalState.fingerprint) of the task
        # positions, then the job positions
        self.keys = _keys(self.workload + len(self.job_ids))


class Event(NamedTuple):
    name: str
    payload: int | None = None  # carried into witness steps and replay


class Transition(NamedTuple):
    event: Event
    state: "GlobalState"
    changed: tuple  # ((task_id, old_phase, new_phase), ...)
    writes: list    # [(position, old record, new record), ...]; see _Builder


class GlobalState:
    __slots__ = ("statics", "tasks", "jobs", "nodes", "pool_running",
                 "pool_cursor", "pool_held", "pool_gone", "extra", "clock",
                 "counters", "namenode_on", "jobtracker_on", "running",
                 "sched_pending", "spec_due")

    def __init__(self, statics: Statics, nodes: tuple, tasks: tuple,
                 jobs: tuple, pool_running: tuple, pool_cursor: tuple,
                 pool_held: tuple, pool_gone: tuple, extra=(), clock=0,
                 counters=Counters(), namenode_on=False, jobtracker_on=False,
                 running=(), sched_pending=(), spec_due=-math.inf):
        """The one constructor of a state; the defaults, with all-default
        task and job tables and the full queue, are the cold cluster that
        build_cluster starts from, except that build_cluster knows its
        straggler bound (inf), where the default makes a state built by
        hand scan in full. `statics` is the one pointer to the run; every
        other field is one that a transition writes.

        The pool_ fields keep per pool (fifo has one) what the policies
        would otherwise rebuild on every decision: its occupied slots,
        copies included, and the split of its own base entries. A pool's
        cursor is the index in its queue order of its first pending map,
        its held the sorted positions of its pending reduces before that,
        and its gone the entries it lost after the cursor (only a cascade
        consumes those), which _pending_before subtracts. The pool's first
        pending entry is its first held reduce, if any, else its cursor
        map. The split pays because few pending reduces sit below the first
        pending map: a pick then skips the consumed entries between them,
        and the upkeep is one short tuple copy per held reduce taken, none
        for a map taken past the cursor. Like the slots, these are
        functions of the task records, so neither canonical_key nor
        fingerprint reads them.

        spec_due is a lower bound on the earliest clock at which a running
        task could pass the straggler test of _speculation_scan: the least
        due, start + speculation_factor * (tot / cnt), of the running tasks
        with speculations left and a finished sibling of their kind. It
        depends on the run that reached the state (a task that stops
        running leaves its due behind until the next full scan), so it is
        history, not identity, and neither canonical_key nor fingerprint
        reads it either. With max_speculative 0 nothing keeps it.

        A state keeps no reference to its parent, and no fingerprint: the
        caller that walks the states keeps any sum it chains (see
        fingerprint), so a walk frees each state once the next is built."""
        self.statics = statics
        self.tasks = tasks
        self.jobs = jobs
        self.nodes = nodes
        self.pool_running = pool_running
        self.pool_cursor = pool_cursor
        self.pool_held = pool_held
        self.pool_gone = pool_gone
        self.extra = extra
        self.clock = clock
        self.counters = counters
        self.namenode_on = namenode_on
        self.jobtracker_on = jobtracker_on
        self.running = running
        self.sched_pending = sched_pending
        self.spec_due = spec_due

    @property
    def config(self) -> ClusterConfig:
        """The run's config (Statics.config)."""
        return self.statics.config

    def task(self, tid) -> TaskRT:
        i = self.statics.idx_of[tid]
        return self.tasks[i >> 10][(i >> 5) & 31][i & 31]

    def job(self, jid) -> JobRT:
        i = self.statics.job_idx_of[jid]
        return self.jobs[i >> 10][(i >> 5) & 31][i & 31]

    # -- derived task views ------------------------------------------------

    def task_phase(self, tid) -> int:
        """Current phase, with the WaitingResources view applied."""
        st = self.statics
        i = st.idx_of[tid]
        rt = self.tasks[i >> 10][(i >> 5) & 31][i & 31]
        if rt.phase == SUBMITTED:
            if rt.dl or self.clock - st.submit[i] > \
                    st.config.fairness_wait_ms:
                return WAITING_RESOURCES
        return rt.phase

    def task_ever_reached(self, tid, phase: int) -> bool:
        """Whether the task has been in `phase` at or before this state."""
        st = self.statics
        i = st.idx_of[tid]
        rt = self.tasks[i >> 10][(i >> 5) & 31][i & 31]
        if phase == SUBMITTED:
            return True
        if phase == WAITING_RESOURCES:
            if rt.dl:
                return True
            if rt.start >= 0:
                ref = rt.start
            elif rt.finish >= 0:
                ref = rt.finish
            else:
                ref = self.clock
            return ref - st.submit[i] > st.config.fairness_wait_ms
        if phase == SCHEDULED:
            return rt.node >= 0 or rt.phase >= SCHEDULED
        if phase == PROCESSED:
            return rt.start >= 0
        return rt.phase == phase  # terminal phases are mutually exclusive

    # -- queue -------------------------------------------------------------

    def pool_heads(self) -> list:
        """Each pool's first eligible entry in the max_queue window, as its
        queue index, or None.

        The queue is the pending base entries in position order, then the
        speculative entries of `extra` in order: base entry p is task p,
        its code the task's kind, pending while the task is SUBMITTED
        (assignment and cascade failure are the only ways out, and both
        consume the entry); extra entry k, at queue index n + k, is a copy
        of task extra[k]. The window is the queue's first max_queue
        entries. An entry is eligible unless its job has failed, it is a
        reduce before its job's slowstart gate, or it is a copy whose
        original no longer runs.

        A pool's first eligible entry is its first held reduce whose gate
        is open, else its cursor map, else its first speculative entry
        whose original runs, if it lies in the window (a pool's later
        entries lie further out). A pending base entry never belongs to a
        failed job (a job fails only by the cascade that fails its pending
        tasks and drops its copies' entries), so no job's failed flag is
        read.

        At most qpos pending entries precede queue index qpos, so only a
        head at max_queue or beyond can lie outside the window. Before it
        come at most the held reduces of every pool and one entry per queue
        index from the first pending map on; only when that bound reaches
        max_queue do the pools count exactly (_pending_before). The bound
        spares the count on most heads under fair: on a 100,000-task queue
        with max_queue 10,000, counting every head made a fair verify about
        17 % slower."""
        st = self.statics
        n, gate, job_of, jobs = st.workload, st.gate, st.job_of, self.jobs
        heads = []
        for order, cursor, held in zip(st.pool_tasks, self.pool_cursor,
                                       self.pool_held):
            head = order[cursor]  # the first pending map, n if none
            for p in held:
                j = job_of[p]
                if jobs[j >> 10][(j >> 5) & 31][j & 31].fin_maps >= gate[j]:
                    head = p
                    break
            heads.append(head if head < n else None)
        if self.extra and None in heads:
            pool, tasks = st.pool, self.tasks
            for k, p in enumerate(self.extra):
                q = pool[p]
                if heads[q] is None:
                    rt = tasks[p >> 10][(p >> 5) & 31][p & 31]
                    if rt.phase == PROCESSED:
                        heads[q] = n + k
        cap = st.config.max_queue
        if n + len(self.extra) > cap:  # else every entry is in the window
            reduces = first_map = None
            for q, head in enumerate(heads):
                if head is None or head < cap:
                    continue
                if reduces is None:  # the bound's terms, once a pick
                    reduces = sum([len(h) for h in self.pool_held])
                    first_map = min([order[c] for order, c in zip(
                        st.pool_tasks, self.pool_cursor)])
                if reduces + max(head - first_map, 0) >= cap and \
                        _pending_before(st, self.pool_cursor, self.pool_held,
                                        self.pool_gone, head) >= cap:
                    heads[q] = None
        return heads

    # -- fingerprints --------------------------------------------------------

    def fingerprint(self, sym: bool, psum: int | None = None) -> int:
        """The state's identity under canonical_key(self, sym), as one int:
        the exact sum of K_i (d_i - d0_i) over the task and job positions i,
        plus S s + N m. K_i is position i's fixed random key (Statics.keys),
        d_i the hash() of its record's view (the record itself, or _sym_rt's
        view of a task under sym) and d0_i that of the default record. s and
        m are the hash() of _scalar_key and of _node_view, S and N their
        keys (_SCALAR_KEY, _NODES_KEY). The position sum, the first part,
        is `psum` when given: a caller that holds the sum of the state's
        parent in the same view chains it through the transition's writes
        (sum_after), as the search does. Without it the sum is taken from
        scratch (position_sum), in O(n).

        The node part digests only the node facts that the task views leave
        open. On every reachable state the occupied slots are exactly the
        ones that the SCHEDULED and PROCESSED tasks and their copies claim
        (the back-pointer invariant of tests/invariants.py). So the plain
        task records fix every slot, and the symmetric views fix the
        occupants of each named node; what is left is the on flags and,
        under sym, the occupant classes of each anonymous node, which
        _node_view encodes one to one. Two reachable states then have equal
        task views and node views exactly when their canonical keys, whose
        node part is the full _node_key, are equal.

        Collisions: two states with different canonical keys differ in the
        view at some position, counting the scalar and node parts as two
        more. If their digests differ at one position only, the fingerprints
        differ by a key times a digest difference, two nonzero integers with
        no modulus to wrap, so the difference never cancels. If they differ
        at several, then for fixed digests at most one of the 2^128 values
        of one key cancels it: a chance of at most 2^-128. What is left is a
        64-bit hash() collision between two views at the same position. No
        view holds a str, whose hash is salted per process, or a field that
        can be both -1 and -2, which hash alike."""
        if psum is None:
            psum = position_sum(self, sym)
        return (psum + _SCALAR_KEY * hash(_scalar_key(self))
                + _NODES_KEY * hash(_node_view(self, sym)))

    def is_terminal(self) -> bool:
        return not enabled_moves(self)


def _pending_before(st: Statics, cursor: tuple, held: tuple, gone: tuple,
                    qpos: int) -> int:
    """The pending entries before queue index qpos, in O(pools log n), from
    the pool fields of a state (GlobalState.pool_cursor, pool_held and
    pool_gone) or of a _Builder: per pool, its held reduces before it, and
    its positions from its cursor up to it less the ones consumed (gone);
    before a speculative entry, every pending base entry and the
    speculative entries ahead of it."""
    p = min(qpos, st.workload)
    before = qpos - p
    for order, c, h, g in zip(st.pool_tasks, cursor, held, gone):
        before += bisect_left(h, p)
        past = bisect_left(order, p) - c
        if past > 0:
            before += past - bisect_left(g, p)
    return before


def position_sum(state: GlobalState, sym: bool) -> int:
    """The position part of the fingerprint in one view from scratch, in
    O(n): the sum over every task and job position of its key times its
    digest change from the default record (see GlobalState.fingerprint).
    A position that holds the default record itself adds nothing and is
    not hashed, so a cold cluster's sum costs no hashing."""
    st = state.statics
    n, keys = st.workload, st.keys
    named = st.named_nodes
    d0 = hash(_sym_rt(DEFAULT_RT, named) if sym else DEFAULT_RT)
    psum = 0
    for k, rt in enumerate(table_records(state.tasks, n)):
        if rt is not DEFAULT_RT:
            psum += keys[k] * (hash(_sym_rt(rt, named) if sym else rt) - d0)
    d0 = hash(DEFAULT_JOB)
    for k, job in enumerate(table_records(state.jobs, len(st.job_ids)), n):
        if job is not DEFAULT_JOB:
            psum += keys[k] * (hash(job) - d0)
    return psum


def sum_after(t: Transition, psum: int, sym: bool) -> int:
    """The position sum of t.state in one view, from psum, that of the
    state t was drawn from: psum plus K_k (d(new) - d(old)) for each write
    (k, old, new) of t."""
    st = t.state.statics
    keys = st.keys
    if sym:
        n, named = st.workload, st.named_nodes
        for k, old, new in t.writes:
            if k < n:  # a task's view; a job's is its record
                new, old = _sym_rt(new, named), _sym_rt(old, named)
            psum += keys[k] * (hash(new) - hash(old))
    else:
        for k, old, new in t.writes:
            psum += keys[k] * (hash(new) - hash(old))
    return psum


def canonical_key(state: GlobalState, sym: bool) -> tuple:
    """Structural state identity (hash-free, collision-free): the scalar
    part, the task and job records in position order, each the very view
    that fingerprint digests, and the full node part (_node_key), of which
    fingerprint digests only what the task views leave open. With sym=True
    the key is invariant under permutations of anonymous nodes and of slots
    within a node. Meant for small models and cross-checks, not for the
    explorer's visited set. Untouched tasks and jobs appear with their
    default record."""
    st = state.statics
    tasks = table_records(state.tasks, st.workload)
    if sym:
        named = st.named_nodes
        tasks = [_sym_rt(rt, named) for rt in tasks]
    jobs = table_records(state.jobs, len(st.job_ids))
    return (_scalar_key(state), tuple(tasks), tuple(jobs),
            _node_key(state, sym))


def _scalar_key(state: GlobalState) -> tuple:
    """The clock, speculative queue, counters and master flags of the state
    key. The speculative queue is read as it is stored, its tasks'
    positions; the base queue is a function of the task records."""
    return (state.clock, state.extra, state.counters, state.namenode_on,
            state.jobtracker_on)


def _node_key(state: GlobalState, sym: bool) -> tuple:
    """The nodes part of the state key. A slot reads as the int it holds
    (see NodeRT), a free slot as -1. Plain, the part is the nodes' on flags
    and every slot in order.
    With sym, a named node keeps its place in index order, with its on flag
    and its sorted occupants; an anonymous node reduces to its on flag and
    the sorted classes of its slots (0 free, else the occupant's queue
    code: its kind, + 2 for a copy), and the anonymous parts are sorted."""
    nodes = state.nodes
    occ = [-1 if o is None else o for node in nodes for o in node.slots]
    if not sym:
        return tuple([node.on for node in nodes]), tuple(occ)
    st = state.statics
    k, n = st.config.slots_per_node, st.workload
    named, kind = st.named_nodes, st.kind
    named_parts, anon_parts = [], []
    for i, node in enumerate(nodes):
        here = sorted(occ[i * k:i * k + k])
        if i in named:
            named_parts.append((node.on, tuple(here)))
        else:
            anon_parts.append((node.on, tuple(sorted([
                0 if o < 0 else kind[o] if o < n else kind[o - n] + 2
                for o in here]))))
    anon_parts.sort()
    return tuple(named_parts), tuple(anon_parts)


def _node_view(state: GlobalState, sym: bool) -> tuple:
    """The node part of the fingerprint: what _node_key holds beyond the
    task views (see GlobalState.fingerprint). Plain, the nodes' on flags.
    With sym, the named nodes' on flags in index order, and the sorted
    class codes of the anonymous nodes: a node's code is 1 if it is on,
    plus Statics.class_weight of each occupant's class (its queue code,
    its kind + 2 for a copy). A class count is at most the slots a node
    has, so a code names the on flag and the counts of each class."""
    nodes = state.nodes
    if not sym:
        return tuple([node.on for node in nodes])
    st = state.statics
    named, kind, weight, n = (st.named_nodes, st.kind, st.class_weight,
                              st.workload)
    named_on, codes = [], []
    for i, node in enumerate(nodes):
        if i in named:
            named_on.append(node.on)
            continue
        code = 1 if node.on else 0
        for o in node.slots:
            if o is not None:
                code += weight[kind[o]] if o < n else weight[kind[o - n] + 2]
        codes.append(code)
    codes.sort()
    return tuple(named_on), tuple(codes)


# A task on an anonymous node reads _ANON in the symmetric view. Not -2:
# hash(-1) == hash(-2) in CPython, and -1 already means "not placed".
_ANON = -3


def _sym_rt(rt: TaskRT, named: frozenset) -> tuple:
    """The task record under symmetry, as an int tuple: an anonymous node
    reads _ANON; the slot is dropped, since slots within a node are
    interchangeable and a task holds a slot exactly when it holds a node;
    the copies become their sorted (node, start) pairs, an anonymous node
    again read as _ANON."""
    phase, start, finish, node, _slot, local, cause, spec, copies, dl = rt
    if node >= 0 and node not in named:
        node = _ANON
    if copies:
        copies = tuple(sorted((c if c in named else _ANON, cs)
                              for c, _ck, cs in copies))
    return (phase, start, finish, node, local, cause, spec, copies, dl)


# --------------------------------------------------------------------------
# State construction / mutation

class _Builder:
    """Accumulates one transition's changes and produces the new state.

    It hashes nothing: each task or job record it writes goes into
    `writes` as (position, old, new), task position i as i, job position j
    as n + j, and the Transition carries them, so that a caller that
    fingerprints takes the new state's position sum from its source's
    (sum_after). A walk that never fingerprints, such as replay or
    run_to_quiescence, so pays for no digest. The counters are a list
    (indexed by _TRACKERS .. _FREE) until the state is built, and so are
    the pools' running slots once a slot is written (`used`).

    A move writes task records; the builder derives what follows from
    them, each fact in one place:
    - set_task counts a task into the phase it enters (_ENTERED);
    - set_task puts a task that enters Scheduled in its (node, slot), and
      frees it as the task goes from Scheduled or Processed to a terminal
      phase; a copy added to or removed from copies takes or frees its
      slot, as occupant n + i;
    - set_task lists each task that leaves Submitted in `taken`, from
      which finish moves the queue fields and sets the deadlock flags;
    - set_slot keeps free_slots and the pools' running slots.
    The moves write the other counters, sched_pending, running, extra and
    spec_due.

    Transitions write records by position, tuple.__new__ over the record's
    fields in order, not by NamedTuple._replace, which costs about four
    times as much a record."""

    def __init__(self, state: GlobalState):
        self.src = state
        self.tasks = state.tasks
        self.jobs = state.jobs
        self.nodes = list(state.nodes)
        self.used = None
        self.cursor = state.pool_cursor
        self.held = state.pool_held
        self.gone = state.pool_gone
        self.extra = state.extra
        self.clock = state.clock
        self.counters = list(state.counters)
        self.namenode_on = state.namenode_on
        self.jobtracker_on = state.jobtracker_on
        self.running = state.running
        self.sched_pending = state.sched_pending
        self.spec_due = state.spec_due
        self.writes = []
        self.changed = []
        self.taken = []  # positions that left SUBMITTED, in write order

    def set_task(self, i: int, rt: TaskRT):
        """Set the record of the task at position i, with the counters and
        slots that follow from it (see _Builder)."""
        old = self.tasks[i >> 10][(i >> 5) & 31][i & 31]
        phase = rt.phase
        if old.phase != phase:
            self.changed.append((self.src.statics.tids[i], old.phase, phase))
            if old.phase == SUBMITTED:
                self.taken.append(i)
            self.counters[_ENTERED[phase]] += 1
            if phase == SCHEDULED:
                self.set_slot(rt.node, rt.slot, i)
            elif phase > PROCESSED and old.phase in (SCHEDULED, PROCESSED):
                self.set_slot(old.node, old.slot, None)
        if rt.copies is not old.copies:
            for c in old.copies:
                if c not in rt.copies:
                    self.set_slot(c[0], c[1], None)
            for c in rt.copies:
                if c not in old.copies:
                    self.set_slot(c[0], c[1], self.src.statics.workload + i)
        self.writes.append((i, old, rt))
        self.tasks = table_set(self.tasks, i, rt)

    def set_job(self, i: int, rt: JobRT):
        """Set the record of the job at position i."""
        self.writes.append((self.src.statics.workload + i,
                            table_get(self.jobs, i), rt))
        self.jobs = table_set(self.jobs, i, rt)

    def set_slot(self, node_i, slot_k, occupant):
        """Put occupant (see NodeRT), or None to free it, in a slot, and
        count the slot in or out of free_slots and its pool's running
        slots."""
        node = self.nodes[node_i]
        old = node.slots[slot_k]
        if occupant is not None and old is not None:
            raise SlotConflict(f"slot {node_i}/{slot_k} already occupied")
        slots = list(node.slots)
        slots[slot_k] = occupant
        self.nodes[node_i] = tuple.__new__(NodeRT, (node.on, tuple(slots)))
        st = self.src.statics
        pool, n = st.pool, st.workload
        used = self.used
        if used is None:
            used = self.used = list(self.src.pool_running)
        if old is not None:
            used[pool[old % n]] -= 1
            self.counters[_FREE] += 1
        if occupant is not None:
            used[pool[occupant % n]] += 1
            self.counters[_FREE] -= 1

    def transition(self, name: str) -> Transition:
        """The transition named `name` to the state built from the changes
        (finish), with the phase changes and writes that made it."""
        state = self.finish()
        return Transition(Event(name), state, tuple(self.changed),
                          self.writes)

    def finish(self) -> GlobalState:
        # only an entry that left the queue can move the queue fields
        if self.taken:
            self._advance_queue(self.taken)
        # A cluster with no free slot and nothing running may be deadlocked
        # (_deadlock_flags); flags never free a slot, so one pass will do.
        if not self.counters[_FREE] and not self.running:
            to_flag = _deadlock_flags(self)
            for p in to_flag:
                # dl is a record's last field
                self.set_task(p, tuple.__new__(
                    TaskRT, table_get(self.tasks, p)[:-1] + (1,)))
            self.counters[_DEADLOCK] += len(to_flag)
        return self._build()

    def _advance_queue(self, taken: list):
        """The base entries at positions `taken` were consumed: move the
        split of their pool (see GlobalState). The positions one transition
        takes belong to one job (an assignment takes one, a cascade its
        job's pending tasks), so to one pool; a field's tuple is copied only
        when it changes.

        The taken reduces leave held, and if the cursor's own map went, the
        cursor moves to the pool's next pending map (_next_map), holding the
        pending reduces it passes. A reduce waits in held for its maps, so
        no pick walks the consumed entries behind it again, and taking a map
        past the cursor touches neither; it joins gone until the cursor
        passes it."""
        st = self.src.statics
        q = st.pool[taken[0]]
        order = st.pool_tasks[q]
        cursor, held, gone = self.cursor, self.held, self.gone
        c, h = cursor[q], held[q]
        front = order[c]
        past = []  # entries consumed after the cursor, until it passes them
        for p in taken:
            if p < front:
                k = h.index(p)
                h = h[:k] + h[k + 1:]
            elif p > front:
                past.append(p)
        if front in taken:
            c, passed = _next_map(order, c, self.tasks, st.kind)
            if passed:
                h += passed
        if past or (gone[q] and c != cursor[q]):
            g = sorted([p for p in gone[q] + tuple(past) if p > order[c]])
            self.gone = gone[:q] + (tuple(g),) + gone[q + 1:]
        if c != cursor[q]:
            self.cursor = cursor[:q] + (c,) + cursor[q + 1:]
        if h is not held[q]:
            self.held = held[:q] + (h,) + held[q + 1:]

    def _build(self) -> GlobalState:
        src, used = self.src, self.used
        # positional: passing these by keyword doubles the cost of a state
        return GlobalState(
            src.statics, tuple(self.nodes), self.tasks, self.jobs,
            src.pool_running if used is None else tuple(used), self.cursor,
            self.held, self.gone, self.extra, self.clock,
            tuple.__new__(Counters, self.counters), self.namenode_on,
            self.jobtracker_on, self.running, self.sched_pending,
            self.spec_due)


def _next_map(order: tuple, c: int, tasks: tuple, kind: tuple):
    """The walk of a pool's cursor from index c of its queue order `order`:
    the index of the next pending map after c (of the sentinel if none),
    and the positions of the pending reduces it passes, as a tuple."""
    passed = []
    for c in range(c + 1, len(order) - 1):
        p = order[c]
        if tasks[p >> 10][(p >> 5) & 31][p & 31].phase == SUBMITTED:
            if kind[p] == CODE_MAP:
                return c, tuple(passed)
            passed.append(p)
    return len(order) - 1, tuple(passed)


def build_cluster(config: ClusterConfig, workload: WorkloadTrace) -> GlobalState:
    """Initial state: everything off, full queue in submit order, clock 0."""
    if workload is None or len(workload) == 0:
        raise EmptyWorkload("cannot build a cluster model over an empty workload")
    nodes = tuple(NodeRT(False, (None,) * config.slots_per_node)
                  for _ in range(config.node_count))
    st = Statics(config, workload)
    tasks = new_table(st.workload, DEFAULT_RT)
    # every entry is pending: each pool's cursor walks from before its first
    # entry to its first map (or its sentinel), holding the reduces before
    cursor, held = zip(*[_next_map(order, -1, tasks, st.kind)
                         for order in st.pool_tasks])
    k = len(cursor)
    return GlobalState(st, nodes, tasks,
                       new_table(len(st.job_ids), DEFAULT_JOB), (0,) * k,
                       cursor, held, ((),) * k, spec_due=math.inf)


# --------------------------------------------------------------------------
# Moves: (build, arg) pairs; build(state, arg) makes the move's Transition

def enabled_moves(state: GlobalState) -> list:
    """The enabled moves in the fixed exploration order: NameNode and
    JobTracker activation, TaskTracker activation once the JobTracker is
    up; then one assignment of the policy-chosen entry to each switched-on
    node with a free slot; then the execution of each scheduled task whose
    gate is open; then the completion of the earliest-finishing task."""
    moves = []
    if not state.namenode_on:
        moves.append((_activate_nn, None))
    if not state.jobtracker_on:
        moves.append((_activate_jt, None))
    else:
        nodes = state.nodes
        for i, node in enumerate(nodes):
            if not node.on:
                moves.append((_activate_tt, i))
        if state.counters.free_slots:
            qpos = policies.select(state)
            if qpos is not None:
                # base entries come first in the queue, then speculative
                assign = (_assign if qpos < state.statics.workload
                          else _assign_spec)
                for i, node in enumerate(nodes):
                    if node.on and None in node.slots:
                        moves.append((assign, (qpos, i)))
    st = state.statics
    for p in state.sched_pending:
        j = st.job_of[p]
        # reduces execute only once every sibling map has finished
        if st.kind[p] != CODE_REDUCE or \
                table_get(state.jobs, j).fin_maps >= st.total_maps[j]:
            moves.append((_execute, p))
    if state.running:
        moves.append((_complete, None))
    return moves


def _activate_nn(state: GlobalState, _arg) -> Transition:
    b = _Builder(state)
    b.namenode_on = True
    return b.transition("activate_nn")


def _activate_jt(state: GlobalState, _arg) -> Transition:
    b = _Builder(state)
    b.jobtracker_on = True
    return b.transition("activate_jt")


def _activate_tt(state: GlobalState, i: int) -> Transition:
    b = _Builder(state)
    slots = state.nodes[i].slots
    b.nodes[i] = NodeRT(True, slots)
    c = b.counters
    c[_TRACKERS] += 1
    c[_FREE] += len(slots)
    return b.transition(f"activate_tt.{i}")


def _assign(state: GlobalState, arg) -> Transition:
    """The base entry at qpos to the first free slot of node i. A base
    entry's queue index is its task's position."""
    qpos, i = arg
    st = state.statics
    k = state.nodes[i].slots.index(None)
    b = _Builder(state)
    _phase, start, finish, _node, _slot, local, cause, spec, copies, dl = \
        table_get(state.tasks, qpos)
    b.set_task(qpos, tuple.__new__(TaskRT, (
        SCHEDULED, start, finish, i, k, local, cause, spec, copies, dl)))
    pending, rank = state.sched_pending, st.rank
    at = bisect_right(pending, rank[qpos], key=rank.__getitem__)
    b.sched_pending = pending[:at] + (qpos,) + pending[at:]
    return b.transition(f"assign.{st.tids[qpos]}.{i}")


def _assign_spec(state: GlobalState, arg) -> Transition:
    """The speculative entry at qpos, a copy of a running task, to the
    first free slot of node i."""
    qpos, i = arg
    st = state.statics
    k_extra = qpos - st.workload
    p = state.extra[k_extra]
    k = state.nodes[i].slots.index(None)
    b = _Builder(state)
    phase, start, finish, node, slot, local, cause, spec, copies, dl = \
        table_get(state.tasks, p)
    b.extra = state.extra[:k_extra] + state.extra[k_extra + 1:]
    b.set_task(p, tuple.__new__(TaskRT, (
        phase, start, finish, node, slot, local, cause, spec,
        copies + ((i, k, state.clock),), dl)))
    return b.transition(f"assign_spec.{st.tids[p]}.{i}")


def _execute(state: GlobalState, p: int) -> Transition:
    """Scheduled -> Processed for the task at position p; locality counted
    against the preferred node."""
    st = state.statics
    cfg = st.config
    _phase, _start, finish, node, slot, _local, cause, spec, copies, dl = \
        table_get(state.tasks, p)
    submit = st.submit[p]
    start = max(state.clock, submit)
    end = start + min(st.duration[p], cfg.task_timeout_ms)
    pref = st.preferred[p]
    local = 1 if (pref is None or pref == node) else 0
    b = _Builder(state)
    b.set_task(p, tuple.__new__(TaskRT, (
        PROCESSED, start, finish, node, slot, local, cause, spec, copies, dl)))
    pending = state.sched_pending
    at = pending.index(p)
    b.sched_pending = pending[:at] + pending[at + 1:]
    running = state.running
    entry = (end, st.rank[p], p)
    at = bisect_right(running, entry)
    b.running = running[:at] + (entry,) + running[at:]
    c = b.counters
    c[_LOCAL] += local
    c[_NONLOCAL] += 1 - local
    if start - submit <= cfg.fairness_wait_ms:
        c[_SERVED_FAIR] += 1
    if cfg.max_speculative:  # spec is 0: a task executes once
        # a job record starts (fin_maps, fin_map_dur, fin_reds,
        # fin_red_dur); indexing it costs a fraction of unpacking it
        j = st.job_of[p]
        job = state.jobs[j >> 10][(j >> 5) & 31][j & 31]
        k = 0 if st.kind[p] == CODE_MAP else 2
        if job[k]:
            due = start + cfg.speculation_factor * (job[k + 1] / job[k])
            if due < b.spec_due:
                b.spec_due = due
    return b.transition(f"execute.{st.tids[p]}")


def _cascade(b: _Builder, j: int, skip: int):
    """A failed map fails its job, at position j; all not-yet-finished
    sibling tasks fail. `skip` is the failed map's position."""
    st = b.src.statics
    for i in st.job_tasks[j]:
        if i == skip:
            continue
        phase, start, _finish, node, slot, local, _cause, spec, _copies, dl = \
            table_get(b.tasks, i)
        if phase in (FINISHED_WITHIN_DEADLINE, FINISHED_AFTER_DEADLINE, FAILED):
            continue
        if phase == SCHEDULED:
            b.sched_pending = tuple(q for q in b.sched_pending if q != i)
        elif phase == PROCESSED:
            b.running = tuple(e for e in b.running if e[2] != i)
        b.set_task(i, tuple.__new__(TaskRT, (
            FAILED, start, b.clock, node, slot, local, CAUSE_CASCADE, spec,
            (), dl)))
    # stale speculative entries for this job
    if b.extra:
        b.extra = tuple(p for p in b.extra if st.job_of[p] != j)


def _lower_spec_due(b: _Builder, j: int, kind: int):
    """A task of job j and kind `kind` finished, which changed the mean of
    its finished siblings of that kind: lower the bound (spec_due, see
    GlobalState) with the new due of each of its running siblings of that
    kind that has speculations left."""
    st = b.src.statics
    cfg = st.config
    job = table_get(b.jobs, j)
    k = 0 if kind == CODE_MAP else 2  # as in _execute
    limit = cfg.max_speculative
    x = cfg.speculation_factor * (job[k + 1] / job[k])
    tasks, kinds = b.tasks, st.kind
    due = b.spec_due
    for i in st.job_tasks[j]:
        if kinds[i] == kind:
            rt = tasks[i >> 10][(i >> 5) & 31][i & 31]
            if rt.phase == PROCESSED and rt.spec_count < limit and \
                    rt.start + x < due:
                due = rt.start + x
    b.spec_due = due


def _speculation_scan(b: _Builder):
    """Enqueue speculative copies for stragglers: elapsed beyond
    speculation_factor times the mean duration of finished siblings of the
    same kind. No sibling estimate means no speculation.

    The scan reads every running task, so it runs only once the clock has
    reached the bound spec_due (see GlobalState), and then sets the bound
    to the least due of the tasks it leaves with speculations left. The
    test compares the int elapsed time with the float X = factor * (tot /
    cnt), exactly, so a task that passes it has a due fl(start + X) <=
    clock: a clock below the bound passes no test, and skipping the scan
    there changes nothing."""
    st = b.src.statics
    cfg = st.config
    limit = cfg.max_speculative
    if limit == 0 or b.clock < b.spec_due:
        return
    factor, clock = cfg.speculation_factor, b.clock
    job_of, kind = st.job_of, st.kind
    # set_task below writes only the record of the task in hand, which the
    # loop does not read again, so the tables it started from serve it
    tasks, jobs = b.tasks, b.jobs
    due = math.inf
    for _end, _rank, i in b.running:
        rt = tasks[i >> 10][(i >> 5) & 31][i & 31]
        if rt.spec_count >= limit:
            continue
        j = job_of[i]
        fin_maps, fin_map_dur, fin_reds, fin_red_dur, _failed = \
            jobs[j >> 10][(j >> 5) & 31][j & 31]
        if kind[i] == CODE_MAP:
            cnt, tot = fin_maps, fin_map_dur
        else:
            cnt, tot = fin_reds, fin_red_dur
        if cnt == 0:
            continue
        x = factor * (tot / cnt)
        if clock - rt.start > x:
            b.extra += (i,)
            phase, start, finish, node, slot, local, cause, spec, copies, dl = rt
            b.set_task(i, tuple.__new__(TaskRT, (
                phase, start, finish, node, slot, local, cause, spec + 1,
                copies, dl)))
            if spec + 1 == limit:
                continue
        if rt.start + x < due:
            due = rt.start + x
    b.spec_due = due


def _complete(state: GlobalState, _arg) -> Transition:
    """The earliest-finishing running task resolves; the clock jumps to its
    finish time. Deterministic: ties broken by task id."""
    end, _rank, ti = state.running[0]
    st = state.statics
    cfg = st.config
    ji = st.job_of[ti]
    _phase, start, _finish, node, slot, local, rt_cause, spec, _copies, dl = \
        table_get(state.tasks, ti)
    dur = st.duration[ti]
    b = _Builder(state)
    b.clock = end
    b.running = state.running[1:]

    if dur > cfg.task_timeout_ms:
        cause = CAUSE_SPECULATIVE if spec > 0 else CAUSE_TIMEOUT
    elif end > st.deadline[ti] and start > st.deadline[ti]:
        cause = CAUSE_QUEUEWAIT  # the queue wait alone consumed the deadline
    else:
        cause = CAUSE_NONE
    if cause != CAUSE_NONE:
        b.set_task(ti, tuple.__new__(TaskRT, (
            FAILED, start, end, node, slot, local, cause, spec, (), dl)))
        event = f"fail.{st.tids[ti]}"
        if st.kind[ti] == CODE_MAP:
            job = table_get(b.jobs, ji)
            if not job.failed:
                # failed is a job record's last field
                b.set_job(ji, tuple.__new__(JobRT, job[:-1] + (1,)))
            _cascade(b, ji, ti)
    else:
        phase = (FINISHED_WITHIN_DEADLINE if end <= st.deadline[ti]
                 else FINISHED_AFTER_DEADLINE)
        b.set_task(ti, tuple.__new__(TaskRT, (
            phase, start, end, node, slot, local, rt_cause, spec, (), dl)))
        fin_maps, fin_map_dur, fin_reds, fin_red_dur, failed = \
            table_get(b.jobs, ji)
        if st.kind[ti] == CODE_MAP:
            fin_maps += 1
            fin_map_dur += dur
        else:
            fin_reds += 1
            fin_red_dur += dur
        b.set_job(ji, tuple.__new__(JobRT, (
            fin_maps, fin_map_dur, fin_reds, fin_red_dur, failed)))
        # the scan below resets the bound whenever the clock has reached
        # it, and with nothing running there is no sibling to lower it for
        if cfg.max_speculative and b.running and b.clock < b.spec_due:
            _lower_spec_due(b, ji, st.kind[ti])
        event = f"complete.{st.tids[ti]}"
    _speculation_scan(b)
    return b.transition(event)


class _Transitions:
    """The iterator of iter_transitions. It lists the moves on the first
    next() and builds one transition a call; as it hands out the last one
    it lets go of the state, so a search stack entry whose moves are all
    taken keeps nothing alive. It is the only holder of its state on most
    of a search path, so the explorer frees a path state by dropping its
    iterator, and positions a new one where the dropped one was by drawing
    as many transitions from it."""
    __slots__ = ("state", "moves")

    def __init__(self, state: GlobalState):
        self.state = state
        self.moves = None  # listed, last move first, on the first next()

    def __iter__(self):
        return self

    def __next__(self) -> Transition:
        moves = self.moves
        if moves is None:
            moves = self.moves = enabled_moves(self.state)
            moves.reverse()
        if not moves:
            self.state = None
            raise StopIteration
        build, arg = moves.pop()
        state = self.state
        if not moves:
            self.state = None
        return build(state, arg)


def iter_transitions(state: GlobalState) -> _Transitions:
    """All enabled transitions, in the order of enabled_moves, each built
    when it is drawn."""
    return _Transitions(state)


# --------------------------------------------------------------------------
# Resources-deadlock detection

def _deadlock_flags(b: _Builder) -> list:
    """The positions of the tasks that the state being built by `b` newly
    flags as resources-deadlocked, for a cluster with no free slot and
    nothing running (which _Builder.finish checks).

    Such a cluster is a candidate deadlock when every occupied slot holds
    a reduce whose own maps have not all finished: with nothing running
    there is no copy, so the occupants are the tasks in sched_pending, and
    their jobs are the holders. A pending task waits only on slots if it
    is eligible and in the max_queue window (see GlobalState.pool_heads).
    Any free slot would serve any such task, so the wait-for graph over
    jobs is complete from the jobs of those tasks to the holders, and the
    jobs on its cycles are the holders that have such a task. Each such
    task is flagged, once: the flag is sticky.

    A holder's slowstart gate is open, since one of its reduces was
    assigned and finished maps only grow, so every pending task of a
    holder is eligible, and only the window is left to test: fewer than
    max_queue entries pending before it."""
    st = b.src.statics
    kind, job_of, jobs = st.kind, st.job_of, b.jobs
    holders = []
    for p in b.sched_pending:
        j = job_of[p]
        if kind[p] != CODE_REDUCE or table_get(jobs, j).fin_maps >= \
                st.total_maps[j]:
            return []  # an executable occupant will progress
        if j not in holders:
            holders.append(j)
    cap = st.config.max_queue
    windowed = st.workload > cap  # else every base entry is in the window
    flags = []
    for j in holders:
        for p in st.job_tasks[j]:
            rt = table_get(b.tasks, p)
            if rt.phase == SUBMITTED and not rt.dl and (
                    not windowed or _pending_before(
                        st, b.cursor, b.held, b.gone, p) < cap):
                flags.append(p)
    return flags


# --------------------------------------------------------------------------
# Witness traces

class StepRecord(NamedTuple):
    event: str
    payload: int | None
    changed: tuple
    clock_ms: int


@dataclass(frozen=True)
class WitnessTrace:
    steps: tuple          # StepRecords from the initial state
    # the state the steps end in; witnesses are equal when their steps are
    state: GlobalState = field(compare=False, repr=False)

    @property
    def terminal(self) -> dict:
        """Summary of the end state (see terminal_summary)."""
        return terminal_summary(self.state)


def terminal_summary(state: GlobalState) -> dict:
    """Compact description of a state: rates, per-cause failure sets,
    cascade chain lengths and straggler counts."""
    from .rates import compute_rates  # local import to avoid a cycle
    st = state.statics
    failed = {}
    unfinished = []
    phase_counts = [0] * len(PHASE_NAMES)
    stragglers = 0
    records = table_records(state.tasks, st.workload)
    for tid, rt, submit in zip(st.tids, records, st.submit):
        phase_counts[state.task_phase(tid)] += 1
        if rt.phase == FAILED:
            failed[tid] = CAUSE_NAMES[rt.cause]
        elif rt.phase not in (FINISHED_WITHIN_DEADLINE, FINISHED_AFTER_DEADLINE):
            unfinished.append(tid)
        if rt.start >= 0 and rt.start - submit >= 600_000:
            stragglers += 1
    chains = {}
    for jid, ps in zip(st.job_ids, st.job_tasks):
        n = sum(1 for i in ps if records[i].cause == CAUSE_CASCADE)
        if n:
            chains[jid] = n
    rates = compute_rates(state)
    return {
        "clock_ms": state.clock,
        "phase_counts": dict(zip(PHASE_NAMES, phase_counts)),
        "failed": failed,
        "unfinished": unfinished,
        "cascade_chains": chains,
        "straggler_count": stragglers,
        "rates": rates.as_dict(),
    }


def make_witness(steps, terminal_state: GlobalState) -> WitnessTrace:
    return WitnessTrace(tuple(steps), terminal_state)


def replay(initial: GlobalState, steps) -> GlobalState:
    """Re-apply a witness's events from the initial state; raises if any
    event is not enabled where the trace claims it fired."""
    state = initial
    for rec in steps:
        for t in iter_transitions(state):
            if t.event.name == rec.event and t.event.payload == rec.payload:
                state = t.state
                break
        else:
            raise ValueError(f"event {rec.event} not enabled during replay")
    return state

