"""The cluster transition system: master/worker activation, the scheduler
queue, task execution with data locality, speculative copies, deadlines,
timeouts and failure cascades.

States are immutable values; every step operation produces new states, so
exploration may share them freely. Logical time advances only at completion
transitions, jumping to the earliest finish time among running tasks; queue
wait is measured as start - submit.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from hashlib import blake2b
from typing import NamedTuple

from . import policies
from .config import ClusterConfig
from .errors import EmptyWorkload, SlotConflict
from .smap import EMPTY_SMAP
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

# queue entry codes, as in the scheduler script
CODE_MAP = 1
CODE_REDUCE = 2
CODE_SPEC_MAP = 3
CODE_SPEC_REDUCE = 4

_M = 1 << 128


def h128(*parts) -> int:
    return int.from_bytes(
        blake2b(repr(parts).encode(), digest_size=16).digest(), "big")


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


class NodeRT(NamedTuple):
    on: bool
    slots: tuple  # per slot: None | task_id | ("c", task_id)


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


class Statics:
    """Immutable per-run data shared by every state of one exploration."""
    __slots__ = ("tids", "idx_of", "kind", "submit", "duration", "deadline",
                 "preferred", "job_of", "job_tasks", "total_maps",
                 "queue", "workload", "named_nodes", "job_ids")

    def __init__(self, config: ClusterConfig, trace: WorkloadTrace):
        recs = trace.records
        self.tids = tuple(r.task_id for r in recs)
        self.idx_of = {t: i for i, t in enumerate(self.tids)}
        self.kind = {r.task_id: (CODE_MAP if r.kind == MAP else CODE_REDUCE)
                     for r in recs}
        self.submit = {r.task_id: r.submit_ms for r in recs}
        self.duration = {r.task_id: r.duration_ms for r in recs}
        self.deadline = {
            r.task_id: (r.deadline_ms if r.deadline_ms is not None
                        else r.submit_ms + int(config.deadline_factor * r.duration_ms))
            for r in recs}
        self.preferred = {r.task_id: r.preferred_node for r in recs}
        self.job_of = {r.task_id: r.job_id for r in recs}
        job_tasks = {}
        for r in recs:
            job_tasks.setdefault(r.job_id, []).append(r.task_id)
        self.job_tasks = {j: tuple(ts) for j, ts in job_tasks.items()}
        self.job_ids = tuple(job_tasks)
        self.total_maps = {
            j: sum(1 for t in ts if self.kind[t] == CODE_MAP)
            for j, ts in self.job_tasks.items()}
        self.queue = tuple(
            (self.kind[r.task_id], r.job_id, r.task_id) for r in recs)
        self.workload = len(recs)
        self.named_nodes = frozenset(
            p for p in self.preferred.values()
            if p is not None and 0 <= p < config.node_count)


class Event(NamedTuple):
    name: str
    payload: int | None = None  # carried into witness steps and replay


class Transition(NamedTuple):
    event: Event
    state: "GlobalState"
    changed: tuple  # ((task_id, old_phase, new_phase), ...)


class GlobalState:
    __slots__ = ("statics", "config", "tasks", "jobs", "nodes", "queue_head",
                 "extra", "clock", "counters", "namenode_on", "jobtracker_on",
                 "running", "sched_pending", "_th_sym", "_th_plain", "_jh")

    def __init__(self, statics: Statics, config: ClusterConfig, nodes: tuple,
                 tasks=EMPTY_SMAP, jobs=EMPTY_SMAP, queue_head=0, extra=(),
                 clock=0, counters=Counters(), namenode_on=False,
                 jobtracker_on=False, running=(), sched_pending=(), th_sym=0,
                 th_plain=0, jh=0):
        """The one constructor of a state; the defaults are the cold
        cluster that build_cluster starts from."""
        self.statics = statics
        self.config = config
        self.tasks = tasks
        self.jobs = jobs
        self.nodes = nodes
        self.queue_head = queue_head
        self.extra = extra
        self.clock = clock
        self.counters = counters
        self.namenode_on = namenode_on
        self.jobtracker_on = jobtracker_on
        self.running = running
        self.sched_pending = sched_pending
        self._th_sym = th_sym
        self._th_plain = th_plain
        self._jh = jh

    def task(self, tid) -> TaskRT:
        return self.tasks.get(tid, DEFAULT_RT)

    def job(self, jid) -> JobRT:
        return self.jobs.get(jid, DEFAULT_JOB)

    # -- derived task views ------------------------------------------------

    def task_phase(self, tid) -> int:
        """Current phase, with the WaitingResources view applied."""
        rt = self.task(tid)
        if rt.phase == SUBMITTED:
            if rt.dl or self.clock - self.statics.submit[tid] > \
                    self.config.fairness_wait_ms:
                return WAITING_RESOURCES
        return rt.phase

    def task_ever_reached(self, tid, phase: int) -> bool:
        """Whether the task has been in `phase` at or before this state."""
        rt = self.task(tid)
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
            return ref - self.statics.submit[tid] > self.config.fairness_wait_ms
        if phase == SCHEDULED:
            return rt.node >= 0 or rt.phase >= SCHEDULED
        if phase == PROCESSED:
            return rt.start >= 0
        return rt.phase == phase  # terminal phases are mutually exclusive

    # -- queue -------------------------------------------------------------

    def iter_queue(self):
        """Pending entries in queue order, capped at the max_queue scan
        window; yields (global_index, code, job_id, task_id).

        A base entry is pending if and only if its task is still SUBMITTED:
        assignment and cascade failure are the only ways out of SUBMITTED,
        and both consume the entry. `extra` holds only the pending
        speculative entries: assignment and cascade failure drop them."""
        scanned = 0
        cap = self.config.max_queue
        base = self.statics.queue
        tasks = self.tasks
        i = self.queue_head
        n = len(base)
        while i < n and scanned < cap:
            code, jid, tid = base[i]
            if tasks.get(tid, DEFAULT_RT).phase == SUBMITTED:
                yield i, code, jid, tid
                scanned += 1
            i += 1
        for k, entry in enumerate(self.extra):
            if scanned >= cap:
                break
            yield n + k, entry[0], entry[1], entry[2]
            scanned += 1

    def entry_eligible(self, code, jid, tid) -> bool:
        """Assignment eligibility (the slowstart gate for reduces)."""
        if code in (CODE_MAP, CODE_REDUCE):
            if self.task(tid).phase != SUBMITTED or self.job(jid).failed:
                return False
            if code == CODE_REDUCE:
                total = self.statics.total_maps[jid]
                ss = self.config.reduce_slowstart
                need = total if ss >= 1.0 else math.ceil(ss * total)
                return self.job(jid).fin_maps >= need
            return True
        # speculative copy: original must still be running
        return self.task(tid).phase == PROCESSED and not self.job(jid).failed

    def eligible_entries(self):
        for qpos, code, jid, tid in self.iter_queue():
            if self.entry_eligible(code, jid, tid):
                yield qpos, code, jid, tid

    # -- fingerprints --------------------------------------------------------

    def fingerprint(self, sym: bool) -> int:
        """A 128-bit hash of canonical_key(self, sym): the scalar and node
        parts hashed here, the task and job parts kept incrementally."""
        th = self._th_sym if sym else self._th_plain
        return (h128(self.clock, self.queue_head, self.extra, self.counters,
                     self.namenode_on, self.jobtracker_on,
                     _node_key(self, sym)) + th + self._jh) % _M

    def is_terminal(self) -> bool:
        return next(iter_transitions(self), None) is None


def canonical_key(state: GlobalState, sym: bool) -> tuple:
    """Structural state identity (hash-free, collision-free); with sym=True
    the key is invariant under permutations of anonymous nodes and of slots
    within a node. Meant for small models and cross-checks, not for the
    explorer's visited set."""
    named = state.statics.named_nodes
    tasks = []
    for tid, rt in state.tasks.items():
        tasks.append((tid, _sym_rt(rt, named) if sym else rt))
    tasks.sort()
    jobs = tuple(sorted(state.jobs.items()))
    return (state.clock, state.queue_head, state.extra, state.namenode_on,
            state.jobtracker_on, state.counters, tuple(tasks), jobs,
            _node_key(state, sym))


def _node_key(state: GlobalState, sym: bool) -> tuple:
    """The nodes part of the state key. With sym, a named node keeps its
    index and the multiset of its occupants; an anonymous node reduces to
    its on flag and the multiset of its occupants' kinds, and the node
    parts are sorted."""
    if not sym:
        return state.nodes
    named = state.statics.named_nodes
    kind = state.statics.kind
    node_parts = []
    for i, node in enumerate(state.nodes):
        if i in named:
            node_parts.append(
                ("n", i, node.on,
                 tuple(sorted(repr(o) for o in node.slots if o is not None))))
        else:
            classes = tuple(sorted(
                (kind[o[1]] + 2) if isinstance(o, tuple) else kind[o]
                for o in node.slots if o is not None))
            node_parts.append(("a", node.on, classes))
    return tuple(sorted(node_parts, key=repr))


def _sym_rt(rt: TaskRT, named: frozenset) -> TaskRT:
    node = rt.node if rt.node in named else (-2 if rt.node >= 0 else -1)
    copies = tuple(sorted(
        (c[0] if c[0] in named else -2, -2, c[2]) for c in rt.copies))
    return rt._replace(node=node, slot=(-2 if rt.slot >= 0 else -1),
                       copies=copies)


def _task_hashes(tid, rt, named) -> tuple:
    return (h128("t", tid, _sym_rt(rt, named)), h128("t", tid, rt))


# --------------------------------------------------------------------------
# State construction / mutation

class _Builder:
    """Accumulates one transition's changes and produces the new state,
    keeping the incremental hash accumulators consistent."""

    def __init__(self, state: GlobalState):
        self.src = state
        self.tasks = state.tasks
        self.jobs = state.jobs
        self.nodes = list(state.nodes)
        self.queue_head = state.queue_head
        self.extra = state.extra
        self.clock = state.clock
        self.counters = state.counters
        self.namenode_on = state.namenode_on
        self.jobtracker_on = state.jobtracker_on
        self.running = state.running
        self.sched_pending = state.sched_pending
        self.th_sym = state._th_sym
        self.th_plain = state._th_plain
        self.jh = state._jh
        self.changed = []

    def set_task(self, tid, rt: TaskRT):
        named = self.src.statics.named_nodes
        old = self.tasks.get(tid, DEFAULT_RT)
        if old.phase != rt.phase:
            self.changed.append((tid, old.phase, rt.phase))
        hs_old, hp_old = _task_hashes(tid, old, named)
        hs_new, hp_new = _task_hashes(tid, rt, named)
        self.th_sym = (self.th_sym - hs_old + hs_new) % _M
        self.th_plain = (self.th_plain - hp_old + hp_new) % _M
        self.tasks = self.tasks.set(tid, rt)

    def set_job(self, jid, rt: JobRT):
        old = self.jobs.get(jid, DEFAULT_JOB)
        self.jh = (self.jh - h128("j", jid, old) + h128("j", jid, rt)) % _M
        self.jobs = self.jobs.set(jid, rt)

    def add_extra(self, entry):
        self.extra = self.extra + (entry,)

    def set_slot(self, node_i, slot_k, occupant):
        node = self.nodes[node_i]
        if occupant is not None and node.slots[slot_k] is not None:
            raise SlotConflict(f"slot {node_i}/{slot_k} already occupied")
        slots = list(node.slots)
        slots[slot_k] = occupant
        self.nodes[node_i] = NodeRT(node.on, tuple(slots))

    def bump(self, **deltas):
        self.counters = self.counters._replace(
            **{k: getattr(self.counters, k) + v for k, v in deltas.items()})

    def finish(self) -> GlobalState:
        # advance past consumed entries so scans stay O(window)
        base = self.src.statics.queue
        while self.queue_head < len(base) and self.tasks.get(
                base[self.queue_head][2], DEFAULT_RT).phase != SUBMITTED:
            self.queue_head += 1
        state = self._build()
        to_flag = _deadlock_flags(state)
        if not to_flag:
            return state
        for tid in to_flag:
            self.set_task(tid, state.task(tid)._replace(dl=1))
        self.bump(n_deadlock=len(to_flag))
        # flags never free slots, so no second detection pass
        return self._build()

    def _build(self) -> GlobalState:
        # positional: passing these by keyword doubles the cost of a state
        return GlobalState(
            self.src.statics, self.src.config, tuple(self.nodes), self.tasks,
            self.jobs, self.queue_head, self.extra, self.clock, self.counters,
            self.namenode_on, self.jobtracker_on, self.running,
            self.sched_pending, self.th_sym, self.th_plain, self.jh)


def build_cluster(config: ClusterConfig, workload: WorkloadTrace) -> GlobalState:
    """Initial state: everything off, full queue in submit order, clock 0."""
    if workload is None or len(workload) == 0:
        raise EmptyWorkload("cannot build a cluster model over an empty workload")
    nodes = tuple(NodeRT(False, (None,) * config.slots_per_node)
                  for _ in range(config.node_count))
    return GlobalState(Statics(config, workload), config, nodes)


# --------------------------------------------------------------------------
# Step operations

def activate_steps(state: GlobalState):
    """NameNode/JobTracker activation; TaskTrackers only after JobTracker."""
    if not state.namenode_on:
        b = _Builder(state)
        b.namenode_on = True
        yield Transition(Event("activate_nn"), b.finish(), ())
    if not state.jobtracker_on:
        b = _Builder(state)
        b.jobtracker_on = True
        yield Transition(Event("activate_jt"), b.finish(), ())
    if state.jobtracker_on:
        for i, node in enumerate(state.nodes):
            if node.on:
                continue
            b = _Builder(state)
            b.nodes[i] = NodeRT(True, node.slots)
            b.bump(trackercount=1, free_slots=len(node.slots))
            yield Transition(Event(f"activate_tt.{i}"), b.finish(), ())


def scheduler_step(state: GlobalState):
    """One transition per free-slot node assigning the policy-chosen entry."""
    if not state.jobtracker_on or state.counters.free_slots == 0:
        return
    qpos = policies.select(state.config.scheduler,
                           state.eligible_entries(), state)
    if qpos is None:
        return
    base = state.statics.queue
    if qpos < len(base):
        code, jid, tid = base[qpos]
    else:
        code, jid, tid = state.extra[qpos - len(base)]
    for i, node in enumerate(state.nodes):
        if not node.on:
            continue
        try:
            k = node.slots.index(None)
        except ValueError:
            continue
        b = _Builder(state)
        if code in (CODE_MAP, CODE_REDUCE):
            rt = state.task(tid)
            b.set_task(tid, rt._replace(phase=SCHEDULED, node=i, slot=k))
            b.set_slot(i, k, tid)
            pending = list(state.sched_pending)
            insort(pending, tid)
            b.sched_pending = tuple(pending)
            b.bump(n_scheduled=1, free_slots=-1)
            yield Transition(Event(f"assign.{tid}.{i}"), b.finish(),
                             tuple(b.changed))
        else:
            rt = state.task(tid)
            k_extra = qpos - len(base)
            b.extra = state.extra[:k_extra] + state.extra[k_extra + 1:]
            b.set_task(tid, rt._replace(copies=rt.copies + ((i, k, state.clock),)))
            b.set_slot(i, k, ("c", tid))
            b.bump(free_slots=-1)
            yield Transition(Event(f"assign_spec.{tid}.{i}"), b.finish(),
                             tuple(b.changed))


def execute_step(state: GlobalState):
    """Scheduled -> Processed; locality counted against the preferred node;
    reduces execute only once every sibling map has finished."""
    cfg = state.config
    st = state.statics
    for tid in state.sched_pending:
        rt = state.task(tid)
        jid = st.job_of[tid]
        if st.kind[tid] == CODE_REDUCE and \
                state.job(jid).fin_maps < st.total_maps[jid]:
            continue
        start = max(state.clock, st.submit[tid])
        end = start + min(st.duration[tid], cfg.task_timeout_ms)
        pref = st.preferred[tid]
        local = 1 if (pref is None or pref == rt.node) else 0
        b = _Builder(state)
        b.set_task(tid, rt._replace(phase=PROCESSED, start=start, local=local))
        b.sched_pending = tuple(t for t in state.sched_pending if t != tid)
        running = list(state.running)
        insort(running, (end, tid))
        b.running = tuple(running)
        b.bump(completedscheduled=1, locality=local, nonlocality=1 - local,
               n_served_fair=1 if start - st.submit[tid] <= cfg.fairness_wait_ms else 0)
        yield Transition(Event(f"execute.{tid}"), b.finish(), tuple(b.changed))


def _free_task_slots(b: _Builder, rt: TaskRT, state: GlobalState):
    freed = 0
    if rt.phase == PROCESSED or rt.phase == SCHEDULED:
        if rt.node >= 0 and b.nodes[rt.node].slots[rt.slot] is not None:
            b.set_slot(rt.node, rt.slot, None)
            freed += 1
    for cn, ck, _cs in rt.copies:
        if b.nodes[cn].slots[ck] is not None:
            b.set_slot(cn, ck, None)
            freed += 1
    return freed


def _cascade(b: _Builder, state: GlobalState, jid: str, skip_tid: str):
    """A failed map fails its job; all not-yet-finished sibling tasks fail."""
    st = state.statics
    for tid in st.job_tasks[jid]:
        if tid == skip_tid:
            continue
        rt = b.tasks.get(tid, DEFAULT_RT)
        if rt.phase in (FINISHED_WITHIN_DEADLINE, FINISHED_AFTER_DEADLINE, FAILED):
            continue
        freed = _free_task_slots(b, rt, state)
        if rt.phase == SCHEDULED:
            b.sched_pending = tuple(t for t in b.sched_pending if t != tid)
        elif rt.phase == PROCESSED:
            b.running = tuple(e for e in b.running if e[1] != tid)
        b.set_task(tid, rt._replace(phase=FAILED, cause=CAUSE_CASCADE,
                                    finish=b.clock, copies=()))
        b.bump(n_failed=1, free_slots=freed)
    # stale speculative entries for this job
    b.extra = tuple(e for e in b.extra if e[1] != jid)


def _speculation_scan(b: _Builder, state: GlobalState):
    """Enqueue speculative copies for stragglers: elapsed beyond
    speculation_factor times the mean duration of finished siblings of the
    same kind. No sibling estimate means no speculation."""
    cfg = state.config
    if cfg.max_speculative == 0:
        return
    st = state.statics
    for _end, tid in b.running:
        rt = b.tasks.get(tid, DEFAULT_RT)
        if rt.spec_count >= cfg.max_speculative:
            continue
        jid = st.job_of[tid]
        job = b.jobs.get(jid, DEFAULT_JOB)
        if st.kind[tid] == CODE_MAP:
            cnt, tot = job.fin_maps, job.fin_map_dur
        else:
            cnt, tot = job.fin_reds, job.fin_red_dur
        if cnt == 0:
            continue
        estimate = tot / cnt
        if b.clock - rt.start > cfg.speculation_factor * estimate:
            code = st.kind[tid] + 2
            b.add_extra((code, jid, tid))
            b.set_task(tid, rt._replace(spec_count=rt.spec_count + 1))


def complete_or_fail_step(state: GlobalState):
    """The earliest-finishing running task resolves; the clock jumps to its
    finish time. Deterministic: ties broken by task id."""
    if not state.running:
        return
    end, tid = state.running[0]
    st = state.statics
    cfg = state.config
    rt = state.task(tid)
    jid = st.job_of[tid]
    dur = st.duration[tid]
    b = _Builder(state)
    b.clock = end
    b.running = state.running[1:]
    freed = _free_task_slots(b, rt, state)
    b.bump(free_slots=freed)

    failed = dur > cfg.task_timeout_ms
    if failed:
        cause = CAUSE_SPECULATIVE if rt.spec_count > 0 else CAUSE_TIMEOUT
        b.set_task(tid, rt._replace(phase=FAILED, cause=cause, finish=end,
                                    copies=()))
        b.bump(n_failed=1)
        event = Event(f"fail.{tid}")
        if st.kind[tid] == CODE_MAP:
            job = b.jobs.get(jid, DEFAULT_JOB)
            if not job.failed:
                b.set_job(jid, job._replace(failed=1))
            _cascade(b, state, jid, tid)
    else:
        if end <= st.deadline[tid]:
            phase = FINISHED_WITHIN_DEADLINE
            b.bump(n_fin_within=1)
        elif rt.start > st.deadline[tid]:
            # the queue wait alone consumed the deadline
            b.set_task(tid, rt._replace(phase=FAILED, cause=CAUSE_QUEUEWAIT,
                                        finish=end, copies=()))
            b.bump(n_failed=1)
            event = Event(f"fail.{tid}")
            if st.kind[tid] == CODE_MAP:
                job = b.jobs.get(jid, DEFAULT_JOB)
                if not job.failed:
                    b.set_job(jid, job._replace(failed=1))
                _cascade(b, state, jid, tid)
            _speculation_scan(b, state)
            yield Transition(event, b.finish(), tuple(b.changed))
            return
        else:
            phase = FINISHED_AFTER_DEADLINE
            b.bump(n_fin_after=1)
        b.set_task(tid, rt._replace(phase=phase, finish=end, copies=()))
        job = b.jobs.get(jid, DEFAULT_JOB)
        if st.kind[tid] == CODE_MAP:
            b.set_job(jid, job._replace(fin_maps=job.fin_maps + 1,
                                        fin_map_dur=job.fin_map_dur + dur))
        else:
            b.set_job(jid, job._replace(fin_reds=job.fin_reds + 1,
                                        fin_red_dur=job.fin_red_dur + dur))
        event = Event(f"complete.{tid}")
    _speculation_scan(b, state)
    yield Transition(event, b.finish(), tuple(b.changed))


def iter_transitions(state: GlobalState):
    """All enabled transitions, in the fixed exploration order: activation,
    scheduling, execution, completion."""
    yield from activate_steps(state)
    yield from scheduler_step(state)
    yield from execute_step(state)
    yield from complete_or_fail_step(state)


# --------------------------------------------------------------------------
# Resources-deadlock detection

def wait_for_graph(state: GlobalState):
    """The wait-for graph over jobs when the cluster is slot-starved.

    Returns (edges, blocked) where edges maps a blocked job to the jobs
    whose stuck reduces hold the slots it needs, and blocked maps a job to
    its queued tasks waiting only on slot scarcity. Returns (None, None)
    unless the state is a candidate deadlock: zero free slots and every
    occupied slot holding a reduce whose own maps have not all finished.

    Any free slot would serve any blocked task, so every blocked job waits
    on every holder job: the graph is complete from the blocked jobs to the
    holders, and its cycles need no search (see _deadlock_flags)."""
    if state.counters.free_slots != 0:
        return None, None
    st = state.statics
    holders = set()
    any_occ = False
    for node in state.nodes:
        if not node.on:
            continue
        for occ in node.slots:
            if occ is None:
                continue
            any_occ = True
            if isinstance(occ, tuple):
                return None, None  # a copy resolves with its original
            rt = state.task(occ)
            if rt.phase == PROCESSED:
                return None, None  # running tasks complete eventually
            jid = st.job_of[occ]
            if st.kind[occ] == CODE_REDUCE and \
                    state.job(jid).fin_maps < st.total_maps[jid]:
                holders.add(jid)
            else:
                return None, None  # an executable occupant will progress
    if not any_occ or not holders:
        return None, None

    blocked = {}  # jid -> [tids blocked only by slot scarcity]
    for _qpos, code, jid, tid in state.eligible_entries():
        if code in (CODE_MAP, CODE_REDUCE):
            blocked.setdefault(jid, []).append(tid)
    if not blocked:
        return None, None

    edges = {jid: set(holders) for jid in blocked}
    return edges, blocked


def _deadlock_flags(state: GlobalState) -> list:
    """Tasks whose sticky deadlock flag must be set when a genuine circular
    slot-wait exists: the blocked queued tasks of every job on a cycle of
    the wait-for graph (self-loops count).

    A job on a cycle has an out-edge, so it is blocked, and an in-edge, so
    it is a holder; a job that is both waits on itself. The jobs on cycles
    are therefore exactly blocked & holders, read here as the self-loops."""
    edges, blocked = wait_for_graph(state)
    if edges is None:
        return []
    return [tid for jid, tids in blocked.items() if jid in edges[jid]
            for tid in tids if not state.task(tid).dl]


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
    terminal: dict        # summary of the final state (see terminal_summary)


def terminal_summary(state: GlobalState) -> dict:
    """Compact description of a state: rates, per-cause failure sets,
    cascade chain lengths and straggler counts."""
    from .rates import compute_rates  # local import to avoid a cycle
    st = state.statics
    failed = {}
    unfinished = []
    phase_counts = [0] * len(PHASE_NAMES)
    stragglers = 0
    for tid in st.tids:
        rt = state.task(tid)
        phase_counts[state.task_phase(tid)] += 1
        if rt.phase == FAILED:
            failed[tid] = CAUSE_NAMES[rt.cause]
        elif rt.phase not in (FINISHED_WITHIN_DEADLINE, FINISHED_AFTER_DEADLINE):
            unfinished.append(tid)
        if rt.start >= 0 and rt.start - st.submit[tid] >= 600_000:
            stragglers += 1
    chains = {}
    for jid in st.job_ids:
        n = sum(1 for t in st.job_tasks[jid]
                if state.task(t).phase == FAILED
                and state.task(t).cause == CAUSE_CASCADE)
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
    return WitnessTrace(steps=tuple(steps),
                        terminal=terminal_summary(terminal_state))


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

