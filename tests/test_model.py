import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fixtures import FIXTURES, mk_trace, random_workload, rec
from invariants import check_state

import schedcheck.model as model_mod
from schedcheck.config import ClusterConfig
from schedcheck.errors import EmptyWorkload
from schedcheck.model import (_NODES_KEY, _SCALAR_KEY, CAUSE_CASCADE,
                              CAUSE_NAMES, CAUSE_QUEUEWAIT, CAUSE_SPECULATIVE,
                              CAUSE_TIMEOUT, DEFAULT_JOB, DEFAULT_RT, FAILED,
                              FINISHED_AFTER_DEADLINE,
                              FINISHED_WITHIN_DEADLINE, PROCESSED, SCHEDULED,
                              SUBMITTED, WAITING_RESOURCES, GlobalState,
                              StepRecord, TaskRT, _Builder, _complete,
                              _node_view, _scalar_key, _sym_rt, build_cluster,
                              canonical_key, iter_transitions, replay,
                              table_records, terminal_summary, wait_for_graph)


def first_run(state, limit=100_000):
    """Follow the first enabled transition to a dead end; returns the final
    state and the event names along the way."""
    events = []
    for _ in range(limit):
        t = next(iter_transitions(state), None)
        if t is None:
            return state, events
        events.append(t.event.name)
        state = t.state
    raise AssertionError("run did not terminate")


def step_n(state, n):
    """Take exactly n first-enabled transitions."""
    for _ in range(n):
        t = next(iter_transitions(state))
        state = t.state
    return state


def build(name):
    fx = FIXTURES[name]
    return build_cluster(fx.config, fx.trace)


class TestConstruction:
    def test_empty_workload_rejected(self):
        with pytest.raises(EmptyWorkload):
            build_cluster(ClusterConfig(), None)

    def test_initial_state_is_cold(self):
        state = build("map_reduce_gate")
        assert not state.namenode_on and not state.jobtracker_on
        assert all(not n.on for n in state.nodes)
        assert state.clock == 0
        assert state.counters.free_slots == 0

    def test_deadline_defaults_to_factor_times_duration(self):
        trace = mk_trace([rec("m1", "j1", "map", 100, 200),
                          rec("m2", "j1", "map", 0, 100, deadline=123)])
        state = build_cluster(ClusterConfig(deadline_factor=3.0), trace)
        st = state.statics
        assert st.deadline[st.idx_of["m1"]] == 100 + 3 * 200
        assert st.deadline[st.idx_of["m2"]] == 123


class TestActivation:
    def test_tasktrackers_need_jobtracker(self):
        state = build("map_reduce_gate")
        names = {t.event.name for t in iter_transitions(state)}
        assert names == {"activate_nn", "activate_jt"}
        jt = next(t.state for t in iter_transitions(state)
                  if t.event.name == "activate_jt")
        names = {t.event.name for t in iter_transitions(jt)}
        assert "activate_tt.0" in names and "activate_tt.1" in names

    def test_activation_updates_counters(self):
        state, _ = first_run(build("map_reduce_gate"))
        assert state.counters.trackercount == 2

    def test_matches_process_algebra_rendering(self):
        """Following only activation transitions, the maximal paths are
        exactly the traces of the process term
        ``activate_nn ||| (activate_jt -> (||| i @ activate_tt.i))``, and
        each ends with the NameNode, the JobTracker and every TaskTracker on
        and every slot free."""
        cfg = FIXTURES["map_reduce_gate"].config
        stack, traces = [(build("map_reduce_gate"), ())], set()
        while stack:
            state, trace = stack.pop()
            nxt = [(t.state, trace + (t.event.name,))
                   for t in iter_transitions(state)
                   if t.event.name.startswith("activate_")]
            if nxt:
                stack.extend(nxt)
                continue
            traces.add(trace)
            assert state.namenode_on and state.jobtracker_on
            assert all(node.on for node in state.nodes)
            assert state.counters.trackercount == cfg.node_count
            assert state.counters.free_slots == \
                cfg.node_count * cfg.slots_per_node
        events = ["activate_nn", "activate_jt"] + [
            f"activate_tt.{i}" for i in range(cfg.node_count)]
        term = {p for p in itertools.permutations(events)
                if all(p.index("activate_jt") < p.index(e)
                       for e in events[2:])}
        assert traces == term
        # two TaskTrackers: 4! / 3 orders
        assert len(traces) == 8


class TestExecutionSemantics:
    def test_reduce_never_executes_before_maps_finish(self):
        # walk the full space of the gating fixture
        stack = [build("map_reduce_gate")]
        seen = set()
        while stack:
            state = stack.pop()
            rt = state.task("r1")
            if rt.phase in (PROCESSED, FINISHED_WITHIN_DEADLINE):
                j = state.job("j1")
                assert j.fin_maps == 2
            for t in iter_transitions(state):
                key = canonical_key(t.state, sym=False)
                if key not in seen:
                    seen.add(key)
                    stack.append(t.state)

    def test_clock_advances_only_at_completions(self):
        state = build("map_reduce_gate")
        for _ in range(200):
            t = next(iter_transitions(state), None)
            if t is None:
                break
            if not t.event.name.startswith(("complete.", "fail.")):
                assert t.state.clock == state.clock
            else:
                assert t.state.clock >= state.clock
            state = t.state

    def test_start_is_max_of_clock_and_submit(self):
        trace = mk_trace([rec("m1", "j1", "map", 0, 100),
                          rec("m2", "j2", "map", 500, 100)])
        state, _ = first_run(build_cluster(
            ClusterConfig(node_count=2, slots_per_node=1), trace))
        assert state.task("m1").start == 0
        assert state.task("m2").start == 500  # waited for its submit time

    def test_ties_break_by_task_id_not_position(self):
        """Scheduled tasks execute, and tasks finishing together complete,
        in task-id order: t10 before t2, though t2 comes first in the
        trace."""
        from schedcheck.analysis import run_to_quiescence
        trace = mk_trace([rec("t2", "j1", "map", 0, 100),
                          rec("t10", "j1", "map", 0, 100)])
        state = build_cluster(
            ClusterConfig(node_count=1, slots_per_node=2, scheduler="fifo"),
            trace)
        assert state.statics.idx_of == {"t2": 0, "t10": 1}
        events = []
        run_to_quiescence(state, on_step=lambda t: events.append(t.event.name))
        assert events == ["activate_nn", "activate_jt", "activate_tt.0",
                          "assign.t2.0", "assign.t10.0",
                          "execute.t10", "execute.t2",
                          "complete.t10", "complete.t2"]

    def test_locality_counted_against_preferred_node(self):
        state, _ = first_run(build("locality_preference"))
        c = state.counters
        assert c.locality + c.nonlocality == 3
        for tid in ("m1", "m2", "m3"):
            rt = state.task(tid)
            pref = state.statics.preferred[state.statics.idx_of[tid]]
            assert rt.local == (1 if rt.node == pref else 0)

    def test_slot_conservation_everywhere(self):
        stack = [build("two_jobs_fifo")]
        seen = set()
        while stack:
            state = stack.pop()
            occupied = sum(1 for n in state.nodes for s in n.slots
                           if s is not None)
            on_slots = sum(len(n.slots) for n in state.nodes if n.on)
            assert occupied + state.counters.free_slots == on_slots
            for t in iter_transitions(state):
                key = canonical_key(t.state, sym=False)
                if key not in seen:
                    seen.add(key)
                    stack.append(t.state)


class TestOutcomes:
    def test_finish_within_and_after_deadline(self):
        state, _ = first_run(build("finish_after_deadline"))
        assert state.task("m1").phase == FINISHED_AFTER_DEADLINE
        assert state.counters.n_fin_after == 1
        assert state.counters.n_failed == 0

    def test_timeout_and_cascade(self):
        state, _ = first_run(build("timeout_cascade"))
        assert state.task("bad").cause == CAUSE_TIMEOUT
        assert state.task("late").cause == CAUSE_CASCADE
        assert state.task("r1").cause == CAUSE_CASCADE
        assert state.task("bad").finish == 1_000  # clamped at timeout
        assert state.counters.n_failed == 3
        summary = terminal_summary(state)
        assert summary["cascade_chains"] == {"j1": 2}

    def test_queue_wait_failure(self):
        state, _ = first_run(build("queue_wait"))
        rt = state.task("m2")
        assert rt.phase == FAILED and rt.cause == CAUSE_QUEUEWAIT
        assert rt.start > state.statics.deadline[state.statics.idx_of["m2"]]

    def test_speculative_copy_lifecycle(self):
        # somewhere in the space, the straggler acquires a copy; the copy
        # never outlives the original's resolution
        stack = [build("speculative_copy")]
        seen = set()
        saw_copy = False
        while stack:
            state = stack.pop()
            rt = state.task("slow")
            if rt.copies:
                saw_copy = True
                assert rt.phase == PROCESSED  # only running tasks hold copies
            if rt.phase == FINISHED_WITHIN_DEADLINE:
                assert rt.copies == ()
                # copy slots (n + p for n tasks) were released
                occupied = [s for n in state.nodes for s in n.slots
                            if s is not None and s >= state.statics.workload]
                assert occupied == []
            for t in iter_transitions(state):
                key = canonical_key(t.state, sym=False)
                if key not in seen:
                    seen.add(key)
                    stack.append(t.state)
        assert saw_copy

    @pytest.mark.parametrize("factor, siblings, elapsed, copied", [
        # estimate 45,001.5, so 2 x estimate is exactly 90,003
        (2.0, (45_001, 45_002), 90_003, False),
        (2.0, (45_001, 45_002), 90_004, True),
        # estimate 135,005 / 3: 1.2 x estimate is 54,002 in exact
        # arithmetic, but the float test reads 54,001.99999999999 and so
        # copies at 54,002 (elapsed x 3 > 1.2 x 135,005 would not)
        (1.2, (45_001, 45_002, 45_002), 54_001, False),
        (1.2, (45_001, 45_002, 45_002), 54_002, True),
    ])
    def test_speculation_boundary(self, factor, siblings, elapsed, copied):
        """A straggler is copied once its elapsed time exceeds
        speculation_factor x the mean duration of its finished siblings,
        taken as the float tot / cnt, and not at equality. Every task starts
        at 0; the other job's one map completes at `elapsed`, and the scan
        of that completion decides."""
        records = [rec(f"m{k}", "j1", "map", 0, d)
                   for k, d in enumerate(siblings)]
        records += [rec("slow", "j1", "map", 0, 200_000),
                    rec("x", "j2", "map", 0, elapsed)]
        config = ClusterConfig(node_count=len(records), slots_per_node=1,
                               speculation_factor=factor)
        state = build_cluster(config, mk_trace(records))
        while True:
            t = next(iter_transitions(state))
            state = t.state
            if t.event.name == "complete.x":
                break
        assert state.clock == elapsed == elapsed - state.task("slow").start
        assert state.task("slow").spec_count == int(copied)
        slow = state.statics.idx_of["slow"]
        assert state.extra == ((slow,) if copied else ())

    @pytest.mark.parametrize("limit", [1, 2])
    def test_straggler_is_flagged_again_up_to_the_limit(self, limit):
        """A task still straggling at a later completion is flagged again,
        one more speculative entry each time, until it holds
        max_speculative of them. The walk takes the first enabled
        transition but leaves the copies queued."""
        records = [rec("m0", "j1", "map", 0, 100),
                   rec("slow", "j1", "map", 0, 200_000)]
        records += [rec(f"x{k}", "j2", "map", 0, 1_000 * k)
                    for k in (1, 2, 3)]
        config = ClusterConfig(node_count=len(records), slots_per_node=1,
                               max_speculative=limit, speculation_factor=2.0)
        state = build_cluster(config, mk_trace(records))
        slow = state.statics.idx_of["slow"]
        flagged = {}
        while "complete.x3" not in flagged:
            t = next(t for t in iter_transitions(state)
                     if not t.event.name.startswith("assign_spec."))
            state = t.state
            if t.event.name.startswith("complete."):
                flagged[t.event.name] = state.extra.count(slow)
                assert state.task("slow").spec_count == \
                    state.extra.count(slow)
        # m0's 100 ms makes the due 200 ms; each x completes past it
        assert flagged == {"complete.m0": 0, "complete.x1": 1,
                           "complete.x2": min(2, limit),
                           "complete.x3": min(3, limit)}

    def test_speculative_limit_cause(self):
        # drive a run in which the straggler is speculated before timing out
        stack = [build("speculative_limit")]
        seen = set()
        causes = set()
        while stack:
            state = stack.pop()
            rt = state.task("slow")
            if rt.phase == FAILED:
                causes.add(rt.cause)
            for t in iter_transitions(state):
                key = canonical_key(t.state, sym=False)
                if key not in seen:
                    seen.add(key)
                    stack.append(t.state)
        # both outcomes exist in the space: failed un-speculated (Timeout)
        # and failed after a copy was granted (SpeculativeLimit)
        assert CAUSE_SPECULATIVE in causes
        assert CAUSE_TIMEOUT in causes


class TestStragglerBound:
    """The bound spec_due only spares scans that would flag nothing."""

    @staticmethod
    def _unbounded(state):
        """A copy of state whose bound is -inf, so its completion scans
        every running task."""
        copy = object.__new__(GlobalState)
        for name in GlobalState.__slots__:
            setattr(copy, name, getattr(state, name))
        copy.spec_due = -math.inf
        return copy

    @pytest.mark.parametrize("limit", [1, 2])
    def test_bound_changes_no_completion(self, monkeypatch, limit):
        """On random walks over random workloads, every completion's
        successor equals the one a full scan gives: by canonical key, by
        the order of the speculative entries and by every spec_count. Every
        walk state keeps the invariants, the bound's among them. Both kinds
        of completion occur: scans that the bound spares, and scans that
        flag a task, a second time under a limit of 2."""
        skipped, flagged = [0], [0] * (limit + 1)
        real = model_mod._speculation_scan

        def counting(b):
            skipped[0] += 0 < b.src.config.max_speculative and \
                b.clock < b.spec_due
            real(b)

        monkeypatch.setattr(model_mod, "_speculation_scan", counting)
        rng = random.Random(30 + limit)
        for _ in range(150):
            config, trace = random_workload(rng)
            state = build_cluster(
                dataclasses.replace(config, max_speculative=limit), trace)
            check_state(state)
            while True:
                ts = list(iter_transitions(state))
                if not ts:
                    break
                if state.running:  # the completion is the last move
                    got = ts[-1]
                    want = _complete(self._unbounded(state), None)
                    assert got.event == want.event
                    assert got.changed == want.changed
                    for sym in (False, True):
                        assert canonical_key(got.state, sym) == \
                            canonical_key(want.state, sym)
                    assert got.state.extra == want.state.extra
                    before, specs, full = (
                        [rt.spec_count for rt in table_records(
                            s.tasks, s.statics.workload)]
                        for s in (state, got.state, want.state))
                    assert specs == full
                    for old, new in zip(before, specs):
                        flagged[new] += new > old
                state = rng.choice(ts).state
                check_state(state)
        assert skipped[0] > 0 and all(flagged[1:]), (skipped, flagged)


class TestDeadlock:
    def test_deadlock_reachable_and_sticky(self):
        stack = [build("deadlock_cycle")]
        seen = set()
        deadlocked = []
        while stack:
            state = stack.pop()
            if state.counters.n_deadlock:
                deadlocked.append(state)
            for t in iter_transitions(state):
                key = canonical_key(t.state, sym=False)
                if key not in seen:
                    seen.add(key)
                    stack.append(t.state)
        assert deadlocked
        # with both trackers up, the two stuck reduces form a j1<->j2 cycle
        # and both queued maps get flagged
        full = [s for s in deadlocked
                if s.counters.trackercount == 2 and s.counters.n_deadlock == 2
                and s.namenode_on]
        assert full
        state = full[0]
        assert state.task("am").dl == 1 and state.task("bm").dl == 1
        assert state.task_phase("am") == WAITING_RESOURCES
        edges, blocked = wait_for_graph(state)
        assert edges == {"j1": {"j1", "j2"}, "j2": {"j1", "j2"}}
        # the deadlocked state is a dead end
        assert state.is_terminal()

    def test_blocked_job_holding_no_slot_is_never_flagged(self):
        # j1 and j2 wait on each other's stuck reduce; j3's map waits on
        # both of them but holds nothing, so j3 lies on no cycle
        cfg = ClusterConfig(node_count=2, slots_per_node=1,
                            reduce_slowstart=0.0)
        trace = mk_trace([rec("ar", "j1", "reduce", 0, 100),
                          rec("br", "j2", "reduce", 0, 100),
                          rec("am", "j1", "map", 10, 100),
                          rec("bm", "j2", "map", 10, 100),
                          rec("cm", "j3", "map", 10, 100)])
        init = build_cluster(cfg, trace)
        reached = {canonical_key(init, sym=False): init}
        stack = [init]
        while stack:
            for t in iter_transitions(stack.pop()):
                key = canonical_key(t.state, sym=False)
                if key not in reached:
                    reached[key] = t.state
                    stack.append(t.state)
        assert all(s.task("cm").dl == 0 for s in reached.values())
        assert any(s.task("am").dl and s.task("bm").dl
                   for s in reached.values())

    def test_no_deadlock_with_strict_slowstart(self):
        fx = FIXTURES["deadlock_cycle"]
        cfg = fx.config.override(reduce_slowstart=1.0)
        stack = [build_cluster(cfg, fx.trace)]
        seen = set()
        while stack:
            state = stack.pop()
            assert state.counters.n_deadlock == 0
            for t in iter_transitions(state):
                key = canonical_key(t.state, sym=False)
                if key not in seen:
                    seen.add(key)
                    stack.append(t.state)


class TestPhasesAndSymmetry:
    def test_phase_monotone_along_runs(self):
        state = build("timeout_cascade")
        last = {tid: 0 for tid in state.statics.tids}
        for _ in range(500):
            t = next(iter_transitions(state), None)
            if t is None:
                break
            state = t.state
            for tid in state.statics.tids:
                phase = state.task_phase(tid)
                assert phase >= last[tid] or (
                    last[tid] == WAITING_RESOURCES and phase >= SCHEDULED)
                last[tid] = phase

    def test_swapping_anonymous_nodes_is_canonical(self):
        # reach two states that differ only by which anonymous node took m1
        state = build("map_only_parallel")
        state = step_n(state, 4)  # both trackers on
        assigns = [t for t in iter_transitions(state)
                   if t.event.name.startswith("assign.m1.")]
        assert len(assigns) == 2
        a, b = (t.state for t in assigns)
        assert canonical_key(a, sym=True) == canonical_key(b, sym=True)
        assert canonical_key(a, sym=False) != canonical_key(b, sym=False)
        assert a.fingerprint(sym=True) == b.fingerprint(sym=True)
        assert a.fingerprint(sym=False) != b.fingerprint(sym=False)

    def test_named_nodes_are_not_merged(self):
        state = build("locality_preference")
        state = step_n(state, 4)
        assigns = [t for t in iter_transitions(state)
                   if t.event.name.startswith("assign.m1.")]
        assert len(assigns) == 2
        a, b = (t.state for t in assigns)
        # both nodes are preferred by some task: no anonymity, no merging
        assert canonical_key(a, sym=True) != canonical_key(b, sym=True)

    @pytest.mark.parametrize("sym", [False, True])
    @pytest.mark.parametrize("name", ["map_reduce_gate", "speculative_copy",
                                      "speculative_limit"])
    def test_fingerprint_tracks_canonical_key(self, name, sym):
        # incremental fingerprints agree with structural keys across a walk
        seen_keys = {}
        stack = [build(name)]
        while stack:
            state = stack.pop()
            key = canonical_key(state, sym=sym)
            fp = state.fingerprint(sym=sym)
            if key in seen_keys:
                assert seen_keys[key] == fp
                continue
            seen_keys[key] = fp
            for t in iter_transitions(state):
                stack.append(t.state)
        fps = list(seen_keys.values())
        assert len(set(fps)) == len(fps)  # no collisions on this space


class TestFingerprints:
    # Fields that read -1 while unset, against every value the model writes
    # there. A task holds a slot exactly when it holds a node, so the two
    # move together; with node 0 named, node 1 is anonymous.
    @pytest.mark.parametrize("fields,values", [
        (("start",), [(0,), (10,), (1_000,)]),
        (("finish",), [(0,), (10,), (1_000,)]),
        (("local",), [(0,), (1,)]),
        (("node", "slot"), [(0, 0), (0, 1), (1, 0), (1, 1)]),
    ])
    def test_unset_field_digests_differ(self, fields, values):
        """CPython hashes -1 and -2 alike, so no view may use both: a record
        with a field unset must digest apart from one with it set."""
        named = frozenset({0})
        unset = TaskRT(phase=FAILED, cause=CAUSE_CASCADE)
        for vals in values:
            other = unset._replace(**dict(zip(fields, vals)))
            assert hash(other) != hash(unset), (fields, vals)
            assert hash(_sym_rt(other, named)) != \
                hash(_sym_rt(unset, named)), (fields, vals)

    def test_cascade_failed_queued_task_is_not_merged(self):
        """Two states apart only in where a cascade-failed task sat: still
        queued, or on an anonymous node. Neither fingerprint may merge
        them."""
        init = build("timeout_cascade")
        i = init.statics.idx_of["late"]
        seen, stack = set(), [init]
        while stack:
            state = stack.pop()
            rt = state.task("late")
            if rt.cause == CAUSE_CASCADE and rt.node < 0:
                break
            for t in iter_transitions(state):
                key = canonical_key(t.state, sym=False)
                if key not in seen:
                    seen.add(key)
                    stack.append(t.state)
        else:
            raise AssertionError("no queued task failed by cascade")
        assert not init.statics.named_nodes
        b = _Builder(state)
        b.set_task(i, rt._replace(node=1, slot=0))
        placed = b._build()
        for sym in (False, True):
            assert canonical_key(state, sym) != canonical_key(placed, sym)
            assert state.fingerprint(sym) != placed.fingerprint(sym)

    def test_fingerprint_and_canonical_key_correspond_on_random_walks(self):
        """Over random walks on random workloads, every walk state and
        successor: equal keys give equal fingerprints and equal fingerprints
        equal keys, with and without symmetry."""
        rng = random.Random(20)
        for _ in range(60):
            init = build_cluster(*random_workload(rng))
            fp_of = ({}, {})   # per sym: key -> fingerprint
            key_of = ({}, {})  # per sym: fingerprint -> key
            for _walk in range(5):
                state = init
                while state is not None:
                    succs = [t.state for t in iter_transitions(state)]
                    for s in [state] + succs:
                        for sym in (False, True):
                            key, fp = canonical_key(s, sym), s.fingerprint(sym)
                            assert fp_of[sym].setdefault(key, fp) == fp
                            assert key_of[sym].setdefault(fp, key) == key
                    state = rng.choice(succs) if succs else None

    @staticmethod
    def _terms_from_scratch(s) -> tuple:
        """The plain and the symmetric position terms of state s: the sum
        over every task and job position of its key times (hash of its view
        - hash of the default view)."""
        st = s.statics
        n, n_jobs, named = st.workload, len(st.job_ids), st.named_nodes
        keys = [st.keys[k] or st.key(k) for k in range(n + n_jobs)]
        tasks = table_records(s.tasks, n)
        d0_plain, d0_sym = hash(DEFAULT_RT), hash(_sym_rt(DEFAULT_RT, named))
        plain = sum(key * (hash(rt) - d0_plain)
                    for key, rt in zip(keys, tasks))
        sym = sum(key * (hash(_sym_rt(rt, named)) - d0_sym)
                  for key, rt in zip(keys, tasks))
        jobs = sum(key * (hash(job) - hash(DEFAULT_JOB)) for key, job
                   in zip(keys[n:], table_records(s.jobs, n_jobs)))
        return plain + jobs, sym + jobs

    def test_position_terms_equal_a_sum_from_scratch(self):
        """Along random walks, the task and job terms that each state takes
        from its parent's and the writes that made it equal the sum from
        scratch, and the fingerprint is that sum plus the scalar and node
        terms."""
        rng = random.Random(14)
        for _ in range(60):
            init = build_cluster(*random_workload(rng))
            for _walk in range(3):
                state = init
                while state is not None:
                    succs = [t.state for t in iter_transitions(state)]
                    for s in [state] + succs:
                        want = self._terms_from_scratch(s)
                        assert (s._term(False), s._term(True)) == want
                        scalar = _SCALAR_KEY * hash(_scalar_key(s))
                        for flag in (False, True):
                            assert s.fingerprint(flag) == want[flag] + \
                                scalar + _NODES_KEY * hash(_node_view(s, flag))
                    state = rng.choice(succs) if succs else None

    def test_terms_after_parents_never_fingerprinted(self):
        """A state whose parent never took its terms in a view takes the
        full sum in that view (model._full_term), and its children take
        theirs from it: on random walks fingerprinted every few steps, in
        one view at a time, every term equals the sum from scratch."""
        rng = random.Random(15)
        for _ in range(60):
            state = build_cluster(*random_workload(rng))
            for step in itertools.count(1):
                succs = [t.state for t in iter_transitions(state)]
                if not succs:
                    break
                state = rng.choice(succs)
                if step % 3 == 0:
                    flag = rng.random() < 0.5
                    assert state._term(flag) == \
                        self._terms_from_scratch(state)[flag]
            for flag in (False, True):
                assert state._term(flag) == \
                    self._terms_from_scratch(state)[flag]

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_terms_of_replayed_states(self, name):
        """run_to_quiescence and replay fingerprint no state on the way:
        the states they end in, the same state reached twice, and their
        successors take terms equal to the sum from scratch."""
        from schedcheck.analysis import run_to_quiescence
        init = build(name)
        steps = []
        end = run_to_quiescence(init, on_step=lambda t: steps.append(
            StepRecord(t.event.name, t.event.payload, t.changed,
                       t.state.clock)))
        mid = replay(init, steps[:len(steps) // 2])
        ends = [end, replay(init, steps), mid]
        ends += [t.state for t in iter_transitions(mid)]
        for s in ends:
            assert (s._term(False), s._term(True)) == \
                self._terms_from_scratch(s)
        for flag in (False, True):
            assert ends[0].fingerprint(flag) == ends[1].fingerprint(flag)

    def test_fingerprints_do_not_depend_on_the_hash_seed(self):
        """str hashes are salted per process, and a larger model built first
        draws longer key bytes: the same walk under two hash seeds, the
        second after a larger model, must give the same fingerprints."""
        script = (
            "import sys\n"
            "from fixtures import FIXTURES, mk_trace, rec\n"
            "from schedcheck.config import ClusterConfig\n"
            "from schedcheck.model import build_cluster, iter_transitions\n"
            "if sys.argv[1:]:\n"
            "    build_cluster(ClusterConfig(), mk_trace(\n"
            "        [rec(f'm{i}', f'j{i}', 'map', 0, 1) for i in range(5000)]))\n"
            "fx = FIXTURES['map_reduce_gate']\n"
            "state = build_cluster(fx.config, fx.trace)\n"
            "while state is not None:\n"
            "    succs = [t.state for t in iter_transitions(state)]\n"
            "    print(*(s.fingerprint(sym) for s in [state] + succs\n"
            "            for sym in (False, True)))\n"
            "    state = succs[-1] if succs else None\n")
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        outs = [subprocess.run(
            [sys.executable, "-c", script, *args], capture_output=True,
            text=True, check=True, timeout=120,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)).stdout
            for seed, args in (("0", []), ("1", ["larger-model-first"]))]
        assert outs[0].count("\n") > 5
        assert outs[0] == outs[1]


class TestWitnessReplay:
    def test_replay_reproduces_final_state(self):
        from schedcheck.checker import Atom, GoalExpr, verify
        init = build("map_reduce_gate")
        goal = GoalExpr("g", (Atom("completedscheduled", "==", "workload"),))
        result = verify(init, goal, strategy="dfs")
        assert result.verdict == "reachable"
        final = replay(init, result.witness.steps)
        assert canonical_key(final, sym=False) == canonical_key(
            replay(init, result.witness.steps), sym=False)
        assert final.counters.completedscheduled == 3

    def test_replay_rejects_disabled_events(self):
        from schedcheck.model import StepRecord
        init = build("map_reduce_gate")
        with pytest.raises(ValueError):
            replay(init, [StepRecord("execute.r1", None, (), 0)])
