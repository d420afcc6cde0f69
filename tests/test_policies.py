import random

import pytest

from fixtures import FIXTURES, mk_trace, rec

import policies_reference

from schedcheck.config import ClusterConfig
from schedcheck.model import (GlobalState, build_cluster, enabled_moves,
                              iter_transitions)
from schedcheck.policies import job_number, select
from schedcheck.trace import GeneratorSpec, synthesize

POLICIES = ("fifo", "fair", "capacity")


def activated(fixture):
    """Initial state with everything switched on and the queue untouched."""
    state = build_cluster(fixture.config, fixture.trace)
    progressed = True
    while progressed:
        progressed = False
        for t in iter_transitions(state):
            if t.event.name.startswith("activate"):
                state = t.state
                progressed = True
                break
    return state


def assign_first(state):
    """The state after the first assignment the scheduler offers."""
    return next(t for t in iter_transitions(state)
                if t.event.name.startswith("assign.")).state


def _job_id(state, p):
    """The job id of the task at position p (base queue entry p)."""
    st = state.statics
    return st.job_ids[st.job_of[p]]


def reachable(config, trace):
    """Every state reachable from the initial one, each once."""
    init = build_cluster(config, trace)
    seen = {init.fingerprint(False)}
    stack, states = [init], []
    while stack:
        state = stack.pop()
        states.append(state)
        for t in iter_transitions(state):
            key = t.state.fingerprint(False)
            if key not in seen:
                seen.add(key)
                stack.append(t.state)
    return states


class TestJobNumber:
    def test_digits_win(self):
        assert job_number("j17") == 17
        assert job_number("job_004") == 4

    def test_fallback_is_deterministic(self):
        assert job_number("alpha") == job_number("alpha")


class TestFifo:
    def test_picks_first_eligible(self):
        state = activated(FIXTURES["two_jobs_fifo"])
        eligible = list(state.eligible_entries())
        assert select(state) == eligible[0][0]

    def test_no_eligible_entry(self):
        # both maps run, and the reduce waits in the queue for them
        state = assign_first(assign_first(activated(
            FIXTURES["map_reduce_gate"])))
        assert [e[3] for e in state.iter_queue()] == ["r1"]
        assert list(state.eligible_entries()) == []
        assert select(state) is None


class TestFair:
    def test_prefers_pool_with_max_deficit(self):
        fx = FIXTURES["fair_two_pools"]
        # occupy one slot with a j1 task (pool 1); j2's pool now has the
        # larger deficit, so its first entry must win
        state = assign_first(activated(fx))
        pools = policies_reference.pool_states(state)
        assert sum(p.running_slots for p in pools.values()) == 1
        qpos = select(state)
        jid = _job_id(state, qpos)
        occupied_pool = job_number("j1") % fx.config.fair_pools
        assert job_number(jid) % fx.config.fair_pools != occupied_pool

    def test_equal_deficits_keep_queue_order(self):
        state = activated(FIXTURES["fair_two_pools"])
        eligible = list(state.eligible_entries())
        pools = policies_reference.pool_states(state)
        # both pools start at equal deficit: the earliest entry wins
        assert len({p.entitled_slots - p.running_slots
                    for p in pools.values()}) == 1
        assert select(state) == eligible[0][0]

    def test_stops_at_first_entry_of_a_min_running_pool(self):
        # a1 runs, so pool 1 (j1) runs one slot and pool 0 (j2) none; the
        # window is a2 (pool 1), b1 (pool 0), b2 (pool 0), and the pick is
        # b1
        state = assign_first(activated(FIXTURES["fair_two_pools"]))
        eligible = list(state.eligible_entries())
        assert [state.statics.tids[e[0]] for e in eligible] == \
            ["a2", "b1", "b2"]
        assert select(state) == eligible[1][0]


class TestCapacity:
    def test_entitlements_tracked(self):
        fx = FIXTURES["capacity_two_queues"]
        # each queue is entitled to one of the two slots: once b1 (queue 0)
        # runs, queue 0 is at capacity and queue 1's first entry wins
        state = next(t.state for t in iter_transitions(activated(fx))
                     if t.event.name.startswith("assign.b1."))
        caps = policies_reference.capacity_states(state)
        assert [(c.running_slots, c.entitled_slots)
                for _, c in sorted(caps.items())] == [(1, 1.0), (0, 1.0)]
        qpos = select(state)
        assert _job_id(state, qpos) == "j1"

    def test_first_under_capacity_queue_wins(self):
        fx = FIXTURES["capacity_two_queues"]
        state = activated(fx)
        qpos = select(state)
        # nothing is running: the first listed queue is under capacity
        nq = len(fx.config.capacity_queues)
        jid = _job_id(state, qpos)
        assert job_number(jid) % nq == 0

    def test_stops_at_first_entry_of_first_under_capacity_queue(self):
        # nothing runs; the window is a1 (queue 1), b1 (queue 0), a2, b2,
        # and the pick is b1
        state = activated(FIXTURES["capacity_two_queues"])
        eligible = list(state.eligible_entries())
        assert [state.statics.tids[e[0]] for e in eligible] == \
            ["a1", "b1", "a2", "b2"]
        assert select(state) == eligible[1][0]

    def test_fallback_when_all_at_capacity(self):
        fx = FIXTURES["capacity_two_queues"]
        state = activated(fx)
        # fill both slots (one per queue)
        for _ in range(2):
            state = assign_first(state)
        eligible = list(state.eligible_entries())
        assert eligible  # two tasks still queued
        # no free slot means the scheduler won't ask, but the policy itself
        # must still answer deterministically: the first entry
        assert all(c.running_slots >= c.entitled_slots for c in
                   policies_reference.capacity_states(state).values())
        assert select(state) == eligible[0][0]


@pytest.mark.parametrize("policy", POLICIES)
def test_moves_never_walk_the_queue(policy, monkeypatch):
    """Every policy picks from the pools: listing the moves reads no queue
    entry, on any reachable fixture state."""
    states = [state for fx in FIXTURES.values() for state in reachable(
        fx.config.override(scheduler=policy), fx.trace)]

    def walked(state):
        raise AssertionError("enabled_moves walked the queue")

    monkeypatch.setattr(GlobalState, "iter_queue", walked)
    for state in states:
        enabled_moves(state)


class TestAgainstListBasedReference:
    """`select` picks the entry the list-based policies picked."""

    @staticmethod
    def assert_agrees(policy, state):
        eligible = list(state.eligible_entries())
        got = select(state)
        assert got == policies_reference.select(policy, eligible, state)
        return got

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_reachable_fixture_state(self, policy):
        for fx in FIXTURES.values():
            for state in reachable(fx.config.override(scheduler=policy),
                                   fx.trace):
                self.assert_agrees(policy, state)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_random_walks_over_a_generated_trace(self, policy):
        trace = synthesize(GeneratorSpec(n_tasks=1_000, interarrival_ms=500,
                                         profile="opencloud"), seed=7)
        config = self.config(policy)
        rng = random.Random(20261018)
        # a short window often holds no entry of the deciding pool or queue
        for max_queue in (config.max_queue, 3):
            state = build_cluster(config.override(max_queue=max_queue),
                                  trace)
            for _ in range(200):
                self.assert_agrees(policy, state)
                successors = list(iter_transitions(state))
                if not successors:
                    break
                state = rng.choice(successors).state

    @staticmethod
    def config(policy, **changes):
        return ClusterConfig(
            node_count=4, slots_per_node=2, scheduler=policy, fair_pools=4,
            capacity_queues=(("prod", 0.5), ("batch", 0.3), ("adhoc", 0.2)),
            **changes)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_walks_through_speculative_picks(self, policy):
        # The opencloud profile puts a straggler job first: once its three
        # sibling maps complete, its fourth map draws a speculative entry.
        # A short trace drains, so some pool is left with that entry alone.
        trace = synthesize(GeneratorSpec(n_tasks=30, interarrival_ms=500,
                                         profile="opencloud"), seed=7)
        initial = build_cluster(self.config(policy), trace)
        n = initial.statics.workload
        rng = random.Random(1)
        queued = picked = 0
        for _ in range(10):
            state = initial
            while True:
                got = self.assert_agrees(policy, state)
                queued += any(e[0] >= n for e in state.eligible_entries())
                picked += got is not None and got >= n
                successors = list(iter_transitions(state))
                if not successors:
                    break
                state = rng.choice(successors).state
        assert queued > 0, "no walk queued an eligible speculative entry"
        assert picked > 0, "no walk picked a speculative entry"

    @pytest.mark.parametrize("policy", POLICIES)
    def test_window_by_bound_and_by_count(self, policy, monkeypatch):
        # A 1,000-task trace and a 10-entry window: the O(1) bound settles
        # some picks alone, the exact per-pool count admits some pool heads
        # that the bound cannot, and the window hides some heads. Under
        # fifo only held reduces can push the one pool's head out, so each
        # job has one map and two reduces, which wait in held for the map.
        counted = []
        count = GlobalState._pending_before

        def counting(state, qpos):
            before = count(state, qpos)
            counted.append(before)
            return before

        monkeypatch.setattr(GlobalState, "_pending_before", counting)
        trace = synthesize(GeneratorSpec(n_tasks=1_000, interarrival_ms=500,
                                         maps_per_job=1, reduces_per_job=2),
                           seed=7)
        cap = 10
        state = build_cluster(self.config(policy, max_queue=cap), trace)
        rng = random.Random(20261019)
        by_bound = 0
        for _ in range(300):
            before = len(counted)
            got = self.assert_agrees(policy, state)
            by_bound += got is not None and len(counted) == before
            successors = list(iter_transitions(state))
            if not successors:
                break
            state = rng.choice(successors).state
        assert by_bound > 0, "no pick was settled by the O(1) bound alone"
        assert any(c < cap for c in counted), \
            "the count never admitted a head that the O(1) bound could not"
        assert any(c >= cap for c in counted), "the window never hid a head"
