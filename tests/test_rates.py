import pytest

from fixtures import FIXTURES

from oracle import recount_metrics
import queue_reference

from schedcheck.model import build_cluster, canonical_key, iter_transitions
from schedcheck.rates import compute_rates


class TestCountersMatchRecounts:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_rates_equal_task_scan_everywhere(self, name):
        """The O(1) counter-based rates must equal a full recount from raw
        task fields in every reachable state of every fixture."""
        fx = FIXTURES[name]
        stack = [build_cluster(fx.config, fx.trace)]
        seen = set()
        budget = 30_000
        while stack and budget:
            budget -= 1
            state = stack.pop()
            fast = compute_rates(state).as_dict()
            slow = recount_metrics(state)
            assert fast == pytest.approx(slow), f"divergence in {name}"
            for t in iter_transitions(state):
                key = canonical_key(t.state, sym=True)
                if key not in seen:
                    seen.add(key)
                    stack.append(t.state)

    def test_rates_bounded(self):
        for name, fx in FIXTURES.items():
            state = build_cluster(fx.config, fx.trace)
            while True:
                r = compute_rates(state)
                for v in (r.schedulabilityrate, r.fairnessrate,
                          r.resourcedeadlockrate, r.localityrate,
                          r.failurerate):
                    assert 0.0 <= v <= 100.0
                t = next(iter_transitions(state), None)
                if t is None:
                    break
                state = t.state


class TestWaitForGraphCycles:
    def test_wait_for_graph_none_unless_starved(self):
        fx = FIXTURES["map_reduce_gate"]
        state = build_cluster(fx.config, fx.trace)
        # the cold cluster has no free slot, but no holder either
        assert state.counters.free_slots == 0
        assert queue_reference.wait_for_graph(state) == (None, None)
        while state is not None:
            assert queue_reference.wait_for_graph(state) == (None, None)
            assert state.counters.n_deadlock == 0
            state = next((t.state for t in iter_transitions(state)), None)
