"""Synthesize large workload traces and verify at scale.

Generates a 5,000-task trace with a 5.88% failure-label fraction, prints
its stats, then runs a first-witness reachability check with both search
strategies and shows what dfs-sym saves on an anonymous-node workload:
symmetry reduction plus the activation-order reduction, which expands the
cold cluster by activate_nn alone.

The CLI equivalents are:
  schedcheck gen --spec gen.conf --seed 1 --out big.csv
  schedcheck verify --config cluster.conf --trace big.csv \
      --properties goals.props --strategy dfs-sym --state-budget 5000000

Run:  python demos/04_generate_and_scale.py
"""

import time

from schedcheck import (ClusterConfig, GeneratorSpec, GoalExpr,
                        build_cluster, verify)
from schedcheck.trace import stats, synthesize

spec = GeneratorSpec(n_tasks=5000, failure_fraction=0.0588, node_count=8)
t0 = time.time()
workload = synthesize(spec, seed=1)
st = stats(workload)
print(f"synthesized {st.task_count} tasks / {st.job_count} jobs "
      f"in {time.time() - t0:.2f}s")
print(f"  failure-label fraction {st.failure_fraction_pct:.2f}%, "
      f"{st.map_count} maps / {st.reduce_count} reduces\n")

config = ClusterConfig(node_count=8, slots_per_node=2, deadline_factor=200.0)
goal = GoalExpr("busy", (("completedscheduled", ">=", 2500.0),))
initial = build_cluster(config, workload)
for strategy in ("dfs", "dfs-sym"):
    t0 = time.time()
    res = verify(initial, goal, strategy=strategy, state_budget=5_000_000)
    print(f"{strategy:8s}: {res.verdict} after {res.states} states "
          f"in {time.time() - t0:.1f}s")

# Symmetry reduction pays off when nodes are interchangeable, and the
# activation-order reduction halves what is left: exhausting the space of
# a 3-anonymous-node workload visits far fewer states.
print("\nsymmetry plus activation-order reduction on 3 anonymous nodes "
      "(exhaustive search):")
small = synthesize(GeneratorSpec(n_tasks=5, failure_fraction=0.0,
                                 locality_fraction=0.0, node_count=3),
                   seed=3)
anon = build_cluster(ClusterConfig(node_count=3, slots_per_node=1,
                                   deadline_factor=200.0), small)
nohit = GoalExpr("nohit", (("failurerate", ">", 99.0),))
counts = {}
for strategy in ("dfs", "dfs-sym"):
    counts[strategy] = verify(anon, nohit, strategy=strategy).states
    print(f"  {strategy:8s}: {counts[strategy]} states")
print(f"  reduction: {counts['dfs'] / counts['dfs-sym']:.1f}x")
