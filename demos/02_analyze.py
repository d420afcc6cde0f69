"""Compare model-predicted task outcomes against trace ground truth.

Runs the model to quiescence on a timeout-heavy workload, classifies its
predictions against the trace's outcome labels, and prints the confusion
matrix, the detected-failures share, and the per-cause failure breakdown.

Run:  python demos/02_analyze.py
"""

from pathlib import Path

from schedcheck import ClusterConfig, build_cluster
from schedcheck import trace as trace_mod
from schedcheck.analysis import (breakdown, classify, detected_failures,
                                 df_from_percentages, predicted_outcomes,
                                 run_to_quiescence)
from schedcheck.model import make_witness

DATA = Path(__file__).parent / "data"

workload = trace_mod.parse(DATA / "wordcount.csv")
config = ClusterConfig(node_count=2, slots_per_node=1,
                       task_timeout_ms=600000)

# Deterministic run: always take the first enabled transition.
steps = []
final = run_to_quiescence(build_cluster(config, workload),
                          on_step=steps.append)
predicted = predicted_outcomes(final)
print("model predictions vs trace labels:")
# a trace is columnar: one tuple per field, tasks in submit order
for task_id, outcome in zip(workload.task_id, workload.outcome):
    print(f"  {task_id:4s} predicted {predicted[task_id]:9s} "
          f"truth {outcome}")
print()

cm = classify(predicted, workload)
print(f"confusion matrix over {len(workload)} tasks "
      f"(positive prediction = Finished):")
print(f"  TP {cm.tp_pct:6.2f}%   ({cm.tp_count} finished, labeled SUCCESS)")
print(f"  TN {cm.tn_pct:6.2f}%   ({cm.tn_count} failed,   labeled FAIL)")
print(f"  FP {cm.fp_pct:6.2f}%   ({cm.fp_count} finished, labeled FAIL)")
print(f"  FN {cm.fn_pct:6.2f}%   ({cm.fn_count} failed,   labeled SUCCESS)")

df = detected_failures(cm, workload)
print(f"\ndetected failures: {df.df_pct:.2f}% of the trace's "
      f"{df.defined_over} labeled failures")

# The same identity works from matrix percentages alone, e.g. with
# TN 4.62% and FP 1.26% of a month-scale trace:
print(f"from percentages TN=4.62 FP=1.26: "
      f"DF = {df_from_percentages(4.62, 1.26):.2f}%")

b = breakdown(make_witness(steps, final))
print(f"\nfailure-cause breakdown ({b.failed_total} predicted failures):")
for cause in ("timeout", "speculative", "cascade", "queuewait", "residual"):
    print(f"  {cause:12s} {getattr(b, cause + '_pct'):6.2f}%")
