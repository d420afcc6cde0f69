"""schedcheck: formal analysis of cluster-scheduler behaviour.

Explores a small-step model of a Hadoop-style cluster (nodes, slots, a task
queue, FIFO/Fair/Capacity policies, speculative execution, timeouts and
failure cascades) to verify reachability properties, grade model
predictions against trace ground truth, and compare configurations.
"""

from .analysis import (ConfusionMatrix, DetectedFailures, FailureBreakdown,
                       breakdown, classify, detected_failures,
                       df_from_percentages, predicted_outcomes,
                       run_to_quiescence)
from .checker import (GoalExpr, TaskAssertion, VerificationResult,
                      parse_properties, verify, verify_assertion)
from .config import ClusterConfig, load_config, parse_config_text
from .model import (GlobalState, WitnessTrace, build_cluster, canonical_key,
                    iter_transitions, replay)
from .rates import RateMetrics, compute_rates
from .trace import (GeneratorSpec, TaskRecord, WorkloadTrace, parse,
                    parse_generator_spec, stats, synthesize, write)
from .whatif import ComparisonReport, Scenario, run, sweep

__version__ = "0.1.0"

__all__ = [
    "ClusterConfig", "ComparisonReport", "ConfusionMatrix",
    "DetectedFailures", "FailureBreakdown", "GeneratorSpec", "GlobalState",
    "GoalExpr", "RateMetrics", "Scenario", "TaskAssertion", "TaskRecord",
    "VerificationResult", "WitnessTrace", "WorkloadTrace", "breakdown",
    "build_cluster", "canonical_key", "classify", "compute_rates",
    "detected_failures", "df_from_percentages", "iter_transitions",
    "load_config", "parse", "parse_config_text", "parse_generator_spec",
    "parse_properties", "predicted_outcomes", "replay", "run",
    "run_to_quiescence", "stats", "sweep", "synthesize",
    "verify", "verify_assertion", "write",
]
