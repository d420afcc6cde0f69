"""Baseline-vs-scenario comparisons: rerun verification under a changed
cluster configuration and report the failure-rate delta and reduction rate.

Failure percentages are model predictions taken from each leg's first goal
witness, extended deterministically to quiescence so every task has an
outcome. No monotonicity is claimed in general — adding resources can
reorder schedules; tests assert it only on designated saturated fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import run_to_quiescence
from .checker import GoalExpr, verify
from .config import ClusterConfig
from .model import build_cluster, terminal_summary
from .trace import WorkloadTrace

# swept dimension -> the ClusterConfig field it sets
SWEEP_FIELDS = {"nodes": "node_count", "slots": "slots_per_node",
                "timeout": "task_timeout_ms", "scheduler": "scheduler"}


@dataclass(frozen=True)
class Scenario:
    base: ClusterConfig
    delta: dict           # partial ClusterConfig override
    label: str = ""

    def applied(self) -> ClusterConfig:
        return self.base.override(**self.delta) if self.delta else self.base


@dataclass(frozen=True)
class LegResult:
    failure_pct: float
    cause_counts: dict       # cause label -> failed-task count
    states: int
    conclusive: bool
    verdict: str


@dataclass(frozen=True)
class ComparisonReport:
    label: str
    baseline: LegResult
    scenario: LegResult

    @property
    def baseline_failure_pct(self) -> float:
        return self.baseline.failure_pct

    @property
    def scenario_failure_pct(self) -> float:
        return self.scenario.failure_pct

    @property
    def absolute_reduction_pts(self) -> float:
        return self.baseline.failure_pct - self.scenario.failure_pct

    @property
    def reduction_rate_pct(self) -> float:
        if self.baseline.failure_pct == 0:
            return 0.0
        return 100.0 * self.absolute_reduction_pts / self.baseline.failure_pct

    @property
    def conclusive(self) -> bool:
        return self.baseline.conclusive and self.scenario.conclusive

    def as_dict(self) -> dict:
        return {"label": self.label,
                "baseline_failure_pct": self.baseline_failure_pct,
                "scenario_failure_pct": self.scenario_failure_pct,
                "absolute_reduction_pts": self.absolute_reduction_pts,
                "reduction_rate_pct": self.reduction_rate_pct,
                "baseline_causes": dict(self.baseline.cause_counts),
                "scenario_causes": dict(self.scenario.cause_counts),
                "conclusive": self.conclusive,
                "baseline_verdict": self.baseline.verdict,
                "scenario_verdict": self.scenario.verdict}


def _run_leg(config: ClusterConfig, workload: WorkloadTrace, goal: GoalExpr,
             strategy: str, state_budget: int,
             time_budget_s: float) -> LegResult:
    initial = build_cluster(config, workload)
    result = verify(initial, goal, strategy=strategy,
                    state_budget=state_budget, time_budget_s=time_budget_s)
    if result.verdict == "unknown":
        return LegResult(0.0, {}, result.states, False, "unknown")
    # an unreachable goal has no witness to grade: run from the start
    final = run_to_quiescence(result.witness.state if result.witness
                              else initial)
    term = terminal_summary(final)
    counts: dict = {}
    for cause in term["failed"].values():
        counts[cause] = counts.get(cause, 0) + 1
    if term["unfinished"]:
        counts["Unresolved"] = len(term["unfinished"])
    return LegResult(100.0 * sum(counts.values()) / final.statics.workload,
                     counts, result.states, True, result.verdict)


def run(scenario: Scenario, workload: WorkloadTrace, goal: GoalExpr,
        strategy: str = "dfs-sym", state_budget: int = 5_000_000,
        time_budget_s: float = 0.0) -> ComparisonReport:
    """Verify the goal under the base and the overridden configuration and
    compare the model-predicted failure rates."""
    base_leg = _run_leg(scenario.base, workload, goal, strategy,
                        state_budget, time_budget_s)
    scen_leg = _run_leg(scenario.applied(), workload, goal, strategy,
                        state_budget, time_budget_s)
    return ComparisonReport(scenario.label, base_leg, scen_leg)


def sweep(base: ClusterConfig, dimension: str, values, workload: WorkloadTrace,
          goal: GoalExpr, strategy: str = "dfs-sym",
          state_budget: int = 5_000_000,
          time_budget_s: float = 0.0) -> list:
    """One ComparisonReport per value of the swept dimension, in order.
    The baseline leg is verified once and shared by every report, and a
    value whose configuration equals the base reuses it as its scenario.
    Every value's configuration is built first, so a bad value fails
    before any leg runs."""
    field = SWEEP_FIELDS.get(dimension)
    if field is None:
        raise ValueError(f"unknown sweep dimension {dimension!r}")
    values = list(values)
    if len(values) < 2:
        raise ValueError("a sweep needs at least two values")
    configs = [base.override(**{field: v}) for v in values]
    base_leg = _run_leg(base, workload, goal, strategy, state_budget,
                        time_budget_s)
    reports = []
    for v, config in zip(values, configs):
        scen_leg = base_leg if config == base else _run_leg(
            config, workload, goal, strategy, state_budget, time_budget_s)
        reports.append(ComparisonReport(f"{dimension}={v}", base_leg,
                                        scen_leg))
    return reports
