"""Comparing model-predicted task outcomes against trace ground truth:
confusion matrix, Detected-Failures rate and failure-cause breakdown.

Predictions come from a verification witness: the run that reached the goal
is extended deterministically to quiescence (no transition enabled), and each
task is predicted Finished or Failed from its phase there. Tasks that never
resolve (for example, queued behind a resource deadlock) predict Failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import CoverageGap, NoFailuresInTruth
from .model import (FINISHED_AFTER_DEADLINE, FINISHED_WITHIN_DEADLINE,
                    GlobalState, WitnessTrace, iter_transitions)
from .trace import WorkloadTrace

FINISHED = "Finished"
FAILED_LABEL = "Failed"


def run_to_quiescence(state: GlobalState, on_step=None) -> GlobalState:
    """Extend a run deterministically (always the first enabled transition)
    until no transition is enabled."""
    while True:
        t = next(iter_transitions(state), None)
        if t is None:
            return state
        if on_step is not None:
            on_step(t)
        state = t.state


def predicted_outcomes(state: GlobalState) -> dict:
    """task_id -> Finished | Failed from a (quiescent) model state."""
    out = {}
    for tid in state.statics.tids:
        phase = state.task(tid).phase
        if phase in (FINISHED_WITHIN_DEADLINE, FINISHED_AFTER_DEADLINE):
            out[tid] = FINISHED
        else:
            out[tid] = FAILED_LABEL
    return out


# --------------------------------------------------------------------------
# Confusion matrix

@dataclass(frozen=True)
class ConfusionMatrix:
    """Finished counts as the positive prediction; FAIL truth as negative."""
    tp_count: int   # predicted Finished, truth SUCCESS
    tn_count: int   # predicted Failed,   truth FAIL
    fp_count: int   # predicted Finished, truth FAIL
    fn_count: int   # predicted Failed,   truth SUCCESS

    @property
    def total(self) -> int:
        return self.tp_count + self.tn_count + self.fp_count + self.fn_count

    def _pct(self, n: int) -> float:
        return 100.0 * n / self.total if self.total else 0.0

    @property
    def tp_pct(self) -> float:
        return self._pct(self.tp_count)

    @property
    def tn_pct(self) -> float:
        return self._pct(self.tn_count)

    @property
    def fp_pct(self) -> float:
        return self._pct(self.fp_count)

    @property
    def fn_pct(self) -> float:
        return self._pct(self.fn_count)

    def as_dict(self) -> dict:
        return {"tp_count": self.tp_count, "tn_count": self.tn_count,
                "fp_count": self.fp_count, "fn_count": self.fn_count,
                "tp_pct": self.tp_pct, "tn_pct": self.tn_pct,
                "fp_pct": self.fp_pct, "fn_pct": self.fn_pct}


def classify(predicted: dict, truth: WorkloadTrace) -> ConfusionMatrix:
    """Tally predictions against trace outcome labels.

    Every trace task must appear in `predicted`; extra predictions are
    ignored. FinishedAfterDeadline has already been folded into Finished by
    predicted_outcomes — deadline misses are a schedulability concern, not
    an outcome flip.
    """
    tp = tn = fp = fn = 0
    for task_id, outcome in zip(truth.task_id, truth.outcome):
        try:
            pred = predicted[task_id]
        except KeyError:
            raise CoverageGap(
                f"no prediction for trace task {task_id}") from None
        finished = pred == FINISHED
        succeeded = outcome == "SUCCESS"
        if finished and succeeded:
            tp += 1
        elif not finished and not succeeded:
            tn += 1
        elif finished:
            fp += 1
        else:
            fn += 1
    return ConfusionMatrix(tp, tn, fp, fn)


# --------------------------------------------------------------------------
# Detected failures

class DetectedFailures(NamedTuple):
    df_pct: float
    defined_over: int  # failed-task count in the truth trace


def detected_failures(cm: ConfusionMatrix, truth: WorkloadTrace) -> DetectedFailures:
    """Share of the trace's failed tasks the model flags: TN over all FAIL."""
    failed = truth.failed_count
    if failed == 0:
        raise NoFailuresInTruth("trace contains no FAIL outcomes")
    return DetectedFailures(100.0 * cm.tn_count / failed, failed)


def df_from_percentages(tn_pct: float, fp_pct: float) -> float:
    """DF from matrix percentages alone: TN and FP partition the trace's
    failed tasks, so DF = tn / (tn + fp)."""
    if tn_pct + fp_pct == 0:
        raise NoFailuresInTruth("TN and FP are both zero")
    return 100.0 * tn_pct / (tn_pct + fp_pct)


# --------------------------------------------------------------------------
# Failure-cause breakdown

@dataclass(frozen=True)
class FailureBreakdown:
    timeout_pct: float
    speculative_pct: float
    cascade_pct: float
    queuewait_pct: float
    residual_pct: float       # unresolved (deadlocked/starved) tasks
    failed_total: int
    cascade_chains: dict      # job_id -> cascade-failed task count
    straggler_count: int      # tasks whose queue wait was >= 10 minutes
    exemplars: dict           # cause -> up to 10 task ids

    def as_dict(self) -> dict:
        return {"timeout_pct": self.timeout_pct,
                "speculative_pct": self.speculative_pct,
                "cascade_pct": self.cascade_pct,
                "queuewait_pct": self.queuewait_pct,
                "residual_pct": self.residual_pct,
                "failed_total": self.failed_total,
                "cascade_chains": dict(self.cascade_chains),
                "straggler_count": self.straggler_count,
                "exemplars": {k: list(v) for k, v in self.exemplars.items()}}


def breakdown(witness: WitnessTrace) -> FailureBreakdown:
    """Cause percentages over the witness's predicted-failed tasks."""
    term = witness.terminal
    causes: dict = {}
    exemplars: dict = {}
    for tid, cause in term["failed"].items():
        causes[cause] = causes.get(cause, 0) + 1
        exemplars.setdefault(cause, []).append(tid)
    residual = len(term["unfinished"])
    for tid in term["unfinished"]:
        exemplars.setdefault("Unresolved", []).append(tid)
    total = sum(causes.values()) + residual

    def pct(cause):
        return 100.0 * causes.get(cause, 0) / total if total else 0.0

    return FailureBreakdown(
        timeout_pct=pct("Timeout"),
        speculative_pct=pct("SpeculativeLimit"),
        cascade_pct=pct("Cascade"),
        queuewait_pct=pct("QueueWait"),
        residual_pct=100.0 * residual / total if total else 0.0,
        failed_total=total,
        cascade_chains=term["cascade_chains"],
        straggler_count=term["straggler_count"],
        exemplars={k: tuple(v[:10]) for k, v in exemplars.items()},
    )
