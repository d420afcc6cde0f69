"""Scheduling quality metrics computed from a cluster state's counters.

All rates are percentages in [0, 100] and come straight from counters the
model maintains incrementally, so computing them is O(1) regardless of
workload size.

READERS holds one reader per metric, a function of a state's Counters and
its workload; it is the one place each formula lives. compute_rates reads
every metric through it, and checker's compiled goals read the metrics of
their atoms through it, without building a RateMetrics per state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .model import GlobalState


def _pct(num: int, den: int) -> float:
    return 100.0 * num / den if den else 0.0


# metric -> reader(counters, workload)
READERS = {
    # finished within deadline / ever scheduled
    "schedulabilityrate": lambda c, n: _pct(c.n_fin_within, c.n_scheduled),
    # started within the fairness wait / workload
    "fairnessrate": lambda c, n: _pct(c.n_served_fair, n),
    # deadlock-flagged / workload
    "resourcedeadlockrate": lambda c, n: _pct(c.n_deadlock, n),
    # data-local executions / executions
    "localityrate": lambda c, n: _pct(c.locality, c.locality + c.nonlocality),
    # failed / workload
    "failurerate": lambda c, n: _pct(c.n_failed, n),
    "completedscheduled": lambda c, n: c.completedscheduled,
    "workload": lambda c, n: n,
    "trackercount": lambda c, n: c.trackercount,
}

# metric -> (least, greatest) value that any state can give it: a rate is
# a percentage, a count is never negative, and a model has at least one task
PERCENT = (0.0, 100.0)
_COUNT = (0, float("inf"))
RANGES = {
    "schedulabilityrate": PERCENT,
    "fairnessrate": PERCENT,
    "resourcedeadlockrate": PERCENT,
    "localityrate": PERCENT,
    "failurerate": PERCENT,
    "completedscheduled": _COUNT,
    "workload": (1, float("inf")),
    "trackercount": _COUNT,
}


@dataclass(frozen=True)
class RateMetrics:
    schedulabilityrate: float
    fairnessrate: float
    resourcedeadlockrate: float
    localityrate: float
    failurerate: float
    completedscheduled: int
    workload: int
    trackercount: int

    def as_dict(self) -> dict:
        return asdict(self)


# the readers in RateMetrics field order
_FIELD_READERS = tuple(READERS[f.name] for f in fields(RateMetrics))


def compute_rates(state: GlobalState) -> RateMetrics:
    c = state.counters
    n = state.statics.workload
    return RateMetrics(*[read(c, n) for read in _FIELD_READERS])
