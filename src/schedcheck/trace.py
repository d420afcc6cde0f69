"""Workload trace files: parsing, statistics, and synthetic generation.

Trace format is a CSV with header
    task_id,job_id,kind,submit_ms,duration_ms,deadline_ms,preferred_node,outcome,failure_cause
UTF-8 (a leading byte-order mark is skipped), LF or CRLF, '#' comment lines
ignored, empty optional fields allowed; a header row may repeat anywhere.
A parsed trace is a set of columns, one tuple per TaskRecord field.
`from_rows` is the adapter seam for converters from other archive formats.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .config import read_settings
from .errors import (DuplicateTaskId, EmptyWorkload, MalformedRow,
                     OrphanReduce, SpecInvalid, read_lines)

HEADER = ("task_id", "job_id", "kind", "submit_ms", "duration_ms",
          "deadline_ms", "preferred_node", "outcome", "failure_cause")

MAP = "map"
REDUCE = "reduce"

# the one string object that a parsed kind (by its lower-cased text) or
# outcome (by its upper-cased text) is stored as
_KINDS = {MAP: MAP, REDUCE: REDUCE}
_OUTCOMES = {"SUCCESS": "SUCCESS", "FAIL": "FAIL"}


class TaskRecord(NamedTuple):
    task_id: str
    job_id: str
    kind: str            # map | reduce
    submit_ms: int
    duration_ms: int
    deadline_ms: int | None
    preferred_node: int | None
    outcome: str         # SUCCESS | FAIL
    failure_cause_label: str | None


@dataclass
class WorkloadTrace:
    """A trace as columns: one tuple per TaskRecord field, named as the
    field, each holding the tasks in (submit_ms, arrival) order. The tasks
    of a job share one job_id string. `records` zips the columns back into
    TaskRecords; no program path reads it."""
    task_id: tuple
    job_id: tuple
    kind: tuple
    submit_ms: tuple
    duration_ms: tuple
    deadline_ms: tuple
    preferred_node: tuple
    outcome: tuple
    failure_cause_label: tuple
    job_of: tuple             # per task, its job's position in job_index
    job_index: dict           # job_id -> tuple of task positions
    failed_count: int

    def __len__(self):
        return len(self.task_id)

    @property
    def task_count(self) -> int:
        return len(self.task_id)

    def columns(self) -> tuple:
        """The record columns, in TaskRecord field order."""
        return tuple(getattr(self, f) for f in TaskRecord._fields)

    @property
    def records(self) -> tuple:
        return tuple(map(TaskRecord, *self.columns()))


def _trace(cols) -> WorkloadTrace:
    """The trace of the record columns `cols`, in arrival order and with
    distinct task ids: sorted by submit_ms, stably, each job's tasks given
    one job_id string, and checked for orphan reduces."""
    tids, jids, _, submits = cols[:4]
    # one stable permutation by submit_ms, applied to every column (an
    # itemgetter of one index gives the item, not a tuple)
    order = sorted(range(len(tids)), key=submits.__getitem__)
    cols = list(map(itemgetter(*order) if len(order) > 1 else tuple, cols))
    # per job id, in order of the job's first task: [job position, task
    # positions...]
    jobs = {}
    job_of = []
    with_map = set()
    for pos, (j, k) in enumerate(zip(cols[1], cols[2])):
        entry = jobs.get(j)
        if entry is None:
            jobs[j] = entry = [len(jobs)]
        entry.append(pos)
        job_of.append(entry[0])
        if k == MAP:
            with_map.add(j)
    if len(with_map) < len(jobs):
        # in arrival order, a job without maps starts with its first reduce
        tid, jid = next((t, j) for t, j in zip(tids, jids)
                        if j not in with_map)
        raise OrphanReduce(f"reduce {tid}: job {jid} has no map task")
    job_ids = tuple(jobs)
    job_of = tuple(job_of)
    cols[1] = tuple(map(job_ids.__getitem__, job_of))
    return WorkloadTrace(*cols, job_of,
                         {j: tuple(entry[1:]) for j, entry in jobs.items()},
                         cols[7].count("FAIL"))


def from_rows(rows) -> WorkloadTrace:
    """Build a trace from an iterable of (line_no, TaskRecord) pairs."""
    records = []
    seen = set()
    for _line_no, rec in rows:
        if rec.task_id in seen:
            raise DuplicateTaskId(rec.task_id)
        seen.add(rec.task_id)
        records.append(rec)
    return _trace(list(zip(*records)) or [()] * len(TaskRecord._fields))


def _read_file(path, cols, seen) -> None:
    """Append each task row of the trace file at `path` to the column
    lists `cols`, in file order; `seen` holds the task ids read so far."""
    (tids, jids, kinds, submits, durations, deadlines, preferreds, outcomes,
     causes) = [c.append for c in cols]
    rows = csv.reader(read_lines(path))
    try:
        # a row is named by the file line it ends on: a quoted field may
        # span lines, so the rows read so far do not count them
        for row in rows:
            if len(row) != len(HEADER):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                raise MalformedRow(path, rows.line_num,
                                   f"expected {len(HEADER)} fields, "
                                   f"got {len(row)}")
            (task_id, job_id, kind, submit, duration,
             deadline, preferred, outcome, cause) = map(str.strip, row)
            if task_id.startswith("#"):
                continue
            if not task_id or not job_id:
                raise MalformedRow(path, rows.line_num,
                                   "task_id and job_id must be non-empty")
            # the exact spelling first: lower() only for the rest
            kind_c = _KINDS.get(kind) or _KINDS.get(kind.lower())
            if kind_c is None:
                # a header row (it may repeat) is the only other row whose
                # first two fields pass
                if tuple(map(str.lower, map(str.strip, row))) == HEADER:
                    continue
                raise MalformedRow(path, rows.line_num,
                                   "kind must be map or reduce, "
                                   f"got {kind.lower()!r}")
            try:
                submit_ms = int(submit)
                duration_ms = int(duration)
            except ValueError:
                raise MalformedRow(
                    path, rows.line_num,
                    "submit_ms and duration_ms must be integers")
            if submit_ms < 0:
                raise MalformedRow(path, rows.line_num,
                                   "submit_ms must be >= 0")
            if duration_ms <= 0:
                raise MalformedRow(path, rows.line_num,
                                   "duration_ms must be > 0")
            try:
                deadline_ms = int(deadline) if deadline else None
                preferred_node = int(preferred) if preferred else None
            except ValueError:
                raise MalformedRow(
                    path, rows.line_num,
                    "deadline_ms and preferred_node must be integers")
            if preferred_node is not None and preferred_node < 0:
                raise MalformedRow(path, rows.line_num,
                                   "preferred_node must be >= 0")
            outcome_c = _OUTCOMES.get(outcome) or \
                _OUTCOMES.get(outcome.upper())
            if outcome_c is None:
                raise MalformedRow(path, rows.line_num,
                                   "outcome must be SUCCESS or FAIL, "
                                   f"got {outcome.upper()!r}")
            if task_id in seen:
                raise DuplicateTaskId(task_id)
            seen.add(task_id)
            tids(task_id)
            jids(job_id)
            kinds(kind_c)
            submits(submit_ms)
            durations(duration_ms)
            deadlines(deadline_ms)
            preferreds(preferred_node)
            outcomes(outcome_c)
            causes(cause or None)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise MalformedRow(path, rows.line_num, str(exc)) from None


def parse(paths) -> WorkloadTrace:
    """Parse one or more trace files; multi-file input is merged and
    re-sorted by submit time (cumulative month loading)."""
    if isinstance(paths, (str, bytes)) or hasattr(paths, "__fspath__"):
        paths = [paths]
    cols = [[] for _ in TaskRecord._fields]
    seen = set()
    for path in paths:
        _read_file(path, cols, seen)
    del seen  # freed before the columns are copied
    if not cols[0]:
        raise EmptyWorkload("trace contains no tasks")
    return _trace(cols)


def write(trace: WorkloadTrace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        writer.writerows(zip(*trace.columns()))  # None writes as ""


@dataclass(frozen=True)
class TraceStats:
    task_count: int
    job_count: int
    failed_count: int
    failure_fraction_pct: float
    map_count: int
    reduce_count: int


def stats(trace: WorkloadTrace) -> TraceStats:
    if trace.task_count == 0:
        raise EmptyWorkload("cannot summarize an empty trace")
    maps = trace.kind.count(MAP)
    return TraceStats(
        task_count=trace.task_count,
        job_count=len(trace.job_index),
        failed_count=trace.failed_count,
        failure_fraction_pct=100.0 * trace.failed_count / trace.task_count,
        map_count=maps,
        reduce_count=trace.task_count - maps,
    )


# --------------------------------------------------------------------------
# Synthetic workloads

@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for synthesize(). Profiles:

    - "uniform": homogeneous jobs; FAIL-labeled tasks get a duration above
      the timeout so the model's predictions track the labels.
    - "opencloud": tuned to the observed failure-cause mix of a real
      month-scale Hadoop trace: roughly a third of failures are straggler
      timeouts in single-task jobs, a quarter exhaust speculative retries,
      and the rest cascade from failed jobs.
    """
    n_tasks: int = 1000
    failure_fraction: float = 0.0588
    locality_fraction: float = 0.3
    maps_per_job: int = 4
    reduces_per_job: int = 1
    mean_duration_ms: int = 60_000
    interarrival_ms: int = 5_000
    node_count: int = 4
    timeout_ms: int = 600_000
    profile: str = "uniform"

    def __post_init__(self):
        if self.n_tasks < 1:
            raise SpecInvalid("n_tasks must be >= 1")
        if not 0.0 <= self.failure_fraction <= 1.0:
            raise SpecInvalid("failure_fraction must be in [0, 1]")
        if not 0.0 <= self.locality_fraction <= 1.0:
            raise SpecInvalid("locality_fraction must be in [0, 1]")
        if self.maps_per_job < 1:
            raise SpecInvalid("maps_per_job must be >= 1")
        if self.reduces_per_job < 0:
            raise SpecInvalid("reduces_per_job must be >= 0")
        if self.mean_duration_ms < 1 or self.interarrival_ms < 0:
            raise SpecInvalid("durations must be positive")
        if self.node_count < 1:
            raise SpecInvalid("node_count must be >= 1")
        # a failing task runs timeout_ms plus a draw from [1, timeout_ms // 2)
        if self.timeout_ms < 4:
            raise SpecInvalid("timeout_ms must be >= 4")
        if self.profile not in ("uniform", "opencloud"):
            raise SpecInvalid(f"unknown profile {self.profile!r}")


def parse_generator_spec(text: str) -> GeneratorSpec:
    return GeneratorSpec(**read_settings(text, GeneratorSpec, SpecInvalid,
                                         "generator"))


def _preferred(rng, spec):
    if rng.random() < spec.locality_fraction:
        return rng.randrange(spec.node_count)
    return None


def _quick_duration(rng, spec):
    """A quick task's duration, drawn from [mean / 2, 3 * mean / 2] but
    never below 1 ms, which the trace format rejects."""
    return rng.randrange(max(1, spec.mean_duration_ms // 2),
                         spec.mean_duration_ms * 3 // 2 + 1)


def _synthesize_uniform(spec, rng):
    rows = []
    n_fail = round(spec.n_tasks * spec.failure_fraction)
    fail_ids = set(rng.sample(range(spec.n_tasks), n_fail))
    per_job = spec.maps_per_job + spec.reduces_per_job
    submit = 0
    seq = 0
    jid = 0
    while seq < spec.n_tasks:
        jid += 1
        size = min(per_job, spec.n_tasks - seq)
        n_maps = max(1, min(spec.maps_per_job, size))
        for k in range(size):
            kind = MAP if k < n_maps else REDUCE
            duration = _quick_duration(rng, spec)
            if seq in fail_ids:
                duration = spec.timeout_ms + rng.randrange(
                    1, spec.timeout_ms // 2)
            rows.append(TaskRecord(
                task_id=f"t{seq}", job_id=f"j{jid}", kind=kind,
                submit_ms=submit, duration_ms=duration, deadline_ms=None,
                preferred_node=_preferred(rng, spec),
                outcome="FAIL" if seq in fail_ids else "SUCCESS",
                failure_cause_label="timeout" if seq in fail_ids else None))
            seq += 1
        submit += rng.randrange(2 * spec.interarrival_ms + 1)
    return rows


def _synthesize_opencloud(spec, rng):
    """Failure mix tuned so the model's predicted-failure breakdown lands
    near one third timeouts and one quarter speculative-limit failures."""
    n_fail = max(3, round(spec.n_tasks * spec.failure_fraction))
    n_timeout = max(1, round(0.32 * n_fail))
    n_spec = max(1, round(0.26 * n_fail))
    n_cascade = max(0, n_fail - n_timeout - n_spec)

    rows = []
    seq = 0
    jid = 0
    submit = 0

    def advance():
        nonlocal submit
        submit += rng.randrange(2 * spec.interarrival_ms + 1)

    def add(kind, job, duration, outcome, cause=None):
        nonlocal seq
        rows.append(TaskRecord(
            task_id=f"t{seq}", job_id=job, kind=kind, submit_ms=submit,
            duration_ms=duration, deadline_ms=None,
            preferred_node=_preferred(rng, spec),
            outcome=outcome, failure_cause_label=cause))
        seq += 1

    # Straggler jobs: quick sibling maps give the scheduler a duration
    # estimate, the straggler exceeds speculation threshold and timeout,
    # and the job's reduces fail by cascade.
    cascades_left = n_cascade
    for i in range(n_spec):
        jid += 1
        job = f"j{jid}"
        n_reduce = min(cascades_left, max(1, round(n_cascade / n_spec)))
        if i == n_spec - 1:
            n_reduce = cascades_left
        cascades_left -= n_reduce
        for _ in range(3):
            add(MAP, job, _quick_duration(rng, spec), "SUCCESS")
        straggler = spec.timeout_ms + spec.timeout_ms // 2
        add(MAP, job, straggler, "FAIL", "speculative")
        for _ in range(n_reduce):
            add(REDUCE, job, _quick_duration(rng, spec), "FAIL", "cascade")
        advance()

    # Lone-job timeouts: no siblings, so no duration estimate and no
    # speculation; the task simply exceeds the timeout.
    for _ in range(n_timeout):
        jid += 1
        add(MAP, f"j{jid}", spec.timeout_ms + rng.randrange(
            spec.timeout_ms // 10, spec.timeout_ms // 2), "FAIL", "timeout")
        advance()

    # Filler jobs of successful work.
    while seq < spec.n_tasks:
        jid += 1
        job = f"j{jid}"
        size = min(spec.maps_per_job + spec.reduces_per_job, spec.n_tasks - seq)
        n_maps = max(1, min(spec.maps_per_job, size))
        for k in range(size):
            add(MAP if k < n_maps else REDUCE, job,
                _quick_duration(rng, spec), "SUCCESS")
        advance()
    return rows


def synthesize(spec: GeneratorSpec, seed: int) -> WorkloadTrace:
    """Deterministic for a fixed (spec, seed) pair on a given Python
    version (the draws come from `random.Random`)."""
    rng = random.Random(seed)
    if spec.profile == "opencloud":
        rows = _synthesize_opencloud(spec, rng)
    else:
        rows = _synthesize_uniform(spec, rng)
    rows = rows[:spec.n_tasks]
    return from_rows((i + 1, r) for i, r in enumerate(rows))
