"""Workload trace files: parsing, statistics, and synthetic generation.

Trace format is a CSV with header
    task_id,job_id,kind,submit_ms,duration_ms,deadline_ms,preferred_node,outcome,failure_cause
UTF-8, LF or CRLF, '#' comment lines ignored, empty optional fields allowed.
`from_rows` is the adapter seam for converters from other archive formats.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DuplicateTaskId, EmptyWorkload, MalformedRow,
                     OrphanReduce, SpecInvalid, read_lines)

HEADER = ("task_id", "job_id", "kind", "submit_ms", "duration_ms",
          "deadline_ms", "preferred_node", "outcome", "failure_cause")

MAP = "map"
REDUCE = "reduce"


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


@dataclass(frozen=True)
class WorkloadTrace:
    records: tuple            # TaskRecords ordered by (submit_ms, arrival seq)
    job_index: dict           # job_id -> tuple of record positions
    task_count: int
    failed_count: int

    def __len__(self):
        return self.task_count


def from_rows(rows) -> WorkloadTrace:
    """Build a trace from an iterable of (line_no, TaskRecord) pairs."""
    records = []
    seen = set()
    jobs_with_map = set()
    reduces_by_job = {}
    for line_no, rec in rows:
        if rec.task_id in seen:
            raise DuplicateTaskId(rec.task_id)
        seen.add(rec.task_id)
        if rec.kind == MAP:
            jobs_with_map.add(rec.job_id)
        else:
            reduces_by_job.setdefault(rec.job_id, rec.task_id)
        records.append(rec)
    for jid, tid in reduces_by_job.items():
        if jid not in jobs_with_map:
            raise OrphanReduce(f"reduce {tid}: job {jid} has no map task")
    records.sort(key=lambda r: r.submit_ms)  # stable: preserves arrival order
    job_index = {}
    failed = 0
    for pos, rec in enumerate(records):
        job_index.setdefault(rec.job_id, []).append(pos)
        if rec.outcome == "FAIL":
            failed += 1
    job_index = {j: tuple(ps) for j, ps in job_index.items()}
    return WorkloadTrace(records=tuple(records), job_index=job_index,
                         task_count=len(records), failed_count=failed)


def _parse_row(line_no, row) -> TaskRecord:
    if len(row) != len(HEADER):
        raise MalformedRow(line_no, f"expected {len(HEADER)} fields, got {len(row)}")
    (task_id, job_id, kind, submit, duration,
     deadline, preferred, outcome, cause) = (f.strip() for f in row)
    if not task_id or not job_id:
        raise MalformedRow(line_no, "task_id and job_id must be non-empty")
    kind = kind.lower()
    if kind not in (MAP, REDUCE):
        raise MalformedRow(line_no, f"kind must be map or reduce, got {kind!r}")
    try:
        submit_ms = int(submit)
        duration_ms = int(duration)
    except ValueError:
        raise MalformedRow(line_no, "submit_ms and duration_ms must be integers")
    if submit_ms < 0:
        raise MalformedRow(line_no, "submit_ms must be >= 0")
    if duration_ms <= 0:
        raise MalformedRow(line_no, "duration_ms must be > 0")
    try:
        deadline_ms = int(deadline) if deadline else None
        preferred_node = int(preferred) if preferred else None
    except ValueError:
        raise MalformedRow(line_no, "deadline_ms and preferred_node must be integers")
    if preferred_node is not None and preferred_node < 0:
        raise MalformedRow(line_no, "preferred_node must be >= 0")
    outcome = outcome.upper()
    if outcome not in ("SUCCESS", "FAIL"):
        raise MalformedRow(line_no, f"outcome must be SUCCESS or FAIL, got {outcome!r}")
    return TaskRecord(task_id, job_id, kind, submit_ms, duration_ms,
                      deadline_ms, preferred_node, outcome, cause or None)


def _iter_file_rows(path):
    for line_no, row in enumerate(csv.reader(read_lines(path)), start=1):
        if not row or row[0].lstrip().startswith("#"):
            continue
        if [f.strip().lower() for f in row] == list(HEADER):
            continue
        yield line_no, _parse_row(line_no, row)


def parse(paths) -> WorkloadTrace:
    """Parse one or more trace files; multi-file input is merged and
    re-sorted by submit time (cumulative month loading)."""
    if isinstance(paths, (str, bytes)) or hasattr(paths, "__fspath__"):
        paths = [paths]

    def all_rows():
        for path in paths:
            yield from _iter_file_rows(path)

    trace = from_rows(all_rows())
    if trace.task_count == 0:
        raise EmptyWorkload("trace contains no tasks")
    return trace


def write(trace: WorkloadTrace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for r in trace.records:
            writer.writerow([
                r.task_id, r.job_id, r.kind, r.submit_ms, r.duration_ms,
                "" if r.deadline_ms is None else r.deadline_ms,
                "" if r.preferred_node is None else r.preferred_node,
                r.outcome, r.failure_cause_label or ""])


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
    maps = sum(1 for r in trace.records if r.kind == MAP)
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


_GEN_INT_KEYS = {"n_tasks", "maps_per_job", "reduces_per_job",
                 "mean_duration_ms", "interarrival_ms", "node_count",
                 "timeout_ms"}
_GEN_FLOAT_KEYS = {"failure_fraction", "locality_fraction"}


def parse_generator_spec(text: str) -> GeneratorSpec:
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SpecInvalid(f"expected key=value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key in _GEN_INT_KEYS or key in _GEN_FLOAT_KEYS:
            try:
                values[key] = int(value) if key in _GEN_INT_KEYS \
                    else float(value)
            except ValueError:
                raise SpecInvalid(f"bad value for {key}: {value!r}") from None
        elif key == "profile":
            values[key] = value
        else:
            raise SpecInvalid(f"unknown generator key {key!r}")
    return GeneratorSpec(**values)


def _preferred(rng, spec):
    if rng.random() < spec.locality_fraction:
        return int(rng.integers(0, spec.node_count))
    return None


def _synthesize_uniform(spec, rng):
    rows = []
    n_fail = round(spec.n_tasks * spec.failure_fraction)
    fail_ids = set(rng.choice(spec.n_tasks, size=n_fail, replace=False).tolist())
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
            duration = int(rng.integers(spec.mean_duration_ms // 2,
                                        spec.mean_duration_ms * 3 // 2 + 1))
            if seq in fail_ids:
                duration = spec.timeout_ms + int(rng.integers(1, spec.timeout_ms // 2))
            rows.append(TaskRecord(
                task_id=f"t{seq}", job_id=f"j{jid}", kind=kind,
                submit_ms=submit, duration_ms=duration, deadline_ms=None,
                preferred_node=_preferred(rng, spec),
                outcome="FAIL" if seq in fail_ids else "SUCCESS",
                failure_cause_label="timeout" if seq in fail_ids else None))
            seq += 1
        submit += int(rng.integers(0, 2 * spec.interarrival_ms + 1))
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
        submit += int(rng.integers(0, 2 * spec.interarrival_ms + 1))

    def quick_duration():
        return int(rng.integers(spec.mean_duration_ms // 2,
                                spec.mean_duration_ms * 3 // 2 + 1))

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
            add(MAP, job, quick_duration(), "SUCCESS")
        straggler = spec.timeout_ms + spec.timeout_ms // 2
        add(MAP, job, straggler, "FAIL", "speculative")
        for _ in range(n_reduce):
            add(REDUCE, job, quick_duration(), "FAIL", "cascade")
        advance()

    # Lone-job timeouts: no siblings, so no duration estimate and no
    # speculation; the task simply exceeds the timeout.
    for _ in range(n_timeout):
        jid += 1
        add(MAP, f"j{jid}", spec.timeout_ms + int(rng.integers(
            spec.timeout_ms // 10, spec.timeout_ms // 2)), "FAIL", "timeout")
        advance()

    # Filler jobs of successful work.
    while seq < spec.n_tasks:
        jid += 1
        job = f"j{jid}"
        size = min(spec.maps_per_job + spec.reduces_per_job, spec.n_tasks - seq)
        n_maps = max(1, min(spec.maps_per_job, size))
        for k in range(size):
            add(MAP if k < n_maps else REDUCE, job, quick_duration(), "SUCCESS")
        advance()
    return rows


def synthesize(spec: GeneratorSpec, seed: int) -> WorkloadTrace:
    """Deterministic for a fixed (spec, seed) pair."""
    rng = np.random.default_rng(seed)
    if spec.profile == "opencloud":
        rows = _synthesize_opencloud(spec, rng)
    else:
        rows = _synthesize_uniform(spec, rng)
    rows = rows[:spec.n_tasks]
    return from_rows((i + 1, r) for i, r in enumerate(rows))
