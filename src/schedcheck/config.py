"""Cluster configuration and the flat key=value config file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigInvalid, read_lines

SCHEDULERS = ("fifo", "fair", "capacity")


@dataclass(frozen=True)
class ClusterConfig:
    node_count: int = 2
    slots_per_node: int = 1
    scheduler: str = "fifo"
    max_queue: int = 10_000
    task_timeout_ms: int = 600_000
    max_speculative: int = 1
    fairness_wait_ms: int = 600_000
    capacity_queues: tuple = (("default", 1.0),)  # (name, slot fraction)
    fair_pools: int = 2
    deadline_factor: float = 3.0       # deadline = submit + factor * duration
    speculation_factor: float = 1.5    # speculate when elapsed > factor * estimate
    reduce_slowstart: float = 1.0      # fraction of maps finished before a reduce
                                       # may be *assigned* a slot (it still only
                                       # executes once all maps are done)

    def __post_init__(self):
        if self.node_count < 1:
            raise ConfigInvalid("node_count must be >= 1")
        if self.slots_per_node < 1:
            raise ConfigInvalid("slots_per_node must be >= 1")
        if self.scheduler not in SCHEDULERS:
            raise ConfigInvalid(f"scheduler must be one of {SCHEDULERS}")
        if self.max_queue < 1:
            raise ConfigInvalid("max_queue must be >= 1")
        if self.task_timeout_ms < 1:
            raise ConfigInvalid("task_timeout_ms must be >= 1")
        if self.max_speculative < 0:
            raise ConfigInvalid("max_speculative must be >= 0")
        if self.fairness_wait_ms < 1:
            raise ConfigInvalid("fairness_wait_ms must be >= 1")
        if self.fair_pools < 1:
            raise ConfigInvalid("fair_pools must be >= 1")
        # written so that nan fails each test too
        if not 0.0 < self.deadline_factor < math.inf:
            raise ConfigInvalid("deadline_factor must be finite and > 0")
        if not 1.0 <= self.speculation_factor < math.inf:
            raise ConfigInvalid("speculation_factor must be finite and >= 1")
        if not 0.0 <= self.reduce_slowstart <= 1.0:
            raise ConfigInvalid("reduce_slowstart must be in [0, 1]")
        if not self.capacity_queues:
            raise ConfigInvalid("capacity_queues must be non-empty")
        total = 0.0
        for name, frac in self.capacity_queues:
            if not 0.0 < frac <= 1.0:
                raise ConfigInvalid(f"capacity queue {name}: fraction must be in (0, 1]")
            total += frac
        if abs(total - 1.0) > 1e-9:
            raise ConfigInvalid(f"capacity queue fractions sum to {total}, expected 1.0")

    @property
    def total_slots(self) -> int:
        return self.node_count * self.slots_per_node

    def override(self, **changes) -> "ClusterConfig":
        return replace(self, **changes)


_INT_KEYS = {"node_count", "slots_per_node", "max_queue", "task_timeout_ms",
             "max_speculative", "fairness_wait_ms", "fair_pools"}
_FLOAT_KEYS = {"deadline_factor", "speculation_factor", "reduce_slowstart"}


def _parse_capacity_queues(text: str) -> tuple:
    # e.g. "prod:0.7,ad-hoc:0.3"
    queues = []
    for part in text.split(","):
        name, _, frac = part.partition(":")
        if not frac:
            raise ConfigInvalid(f"bad capacity queue spec {part!r}")
        try:
            queues.append((name.strip(), float(frac)))
        except ValueError:
            raise ConfigInvalid(
                f"bad value for capacity_queues: {part.strip()!r}") from None
    return tuple(queues)


def parse_config_text(text: str) -> ClusterConfig:
    """Parse the flat key=value format; '#' starts a comment."""
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigInvalid(f"expected key=value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key in _INT_KEYS or key in _FLOAT_KEYS:
            try:
                values[key] = int(value) if key in _INT_KEYS else float(value)
            except ValueError:
                raise ConfigInvalid(f"bad value for {key}: {value!r}") from None
        elif key == "scheduler":
            values[key] = value.lower()
        elif key == "capacity_queues":
            values[key] = _parse_capacity_queues(value)
        else:
            raise ConfigInvalid(f"unknown config key {key!r}")
    return ClusterConfig(**values)


def load_config(path) -> ClusterConfig:
    return parse_config_text("".join(read_lines(path)))
