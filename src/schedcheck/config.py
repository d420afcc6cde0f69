"""Cluster configuration and the flat key=value config file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

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


# the config fields whose values are not read by their type alone
CONFIG_READERS = {"scheduler": str.lower,
                  "capacity_queues": _parse_capacity_queues}

# keyed by name: under `from __future__ import annotations` a field's
# type is the text of its annotation
_READ_BY_TYPE = {"int": int, "float": float, "str": str}


def read_settings(text: str, cls, error, kind: str, readers=None) -> dict:
    """The `key = value` lines of `text` as {key: value}; '#' starts a
    comment. A key must name a field of the dataclass `cls`, or one of
    `readers`. Its value is read by its reader if it has one, else by the
    field's type (int, float or str). A line without '=', an unknown key
    or a bad number raises `error`; `kind` names the file's kind in the
    unknown-key message."""
    readers = readers or {}
    types = {f.name: f.type for f in fields(cls)}
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise error(f"expected key=value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key in readers:
            values[key] = readers[key](value)
        elif key in types:
            try:
                values[key] = _READ_BY_TYPE[types[key]](value)
            except ValueError:
                raise error(f"bad value for {key}: {value!r}") from None
        else:
            raise error(f"unknown {kind} key {key!r}")
    return values


def parse_config_text(text: str) -> ClusterConfig:
    """Parse the flat key=value format; '#' starts a comment."""
    return ClusterConfig(**read_settings(text, ClusterConfig, ConfigInvalid,
                                         "config", CONFIG_READERS))


def load_config(path) -> ClusterConfig:
    return parse_config_text("".join(read_lines(path)))
