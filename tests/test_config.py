from dataclasses import fields

import pytest

from schedcheck.config import ClusterConfig, load_config, parse_config_text
from schedcheck.errors import ConfigInvalid


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = ClusterConfig()
        assert cfg.node_count == 2
        assert cfg.total_slots == cfg.node_count * cfg.slots_per_node

    @pytest.mark.parametrize("bad", [
        {"node_count": 0},
        {"slots_per_node": 0},
        {"scheduler": "lottery"},
        {"max_queue": 0},
        {"task_timeout_ms": 0},
        {"max_speculative": -1},
        {"fair_pools": 0},
        {"deadline_factor": 0.0},
        {"deadline_factor": float("nan")},
        {"deadline_factor": float("inf")},
        {"speculation_factor": 0.9},
        {"speculation_factor": float("nan")},
        {"speculation_factor": float("inf")},
        {"reduce_slowstart": 1.5},
        {"reduce_slowstart": -0.1},
        {"capacity_queues": ()},
        {"capacity_queues": (("a", 0.5), ("b", 0.4))},  # must sum to 1
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigInvalid):
            ClusterConfig(**bad)

    def test_capacity_fraction_tolerance(self):
        # float noise within 1e-9 is accepted
        ClusterConfig(capacity_queues=(("a", 1 / 3), ("b", 1 / 3),
                                       ("c", 1 / 3 + 1e-16)))

    def test_override_returns_new_validated_config(self):
        cfg = ClusterConfig()
        new = cfg.override(node_count=8)
        assert new.node_count == 8 and cfg.node_count == 2
        with pytest.raises(ConfigInvalid):
            cfg.override(node_count=-1)


class TestParsing:
    def test_parse_flat_key_value(self):
        cfg = parse_config_text(
            "# cluster under test\n"
            "node_count = 4\n"
            "slots_per_node=2\n"
            "scheduler = fair\n"
            "deadline_factor = 2.5\n"
            "capacity_queues = prod:0.7,adhoc:0.3\n")
        assert cfg.node_count == 4
        assert cfg.slots_per_node == 2
        assert cfg.scheduler == "fair"
        assert cfg.deadline_factor == 2.5
        assert cfg.capacity_queues == (("prod", 0.7), ("adhoc", 0.3))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            parse_config_text("node_cout = 4\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigInvalid):
            parse_config_text("node_count = four\n")

    @pytest.mark.parametrize("value", ["prod:abc", "prod:0.5,adhoc:x"])
    def test_bad_capacity_fraction_names_key_and_value(self, value):
        with pytest.raises(ConfigInvalid, match="capacity_queues") as err:
            parse_config_text(f"capacity_queues = {value}\n")
        assert value.split(",")[-1] in str(err.value)

    @pytest.mark.parametrize("key", ["deadline_factor",
                                     "speculation_factor"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_factor_rejected(self, key, value):
        with pytest.raises(ConfigInvalid, match=f"{key} must be finite"):
            parse_config_text(f"{key} = {value}\n")

    def test_every_field_reads_back_from_text(self):
        # each field is read by its type, or by its own reader
        cfg = ClusterConfig(scheduler="fair", deadline_factor=2.5,
                            capacity_queues=(("prod", 0.75), ("adhoc", 0.25)))
        text = "".join(
            f"{f.name} = {getattr(cfg, f.name)}\n" for f in fields(cfg)
            if f.name != "capacity_queues")
        assert parse_config_text(
            text + "capacity_queues = prod:0.75,adhoc:0.25\n") == cfg

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "cluster.conf"
        path.write_text("node_count = 3\ntask_timeout_ms = 1000\n")
        cfg = load_config(path)
        assert cfg.node_count == 3
        assert cfg.task_timeout_ms == 1000
