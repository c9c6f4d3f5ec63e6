import math

import pytest

from mmcplace.config import (ConfigError, ScenarioConfig, parse_config,
                             serialize_config, validate_config)


def test_round_trip_identity(tmp_path):
    cfg = ScenarioConfig(n_cells=91, horizon=1440, n_users=50, beta=0.1,
                         move_prob=0.15, lifetime=math.inf)
    p = tmp_path / "a.ini"
    p.write_text(serialize_config(cfg))
    assert parse_config(str(p)) == cfg


def test_shipped_configs_parse():
    desk = parse_config("configs/desk.ini")
    assert desk.n_cells == 19
    full = parse_config("configs/fullscale.ini")
    assert full.n_cells == 91
    assert full.horizon == 1440


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/no/such/file.ini")


def test_unknown_section_and_field(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config(str(p))
    p.write_text("[topology]\nhorizon = 5\n")  # right field, wrong section
    with pytest.raises(ConfigError):
        parse_config(str(p))


def test_bad_value(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[simulation]\nhorizon = soon\n")
    with pytest.raises(ConfigError):
        parse_config(str(p))


def test_validation_rules():
    for bad in (ScenarioConfig(alpha=1.0), ScenarioConfig(gamma=0.5),
                ScenarioConfig(mobility="trace"),
                ScenarioConfig(capacity=0.0),
                ScenarioConfig(window_T=-4), ScenarioConfig(local_demand=-1.0),
                ScenarioConfig(migration_demand=-1.0),
                ScenarioConfig(lifetime=0),
                ScenarioConfig(master_seed=-1),
                ScenarioConfig(mean_on_slots=-1.0),
                ScenarioConfig(mean_off_slots=-1.0),
                ScenarioConfig(mean_on_slots=0.0, mean_off_slots=0.0),
                ScenarioConfig(mean_on_slots=math.inf),
                ScenarioConfig(move_prob=-0.1), ScenarioConfig(move_prob=1.5),
                ScenarioConfig(n_users=-1),
                ScenarioConfig(backend_local_rate=-1.0),
                ScenarioConfig(backend_migration_rate=-1.0),
                ScenarioConfig(distance_local_weight=-0.1),
                ScenarioConfig(distance_migration_weight=-0.1),
                ScenarioConfig(spacing_m=0.0), ScenarioConfig(slot_seconds=0.0),
                ScenarioConfig(staleness_seconds=-1.0),
                ScenarioConfig(beta=math.inf), ScenarioConfig(alpha=math.inf),
                ScenarioConfig(sigma=math.inf),
                ScenarioConfig(anchor_lat=math.nan)):
        with pytest.raises(ConfigError):
            validate_config(bad)
    validate_config(ScenarioConfig())
    for edge in (ScenarioConfig(n_users=0), ScenarioConfig(move_prob=0.0),
                 ScenarioConfig(move_prob=1.0),
                 ScenarioConfig(staleness_seconds=0.0),
                 ScenarioConfig(mean_on_slots=0.0),
                 ScenarioConfig(mean_off_slots=0.0)):
        validate_config(edge)
