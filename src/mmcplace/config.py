"""Scenario configuration: flat INI sections, one per concern.

Every experiment parameter is a named field with desk-scale defaults
(19 cells, 10 users, 200 slots); configs/fullscale.ini mirrors the
91-cell, 50-user setup. parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields


class ConfigError(Exception):
    """Bad or missing configuration; message names the field/file."""


@dataclass
class ScenarioConfig:
    # topology
    n_cells: int = 19
    spacing_m: float = 1000.0
    anchor_lat: float = 37.762
    anchor_lon: float = -122.43
    # simulation
    horizon: int = 200
    slot_seconds: float = 60.0
    staleness_seconds: float = 600.0
    n_users: int = 10
    mobility: str = "synthetic"          # synthetic | trace
    move_prob: float = 0.3
    trace_file: str = ""
    # cost
    capacity: float = 5.0
    backend_local_rate: float = 3.0
    backend_migration_rate: float = 3.0
    distance_local_weight: float = 0.2
    distance_migration_weight: float = 0.2
    # demand
    mean_on_slots: float = 50.0
    mean_off_slots: float = 10.0
    local_demand: float = 1.0
    migration_demand: float = 1.0
    lifetime: float = math.inf
    # error
    beta: float = 0.4
    alpha: float = 1.1
    # window
    gamma: float = 1.5
    sigma: float = 2.0
    window_T: int = 0                    # 0 = pick via the optimizer
    T_max: int = 30
    # seeds
    master_seed: int = 1


_SECTIONS = {
    "topology": ["n_cells", "spacing_m", "anchor_lat", "anchor_lon"],
    "simulation": ["horizon", "slot_seconds", "staleness_seconds", "n_users",
                   "mobility", "move_prob", "trace_file"],
    "cost": ["capacity", "backend_local_rate", "backend_migration_rate",
             "distance_local_weight", "distance_migration_weight"],
    "demand": ["mean_on_slots", "mean_off_slots", "local_demand",
               "migration_demand", "lifetime"],
    "error": ["beta", "alpha"],
    "window": ["gamma", "sigma", "window_T", "T_max"],
    "seeds": ["master_seed"],
}

_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _convert(name: str, raw: str):
    kind = _TYPES[name]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            if raw.lower() in ("inf", "infinity"):
                return math.inf
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"field '{name}': cannot parse {raw!r}") from exc


def parse_config(path: str) -> ScenarioConfig:
    parser = configparser.ConfigParser()
    parser.optionxform = str     # field names are case-sensitive (window_T)
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    cfg = ScenarioConfig()
    known = {name: section for section, names in _SECTIONS.items()
             for name in names}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for name, raw in parser.items(section):
            if name not in known or known[name] != section:
                raise ConfigError(
                    f"unknown field '{name}' in section [{section}] of {path}")
            setattr(cfg, name, _convert(name, raw))
    validate_config(cfg)
    return cfg


def serialize_config(cfg: ScenarioConfig) -> str:
    lines = []
    for section, names in _SECTIONS.items():
        lines.append(f"[{section}]")
        for name in names:
            value = getattr(cfg, name)
            if value == math.inf:
                value = "inf"
            lines.append(f"{name} = {value}")
        lines.append("")
    return "\n".join(lines)


# every float field but lifetime (inf: no cap) must be finite; each numeric
# field's least allowed value (_AT_LEAST) or the bound it must exceed
# (_ABOVE)
_AT_LEAST = {"n_cells": 1, "horizon": 1, "staleness_seconds": 0,
             "n_users": 0, "move_prob": 0, "backend_local_rate": 0,
             "backend_migration_rate": 0, "distance_local_weight": 0,
             "distance_migration_weight": 0, "mean_on_slots": 0,
             "mean_off_slots": 0, "local_demand": 0, "migration_demand": 0,
             "lifetime": 1, "beta": 0, "gamma": 1,
             "sigma": 0, "window_T": 0, "T_max": 1, "master_seed": 0}
_ABOVE = {"spacing_m": 0, "slot_seconds": 0, "capacity": 0, "alpha": 1}


def validate_config(cfg: ScenarioConfig) -> None:
    for name, kind in _TYPES.items():
        if (kind == "float" and name != "lifetime"
                and not math.isfinite(getattr(cfg, name))):
            raise ConfigError(f"field '{name}': must be finite")
    for name, least in _AT_LEAST.items():
        if not getattr(cfg, name) >= least:
            raise ConfigError(f"field '{name}': must be >= {least}")
    for name, bound in _ABOVE.items():
        if not getattr(cfg, name) > bound:
            raise ConfigError(f"field '{name}': must be > {bound}")
    if cfg.move_prob > 1:
        raise ConfigError("field 'move_prob': must be <= 1")
    if not 0 < cfg.mean_on_slots + cfg.mean_off_slots < math.inf:
        raise ConfigError("fields 'mean_on_slots', 'mean_off_slots': "
                          "need a finite, positive sum")
    if cfg.mobility not in ("synthetic", "trace"):
        raise ConfigError(f"field 'mobility': unknown mode {cfg.mobility!r}")
    if cfg.mobility == "trace" and not cfg.trace_file:
        raise ConfigError("field 'trace_file': required for trace mobility")
