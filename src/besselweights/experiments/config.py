"""Scenario configuration: flat key=value INI text, one scenario per file.

Sections: [scenario] (name, seed, output knobs and scenario parameters),
[tolerances] (check thresholds and calibration margins); both feed one
parameter table.  Each scenario's shipped config holds the default of every
parameter it reads; a `--config` file is laid over it, and may set only keys
the shipped config has.  Seeds are mandatory; every run is a deterministic
function of (config, seed, out dir).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from importlib import resources

from ..errors import ConfigError


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    out_dir: str
    params: dict = field(default_factory=dict)

    # -- typed accessors ------------------------------------------------------

    def get(self, key: str) -> str:
        if key not in self.params:
            raise ConfigError(f"{self.name}: missing config key '{key}'")
        return self.params[key]

    def get_float(self, key: str) -> float:
        raw = self.get(key)
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{self.name}: key '{key}' is not a number: {raw}") from exc

    def get_int(self, key: str) -> int:
        value = self.get_float(key)
        if not value.is_integer():  # also rejects nan and inf
            raise ConfigError(f"{self.name}: key '{key}' is not a whole number: {self.get(key)}")
        return int(value)

    def get_count(self, key: str) -> int:
        value = self.get_int(key)
        if value < 1:
            raise ConfigError(f"{self.name}: key '{key}' must be at least 1: {self.get(key)}")
        return value

    def get_floats(self, key: str) -> list[float]:
        raw = self.get(key)
        try:
            values = [float(tok) for tok in raw.split()]
        except ValueError as exc:
            raise ConfigError(f"{self.name}: key '{key}' is not a number list: {raw}") from exc
        if not values:
            raise ConfigError(f"{self.name}: key '{key}' is an empty list")
        return values

    def require(self, key: str, holds: bool, rule: str) -> None:
        """Reject the value read from `key` unless it obeys `rule`, before any work."""
        if not holds:
            raise ConfigError(f"{self.name}: key '{key}' must {rule}: {self.get(key)}")


def parse_config_text(text: str, out_dir: str, seed_override: int | None = None) -> ScenarioConfig:
    # no section plays configparser's DEFAULT, so a [DEFAULT] header is an unknown section
    cp = configparser.ConfigParser(default_section="")
    try:
        cp.read_string(text)
        sections = {title: dict(cp[title]) for title in cp.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {' '.join(str(exc).split())}") from exc
    if "scenario" not in sections or not sections.keys() <= {"scenario", "tolerances"}:
        raise ConfigError(f"config takes [scenario] and an optional [tolerances], found: {', '.join(sections)}")
    sec = sections["scenario"]
    name = sec.pop("name", None)
    if not name:
        raise ConfigError("config needs scenario.name")
    raw_seed = sec.pop("seed", None)
    if raw_seed is None and seed_override is None:
        raise ConfigError(f"{name}: seeds are mandatory (scenario.seed)")
    try:
        seed = seed_override if seed_override is not None else int(raw_seed)
    except ValueError as exc:
        raise ConfigError(f"{name}: scenario.seed is not an integer: {raw_seed}") from exc
    params = {**sec, **sections.get("tolerances", {})}
    return ScenarioConfig(name=name, seed=seed, out_dir=out_dir, params=params)


def load_config(scenario: str, path: str, out_dir: str, seed_override: int | None = None) -> ScenarioConfig:
    """The file at `path` laid over the scenario's shipped config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    cfg = parse_config_text(text, out_dir, seed_override)
    if cfg.name != scenario:
        raise ConfigError(f"{path} configures scenario '{cfg.name}', not '{scenario}'")
    shipped = load_default_config(scenario, out_dir).params
    unknown = sorted(cfg.params.keys() - shipped.keys())
    if unknown:
        raise ConfigError(f"{scenario}: unknown config key(s): {', '.join(unknown)}")
    cfg.params = {**shipped, **cfg.params}
    return cfg


def load_default_config(scenario: str, out_dir: str, seed_override: int | None = None) -> ScenarioConfig:
    res = resources.files("besselweights.experiments").joinpath(f"configs/{scenario}.cfg")
    try:
        text = res.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise ConfigError(f"no shipped default config for scenario '{scenario}'") from exc
    return parse_config_text(text, out_dir, seed_override)
