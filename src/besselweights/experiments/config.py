"""Scenario configuration: flat key=value INI text, one scenario per file.

Sections: [scenario] (name, seed, output knobs and scenario parameters),
[tolerances] (check thresholds and calibration margins).  Seeds are
mandatory; every run is a deterministic function of (config, seed, out dir).
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
    tolerances: dict = field(default_factory=dict)

    # -- typed accessors ------------------------------------------------------

    def get(self, key: str, default=None) -> str:
        if key in self.params:
            return self.params[key]
        if default is None:
            raise ConfigError(f"{self.name}: missing config key '{key}'")
        return default

    def get_float(self, key: str, default: float | None = None) -> float:
        raw = self.get(key, None if default is None else str(default))
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{self.name}: key '{key}' is not a number: {raw}") from exc

    def get_int(self, key: str, default: int | None = None) -> int:
        return int(self.get_float(key, None if default is None else float(default)))

    def get_floats(self, key: str, default: str | None = None) -> list[float]:
        raw = self.get(key, default)
        try:
            return [float(tok) for tok in raw.split()]
        except ValueError as exc:
            raise ConfigError(f"{self.name}: key '{key}' is not a number list: {raw}") from exc

    def tol(self, key: str, default: float) -> float:
        try:
            return float(self.tolerances.get(key, default))
        except ValueError as exc:
            raise ConfigError(f"{self.name}: tolerance '{key}' malformed") from exc


def parse_config_text(text: str, out_dir: str, seed_override: int | None = None) -> ScenarioConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
        sections = {title: dict(cp[title]) for title in cp.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {' '.join(str(exc).split())}") from exc
    if "scenario" not in sections:
        raise ConfigError("config needs a [scenario] section")
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
    tolerances = sections.get("tolerances", {})
    return ScenarioConfig(name=name, seed=seed, out_dir=out_dir, params=sec, tolerances=tolerances)


def load_config(path: str, out_dir: str, seed_override: int | None = None) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, out_dir, seed_override)


def load_default_config(scenario: str, out_dir: str, seed_override: int | None = None) -> ScenarioConfig:
    res = resources.files("besselweights.experiments").joinpath(f"configs/{scenario}.cfg")
    try:
        text = res.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise ConfigError(f"no shipped default config for scenario '{scenario}'") from exc
    return parse_config_text(text, out_dir, seed_override)
