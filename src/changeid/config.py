"""Structured run configuration: YAML parsing and object builders.

One config file describes a whole run -- prior, per-stream models, mixing
grid, risk targets, and simulation plan.  CLI flags override file values,
which override defaults.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import yaml

from .engine import MixingMeasure
from .models import (ARGaussianSignal, ConstantSignal, GaussianMeanShift,
                     SineSignal)
from .prior import ChangePointPrior
from .rule import ThresholdMatrix, calibrate, calibrate_star

__all__ = ["RunConfig", "ConfigError", "load_config",
           "build_prior", "build_models", "build_mixing", "build_thresholds"]


class ConfigError(ValueError):
    """Missing or inconsistent configuration."""


@dataclass
class RunConfig:
    """Parsed configuration with raw per-section dictionaries."""

    prior: dict
    models: List[dict]
    mixing: dict
    targets: dict = field(default_factory=dict)
    horizon: int = 1000
    trials: int = 100
    seed: int = 0
    threads: int = 1
    window: Optional[int] = None
    theta_points: List[float] = field(default_factory=list)
    change_stream: int = 1
    out: Optional[str] = None

    @property
    def n_streams(self) -> int:
        return len(self.models)


_KNOWN_KEYS = {"prior", "models", "mixing", "targets", "horizon", "trials",
               "seed", "threads", "window", "theta_points", "change_stream",
               "out"}


def _mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a mapping, got {value!r}")
    return dict(value)


def _numbers(value, what: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list of numbers, got {value!r}")
    return [float(v) for v in value]


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for section in ("prior", "models", "mixing"):
        if section not in raw:
            raise ConfigError(f"config is missing required section {section!r}")
    models = raw["models"]
    if not isinstance(models, list) or not models:
        raise ConfigError("models must be a nonempty list of stream sections")
    try:
        cfg = RunConfig(
            prior=_mapping(raw["prior"], "prior"),
            models=[_mapping(m, "each models entry") for m in models],
            mixing=_mapping(raw["mixing"], "mixing"),
            targets=_mapping(raw.get("targets") or {}, "targets"),
            horizon=int(raw.get("horizon", 1000)),
            trials=int(raw.get("trials", 100)),
            seed=int(raw.get("seed", 0)),
            threads=int(raw.get("threads", 1)),
            window=None if raw.get("window") is None else int(raw["window"]),
            theta_points=_numbers(raw.get("theta_points", []), "theta_points"),
            change_stream=int(raw.get("change_stream", 1)),
            out=raw.get("out"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}")
    if cfg.horizon < 1:
        raise ConfigError("horizon must be >= 1")
    if cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    return cfg


def build_prior(section: dict) -> ChangePointPrior:
    kind = section.get("kind")
    try:
        q = float(section.get("q", 0.0))
        if kind == "geometric":
            return ChangePointPrior.geometric(float(section["rho"]), q=q)
        if kind == "discrete_weibull":
            return ChangePointPrior.discrete_weibull(
                float(section["kappa"]), float(section["scale"]), q=q)
        if kind == "explicit_pmf":
            return ChangePointPrior.from_pmf(section["probs"], q=q)
    except KeyError as exc:
        raise ConfigError(f"prior section missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid prior: {exc}")
    raise ConfigError(f"unknown prior kind {kind!r}")


def _build_signal(section) -> object:
    if section is None:
        return ConstantSignal()
    section = _mapping(section, "signal")
    kind = section.get("kind", "constant")
    if kind == "constant":
        return ConstantSignal(amplitude=float(section.get("amplitude", 1.0)))
    if kind == "sine":
        return SineSignal(omega=float(section["omega"]),
                          phase=float(section.get("phase", 0.0)),
                          amplitude=float(section.get("amplitude", 1.0)))
    raise ConfigError(f"unknown signal kind {kind!r}")


def build_models(sections: List[dict]) -> list:
    models = []
    for idx, section in enumerate(sections, start=1):
        kind = section.get("kind", "gaussian")
        try:
            if kind == "gaussian":
                models.append(GaussianMeanShift(
                    theta_min=float(section["theta_min"]),
                    theta_max=float(section["theta_max"]),
                    sigma=float(section.get("sigma", 1.0))))
            elif kind == "ar_gaussian":
                models.append(ARGaussianSignal(
                    theta_min=float(section["theta_min"]),
                    theta_max=float(section["theta_max"]),
                    sigma=float(section.get("sigma", 1.0)),
                    ar_coeffs=tuple(_numbers(section.get("ar_coeffs", []),
                                             "ar_coeffs")),
                    signal=_build_signal(section.get("signal")),
                    stationary_init=bool(section.get("stationary_init", False))))
            else:
                raise ConfigError(f"stream {idx}: unknown model kind {kind!r}")
        except KeyError as exc:
            raise ConfigError(f"stream {idx}: model section missing key {exc}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"stream {idx}: invalid model: {exc}")
    return models


def build_mixing(section: dict) -> MixingMeasure:
    try:
        count = int(section["count"])
        if count < 2 and not section.get("single_point", False):
            raise ConfigError(
                "grid count must be >= 2 (set single_point: true to override)")
        spacing = section.get("spacing", "linear")
        weights = section.get("weights", "uniform")
        if weights == "uniform":
            return MixingMeasure.uniform(float(section["min"]),
                                         float(section["max"]), count,
                                         spacing=spacing)
        if weights == "gaussian":
            return MixingMeasure.gaussian(float(section["min"]),
                                          float(section["max"]), count,
                                          v=float(section.get("v", 1.0)),
                                          spacing=spacing)
        raise ConfigError(f"unknown weight scheme {weights!r}")
    except KeyError as exc:
        raise ConfigError(f"mixing section missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid mixing grid: {exc}")


def build_thresholds(cfg: RunConfig) -> ThresholdMatrix:
    """Build the threshold matrix from the targets section.

    ``alpha`` + ``beta`` use per-stream calibration; ``alpha`` + ``beta_bar``
    use the total-false-alarm variant; an explicit ``log_a`` matrix is
    passed through untouched.
    """
    t = cfg.targets
    n = cfg.n_streams
    head = build_prior(cfg.prior).head_mass
    try:
        if "log_a" in t:
            return ThresholdMatrix(log_a=t["log_a"])
        if "beta_bar" in t:
            return calibrate_star(float(t["alpha"]), t["beta_bar"], n,
                                  head_mass=head)
        if "beta" in t:
            return calibrate(t["alpha"], t["beta"], n_streams=n,
                             head_mass=head)
    except KeyError as exc:
        raise ConfigError(f"targets section missing key {exc}")
    except ValueError as exc:
        raise ConfigError(f"invalid risk targets: {exc}")
    raise ConfigError("targets must provide beta, beta_bar, or log_a")
