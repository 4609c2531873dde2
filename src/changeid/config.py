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
from .models import ARGaussianSignal, ConstantSignal, SineSignal
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


# keys each section's builder reads, per kind; ``kind`` itself is implied
_PRIOR_KEYS = {"geometric": {"rho", "q"},
               "discrete_weibull": {"kappa", "scale", "q"},
               "explicit_pmf": {"probs", "q"}}
_MEAN_SHIFT_KEYS = {"theta_min", "theta_max", "sigma"}
_MODEL_KEYS = {"gaussian": _MEAN_SHIFT_KEYS,
               "ar_gaussian": _MEAN_SHIFT_KEYS | {"ar_coeffs", "signal",
                                                  "stationary_init"}}
_SIGNAL_KEYS = {"constant": {"amplitude"},
                "sine": {"omega", "phase", "amplitude"}}
_GRID_KEYS = {"min", "max", "count", "single_point", "spacing", "weights"}
_MIXING_KEYS = {"uniform": _GRID_KEYS, "gaussian": _GRID_KEYS | {"v"}}


def _check_keys(section: dict, allowed, what: str) -> None:
    """Reject every key of ``section`` that its builder does not read."""
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{what}: unknown keys {sorted(map(str, unknown))}")


def _kind(section: dict, table: dict, default, what: str) -> str:
    """The section's ``kind`` after checking it and the section's keys
    against ``table``."""
    kind = section.get("kind", default)
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    _check_keys(section, table[kind] | {"kind"}, f"{kind} {what}")
    return kind


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
    kind = _kind(section, _PRIOR_KEYS, None, "prior")
    try:
        q = float(section.get("q", 0.0))
        if kind == "geometric":
            return ChangePointPrior.geometric(float(section["rho"]), q=q)
        if kind == "discrete_weibull":
            return ChangePointPrior.discrete_weibull(
                float(section["kappa"]), float(section["scale"]), q=q)
        return ChangePointPrior.from_pmf(section["probs"], q=q)
    except KeyError as exc:
        raise ConfigError(f"prior section missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid prior: {exc}")


def _build_signal(section) -> object:
    if section is None:
        return ConstantSignal()
    section = _mapping(section, "signal")
    kind = _kind(section, _SIGNAL_KEYS, "constant", "signal")
    if kind == "constant":
        return ConstantSignal(amplitude=float(section.get("amplitude", 1.0)))
    return SineSignal(omega=float(section["omega"]),
                      phase=float(section.get("phase", 0.0)),
                      amplitude=float(section.get("amplitude", 1.0)))


def build_models(sections: List[dict]) -> list:
    """One ``ARGaussianSignal`` per stream; ``kind: gaussian`` is its AR
    order 0, unit-signal case and accepts none of the AR keys."""
    models = []
    for idx, section in enumerate(sections, start=1):
        try:
            _kind(section, _MODEL_KEYS, "gaussian", "model")
            models.append(ARGaussianSignal(
                theta_min=float(section["theta_min"]),
                theta_max=float(section["theta_max"]),
                sigma=float(section.get("sigma", 1.0)),
                ar_coeffs=tuple(_numbers(section.get("ar_coeffs", []),
                                         "ar_coeffs")),
                signal=_build_signal(section.get("signal")),
                stationary_init=bool(section.get("stationary_init", False))))
        except ConfigError as exc:
            raise ConfigError(f"stream {idx}: {exc}")
        except KeyError as exc:
            raise ConfigError(f"stream {idx}: model section missing key {exc}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"stream {idx}: invalid model: {exc}")
    return models


def build_mixing(section: dict) -> MixingMeasure:
    weights = section.get("weights", "uniform")
    if not isinstance(weights, str) or weights not in _MIXING_KEYS:
        raise ConfigError(f"unknown weight scheme {weights!r}")
    _check_keys(section, _MIXING_KEYS[weights], "mixing")
    try:
        count = int(section["count"])
        if count < 2 and not section.get("single_point", False):
            raise ConfigError(
                "grid count must be >= 2 (set single_point: true to override)")
        spacing = section.get("spacing", "linear")
        if weights == "uniform":
            return MixingMeasure.uniform(float(section["min"]),
                                         float(section["max"]), count,
                                         spacing=spacing)
        return MixingMeasure.gaussian(float(section["min"]),
                                      float(section["max"]), count,
                                      v=float(section.get("v", 1.0)),
                                      spacing=spacing)
    except KeyError as exc:
        raise ConfigError(f"mixing section missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid mixing grid: {exc}")


# keys each form of the targets section reads
_TARGET_FORMS = (("log_a", {"log_a"}), ("beta_bar", {"alpha", "beta_bar"}),
                 ("beta", {"alpha", "beta"}))


def build_thresholds(cfg: RunConfig) -> ThresholdMatrix:
    """Build the threshold matrix from the targets section.

    ``alpha`` + ``beta`` use per-stream calibration; ``alpha`` + ``beta_bar``
    use the total-false-alarm variant; an explicit ``log_a`` matrix is
    passed through untouched.
    """
    t = cfg.targets
    n = cfg.n_streams
    head = build_prior(cfg.prior).head_mass
    for form, keys in _TARGET_FORMS:
        if form in t:
            _check_keys(t, keys, f"targets with {form}")
            break
    else:
        raise ConfigError("targets must provide beta, beta_bar, or log_a")
    try:
        if form == "log_a":
            thresholds = ThresholdMatrix(log_a=t["log_a"])
        elif form == "beta_bar":
            thresholds = calibrate_star(float(t["alpha"]), t["beta_bar"], n,
                                        head_mass=head)
        else:
            thresholds = calibrate(t["alpha"], t["beta"], n_streams=n,
                                   head_mass=head)
    except KeyError as exc:
        raise ConfigError(f"targets section missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid risk targets: {exc}")
    if thresholds.n_streams != n:
        raise ConfigError(f"log_a has {thresholds.n_streams} rows for {n} streams")
    return thresholds
