"""Structured run configuration: YAML parsing and object builders.

One config file describes a whole run -- prior, per-stream models, mixing
grid, risk targets, and simulation plan.  CLI flags override file values,
which override defaults.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
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


_KNOWN_KEYS = {f.name for f in fields(RunConfig)}
_SECTIONS = ("prior", "models", "mixing")


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
# the most mixing grid points: every look-ahead step holds N x count
# entries, and np.linspace fails on a count past int64
_MAX_GRID = 1 << 16


@contextmanager
def _config_errors(section: str, noun: str):
    """Re-raise a KeyError, TypeError or ValueError as a ConfigError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{section} section missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {noun}: {exc}")


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


def _number(value, what: str) -> float:
    """A finite config number; a YAML bool is rejected, not read as 0 or 1,
    and so are .nan and .inf."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return number


def _integer(value, what: str) -> int:
    """A config integer; bools and non-integral numbers are rejected, not
    truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _number(value, what)
    if not number.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(number)


def _flag(section: dict, key: str) -> bool:
    """A YAML bool, false when absent; a string such as "no" is rejected."""
    value = section.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _numbers(value, what: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list of numbers, got {value!r}")
    return [_number(v, what) for v in value]


def _log_a(value) -> list:
    """An explicit log-threshold matrix: rows of config numbers, with null
    and .nan allowed only on the own-stream entries (i, i)."""
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise ConfigError(f"log_a must be a list of rows, got {value!r}")
    return [[math.nan if j == i + 1 and (v is None or _is_nan(v))
             else _number(v, "log_a")
             for j, v in enumerate(row)]
            for i, row in enumerate(value)]


def _is_nan(value) -> bool:
    return isinstance(value, float) and math.isnan(value)


# the least value of each plan integer; None (full mode) is a valid window
_LEAST = {"horizon": 1, "trials": 1, "seed": 0, "threads": 1, "window": 1,
          "change_stream": 1}
# the most trials a batch runs: a campaign keeps every outcome of a batch,
# about 0.2 KB a trial, until it reduces them
_MAX_TRIALS = 10 ** 6


def _plan_value(key: str, value):
    """Plan key ``key``'s value as the file gives it, parsed; ``out`` is
    checked before the plan is parsed."""
    if key in _LEAST and not (key == "window" and value is None):
        return _integer(value, key)
    if key == "theta_points":
        return _numbers(value, key)
    return _mapping(value or {}, key) if key == "targets" else value


def load_config(path: str, overrides: Optional[dict] = None) -> RunConfig:
    """The config in ``path`` with ``overrides`` (key: value, from the
    command line) applied; ranges are checked on the values in force."""
    try:
        with open(path) as fh:
            # libyaml's parser where PyYAML was built with it: the same
            # resolver and constructors as the pure-Python safe loader
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader",
                                               yaml.SafeLoader))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    # the pure-Python loader recurses once per nesting level
    except (RecursionError, yaml.YAMLError) as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for section in _SECTIONS:
        if section not in raw:
            raise ConfigError(f"config is missing required section {section!r}")
    models = raw["models"]
    if not isinstance(models, list) or not models:
        raise ConfigError("models must be a nonempty list of stream sections")
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a directory path, got {out!r}")
    with _config_errors("config", "config"):
        # the plan keys the file leaves out keep RunConfig's defaults
        cfg = RunConfig(
            prior=_mapping(raw["prior"], "prior"),
            models=[_mapping(m, "each models entry") for m in models],
            mixing=_mapping(raw["mixing"], "mixing"),
            **{key: _plan_value(key, value) for key, value in raw.items()
               if key not in _SECTIONS})
    for key, value in (overrides or {}).items():
        setattr(cfg, key, value)
    for key, least in _LEAST.items():
        value = getattr(cfg, key)
        if value is not None and value < least:
            raise ConfigError(f"{key} must be >= {least}")
    if cfg.trials > _MAX_TRIALS:
        raise ConfigError(f"trials must be at most {_MAX_TRIALS}, "
                          f"got {cfg.trials}")
    if cfg.change_stream > cfg.n_streams:
        raise ConfigError(f"change_stream must be <= {cfg.n_streams}")
    return cfg


def _head_mass(section: dict) -> float:
    """The prior section's head mass q = P(nu = -1), a finite number;
    ``ChangePointPrior`` and the calibrations check that it lies in [0, 1)."""
    with _config_errors("prior", "prior"):
        return _number(section.get("q", 0.0), "q")


def build_prior(section: dict) -> ChangePointPrior:
    kind = _kind(section, _PRIOR_KEYS, None, "prior")
    q = _head_mass(section)
    with _config_errors("prior", "prior"):
        if kind == "geometric":
            return ChangePointPrior.geometric(_number(section["rho"], "rho"),
                                              q=q)
        if kind == "discrete_weibull":
            return ChangePointPrior.discrete_weibull(
                _number(section["kappa"], "kappa"),
                _number(section["scale"], "scale"), q=q)
        return ChangePointPrior.from_pmf(_numbers(section["probs"], "probs"),
                                         q=q)


def _build_signal(section) -> object:
    if section is None:
        return ConstantSignal()
    section = _mapping(section, "signal")
    kind = _kind(section, _SIGNAL_KEYS, "constant", "signal")
    amplitude = _number(section.get("amplitude", 1.0), "amplitude")
    if kind == "constant":
        return ConstantSignal(amplitude=amplitude)
    return SineSignal(omega=_number(section["omega"], "omega"),
                      phase=_number(section.get("phase", 0.0), "phase"),
                      amplitude=amplitude)


def build_models(sections: List[dict]) -> list:
    """One ``ARGaussianSignal`` per stream; ``kind: gaussian`` is its AR
    order 0, unit-signal case and accepts none of the AR keys."""
    models = []
    for idx, section in enumerate(sections, start=1):
        try:
            _kind(section, _MODEL_KEYS, "gaussian", "model")
            models.append(ARGaussianSignal(
                theta_min=_number(section["theta_min"], "theta_min"),
                theta_max=_number(section["theta_max"], "theta_max"),
                sigma=_number(section.get("sigma", 1.0), "sigma"),
                ar_coeffs=tuple(_numbers(section.get("ar_coeffs", []),
                                         "ar_coeffs")),
                signal=_build_signal(section.get("signal")),
                stationary_init=_flag(section, "stationary_init")))
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
    with _config_errors("mixing", "mixing grid"):
        count = _integer(section["count"], "count")
        single_point = _flag(section, "single_point")
        if count < 2 and not single_point:
            raise ConfigError(
                "grid count must be >= 2 (set single_point: true to override)")
        if count > _MAX_GRID:
            raise ConfigError(f"mixing.count must be at most {_MAX_GRID}, "
                              f"got {count}")
        spacing = section.get("spacing", "linear")
        lo = _number(section["min"], "min")
        hi = _number(section["max"], "max")
        if weights == "uniform":
            return MixingMeasure.uniform(lo, hi, count, spacing=spacing)
        return MixingMeasure.gaussian(lo, hi, count,
                                      v=_number(section.get("v", 1.0), "v"),
                                      spacing=spacing)


# keys each form of the targets section reads
_TARGET_FORMS = (("log_a", {"log_a"}), ("beta_bar", {"alpha", "beta_bar"}),
                 ("beta", {"alpha", "beta"}))


def build_thresholds(cfg: RunConfig) -> ThresholdMatrix:
    """Build the threshold matrix from the targets section.

    ``alpha`` + ``beta`` use per-stream calibration; ``alpha`` + ``beta_bar``
    use the total-false-alarm variant; an explicit ``log_a`` matrix is
    read entry by entry.
    """
    t = cfg.targets
    n = cfg.n_streams
    head = _head_mass(cfg.prior)
    for form, keys in _TARGET_FORMS:
        if form in t:
            _check_keys(t, keys, f"targets with {form}")
            break
    else:
        raise ConfigError("targets must provide beta, beta_bar, or log_a")
    with _config_errors("targets", "risk targets"):
        if form == "log_a":
            thresholds = ThresholdMatrix(log_a=_log_a(t["log_a"]))
        elif form == "beta_bar":
            thresholds = calibrate_star(_number(t["alpha"], "alpha"),
                                        t["beta_bar"], n, head_mass=head)
        else:
            thresholds = calibrate(t["alpha"], t["beta"], n_streams=n,
                                   head_mass=head)
    if thresholds.n_streams != n:
        raise ConfigError(f"log_a has {thresholds.n_streams} rows for {n} streams")
    return thresholds
