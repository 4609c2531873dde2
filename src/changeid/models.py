"""Stream observation model, its whitening filter and path simulation.

One model is shipped: ``ARGaussianSignal``, a deterministic signal of
unknown amplitude theta appearing in stable AR(p) Gaussian noise.
Whitening by the AR coefficients reduces the LLR to a weighted Gaussian
form, whose increments the engine computes (``StreamTables.increments``).
Its defaults -- AR order 0 and the unit signal S_t = 1 -- are the
i.i.d. N(0, sigma^2) -> N(theta, sigma^2) mean shift.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, fields
from typing import Sequence, Union

import numpy as np

__all__ = [
    "whiten", "ConstantSignal", "SineSignal",
    "ARGaussianSignal", "TrialPath",
    "simulate", "ModelError",
]


class ModelError(ValueError):
    """Invalid model parameters or out-of-domain evaluation."""


def whiten(x: Sequence[float], coeffs: Sequence[float]) -> np.ndarray:
    """Apply the AR whitening filter x~_n = x_n - sum_t c_t x_{n-t} along the
    last axis; leading axes broadcast, so an (N, T) array takes per-row
    (N, p) coefficients.

    Indices before the start of the sequence are treated as zero, which
    makes the effective filter order min(n, p) at the head of the series.
    The lag products are added into one zero-initialised sum in lag order,
    c_1 x_{n-1} first, and the sum is subtracted from x_n.
    """
    x = np.asarray(x, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    # the leading axes of x and of the coefficients, broadcast
    lead = np.broadcast(x[..., :1], coeffs[..., :1]).shape[:-1]
    lagged = np.zeros(lead + x.shape[-1:])
    for t in range(1, coeffs.shape[-1] + 1):
        lagged[..., t:] += coeffs[..., t - 1, None] * x[..., :-t]
    return x - lagged


def _check_square(name: str, value: float) -> None:
    """The information number reads ``value ** 2``: it must be a positive
    finite float, neither overflowed nor underflowed to 0."""
    if not 0 < value * value < np.inf:
        raise ModelError(
            f"{name} squared must be a positive finite float, got {value!r}")


def _check_signal(signal) -> None:
    for f in fields(signal):
        value = getattr(signal, f.name)
        if not np.isfinite(value):
            raise ModelError(f"signal {f.name} must be finite, got {value}")
    # a zero signal stays allowed: it carries no information, which
    # ``validate`` names
    if signal.amplitude:
        _check_square("amplitude", signal.amplitude)


@dataclass(frozen=True)
class ConstantSignal:
    amplitude: float = 1.0

    def __post_init__(self):
        _check_signal(self)

    def values(self, horizon: int) -> np.ndarray:
        """Signal values S_t for t = 1..horizon."""
        return np.full(horizon, self.amplitude)


@dataclass(frozen=True)
class SineSignal:
    omega: float
    phase: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        _check_signal(self)

    def values(self, horizon: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            angle = self.omega * np.arange(1, horizon + 1) + self.phase
        finite = np.isfinite(angle)
        if not finite.all():
            raise ModelError(f"signal omega {self.omega!r}: omega * t + phase "
                             f"overflows at step {np.argmin(finite) + 1}")
        return self.amplitude * np.sin(angle)


Signal = Union[ConstantSignal, SineSignal]


@dataclass(frozen=True)
class ARGaussianSignal:
    """Deterministic signal theta*S_t in stable AR(p) Gaussian noise.

    ``ARGaussianSignal(theta_min, theta_max, sigma)`` is the i.i.d. mean
    shift: N(0, sigma^2) pre-change, N(theta, sigma^2) post-change.  The
    engine reads ``sigma``, ``ar_coeffs`` and ``signal_values`` for its LLR
    increments; construction checks that the energy Q and the information
    number at theta_max are finite."""

    theta_min: float
    theta_max: float
    sigma: float = 1.0
    ar_coeffs: tuple = ()
    signal: Signal = ConstantSignal()
    stationary_init: bool = False

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise ModelError(f"sigma must be positive and finite, got {self.sigma}")
        if not (0 < self.theta_min <= self.theta_max < np.inf):
            raise ModelError("need 0 < theta_min <= theta_max < inf")
        _check_square("sigma", self.sigma)
        _check_square("theta_max", self.theta_max)
        object.__setattr__(self, "ar_coeffs", tuple(float(c) for c in self.ar_coeffs))
        if not np.all(np.isfinite(self.ar_coeffs)):
            raise ModelError(f"AR coefficients must be finite, got {self.ar_coeffs}")
        q = self.whitened_energy()
        if not q < math.inf:  # a zero Q stays allowed
            raise ModelError(f"ar_coeffs {list(self.ar_coeffs)} with amplitude "
                             f"{self.signal.amplitude!r}: the whitened signal "
                             f"energy Q overflows")
        with np.errstate(over="ignore"):
            info = self.info_number(self.theta_max)
        if info == np.inf:
            raise ModelError(
                f"sigma {self.sigma!r}: the information number "
                f"theta_max**2 * Q / (2 * sigma**2) overflows at "
                f"theta_max {self.theta_max!r} with Q {q!r}")

    def _check_theta(self, theta: float) -> None:
        if not (self.theta_min <= theta <= self.theta_max):
            raise ModelError(
                f"theta={theta} outside parameter interval "
                f"[{self.theta_min}, {self.theta_max}]")

    def signal_values(self, horizon: int) -> np.ndarray:
        return self.signal.values(horizon)

    @functools.cached_property
    def _root_modulus(self) -> float:
        """The largest modulus of the roots of z^p - c_1 z^(p-1) - ... - c_p,
        0 for order 0: above 1 the AR noise is explosive."""
        poly = np.concatenate(([1.0], -np.asarray(self.ar_coeffs)))
        return float(np.abs(np.roots(poly)).max(initial=0.0))

    def sample_noise(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        # explosive noise outgrows its innovations until float64 keeps none;
        # np.roots may place a repeated unit root 7e-6 off the unit circle
        if self._root_modulus > 1.0 + 1e-5:
            raise ModelError(
                f"ar_coeffs {list(self.ar_coeffs)}: explosive AR noise "
                f"(largest root modulus {self._root_modulus:.6g} > 1) cannot "
                f"be simulated; calibrate and detect take it")
        burn = 1000 if self.stationary_init else 0
        w = self.sigma * rng.standard_normal(horizon + burn)
        if not self.ar_coeffs:
            return w[burn:]
        # an IIR recursion, which numpy runs only as a Python loop over steps
        from scipy.signal import lfilter
        xi = lfilter([1.0], np.concatenate(([1.0], -np.asarray(self.ar_coeffs))), w)
        return xi[burn:]

    def whitened_energy(self) -> float:
        """Cesaro limit Q of the mean squared whitened signal, in closed form
        from the filter's frequency response H(w) = 1 - sum_k c_k e^{-ikw}.

        A constant A has Q = (A (1 - sum c))^2.  A sine A sin(wt + phi)
        whitens to A |H(w)| sin(wt + phi + arg H(w)): Q = (A |H(w)|)^2 / 2,
        unless w is a multiple of pi, where the sine is +-A sin(phi) and
        Q = (A sin(phi) H(w))^2.  A float w is a multiple of pi when
        ``math.remainder(w, math.pi) == 0.0``, as 0, float pi and 2 * float
        pi are.  A Q that overflows is inf."""
        sig, coeffs = self.signal, self.ar_coeffs
        try:
            if isinstance(sig, ConstantSignal):
                return (sig.amplitude * (1.0 - sum(coeffs))) ** 2
            # omega reduced into [-pi, pi], so that k * omega stays finite
            w = math.remainder(sig.omega, 2 * math.pi)
            h = 1.0 - sum(c * cmath.exp(-1j * k * w)
                          for k, c in enumerate(coeffs, start=1))
            if math.remainder(sig.omega, math.pi) == 0.0:
                return (sig.amplitude * math.sin(sig.phase) * h.real) ** 2
            return (sig.amplitude * abs(h)) ** 2 / 2.0
        except OverflowError:
            return math.inf

    def info_number(self, theta: float) -> float:
        """LLR drift rate theta^2 Q / (2 sigma^2)."""
        self._check_theta(theta)
        return theta ** 2 * self.whitened_energy() / (2.0 * self.sigma ** 2)


@dataclass(frozen=True)
class TrialPath:
    """One simulated multistream trajectory."""

    observations: np.ndarray      # (N, horizon)
    true_nu: int                  # change point; ignored when true_stream == 0
    true_stream: int              # 0 = no change, else 1..N
    true_theta: float = 0.0


def simulate(models: Sequence[ARGaussianSignal], horizon: int, rng: np.random.Generator,
             stream: int = 0, theta: float = 0.0, nu=None, prior=None) -> TrialPath:
    """Sample a TrialPath: all streams pre-change except ``stream`` (1-based)
    which gains the additive signal theta*S_t for t > nu.

    ``nu`` may be an integer; when None and a prior is given, nu is drawn
    from the prior.  ``stream=0`` simulates the no-change hypothesis.
    """
    if horizon < 1:
        raise ModelError("horizon must be >= 1")
    if not 0 <= stream <= len(models):
        raise ModelError(f"stream index {stream} out of range 0..{len(models)}")
    obs = np.empty((len(models), horizon))
    for idx, model in enumerate(models):
        obs[idx] = model.sample_noise(horizon, rng)
    if stream == 0:
        return TrialPath(observations=obs, true_nu=-1, true_stream=0)
    if nu is None:
        if prior is None:
            raise ModelError("need a fixed nu or a prior to draw it from")
        nu = prior.sample(rng)
    nu = int(nu)
    model = models[stream - 1]
    model._check_theta(theta)
    if nu < horizon:
        sig = model.signal_values(horizon)
        start = max(nu, 0)  # first post-change observation is X_{nu+1}
        obs[stream - 1, start:] += theta * sig[start:]
    return TrialPath(observations=obs, true_nu=nu, true_stream=stream, true_theta=theta)
