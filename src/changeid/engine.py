"""Log-domain statistic engine for the multistream detector.

For every stream i the engine tracks, over candidate change points k and a
finite mixing grid of post-change parameters, the log likelihood ratios

    log LR_{i,theta}(k, n) = sum_{t=k+1}^{n} log L_{i,theta}(t).

These are represented through per-grid-point cumulative sums, so advancing
one step costs O(grid) and the table never has to be rewritten.  From the
table the engine derives, each step:

* log of the prior-and-weight mixture statistic (numerator of every ratio),
* log of the sup-over-grid statistic (denominator against stream j),
* the ratio matrix against the no-change hypothesis and every competitor.

The head mass pi_{-1} is folded into k = 0 because both candidates share
the same likelihood ratio.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .models import ARGaussianSignal, whiten
from .prior import ChangePointPrior

__all__ = ["MixingMeasure", "StatisticFrame", "Detector", "EngineError",
           "log_ratio_matrix", "posterior_no_change"]

_WEIGHT_TOL = 1e-12


class EngineError(ValueError):
    """Invalid engine configuration or observation."""


def _lse(a: np.ndarray, axis=None) -> np.ndarray:
    """log(sum(exp(a))) robust to -inf entries."""
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)
    return out


@dataclass(frozen=True)
class MixingMeasure:
    """Discrete mixing measure: strictly increasing grid, weights summing to 1."""

    grid: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "weights", weights)
        if grid.ndim != 1 or grid.size == 0 or grid.shape != weights.shape:
            raise EngineError("grid and weights must be matching nonempty 1-d arrays")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise EngineError("grid must be strictly increasing")
        if np.any(weights < 0):
            raise EngineError("weights must be nonnegative")
        if abs(math.fsum(weights.tolist()) - 1.0) > _WEIGHT_TOL:
            raise EngineError("weights must sum to 1 within 1e-12")

    @property
    def log_weights(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.weights)

    @classmethod
    def uniform(cls, theta_min: float, theta_max: float, count: int,
                spacing: str = "linear") -> "MixingMeasure":
        grid = cls._make_grid(theta_min, theta_max, count, spacing)
        return cls(grid=grid, weights=np.full(count, 1.0 / count))

    @classmethod
    def gaussian(cls, theta_min: float, theta_max: float, count: int, v: float,
                 spacing: str = "linear") -> "MixingMeasure":
        """Half-normal weights w_g ~ phi(theta_g / v) * cell width."""
        if v <= 0:
            raise EngineError(f"gaussian weight scale must be positive, got {v}")
        grid = cls._make_grid(theta_min, theta_max, count, spacing)
        if count == 1:
            return cls(grid=grid, weights=np.ones(1))
        edges = np.concatenate(([grid[0]], 0.5 * (grid[1:] + grid[:-1]), [grid[-1]]))
        w = np.exp(-0.5 * (grid / v) ** 2) * np.diff(edges)
        w = w / math.fsum(w.tolist())
        return cls(grid=grid, weights=w)

    @staticmethod
    def _make_grid(theta_min, theta_max, count, spacing) -> np.ndarray:
        if count < 1:
            raise EngineError("grid count must be >= 1")
        if not 0 < theta_min <= theta_max:
            raise EngineError("need 0 < theta_min <= theta_max")
        if count == 1:
            return np.array([theta_min])
        if spacing == "linear":
            return np.linspace(theta_min, theta_max, count)
        if spacing == "log":
            return np.geomspace(theta_min, theta_max, count)
        raise EngineError(f"unknown grid spacing {spacing!r}")


@dataclass(frozen=True)
class StatisticFrame:
    """Immutable snapshot of all detector statistics at time n.

    ``log_ratio`` has shape (N, N+1): row i-1 is stream i, column 0 is the
    ratio against the no-change hypothesis, column j the ratio against
    stream j (entry for j == i is NaN).
    """

    n: int
    log_mix: np.ndarray
    log_sup: np.ndarray
    log_survivor: float
    log_ratio: np.ndarray


def log_ratio_matrix(log_mix: np.ndarray, log_survivor: float,
                     log_sup: np.ndarray) -> np.ndarray:
    """The (N, N+1) ratio layout of ``StatisticFrame.log_ratio``: column 0
    is log_mix - log_survivor, column j is log_mix - log_sup[j-1], and the
    entries (i, i) of columns 1..N are NaN."""
    ratio = log_mix[:, None] - np.concatenate(([log_survivor], log_sup))
    ratio[np.eye(log_mix.size, log_mix.size + 1, k=1, dtype=bool)] = np.nan
    return ratio


def posterior_no_change(frame: StatisticFrame, stream: int) -> float:
    """P(nu >= n | data) under the stream-i change model: 1/(1 + ratio)."""
    x = frame.log_ratio[stream - 1, 0]
    # 1 / (1 + e^x) computed as exp(-logaddexp(0, x))
    return float(math.exp(-np.logaddexp(0.0, x)))


class Detector:
    """Single-owner mutable detector state over N streams.

    Observations are fed one time step at a time; ``step`` returns the full
    exact StatisticFrame.  Cheap per-step accessors (``log_mix_values``,
    ``sup_lower_bounds``) are exposed for callers that only need to decide
    whether an exact frame is worth computing.
    """

    def __init__(self, prior: ChangePointPrior,
                 models: Sequence[ARGaussianSignal],
                 mixing: Union[MixingMeasure, Sequence[MixingMeasure]],
                 window: Optional[int] = None, capacity: int = 1024):
        self.prior = prior
        self.models = list(models)
        self.n_streams = len(self.models)
        if self.n_streams < 1:
            raise EngineError("need at least one stream model")
        if isinstance(mixing, MixingMeasure):
            mixing = [mixing] * self.n_streams
        self.mixing = list(mixing)
        if len(self.mixing) != self.n_streams:
            raise EngineError("need one mixing measure per stream")
        if window is not None and window < 1:
            raise EngineError(f"window must be >= 1, got {window}")
        self.window = None if window is None else int(window)

        # pad all grids to a common width with zero-weight copies of the
        # last grid point; duplicates change neither mixture nor sup
        width = max(m.grid.size for m in self.mixing)
        self._grid = np.empty((self.n_streams, width))
        self._logw = np.full((self.n_streams, width), -np.inf)
        for s, m in enumerate(self.mixing):
            g = m.grid.size
            self._grid[s, :g] = m.grid
            self._grid[s, g:] = m.grid[-1]
            self._logw[s, :g] = m.log_weights
        self._grid_sq = self._grid ** 2
        self._width = width

        self.n = 0
        self._cap = max(int(capacity), 16)
        self._cumz = np.zeros((self._cap + 1, self.n_streams, width))
        self._lp = self.prior.log_pmf_head_merged(self._cap)
        self._B = np.full((self.n_streams, width), -np.inf)

        # every model is a signal theta*S_t in AR(p) Gaussian noise (the
        # i.i.d. mean shift is order 0 with S_t = 1); shorter AR filters are
        # zero-padded to the longest one
        order = max(len(m.ar_coeffs) for m in self.models)
        self._ar = np.zeros((self.n_streams, order))
        for s, m in enumerate(self.models):
            self._ar[s, :len(m.ar_coeffs)] = m.ar_coeffs
        # last ``order`` observations, newest first; zero before the first
        # observation, as in ``whiten``
        self._tail = np.zeros((self.n_streams, order))
        self._s2 = np.array([m.sigma ** 2 for m in self.models])
        self._sw, self._half_v = self._signal_tables(self._cap)
        # mixture and grid-sum statistics at time n, set by ``advance``
        self._mix = np.full(self.n_streams, -np.inf)
        self._cheap = np.full(self.n_streams, -np.inf)

    @property
    def _window_start(self) -> int:
        if self.window is None:
            return 0
        return max(0, self.n - self.window)

    @property
    def evicted_log_prior_mass(self) -> float:
        """log of the merged prior mass currently outside the window."""
        s = self._window_start
        if s == 0:
            return -math.inf
        return float(_lse(self._lp[:s]))

    # -- stepping --------------------------------------------------------

    def _signal_tables(self, horizon: int):
        """Whitened signal values and v/2 per step, each (horizon, N)."""
        # filled and scaled in place: these tables are as long as the path
        sw = np.empty((horizon, self.n_streams))
        for s, m in enumerate(self.models):
            sw[:, s] = whiten(m.signal_values(horizon), m.ar_coeffs)
        half_v = sw * sw
        half_v /= self._s2
        half_v *= 0.5
        return sw, half_v

    def _grow(self) -> None:
        new_cap = self._cap * 2
        cumz = np.zeros((new_cap + 1, self.n_streams, self._width))
        cumz[: self._cap + 1] = self._cumz
        self._cumz = cumz
        self._lp = self.prior.log_pmf_head_merged(new_cap)
        self._sw, self._half_v = self._signal_tables(new_cap)
        self._cap = new_cap

    def advance(self, x) -> None:
        """Consume one observation vector without building a frame."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_streams,):
            raise EngineError(f"expected observation vector of length {self.n_streams}")
        if not np.isfinite(x).all():
            raise EngineError(f"non-finite observation at step {self.n + 1}: {x}")
        if self.n + 1 > self._cap:
            self._grow()
        n = self.n
        # the coefficients of ``llr_coefficients``, one step for all streams
        xt = x - (self._ar * self._tail).sum(axis=1)
        u = self._sw[n] * xt / self._s2
        self._tail[:, 1:] = self._tail[:, :-1]
        self._tail[:, :1] = x[:, None]
        inc = u[:, None] * self._grid - self._half_v[n][:, None] * self._grid_sq
        self._cumz[n + 1] = self._cumz[n] + inc
        self.n = n + 1
        if self.window is None:
            np.logaddexp(self._B, self._lp[n] - self._cumz[n], out=self._B)
            b = self._B
        else:
            k = np.arange(self._window_start, self.n)
            b = _lse(self._lp[k, None, None] - self._cumz[k], axis=0)
        t1 = self._cumz[self.n] + b
        self._cheap = _lse(t1, axis=1)
        self._mix = _lse(t1 + self._logw, axis=1)

    def step(self, x) -> StatisticFrame:
        """Consume one observation vector and return the exact frame."""
        self.advance(x)
        return self.frame()

    # -- statistics ------------------------------------------------------

    @property
    def log_mix_values(self) -> np.ndarray:
        """log Lambda^pi_{i,W}(n) for every stream, shape (N,)."""
        return self._mix

    @property
    def sup_lower_bounds(self) -> np.ndarray:
        """Cheap per-stream lower bounds on the exact log sup statistic."""
        return np.maximum(self._mix, self._cheap - math.log(self._width))

    @property
    def log_sup_values(self) -> np.ndarray:
        """Exact log of sum_k pi_k max_g LR_{j,theta_g}(k, n), shape (N,)."""
        k = np.arange(self._window_start, self.n)
        diff = self._cumz[self.n][None, :, :] - self._cumz[k]
        rowmax = diff.max(axis=2)
        return _lse(self._lp[k, None] + rowmax, axis=0)

    @property
    def log_survivor(self) -> float:
        return float(self.prior.log_survivor(self.n))

    def frame(self) -> StatisticFrame:
        if self.n < 1:
            raise EngineError("no observations consumed yet")
        mix = self.log_mix_values
        sup = self.log_sup_values
        lsv = self.log_survivor
        return StatisticFrame(n=self.n, log_mix=mix, log_sup=sup,
                              log_survivor=lsv,
                              log_ratio=log_ratio_matrix(mix, lsv, sup))
