"""Log-domain statistic engine for the multistream detector.

For every stream i the engine tracks, over candidate change points k and a
finite mixing grid of post-change parameters, the log likelihood ratios

    log LR_{i,theta}(k, n) = sum_{t=k+1}^{n} log L_{i,theta}(t).

These are represented through per-grid-point cumulative sums cumz, so the
table never has to be rewritten.  The mixture over the candidates in the
window, b_n = log sum_k pi_k e^{-cumz_k}, is one chunked prefix/suffix scan
(van Herk 1992; Gil & Werman 1993) with chunk length L = window: a step
costs O(grid) amortised, and full mode is the case L = infinity, a running
logaddexp.  From b the engine derives, each step:

* log of the prior-and-weight mixture statistic (numerator of every ratio),
* max over the grid of the per-grid-point mixture, a lower bound on the
  sup-over-grid statistic that the rule's screen reads,

and on demand the exact sup-over-grid statistic (denominator against
stream j) and the ratio matrix against the no-change hypothesis and every
competitor.

One kernel, ``Detector.lookahead``, computes all of this for a block of m
steps in a few numpy calls over (m, N, grid) arrays, so a step in a long
block costs the arithmetic on its N x grid entries rather than the
dispatch of a dozen numpy calls.  ``advance`` commits one looked-ahead
step; a step that was not looked ahead is looked ahead as a block of one,
so every statistic has one code path, bit for bit the same whatever the
blocks.

The head mass pi_{-1} is folded into k = 0 because both candidates share
the same likelihood ratio.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

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


@functools.lru_cache(maxsize=None)
def own_entries(n_streams: int) -> np.ndarray:
    """Read-only mask of the entries (i, i) of the (N, N+1) ratio layout."""
    mask = np.eye(n_streams, n_streams + 1, k=1, dtype=bool)
    mask.flags.writeable = False
    return mask


def log_ratio_matrix(log_mix: np.ndarray,
                     log_survivor: Union[float, np.ndarray],
                     log_sup: np.ndarray) -> np.ndarray:
    """The (N, N+1) ratio layout of ``StatisticFrame.log_ratio``: column 0
    is log_mix - log_survivor, column j is log_mix - log_sup[j-1], and the
    entries (i, i) of columns 1..N are NaN.

    Leading axes broadcast: (m, N) rows of ``log_mix`` and ``log_sup`` with
    m survivor values give the m layouts of a block of steps, shape
    (m, N, N+1), each entry the same subtraction as for one step."""
    n = log_mix.shape[-1]
    den = np.empty(log_sup.shape[:-1] + (n + 1,))
    den[..., 0] = log_survivor
    den[..., 1:] = log_sup
    ratio = log_mix[..., :, None] - den[..., None, :]
    ratio[..., own_entries(n)] = np.nan
    return ratio


def posterior_no_change(frame: StatisticFrame, stream: int) -> float:
    """P(nu >= n | data) under the stream-i change model: 1/(1 + ratio)."""
    x = frame.log_ratio[stream - 1, 0]
    # 1 / (1 + e^x) computed as exp(-logaddexp(0, x))
    return float(math.exp(-np.logaddexp(0.0, x)))


class Detector:
    """Single-owner mutable detector state over N streams.

    Observations are consumed one time step at a time by ``advance``;
    ``step`` also returns the full exact StatisticFrame.  ``lookahead``
    computes the statistics of a block of coming steps at once and returns
    their mixture values and screen bounds, so a caller can screen the
    block before it commits the steps.  Cheap per-step accessors
    (``log_mix_values``, ``sup_lower_bounds``) describe the committed time
    n and are exposed for callers that only need to decide whether an
    exact frame is worth computing.
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
        # chunk length of the windowed scan; full mode is one endless chunk
        self._chunk = self.window or sys.maxsize
        # log-sum-exp of lp_k - cumz_k over this chunk's candidates so far,
        # and over each suffix of the previous chunk; set by ``lookahead``
        self._prefix = self._suffix = None

        # every model is a signal theta*S_t in AR(p) Gaussian noise (the
        # i.i.d. mean shift is order 0 with S_t = 1); shorter AR filters are
        # zero-padded to the longest one
        order = max(len(m.ar_coeffs) for m in self.models)
        self._ar = np.zeros((self.n_streams, order))
        for s, m in enumerate(self.models):
            self._ar[s, :len(m.ar_coeffs)] = m.ar_coeffs
        # last ``order`` observations before the look-ahead frontier, oldest
        # first; zero before the first observation, as in ``whiten``
        self._history = np.zeros((self.n_streams, order))
        self._s2 = np.array([m.sigma ** 2 for m in self.models])
        self._cap = 0
        self._cumz = np.zeros((1, self.n_streams, width))
        self._grow(max(int(capacity), 16))
        # looked-ahead steps n0+1..n0+m: their observations (m lists of N
        # floats, which ``advance`` compares cheaply), and the mixture and
        # screen bound rows (m+1, N) whose row 0 is time n0
        self._n0 = 0
        self._ahead = []
        self._mix = np.full((1, self.n_streams), -np.inf)
        self._bound = np.full((1, self.n_streams), -np.inf)

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

    def _grow(self, cap: int) -> None:
        """Size cumz, the merged prior log-pmf, the whitened signal values
        and v/2 for ``cap`` steps, keeping the cumz rows so far."""
        cumz = np.zeros((cap + 1, self.n_streams, self._width))
        cumz[: self._cap + 1] = self._cumz
        self._cumz = cumz
        self._lp = self.prior.log_pmf_head_merged(cap)
        signals = np.array([m.signal_values(cap) for m in self.models])
        self._sw = whiten(signals, self._ar).T
        # scaled in place: these tables are as long as the path
        self._half_v = self._sw * self._sw
        self._half_v /= self._s2
        self._half_v *= 0.5
        self._cap = cap

    def lookahead(self, block) -> Tuple[np.ndarray, np.ndarray]:
        """Compute the statistics of the next m steps from an (N, m) block
        of observations, without consuming them; ``advance`` then commits
        them one at a time.  Returns the rows of ``log_mix_values`` and of
        ``sup_lower_bounds`` for the looked-ahead steps, each shape (m, N).

        Every statistic is computed here, a block at a time: the increments
        over the carried AR history, the rows of cumz by a cumulative sum,
        and the windowed mixture by the chunked scan, one
        ``np.logaddexp.accumulate`` per chunk segment of the block.
        """
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[0] != self.n_streams:
            raise EngineError(f"expected an observation block of {self.n_streams} rows")
        if self.n < self._n0 + len(self._ahead):
            raise EngineError("looked-ahead steps are still to be committed")
        finite = np.isfinite(block).all(axis=0)
        if not finite.all():
            t = int(np.argmin(finite))
            raise EngineError(f"non-finite observation at step {self.n + t + 1}: "
                              f"{block[:, t]}")
        m = block.shape[1]
        n0 = self.n
        while n0 + m > self._cap:
            self._grow(2 * self._cap)
        # the coefficients of ``llr_coefficients`` for every step and stream;
        # the first ``order`` whitened values only re-read the history
        order = self._history.shape[1]
        hist = np.concatenate((self._history, block), axis=1)
        xt = whiten(hist, self._ar)[:, order:].T
        u = self._sw[n0:n0 + m] * xt / self._s2
        self._history = hist[:, m:]
        inc = (u[:, :, None] * self._grid
               - self._half_v[n0:n0 + m, :, None] * self._grid_sq)
        cumz = self._cumz[n0:n0 + m + 1]
        cumz[1:] = inc
        np.add.accumulate(cumz, axis=0, out=cumz)
        # candidate k = n joins the window [n + 1 - L, n] at step n + 1; its
        # chunk starts at n - c (c = n mod L), and the rest of the window is
        # the previous chunk's suffix from local index c + 1.  ``a`` turns
        # into the prefix scan and then into the windowed mixture b
        L = self._chunk
        a = self._lp[n0:n0 + m, None, None] - self._cumz[n0:n0 + m]
        i = 0
        while i < m:
            n = n0 + i
            c = n % L
            e = min(m, i + L - c)
            seg = a[i:e]
            if c > 0:
                seg[0] = np.logaddexp(self._prefix, seg[0])
            np.logaddexp.accumulate(seg, axis=0, out=seg)
            self._prefix = seg[-1].copy()
            r = min(e - i, L - 1 - c)
            if n >= L and r > 0:
                np.logaddexp(self._suffix[c + 1:c + 1 + r], seg[:r], out=seg[:r])
            if (n0 + e) % L == 0:
                k = slice(n0 + e - L, n0 + e)
                rows = self._lp[k, None, None] - self._cumz[k]
                self._suffix = np.logaddexp.accumulate(rows[::-1], axis=0)[::-1]
            i = e
        # per-grid-point mixture log sum_k pi_k LR_{theta_g}(k, n)
        t1 = self._cumz[n0 + 1:n0 + m + 1] + a
        mix = _lse(t1 + self._logw, axis=2)
        bound = t1.max(axis=2)
        # the last rows so far are those of the committed time n
        self._mix = np.concatenate((self._mix[-1:], mix))
        self._bound = np.concatenate((self._bound[-1:], bound))
        self._ahead = block.T.tolist()
        self._n0 = n0
        return mix, bound

    def advance(self, x) -> None:
        """Consume one observation vector without building a frame.

        A looked-ahead step is committed as it is, and x must equal its
        observation; otherwise x is looked ahead as a block of one."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_streams,):
            raise EngineError(f"expected observation vector of length {self.n_streams}")
        i = self.n - self._n0
        if i == len(self._ahead):
            self.lookahead(x[:, None])
        elif x.tolist() != self._ahead[i]:
            raise EngineError(f"observation at step {self.n + 1} differs from "
                              f"the looked-ahead one: {x}")
        self.n += 1

    def step(self, x) -> StatisticFrame:
        """Consume one observation vector and return the exact frame."""
        self.advance(x)
        return self.frame()

    # -- statistics ------------------------------------------------------

    @property
    def log_mix_values(self) -> np.ndarray:
        """log Lambda^pi_{i,W}(n) for every stream, shape (N,)."""
        return self._mix[self.n - self._n0]

    @property
    def sup_lower_bounds(self) -> np.ndarray:
        """Per-stream lower bounds on the exact log sup statistic:
        max_g log sum_k pi_k LR_{theta_g}(k, n) over the window.  Since
        max_g sum_k <= sum_k max_g, it is below ``log_sup_values``, and it
        is at least ``log_mix_values`` because the weights sum to 1."""
        return self._bound[self.n - self._n0]

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
