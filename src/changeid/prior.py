"""Change-point prior distributions on {-1, 0, 1, 2, ...}.

The change point nu may be negative (change already in effect when
observation starts); all negative mass is collapsed into a single head
probability q at nu = -1.  Three families are supported:

* geometric       -- exponential right tail, decay rate |log(1 - rho)|
* discrete_weibull -- heavy (sub-exponential) tail for shape kappa < 1
* explicit_pmf    -- arbitrary finite table, truncated and renormalized
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["ChangePointPrior", "PriorError"]


# the largest change point a draw returns, int64's largest value; a draw
# at or above _NU_LIMIT, the first float past it, returns _NU_MAX
_NU_MAX = int(np.iinfo(np.int64).max)
_NU_LIMIT = 2.0 ** 63


class PriorError(ValueError):
    """Invalid prior parameters or out-of-domain query."""


class ChangePointPrior:
    """Prior pi_k = P(nu = k) on k in {-1, 0, 1, ...}."""

    GEOMETRIC = "geometric"
    DISCRETE_WEIBULL = "discrete_weibull"
    EXPLICIT = "explicit_pmf"

    def __init__(self, kind: str, q: float = 0.0, *, rho: Optional[float] = None,
                 kappa: Optional[float] = None, scale: Optional[float] = None,
                 probs: Optional[np.ndarray] = None):
        if not 0.0 <= q < 1.0:
            raise PriorError(f"head mass q must be in [0, 1), got {q}")
        self.kind = kind
        self.q = float(q)
        self.rho = rho
        self.kappa = kappa
        self.scale = scale
        self._probs = None
        self._tail = None  # reverse-cumulative table for explicit kind
        self._cdf = None  # sample's search table for explicit kind
        if kind == self.GEOMETRIC:
            if rho is None or not 0.0 < rho < 1.0:
                raise PriorError(f"geometric rho must be in (0, 1), got {rho}")
        elif kind == self.DISCRETE_WEIBULL:
            if kappa is None or not 0.0 < kappa <= 1.0:
                raise PriorError(f"weibull shape must be in (0, 1], got {kappa}")
            if scale is None or not 0.0 < scale < math.inf:
                raise PriorError(
                    f"weibull scale must be positive and finite, got {scale}")
        elif kind == self.EXPLICIT:
            if probs is None:
                raise PriorError("explicit_pmf prior needs a probability table")
            probs = np.asarray(probs, dtype=float)
            if probs.ndim != 1 or probs.size == 0:
                raise PriorError("probability table must be a nonempty 1-d array")
            if np.any(probs < 0) or not np.all(np.isfinite(probs)):
                raise PriorError("probability table entries must be finite and >= 0")
            total = math.fsum(probs.tolist())
            if total <= 0:
                raise PriorError("probability table has no mass")
            # renormalize the k >= 0 part to carry mass 1 - q
            probs = probs * ((1.0 - q) / total)
            # reverse cumulative sum gives exact survivor/pmf consistency:
            # tail[n] = sum_{k >= n} pi_k, tail[H+1] = 0
            tail = np.zeros(probs.size + 1)
            tail[:-1] = np.cumsum(probs[::-1])[::-1]
            self._probs = probs
            self._tail = tail
            self._cdf = np.cumsum(probs) / (1.0 - self.q)
        else:
            raise PriorError(f"unknown prior kind {kind!r}")

    # -- constructors ---------------------------------------------------

    @classmethod
    def geometric(cls, rho: float, q: float = 0.0) -> "ChangePointPrior":
        return cls(cls.GEOMETRIC, q, rho=rho)

    @classmethod
    def discrete_weibull(cls, kappa: float, scale: float, q: float = 0.0) -> "ChangePointPrior":
        return cls(cls.DISCRETE_WEIBULL, q, kappa=kappa, scale=scale)

    @classmethod
    def from_pmf(cls, probs, q: float = 0.0) -> "ChangePointPrior":
        return cls(cls.EXPLICIT, q, probs=probs)

    # -- basic queries ---------------------------------------------------

    def _weibull_log_survivor(self, n) -> np.ndarray:
        # S(n) = exp(-(n / scale)**kappa), S(0) = 1.  A tiny scale makes
        # n / scale overflow to inf, and log S to its limit -inf
        n = np.asarray(n, dtype=float)
        with np.errstate(over="ignore"):
            return -np.power(n / self.scale, self.kappa)

    def pmf(self, k: int) -> float:
        if k < -1:
            raise PriorError(f"pmf defined on k >= -1, got {k}")
        return self.q if k == -1 else float(np.exp(self.log_pmf(k)))

    def survivor(self, n: int) -> float:
        """P(nu >= n) for n >= 0; survivor(0) = 1 - q."""
        if n < 0:
            raise PriorError(f"survivor defined on n >= 0, got {n}")
        return float(np.exp(self.log_survivor(n)))

    def log_survivor(self, n) -> np.ndarray:
        """log P(nu >= n), vectorized over n >= 0 (may be -inf)."""
        n = np.asarray(n)
        if np.any(n < 0):
            raise PriorError("survivor defined on n >= 0")
        head = math.log1p(-self.q)
        if self.kind == self.GEOMETRIC:
            return head + n * math.log1p(-self.rho)
        if self.kind == self.DISCRETE_WEIBULL:
            return head + self._weibull_log_survivor(n)
        tail = self._tail[np.minimum(n, self._tail.size - 1)]
        with np.errstate(divide="ignore"):
            return np.log(tail)

    def log_pmf(self, k) -> np.ndarray:
        """log pi_k, vectorized over k >= 0 (use pmf(-1) for the head)."""
        k = np.asarray(k)
        if np.any(k < 0):
            raise PriorError("log_pmf vectorized form defined on k >= 0")
        head = math.log1p(-self.q)
        if self.kind == self.GEOMETRIC:
            return head + math.log(self.rho) + k * math.log1p(-self.rho)
        if self.kind == self.DISCRETE_WEIBULL:
            ls0 = self._weibull_log_survivor(k)
            ls1 = self._weibull_log_survivor(k + 1)
            # log(S(k) - S(k+1)) without cancellation for tiny tails; where
            # S(k) is 0 in floating point (log -inf), so is the pmf
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(ls0 > -np.inf, ls1 - ls0, -np.inf)
                return head + ls0 + np.log(-np.expm1(step))
        out = np.full(k.shape, -np.inf, dtype=float)
        inside = k < self._probs.size
        with np.errstate(divide="ignore"):
            out[inside] = np.log(self._probs[k[inside]])
        return out

    def log_pmf_head_merged(self, horizon: int) -> np.ndarray:
        """log of (pi_{-1} + pi_0, pi_1, ..., pi_{horizon-1}).

        The head mass is folded into k = 0 because the likelihood ratio from
        k = -1 coincides with the one from k = 0 (no observation at t = 0),
        as logaddexp(log pi_0, log q), which is accurate for a small pi_0.
        """
        if horizon < 1:
            raise PriorError("horizon must be >= 1")
        lp = np.asarray(self.log_pmf(np.arange(horizon)), dtype=float)
        lp[0] = np.logaddexp(lp[0], math.log(self.q)) if self.q > 0 else lp[0]
        return lp

    def sample(self, rng: np.random.Generator) -> int:
        """Draw nu from the prior (nu = -1 with probability q)."""
        # two uniforms per draw, the head's included, and numpy's log and
        # power on one-element arrays, which may round unlike math's: each
        # keeps the change points a seed has always drawn
        u, v = rng.random(1), rng.random(1)
        if u[0] < self.q:
            return -1
        if self.kind == self.EXPLICIT:
            return int(min(np.searchsorted(self._cdf, v, side="right")[0],
                           self._probs.size - 1))
        # a tiny rho or a huge scale draws past int64's range, inf where
        # the quotient or power overflows (or v is 0): past every horizon
        with np.errstate(divide="ignore", over="ignore"):
            if self.kind == self.GEOMETRIC:
                # max{k : (1-rho)^k > v}
                body = float(np.floor(np.log(v) / math.log1p(-self.rho))[0])
                return int(body) if body < _NU_LIMIT else _NU_MAX
            # max{k : exp(-(k/scale)^kappa) > v}
            body = float(np.ceil(self.scale * (-np.log(v)) ** (1.0 / self.kappa))[0])
        return max(int(body) - 1, 0) if body < _NU_LIMIT else _NU_MAX

    # -- tail diagnostics ------------------------------------------------

    def tail_exponent(self) -> float:
        """Decay rate mu = lim |log P(nu >= n)| / n (estimated for tables)."""
        if self.kind == self.GEOMETRIC:
            return -math.log1p(-self.rho)
        if self.kind == self.DISCRETE_WEIBULL:
            if self.kappa < 1.0:
                return 0.0
            return 1.0 / self.scale
        horizon = self._probs.size
        lo, hi = max(1, horizon // 2), max(2, int(horizon * 0.9))
        n = np.arange(lo, hi)
        ls = self.log_survivor(n)
        ok = np.isfinite(ls)
        if ok.sum() < 2:
            return 0.0
        slope = np.polyfit(n[ok], -ls[ok], 1)[0]
        return max(slope, 0.0)
