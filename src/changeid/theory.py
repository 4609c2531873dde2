"""Closed-form operating characteristics: risk bounds and first-order
delay approximations.

All bounds take thresholds in the ThresholdMatrix layout (column 0 = the
no-change competitor).  Information numbers are supplied by the model
layer (``ARGaussianSignal.info_number``).
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

from .rule import ThresholdMatrix

__all__ = ["pfa_bound", "pmi_bound", "psi_threshold"]


def pfa_bound(thresholds: ThresholdMatrix):
    """Per-stream bounds (1 + A_i0)^-1 and their total."""
    per_stream = 1.0 / (1.0 + thresholds.linear()[:, 0])
    return per_stream, float(per_stream.sum())


def pmi_bound(thresholds: ThresholdMatrix):
    """Pairwise bounds (1 + A_i0) / (A_i0 A_ji) and their row sums; 1 / A_ji
    where A_i0 overflows, and inf where A_i0 or A_ji underflows to 0."""
    a = thresholds.linear()
    n = thresholds.n_streams
    pair = np.full((n, n), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n):
            # (1 + A_i0) / A_i0 tends to 1 as A_i0 overflows to inf
            prefactor = 1.0 if np.isinf(a[i, 0]) else (1.0 + a[i, 0]) / a[i, 0]
            for j in range(n):
                if j != i:
                    pair[i, j] = prefactor / a[j, i + 1]
        rows = np.nansum(pair, axis=1)
    return pair, rows


def psi_threshold(thresholds: ThresholdMatrix, stream: int, info: float,
                  competitor_info: Mapping[int, float], mu: float) -> float:
    """First-order expected-delay scale at given thresholds:

        max( log A_i0 / (I_i + mu),  max_j log A_ij / (I_i + min(mu, inf I_0j)) )

    ``info`` is I_i and ``competitor_info`` maps competitor stream j
    (1-based) to inf I_0j over stream j's mixing grid, where the detector's
    denominator optimizes.  Stream j has no change, so its statistic falls
    at min(mu, inf I_0j): the prior terms with k near n decay at mu.
    """
    i = stream - 1
    # a log threshold near float max over a rate below 1 overflows to inf
    with np.errstate(over="ignore"):
        best = thresholds.log_a[i, 0] / (info + mu)
        for j in range(1, thresholds.n_streams + 1):
            if j != stream:
                rate = info + min(competitor_info[j], mu)
                best = max(best, thresholds.log_a[i, j] / rate)
    return best
