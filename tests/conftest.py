"""Shared brute-force oracles for the test suite.

The oracle recomputes every statistic from first principles: per-step log
density ratios via scipy's normal logpdf, explicit products over all
candidate change points k and grid parameters, and logsumexp reduction.
It shares no code path with the incremental engine.

``oracle_read_data_csv`` is the data-CSV reader that checks one row at a
time with Python's ``int`` and ``float``; the CLI's table reader must give
the same array or the same error on every file.
"""
import csv
import math

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import norm

from changeid.config import ConfigError


def oracle_llr_table(x, grid, sigma=1.0, signal=None):
    """log LR_theta(k, n) for one stream: shape (n, len(grid)) rows k=0..n-1,
    entry [k, g] = sum_{t=k+1..n} [log phi_{theta S_t}(x_t) - log phi_0(x_t)]
    with signal values S_t (all ones when ``signal`` is None)."""
    n = x.size
    s = np.ones(n) if signal is None else np.asarray(signal, dtype=float)[:n]
    loc = s[:, None] * np.asarray(grid)[None, :]
    inc = (norm.logpdf(x[:, None], loc=loc, scale=sigma)
           - norm.logpdf(x[:, None], loc=0.0, scale=sigma))
    csum = np.vstack([np.zeros(len(grid)), np.cumsum(inc, axis=0)])
    # log LR(k, n) = csum[n] - csum[k]
    return csum[n] - csum[:n]


def oracle_frame(obs, prior, grids, weights, n, sigma=1.0, window=None,
                 signals=None):
    """Exact statistics at time n for i.i.d. Gaussian streams, each with
    post-change mean theta*S_t (``signals[s]`` holds stream s's S_t values;
    None means S_t = 1 on every stream).

    Returns (log_mix, log_sup, log_survivor, log_ratio) with the same
    layout as the engine's frame.
    """
    n_streams = obs.shape[0]
    lp = np.array([prior.log_pmf(k) for k in range(n)], dtype=float)
    lp[0] = np.logaddexp(lp[0], np.log(prior.q)) if prior.q > 0 else lp[0]
    lo = 0 if window is None else max(0, n - window)
    log_mix = np.empty(n_streams)
    log_sup = np.empty(n_streams)
    for s in range(n_streams):
        table = oracle_llr_table(obs[s, :n], grids[s], sigma=sigma,
                                 signal=None if signals is None else signals[s])[lo:]
        lw = np.log(np.asarray(weights[s]))
        log_mix[s] = logsumexp(lp[lo:, None] + lw[None, :] + table)
        log_sup[s] = logsumexp(lp[lo:] + table.max(axis=1))
    log_survivor = float(np.log(prior.survivor(n)))
    ratio = np.empty((n_streams, n_streams + 1))
    ratio[:, 0] = log_mix - log_survivor
    for j in range(1, n_streams + 1):
        ratio[:, j] = log_mix - log_sup[j - 1]
        ratio[j - 1, j] = np.nan
    return log_mix, log_sup, log_survivor, ratio


def oracle_verdict(obs, prior, grids, weights, log_a, sigma=1.0, window=None):
    """First time any stream crosses all its thresholds; smallest index wins.

    Returns (time, stream) or (None, None) when the horizon is exhausted.
    """
    n_streams, horizon = obs.shape
    for n in range(1, horizon + 1):
        _, _, _, ratio = oracle_frame(obs, prior, grids, weights, n,
                                      sigma=sigma, window=window)
        for i in range(n_streams):
            ok = True
            for j in range(n_streams + 1):
                if j == i + 1:
                    continue
                if not ratio[i, j] >= log_a[i, j]:
                    ok = False
                    break
            if ok:
                return n, i + 1
    return None, None


def oracle_read_data_csv(path, n_streams):
    """Observations (N, T) of a data CSV, read one csv row at a time."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ConfigError(f"data file {path} is empty")
            expected = ["t"] + [f"stream_{i}" for i in range(1, n_streams + 1)]
            if [h.strip() for h in header] != expected:
                raise ConfigError(
                    f"data header must be {','.join(expected)}, got {','.join(header)}")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != n_streams + 1:
                    raise ConfigError(f"row {lineno}: expected {n_streams + 1} cells")
                try:
                    t = int(row[0])
                    vals = [float(c) for c in row[1:]]
                except ValueError:
                    raise ConfigError(f"row {lineno}: non-numeric cell")
                if any(math.isnan(v) or math.isinf(v) for v in vals):
                    raise ConfigError(f"row {lineno}: non-finite observation")
                if t != lineno - 1:
                    raise ConfigError(
                        f"row {lineno}: time index must be {lineno - 1}, got {t}")
                rows.append(vals)
    except OSError as exc:
        raise ConfigError(f"cannot read data file: {exc}")
    if not rows:
        raise ConfigError(f"data file {path} has a header but no rows")
    return np.asarray(rows, dtype=float).T


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
