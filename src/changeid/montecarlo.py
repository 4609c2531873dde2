"""Monte Carlo estimation of the rule's operating characteristics.

Estimators implemented here:

* false-alarm probability per identified stream, via the survivor-weighting
  identity PFA_i = E[P(nu >= T); d = i] under the no-change law -- one
  simulation pass, exact reweighting, low variance at small targets;
* misidentification probability P(d = j, T < inf | T > nu) on change-present
  trials with nu drawn from the prior;
* conditional and integrated detection-delay moments (the nu = -1 head
  convention contributes T, not T + 1);
* law-of-large-numbers diagnostics checking that the per-step statistic
  drifts at the model's information rate.

Trials are independent tasks keyed by (master seed, batch tag, trial
index); results are reduced in trial-index order with exactly rounded
summation, so reports are bit-identical regardless of worker count.
"""
from __future__ import annotations

import csv
import io
import json
import math
import zlib
from dataclasses import dataclass, field, asdict
from functools import partial
from typing import List, Optional, Sequence, Union

import numpy as np

from .engine import MixingMeasure, stream_tables
from .models import ARGaussianSignal, ModelError, simulate
from .prior import ChangePointPrior
from .rule import ThresholdMatrix, Verdict, run

__all__ = [
    "ExperimentPlan", "TrialOutcome", "RiskReport", "MonteCarloError",
    "run_null_batch", "run_change_batch",
    "estimate_pfa", "estimate_pmi", "estimate_delay",
    "validate_conditions", "clopper_pearson_upper",
]


class MonteCarloError(RuntimeError):
    """Estimator called with no usable trials."""


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to reproduce a simulation campaign."""

    n_trials: int
    horizon: int
    master_seed: int
    window: Optional[int] = None
    threads: int = 1

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("need at least one trial")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass(frozen=True)
class TrialOutcome:
    """Result of the rule on one simulated path."""

    trial_index: int
    stopped: bool
    time: Optional[int]
    stream: Optional[int]          # identified stream, 1..N
    true_nu: int
    true_stream: int
    true_theta: float


def _batch_id(tag: str) -> int:
    """Stable integer salt so different batches draw independent trials."""
    return zlib.crc32(tag.encode("utf-8"))


def _trial_rng(plan: ExperimentPlan, tag: str, trial: int) -> np.random.Generator:
    return np.random.default_rng((plan.master_seed, _batch_id(tag), trial))


def _run_one(plan: ExperimentPlan, models, prior, mixing, thresholds,
             tag: str, stream: int, theta: float, nu,
             trial: int) -> TrialOutcome:
    rng = _trial_rng(plan, tag, trial)
    path = simulate(models, plan.horizon, rng, stream=stream, theta=theta,
                    nu=nu, prior=prior if stream else None)
    verdict = run(models, prior, mixing, thresholds, path, window=plan.window)
    return TrialOutcome(
        trial_index=trial, stopped=verdict.stopped, time=verdict.time,
        stream=verdict.stream, true_nu=path.true_nu,
        true_stream=path.true_stream, true_theta=path.true_theta)


def _run_batch(plan: ExperimentPlan, models, prior, mixing, thresholds,
               tag: str, stream: int, theta: float,
               nu) -> List[TrialOutcome]:
    one = partial(_run_one, plan, models, prior, mixing, thresholds, tag,
                  stream, theta, nu)
    if plan.threads <= 1:
        return [one(t) for t in range(plan.n_trials)]
    # imported where used, like scipy.special below, so that importing
    # the package and ``detect`` load neither
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=plan.threads) as pool:
        # executor.map preserves task order, so the reduction below sees
        # trials in index order no matter how they were scheduled
        return list(pool.map(one, range(plan.n_trials), chunksize=64))


def run_null_batch(plan: ExperimentPlan, models: Sequence[ARGaussianSignal],
                   prior: ChangePointPrior,
                   mixing: Union[MixingMeasure, Sequence[MixingMeasure]],
                   thresholds: ThresholdMatrix) -> List[TrialOutcome]:
    """Simulate trials with no change anywhere."""
    return _run_batch(plan, models, prior, mixing, thresholds,
                      tag="null", stream=0, theta=0.0, nu=None)


def run_change_batch(plan: ExperimentPlan, models: Sequence[ARGaussianSignal],
                     prior: ChangePointPrior,
                     mixing: Union[MixingMeasure, Sequence[MixingMeasure]],
                     thresholds: ThresholdMatrix, stream: int, theta: float,
                     nu: Optional[int] = None) -> List[TrialOutcome]:
    """Simulate change-present trials on ``stream`` with amplitude theta.

    ``nu`` fixes the change point; None draws it from the prior per trial.
    """
    if not 1 <= stream <= len(models):
        raise ValueError(f"stream must be in 1..{len(models)}")
    tag = (f"change:s{stream}:theta={float(theta)!r}:"
           f"nu={'prior' if nu is None else int(nu)}")
    return _run_batch(plan, models, prior, mixing, thresholds,
                      tag=tag, stream=stream, theta=theta, nu=nu)


# -- interval helpers ----------------------------------------------------

def clopper_pearson_upper(k: int, n: int, confidence: float = 0.95) -> float:
    """Exact one-sided upper confidence limit for a binomial proportion."""
    if n < 1:
        raise MonteCarloError("need at least one trial for a proportion CI")
    if k >= n:
        return 1.0
    from scipy.special import betaincinv
    return float(betaincinv(k + 1, n - k, confidence))


def _fsum(values) -> float:
    return math.fsum(float(v) for v in values)


# -- estimators ----------------------------------------------------------

def estimate_pfa(outcomes: Sequence[TrialOutcome], prior: ChangePointPrior,
                 n_streams: int, confidence: float = 0.95, *,
                 horizon: int):
    """Survivor-weighted false-alarm estimates from no-change trials.

    Returns one dict per stream with the point estimate, a one-sided upper
    confidence limit, and the censoring bookkeeping term (upper bound on
    the mass censored trials could contribute).  The upper limit is the
    smaller of the normal-approximation limit on the weighted mean and the
    exact binomial limit on the alarm indicator, which dominates the
    weighted mean because every weight is at most 1.
    """
    n = len(outcomes)
    if n == 0:
        raise MonteCarloError("no completed trials")
    n_censored = sum(1 for o in outcomes if not o.stopped)
    censor_term = prior.survivor(horizon + 1) * n_censored / n
    from scipy.special import ndtri
    z = float(ndtri(confidence))
    rows = []
    for i in range(1, n_streams + 1):
        weights = [prior.survivor(o.time) if (o.stopped and o.stream == i) else 0.0
                   for o in outcomes]
        k_alarm = sum(1 for o in outcomes if o.stopped and o.stream == i)
        point = _fsum(weights) / n
        var = max(_fsum((w - point) ** 2 for w in weights) / max(n - 1, 1), 0.0)
        normal_up = point + z * math.sqrt(var / n)
        cp_up = clopper_pearson_upper(k_alarm, n, confidence)
        rows.append({
            "stream": i,
            "estimate": point,
            "upper": min(normal_up, cp_up),
            "n_trials": n,
            "n_alarms": k_alarm,
            "censor_term": censor_term,
        })
    return rows


def estimate_pmi(outcomes: Sequence[TrialOutcome], stream: int,
                 n_streams: int, confidence: float = 0.95):
    """Misidentification estimates P(d = j, T < inf | T > nu) for true
    ``stream``, one dict per competitor j, with exact one-sided upper CIs."""
    eligible = [o for o in outcomes
                if (o.stopped and o.time > o.true_nu) or not o.stopped]
    m = len(eligible)
    if m == 0:
        raise MonteCarloError("no trials with T > nu")
    rows = []
    for j in range(1, n_streams + 1):
        if j == stream:
            continue
        k = sum(1 for o in eligible if o.stopped and o.stream == j)
        rows.append({
            "true_stream": stream,
            "decided_stream": j,
            "estimate": k / m,
            "upper": clopper_pearson_upper(k, m, confidence),
            "n_eligible": m,
            "n_wrong": k,
        })
    return rows


def estimate_delay(outcomes: Sequence[TrialOutcome], stream: int, r: int = 1,
                   k: Optional[int] = None, confidence: float = 0.95):
    """Detection-delay moment of order r for decisions on ``stream``.

    ``k`` fixes the conditioning change point; None uses each trial's own
    drawn nu (the prior-integrated risk).  The head convention nu = -1
    contributes T to the delay, not T + 1.  Censored trials are excluded
    and counted.
    """
    if r < 1:
        raise ValueError("moment order r must be >= 1")
    delays = []
    n_censored = 0
    for o in outcomes:
        cp = o.true_nu if k is None else k
        if not o.stopped:
            n_censored += 1
            continue
        if o.stream != stream or o.time <= cp:
            continue
        delays.append(float(o.time - max(cp, 0)))
    if not delays:
        raise MonteCarloError("empty conditioning set {T > k, d = stream}")
    vals = [d ** r for d in delays]
    m = len(vals)
    mean = _fsum(vals) / m
    var = _fsum((v - mean) ** 2 for v in vals) / max(m - 1, 1)
    from scipy.special import ndtri
    half = float(ndtri(0.5 + confidence / 2.0)) * math.sqrt(var / m)
    return {
        "stream": stream,
        "r": r,
        "k": k,
        "estimate": mean,
        "lower": mean - half,
        "upper": mean + half,
        "n_used": m,
        "n_censored": n_censored,
    }


def validate_conditions(models: Sequence[ARGaussianSignal],
                        thetas: Sequence[float], master_seed: int,
                        n_paths: int = 100,
                        n_values: Sequence[int] = (1000, 10_000),
                        tolerance: float = 0.05):
    """Law-of-large-numbers diagnostics for the per-step statistic drift.

    For each model and theta, simulates post-change paths (change at 0) and
    reports the mean of lambda(0, n)/n against the information rate, plus a
    pre-change sign check (the drift under no change must be negative).
    Rows whose relative deviation exceeds ``tolerance`` are flagged.  A
    theta with information number 0 raises ``ModelError``.
    """
    rows = []
    for s, model in enumerate(models, start=1):
        for theta in map(float, thetas):
            target = model.info_number(theta)
            if target == 0.0:
                raise ModelError(f"stream {s}: information number is 0 at "
                                 f"theta={theta:g}, so there is no drift to check")
            for n in n_values:
                # the detector's increments on a one-point grid at theta
                tab = stream_tables([model], [MixingMeasure([theta], [1.0])], n)
                sig = theta * model.signal_values(n)
                hist = np.zeros((1, tab.ar.shape[1] + n))
                post = np.empty(n_paths)
                pre = np.empty(n_paths)
                for p in range(n_paths):
                    rng = np.random.default_rng(
                        (master_seed, _batch_id(f"slln:s{s}:theta={theta!r}:n={n}"), p))
                    hist[0, -n:] = model.sample_noise(n, rng)
                    pre[p] = np.sum(tab.increments(0, hist)) / n
                    hist[0, -n:] += sig
                    post[p] = np.sum(tab.increments(0, hist)) / n
                rate = float(np.mean(post))
                rel = abs(rate - target) / target
                rows.append({
                    "stream": s, "theta": theta, "n": int(n),
                    "mean_rate": rate, "target": target,
                    "relative_deviation": rel,
                    "pre_change_rate": float(np.mean(pre)),
                    "pre_change_negative": bool(np.mean(pre) < 0),
                    "ok": bool(rel <= tolerance and np.mean(pre) < 0),
                })
    return rows


# -- report --------------------------------------------------------------

def jsonable(obj):
    """Recursively convert to plain JSON types; non-finite floats -> null."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    return obj


def canonical_json(obj) -> str:
    """``jsonable(obj)`` with sorted keys, indent 2 and a trailing newline:
    equal objects serialize to identical bytes."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


@dataclass
class RiskReport:
    """Flat, serialization-friendly record of a simulation campaign.

    Each table is a list of dicts (one estimator cell per entry);
    ``theory`` carries the closed-form bounds and delay scales evaluated
    for the same configuration so ratio columns name both sides.
    """

    plan: dict
    pfa: list = field(default_factory=list)
    pmi: list = field(default_factory=list)
    delay: list = field(default_factory=list)
    theory: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)
    censoring: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)

    def check_censor_budget(self, budget: float = 0.01) -> None:
        """Flag the report when change-present censoring exceeds budget."""
        total = self.censoring.get("change_trials", 0)
        censored = self.censoring.get("change_censored", 0)
        if total and censored / total >= budget:
            self.flags.append(
                f"censor budget exceeded: {censored}/{total} change-present "
                f"trials censored (budget {budget:g})")

    def to_json(self) -> str:
        return canonical_json(asdict(self))

    def to_csv(self) -> str:
        """One row per estimator cell: table, cell index, key, repr(value)."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["table", "cell", "key", "value"])
        for table in ("pfa", "pmi", "delay", "diagnostics"):
            for idx, cell in enumerate(getattr(self, table)):
                for key in sorted(cell):
                    writer.writerow([table, idx, key, repr(cell[key])])
        for key in sorted(self.theory):
            writer.writerow(["theory", 0, key, repr(self.theory[key])])
        return buf.getvalue()
