"""Acceptance gate: end-to-end statistical and equivalence checks.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them).  The statistical checks use fixed seeds and trial counts sized so
that the whole module runs in a few minutes on one core.
"""
import json
import math

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import norm

from changeid import (ARGaussianSignal, ChangePointPrior, ConstantSignal,
                      Detector, ExperimentPlan, MixingMeasure,
                      ThresholdMatrix, calibrate, estimate_delay,
                      estimate_pfa, estimate_pmi, posterior_no_change,
                      psi_threshold, run, run_change_batch, run_null_batch,
                      simulate, validate_conditions)
from changeid.cli import main as cli_main
from conftest import oracle_frame, oracle_verdict

SEED = 20240823


def report(label: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{label} failed: {detail}"


@pytest.fixture(scope="module")
def standard():
    """N=2 i.i.d. Gaussian streams, Theta=[0.25,2], 8-point log grid with
    uniform weights, geometric change-point prior (rho=0.05, q=0),
    thresholds calibrated at alpha = beta = 0.05."""
    prior = ChangePointPrior.geometric(0.05, q=0.0)
    models = [ARGaussianSignal(0.25, 2.0, sigma=1.0),
              ARGaussianSignal(0.25, 2.0, sigma=1.0)]
    mix = MixingMeasure.uniform(0.25, 2.0, 8, spacing="log")
    thresholds = calibrate(0.05, 0.05, n_streams=2)
    return prior, models, mix, thresholds


def test_01_false_alarm_bound(standard):
    prior, models, mix, thresholds = standard
    plan = ExperimentPlan(n_trials=4000, horizon=3000, master_seed=SEED)
    outcomes = run_null_batch(plan, models, prior, mix, thresholds)
    rows = estimate_pfa(outcomes, prior, 2, horizon=plan.horizon)
    ok = all(row["upper"] <= 0.05 for row in rows)
    detail = "  ".join(
        f"stream {r['stream']}: est {r['estimate']:.5f} upper {r['upper']:.5f}"
        for r in rows) + "  target 0.05"
    report("1 false-alarm bound", ok, detail)


def test_02_misidentification_bound(standard):
    prior, models, mix, thresholds = standard
    plan = ExperimentPlan(n_trials=4000, horizon=3000, master_seed=SEED)
    details, ok = [], True
    for stream in (1, 2):
        for theta in (0.5, 1.0):
            outcomes = run_change_batch(plan, models, prior, mix, thresholds,
                                        stream=stream, theta=theta)
            for row in estimate_pmi(outcomes, stream, 2):
                ok &= row["upper"] <= 0.05
                details.append(
                    f"{stream}->{row['decided_stream']} theta={theta:g}: "
                    f"est {row['estimate']:.5f} upper {row['upper']:.5f}")
    report("2 misidentification bound", ok,
           "  ".join(details) + "  target 0.05")


def test_03_first_order_delay_ladder(standard):
    prior, models, mix, _ = standard
    base = calibrate(0.05, 0.05, n_streams=2).log_a
    scale = base[0, 2] / base[0, 0]      # competitor / no-change ratio
    mu = prior.tail_exponent()
    info = models[0].info_number(1.0)
    inf_02 = min(models[1].info_number(g) for g in mix.grid)
    ratios1, ratios2, details = [], [], []
    for log_a0 in (6.0, 9.0, 14.0):
        th = ThresholdMatrix(log_a=np.array(
            [[log_a0, np.nan, scale * log_a0],
             [log_a0, scale * log_a0, np.nan]]))
        plan = ExperimentPlan(n_trials=2000, horizon=3000, master_seed=SEED)
        outcomes = run_change_batch(plan, models, prior, mix, th,
                                    stream=1, theta=1.0)
        psi = psi_threshold(th, 1, info, {2: inf_02}, mu)
        d1 = estimate_delay(outcomes, stream=1, r=1)
        d2 = estimate_delay(outcomes, stream=1, r=2)
        ratios1.append(d1["estimate"] / psi)
        ratios2.append(d2["estimate"] / psi ** 2)
        details.append(f"logA0={log_a0:g}: R1/Psi {ratios1[-1]:.3f} "
                       f"R2/Psi^2 {ratios2[-1]:.3f}")
    ok_r1 = (all(0.5 <= r <= 1.5 for r in ratios1)
             and abs(ratios1[2] - 1.0) < abs(ratios1[0] - 1.0))
    ok_r2 = (all(0.3 <= r <= 2.0 for r in ratios2)
             and abs(ratios2[2] - 1.0) < abs(ratios2[0] - 1.0))
    report("3 first-order delay ladder", ok_r1 and ok_r2,
           "  ".join(details)
           + f"  [r=1 in [0.5,1.5] + trend: {ok_r1}; "
             f"r=2 in [0.3,2.0] + trend: {ok_r2}]")


def test_04_ar1_information_rate():
    model = ARGaussianSignal(theta_min=0.25, theta_max=2.0, sigma=1.0,
                             ar_coeffs=(0.5,), signal=ConstantSignal())
    rows = validate_conditions([model], [2.0], master_seed=SEED,
                               n_paths=100, n_values=(10_000,),
                               tolerance=0.02)
    row = rows[0]
    ok = row["target"] == pytest.approx(0.5) and row["relative_deviation"] <= 0.02
    report("4 AR(1) information rate", ok,
           f"mean lambda(0,n)/n = {row['mean_rate']:.5f}, target 0.5, "
           f"rel dev {row['relative_deviation']:.4f} <= 0.02")


def test_05_oracle_equivalence():
    prior = ChangePointPrior.geometric(0.08, q=0.1)
    models = [ARGaussianSignal(0.25, 2.0), ARGaussianSignal(0.25, 2.0)]
    mixes = [MixingMeasure.uniform(0.25, 2.0, 5),
             MixingMeasure.uniform(0.3, 1.8, 5)]
    grids = [m.grid for m in mixes]
    weights = [m.weights for m in mixes]
    th = calibrate(0.2, 0.2, n_streams=2)
    master = np.random.default_rng(SEED)
    worst = 0.0
    verdicts_match = True
    for trial in range(50):
        n = int(master.integers(5, 51))
        stream = int(master.integers(0, 3))
        path = simulate(models, n, master, stream=stream,
                        theta=1.2 if stream else 0.0,
                        nu=int(master.integers(0, n)) if stream else None)
        det = Detector(prior, models, mixes)
        for t in range(n):
            frame = det.step(path.observations[:, t])
            o_mix, o_sup, _, _ = oracle_frame(path.observations, prior,
                                              grids, weights, t + 1)
            rel = max(np.max(np.abs(frame.log_mix - o_mix) /
                             np.maximum(np.abs(o_mix), 1.0)),
                      np.max(np.abs(frame.log_sup - o_sup) /
                             np.maximum(np.abs(o_sup), 1.0)))
            worst = max(worst, float(rel))
        v = run(models, prior, mixes, th, path)
        t_o, d_o = oracle_verdict(path.observations, prior, grids, weights,
                                  th.log_a)
        verdicts_match &= (v.time, v.stream) == (t_o, d_o)
    ok = worst <= 1e-9 and verdicts_match
    report("5 oracle equivalence", ok,
           f"worst relative log error {worst:.3e} <= 1e-09, "
           f"verdicts match: {verdicts_match}")


def test_06_window_limited_equivalence(standard):
    prior, models, mix, thresholds = standard
    master = np.random.default_rng(SEED + 1)
    # (a) window covering the horizon reproduces unbounded verdicts exactly
    exact = True
    for trial in range(100):
        stream = trial % 3
        path = simulate(models, 120, master, stream=stream,
                        theta=1.0 if stream else 0.0,
                        nu=int(master.integers(0, 60)) if stream else None)
        v_full = run(models, prior, mix, thresholds, path)
        v_win = run(models, prior, mix, thresholds, path, window=120)
        exact &= (v_full.stopped, v_full.time, v_full.stream) == \
                 (v_win.stopped, v_win.time, v_win.stream)
    # (b) window 200 changes no verdict when the alarm lands within 150
    # steps of the change point
    checked = 0
    consistent = True
    for trial in range(100):
        nu = int(master.integers(0, 101))
        path = simulate(models, 400, master, stream=1 + trial % 2,
                        theta=1.0, nu=nu)
        v_full = run(models, prior, mix, thresholds, path)
        if not (v_full.stopped and v_full.time <= nu + 150):
            continue
        checked += 1
        v_win = run(models, prior, mix, thresholds, path, window=200)
        consistent &= (v_win.stopped, v_win.time, v_win.stream) == \
                      (True, v_full.time, v_full.stream)
    ok = exact and consistent and checked >= 50
    report("6 window-limited equivalence", ok,
           f"full-window exact on 100 paths: {exact}; "
           f"window=200 consistent on {checked} near-change alarms: {consistent}")


def test_07_unit_expectation_under_no_change():
    theta, steps, trials = 0.5, 5, 100_000
    rng = np.random.default_rng(SEED + 2)
    x = rng.standard_normal((trials, steps))
    lr = np.exp(theta * x.sum(axis=1) - steps * theta ** 2 / 2.0)
    mean = float(np.mean(lr))
    se = float(np.std(lr, ddof=1) / math.sqrt(trials))
    ok = abs(mean - 1.0) <= 3.0 * se
    report("7 unit expectation", ok,
           f"E[LR(0,5)] = {mean:.5f} +/- {se:.5f} (3 SE window around 1)")


def test_08_posterior_identity():
    prior = ChangePointPrior.geometric(0.1, q=0.15)
    model = ARGaussianSignal(0.25, 2.0)
    mix = MixingMeasure.uniform(0.25, 2.0, 5)
    rng = np.random.default_rng(SEED + 3)
    x = rng.standard_normal(30) + np.where(np.arange(30) >= 12, 0.8, 0.0)
    det = Detector(prior, [model], mix)
    worst = 0.0
    lw = np.log(mix.weights)
    null_lp = norm.logpdf(x)
    for n in range(1, 31):
        frame = det.step(np.array([x[n - 1]]))
        via_ratio = posterior_no_change(frame, 1)
        # direct Bayes posterior over hypotheses {nu = k < n} x grid and
        # {nu >= n}, from joint densities
        lp = np.array([float(prior.log_pmf(np.array([k]))[0])
                       for k in range(n)])
        lp[0] = np.logaddexp(lp[0], math.log(prior.q))
        parts = []
        for k in range(n):
            for g, theta in enumerate(mix.grid):
                loglik = (null_lp[:k].sum()
                          + norm.logpdf(x[k:n], theta, 1.0).sum())
                parts.append(lp[k] + lw[g] + loglik)
        log_nochange = math.log(prior.survivor(n)) + null_lp[:n].sum()
        log_marginal = logsumexp(parts + [log_nochange])
        direct = math.exp(log_nochange - log_marginal)
        worst = max(worst, abs(via_ratio - direct))
    ok = worst <= 1e-10
    report("8 posterior identity", ok,
           f"max |1/(1+ratio) - direct Bayes| = {worst:.3e} <= 1e-10")


def test_09_byte_identical_reports(tmp_path):
    import yaml
    cfg = {
        "prior": {"kind": "geometric", "rho": 0.05, "q": 0.0},
        "models": [{"kind": "gaussian", "theta_min": 0.25, "theta_max": 2.0},
                   {"kind": "gaussian", "theta_min": 0.25, "theta_max": 2.0}],
        "mixing": {"min": 0.25, "max": 2.0, "count": 8, "spacing": "log",
                   "weights": "uniform"},
        "targets": {"alpha": 0.05, "beta": 0.05},
        "horizon": 300, "trials": 40, "seed": SEED, "theta_points": [1.0],
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    blobs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / name
        cli_main(["simulate", "--config", str(cfg_path),
                  "--out", str(out), "--threads", str(threads)])
        blobs.append((out / "report.json").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report("9 deterministic reports", ok,
           "identical bytes across two runs and thread counts {1, 8}")
