"""SHA-256 digests that pin changeid's answers, written to tests/golden.json.

Usage (from the repository root):

    python3 scripts/golden.py [--src DIR] [--out FILE]

``tests/test_golden.py`` derives every entry again and compares it with
the file, so a change that moves a verdict, a report byte or a statistic
bit of these configs fails tier-1.  The file has four sections:

* ``verdicts``: SHA-256 over (stopped, time, stream) of every trial of a
  small campaign (a null batch, then a change batch on stream 1 at
  theta = 1 with nu drawn from the prior).  The acceptance config (N = 2
  Gaussian streams, an 8-point log grid on [0.25, 2], geometric rho =
  0.05) in full mode and at windows 1, 7 and 50; an explicit prior with
  zeros; N = 1; N = 8 with G = 32; and N = 3 with G = 5, whose N x G is
  odd.
* ``reports``: SHA-256 of ``simulate``'s report.json and report.csv on
  the acceptance config, in full mode and at window 50.
* ``detect``: SHA-256 of ``detect``'s stdout on a long generated path
  (N = 2, full mode), on a wide-window config (N = 8 AR(1) streams with a
  sine signal, G = 32, window 200) and on N = 3, G = 5 at window 50.
* ``statistics``: on the same detect inputs, SHA-256 over the float64
  bytes of every ``Detector.lookahead`` row (mixture, then screen bound)
  and of ``log_sup_values`` at every 37th step.

Verdicts and report bytes are the gate: a change that claims no value
change leaves them as they are.  The statistic section is a tripwire: a
change that moves rounding regenerates it with this script and says so.
The file records the numpy and Python versions it was written with; the
test fails on another toolchain, naming both, rather than compare bits
that a toolchain change may move.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden.json")

GAUSSIAN = {"kind": "gaussian", "theta_min": 0.25, "theta_max": 2.0}
ACCEPTANCE = {
    "prior": {"kind": "geometric", "rho": 0.05, "q": 0.0},
    "models": [GAUSSIAN] * 2,
    "mixing": {"min": 0.25, "max": 2.0, "count": 8, "spacing": "log",
               "weights": "uniform"},
    "targets": {"alpha": 0.05, "beta": 0.05},
}
# no mass before k = 20, between 60 and 130, and after 250
HOLES = [0.0] * 20 + [1.0] * 40 + [0.0] * 70 + [1.0] * 120
SINE = {"kind": "ar_gaussian", "theta_min": 0.25, "theta_max": 2.0,
        "ar_coeffs": [0.5], "signal": {"kind": "sine", "omega": 0.3,
                                       "amplitude": 3.0}}


def _config(base=ACCEPTANCE, **changes) -> dict:
    cfg = json.loads(json.dumps(base))
    for key, value in changes.items():
        if key == "count":
            cfg["mixing"]["count"] = value
        else:
            cfg[key] = value
    return cfg


# name: (config, trials per batch, horizon)
CAMPAIGNS = {
    "acceptance-full": (_config(), 40, 400),
    "acceptance-w1": (_config(window=1), 40, 400),
    "acceptance-w7": (_config(window=7), 40, 400),
    "acceptance-w50": (_config(window=50), 40, 400),
    "explicit-zeros": (_config(prior={"kind": "explicit_pmf", "probs": HOLES,
                                      "q": 0.1}), 40, 300),
    "n1": (_config(models=[GAUSSIAN]), 40, 400),
    "n8-g32": (_config(models=[GAUSSIAN] * 8, count=32), 12, 300),
    "n3-g5-w7": (_config(models=[GAUSSIAN] * 3, count=5, window=7), 30, 300),
}
DETECT_TARGETS = {"alpha": 1e-6, "beta": 1e-6}
# name: (config, rows, changed stream, nu, theta); the data seed is the
# entry's index
DETECTS = {
    "long": (_config(prior={"kind": "geometric", "rho": 1e-4},
                     targets=DETECT_TARGETS), 6000, 2, 4500, 0.5),
    "wide-window": (_config(prior={"kind": "geometric", "rho": 1e-4},
                            models=[SINE] * 8, count=32, window=200,
                            targets=DETECT_TARGETS), 1500, 4, 1200, 0.5),
    "n3-g5-w50": (_config(models=[GAUSSIAN] * 3, count=5, window=50,
                          targets=DETECT_TARGETS), 800, 3, 600, 1.0),
}
REPORTS = {"acceptance-full": _config(horizon=300, trials=40, seed=7,
                                      theta_points=[1.0]),
           "acceptance-w50": _config(horizon=300, trials=40, seed=7,
                                     theta_points=[1.0], window=50)}
LOOKAHEAD_BLOCK = 128
FRAME_EVERY = 37


def toolchain() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_config(tmp: str, name: str, cfg: dict) -> str:
    import yaml
    path = os.path.join(tmp, f"{name}.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return path


def _objects(path: str):
    """The prior, models, mixing measure and thresholds a config builds."""
    from changeid import config
    cfg = config.load_config(path)
    return (cfg, config.build_prior(cfg.prior), config.build_models(cfg.models),
            config.build_mixing(cfg.mixing), config.build_thresholds(cfg))


def _campaign(path: str, trials: int, horizon: int) -> str:
    from changeid import montecarlo
    cfg, prior, models, mixing, thresholds = _objects(path)
    plan = montecarlo.ExperimentPlan(n_trials=trials, horizon=horizon,
                                     master_seed=7, window=cfg.window)
    outcomes = (montecarlo.run_null_batch(plan, models, prior, mixing,
                                          thresholds)
                + montecarlo.run_change_batch(plan, models, prior, mixing,
                                              thresholds, 1, 1.0))
    rows = [[o.stopped, o.time, o.stream] for o in outcomes]
    return _sha(json.dumps(rows).encode())


def _detect_data(index: int, cfg: dict, rows: int, stream: int, nu: int,
                 theta: float) -> np.ndarray:
    """Observations (N, rows): AR noise from rest with the models'
    coefficients, plus theta times the signal on ``stream`` after nu."""
    from changeid import config
    models = config.build_models(cfg["models"])
    rng = np.random.default_rng((2026, index))
    obs = rng.standard_normal((len(models), rows))
    for s, model in enumerate(models):
        if model.ar_coeffs:
            for t in range(1, rows):
                obs[s, t] += sum(a * obs[s, t - 1 - i]
                                 for i, a in enumerate(model.ar_coeffs)
                                 if t > i)
    obs[stream - 1, nu:] += theta * models[stream - 1].signal_values(rows)[nu:]
    return obs


def _write_csv(tmp: str, name: str, obs: np.ndarray) -> str:
    path = os.path.join(tmp, f"{name}.csv")
    header = ",".join(["t"] + [f"stream_{s + 1}" for s in range(len(obs))])
    lines = [header] + [",".join([str(t + 1)] + [repr(float(v)) for v in col])
                        for t, col in enumerate(obs.T)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _cli(argv) -> tuple:
    """Exit code and stdout of ``changeid`` with ``argv``."""
    from changeid import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _statistics(path: str, obs: np.ndarray) -> str:
    from changeid.engine import Detector
    cfg, prior, models, mixing, _ = _objects(path)
    det = Detector(prior, models, mixing, window=cfg.window,
                   capacity=obs.shape[1])
    digest = hashlib.sha256()
    for lo in range(0, obs.shape[1], LOOKAHEAD_BLOCK):
        mix, bound = det.lookahead(obs[:, lo:lo + LOOKAHEAD_BLOCK])
        digest.update(mix.tobytes())
        digest.update(bound.tobytes())
        for _ in range(len(mix)):
            det.advance()
            if det.n % FRAME_EVERY == 0:
                digest.update(det.log_sup_values.tobytes())
    return digest.hexdigest()


def derive() -> dict:
    """Every digest of the golden file, computed by this tree."""
    golden = {"toolchain": toolchain(), "verdicts": {}, "reports": {},
              "detect": {}, "statistics": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (cfg, trials, horizon) in CAMPAIGNS.items():
            path = _write_config(tmp, name, cfg)
            golden["verdicts"][name] = _campaign(path, trials, horizon)
        for name, cfg in REPORTS.items():
            out = os.path.join(tmp, f"report-{name}")
            code, _ = _cli(["simulate", "--config",
                            _write_config(tmp, name, cfg), "--out", out])
            golden["reports"][name] = {"exit": code}
            for fname in ("report.json", "report.csv"):
                with open(os.path.join(out, fname), "rb") as fh:
                    golden["reports"][name][fname] = _sha(fh.read())
        for index, (name, (cfg, rows, stream, nu, theta)) in enumerate(
                DETECTS.items()):
            path = _write_config(tmp, name, cfg)
            obs = _detect_data(index, cfg, rows, stream, nu, theta)
            code, stdout = _cli(["detect", "--config", path,
                                 _write_csv(tmp, name, obs)])
            golden["detect"][name] = {"exit": code,
                                      "stdout": _sha(stdout.encode())}
            golden["statistics"][name] = _statistics(path, obs)
    return golden


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the changeid package to digest")
    ap.add_argument("--out", default=GOLDEN, help="file to write")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    with open(args.out, "w") as fh:
        json.dump(derive(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
