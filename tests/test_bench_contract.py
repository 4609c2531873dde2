"""The benchmark's traced names are reached by the work it measures.

``perfbench/tracer.py`` wraps changeid's public names and fails a traced
run whose workload never calls one of its ``REQUIRED`` names.  This test
runs a small Monte Carlo campaign and a ``detect`` call under that tracer,
so a rename or a bypass of a traced name fails here, in the test suite,
and not first in a benchmark run.
"""
import importlib.util
import json
import os

import numpy as np
import pytest
import yaml

from changeid import ARGaussianSignal, cli, config, montecarlo, simulate
from changeid.montecarlo import ExperimentPlan

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")

CONFIG = {
    "prior": {"kind": "geometric", "rho": 0.02},
    "models": [{"kind": "gaussian", "theta_min": 0.25, "theta_max": 2.0}] * 2,
    "mixing": {"min": 0.25, "max": 2.0, "count": 8, "spacing": "log"},
    "targets": {"alpha": 0.05, "beta": 0.05},
    "horizon": 300,
    "seed": 19,
}


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _campaign(config_path, n_trials):
    """A null batch and a change batch with the three estimators; returns
    the outcomes."""
    cfg = config.load_config(config_path)
    prior = config.build_prior(cfg.prior)
    models = config.build_models(cfg.models)
    mixing = config.build_mixing(cfg.mixing)
    thresholds = config.build_thresholds(cfg)
    plan = ExperimentPlan(n_trials=n_trials, horizon=cfg.horizon,
                          master_seed=cfg.seed, threads=1)
    null = montecarlo.run_null_batch(plan, models, prior, mixing, thresholds)
    montecarlo.estimate_pfa(null, prior, cfg.n_streams, horizon=cfg.horizon)
    change = montecarlo.run_change_batch(plan, models, prior, mixing,
                                         thresholds, 1, 1.0)
    montecarlo.estimate_pmi(change, 1, cfg.n_streams)
    montecarlo.estimate_delay(change, 1, r=1)
    return null + change


def test_traced_names_are_reached(tracer_module, tmp_path):
    config_path = tmp_path / "cfg.yaml"
    config_path.write_text(yaml.safe_dump(CONFIG))
    models = [ARGaussianSignal(0.25, 2.0), ARGaussianSignal(0.25, 2.0)]
    path = simulate(models, 300, np.random.default_rng(19), stream=2,
                    theta=1.5, nu=150)
    data = tmp_path / "data.csv"
    rows = ["t,stream_1,stream_2"] + [
        f"{t + 1},{a!r},{b!r}"
        for t, (a, b) in enumerate(path.observations.T.tolist())]
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        outcomes = _campaign(str(config_path), 20)
        code = cli.main(["detect", "--config", str(config_path), "--out",
                         str(out), str(data)])
    finally:
        tracer.uninstall()

    assert code == 0
    verdict = json.loads((out / "verdict.json").read_text())
    required = tracer_module.REQUIRED
    assert tracer.missing_calls(required["mc-standard"]) == []
    assert tracer.missing_calls(required["detect"]) == []
    # the benchmark's check: one traced step per observation the rule read
    steps = sum(o.time if o.stopped else CONFIG["horizon"] for o in outcomes)
    steps += verdict["time"]
    assert tracer.calls["changeid.engine:Detector.advance"] == steps
