"""Mutation fuzz of the command line's exit-code contract.

Each example sets one leaf of a base config, or one cell of a data CSV,
to an awkward value and runs the real commands in process with warnings
as errors.  Every run must exit 0, 2, 3 or 4 without an escaping
exception, and an exit 2 prints exactly one stderr line, ``error: ...``.
The bases run cleanly unmutated; horizons and trial counts are small so
that a mutation that leaves a config valid still finishes at once.
``threads`` is never set: a value above 1 starts a pool of up to one
worker process per CPU for each batch, which costs more than the run it
would fuzz and changes no result.
"""
import contextlib
import copy
import io

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from changeid.cli import main

# copied into each stream, so that a mutation changes one stream only
GAUSSIAN = {"kind": "gaussian", "theta_min": 0.25, "theta_max": 2.0,
            "sigma": 1.0}
PLAN = {"horizon": 60, "trials": 6, "seed": 7, "theta_points": [1.0]}
BASES = {
    # the acceptance config plus a sine AR(1) stream, at window 5
    "acceptance_sine": {
        "prior": {"kind": "geometric", "rho": 0.05, "q": 0.0},
        "models": [dict(GAUSSIAN), dict(GAUSSIAN),
                   {"kind": "ar_gaussian", "theta_min": 0.25,
                    "theta_max": 2.0, "sigma": 1.0, "ar_coeffs": [0.5],
                    "stationary_init": True,
                    "signal": {"kind": "sine", "omega": 0.3,
                               "phase": 0.1, "amplitude": 1.0}}],
        "mixing": {"min": 0.25, "max": 2.0, "count": 8, "spacing": "log",
                   "weights": "uniform"},
        "targets": {"alpha": 0.05, "beta": 0.05},
        "window": 5, "change_stream": 3, **PLAN},
    # a discrete Weibull prior, a one-point Gaussian-weight grid and beta_bar
    "weibull_one_point": {
        "prior": {"kind": "discrete_weibull", "kappa": 0.8, "scale": 30.0,
                  "q": 0.1},
        "models": [dict(GAUSSIAN), dict(GAUSSIAN)],
        "mixing": {"min": 1.0, "max": 1.0, "count": 1, "single_point": True,
                   "weights": "gaussian", "v": 1.0},
        "targets": {"alpha": 0.05, "beta_bar": 0.05}, **PLAN},
    # an explicit prior with zeros and explicit log thresholds
    "explicit_log_a": {
        "prior": {"kind": "explicit_pmf", "probs": [0.0, 0.5, 0.0, 0.5],
                  "q": 0.0},
        "models": [dict(GAUSSIAN), dict(GAUSSIAN)],
        "mixing": {"min": 0.5, "max": 1.5, "count": 3, "weights": "uniform"},
        "targets": {"log_a": [[3.0, None, 4.0], [3.0, 4.0, None]]}, **PLAN},
}
CONFIG_VALUES = (0, -1, -0.5, 2, 1e308, -1e308, 5e-324, 1e-20, 1e20, 2 ** 63,
                 700, 1.5, float("nan"), float("inf"), [], {}, "x", None, True)
CELL_VALUES = ("nan", "inf", "-inf", "1e400", "-1e400", "1e308", "1e-400",
               "1_000", "\r", "", " ", "\t1", "+1", "-0", "2.5", "x", "0x10",
               "1e", "--1", '"1"', "٣", "1,2")


def leaves(node, path=()):
    """The path of every value below ``node``, containers included."""
    items = (node.items() if isinstance(node, dict) else enumerate(node)
             if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from leaves(value, path + (key,))


def mutated(base, path, value):
    cfg = copy.deepcopy(base)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def data_rows(n_streams):
    """A 40-row data CSV as rows of cells, header first, with a change on
    stream 1 half way."""
    obs = np.random.default_rng(5).standard_normal((n_streams, 40))
    obs[0, 20:] += 1.5
    return ([["t"] + [f"stream_{i + 1}" for i in range(n_streams)]]
            + [[str(t + 1)] + [repr(v) for v in obs[:, t].tolist()]
               for t in range(40)])


def csv_text(rows):
    return "".join(",".join(row) + "\n" for row in rows)


CONFIG_MUTATIONS = [(name, path, value)
                    for name, base in BASES.items()
                    for path in leaves(base)
                    for value in CONFIG_VALUES]
CSV_MUTATIONS = [(name, row, col, value)
                 for name, base in BASES.items()
                 for row in range(41)
                 for col in range(len(base["models"]) + 1)
                 for value in CELL_VALUES]


def run(argv):
    """Run ``main(argv)`` and check its exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    if code == 2:
        lines = err.getvalue().split("\n")
        assert len(lines) == 2 and lines[0].startswith("error: "), (
            argv, err.getvalue())
        assert lines[1] == "", (argv, err.getvalue())
    return code


def commands(config, data):
    return [["calibrate", "--config", config],
            ["detect", "--config", config, data],
            ["simulate", "--config", config],
            ["validate", "--config", config, "--trials", "3"]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Each base's config and data CSV, written once."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, base in BASES.items():
        (root / f"{name}.yaml").write_text(yaml.safe_dump(base))
        (root / f"{name}.csv").write_text(
            csv_text(data_rows(len(base["models"]))), newline="")
    return root


@pytest.mark.parametrize("name", sorted(BASES))
def test_bases_run_cleanly(workdir, name):
    codes = [run(argv) for argv in commands(str(workdir / f"{name}.yaml"),
                                            str(workdir / f"{name}.csv"))]
    assert 2 not in codes


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutation=st.sampled_from(CONFIG_MUTATIONS))
def test_config_mutation_exit_codes(workdir, mutation):
    name, path, value = mutation
    config = workdir / "mutated.yaml"
    config.write_text(yaml.safe_dump(mutated(BASES[name], path, value)))
    for argv in commands(str(config), str(workdir / f"{name}.csv")):
        run(argv)


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutation=st.sampled_from(CSV_MUTATIONS), window=st.booleans())
def test_csv_mutation_exit_codes(workdir, mutation, window):
    name, row, col, value = mutation
    rows = data_rows(len(BASES[name]["models"]))
    rows[row][col] = value
    data = workdir / "mutated.csv"
    data.write_text(csv_text(rows), newline="")
    run(["detect", "--config", str(workdir / f"{name}.yaml"), str(data)]
        + (["--window", "3"] if window else []))
