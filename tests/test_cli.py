import csv
import dataclasses
import errno
import importlib.util
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.signal import lfilter

from changeid import ARGaussianSignal, ChangePointPrior, cli, simulate
from changeid import models as models_module
from changeid.cli import main
from changeid.config import ConfigError, RunConfig, load_config
from changeid.montecarlo import TrialOutcome
from changeid.rule import Verdict
from conftest import oracle_read_data_csv


BASE_CONFIG = {
    "prior": {"kind": "geometric", "rho": 0.05, "q": 0.0},
    "models": [
        {"kind": "gaussian", "theta_min": 0.25, "theta_max": 2.0, "sigma": 1.0},
        {"kind": "gaussian", "theta_min": 0.25, "theta_max": 2.0, "sigma": 1.0},
    ],
    "mixing": {"min": 0.25, "max": 2.0, "count": 8, "spacing": "log",
               "weights": "uniform"},
    "targets": {"alpha": 0.05, "beta": 0.05},
    "horizon": 300,
    "trials": 25,
    "seed": 11,
    "theta_points": [1.0],
}


@pytest.fixture
def config_path(tmp_path):
    def write(overrides=None, name="cfg.yaml"):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        for key, val in (overrides or {}).items():
            cfg[key] = val
        path = tmp_path / name
        path.write_text(yaml.safe_dump(cfg))
        return str(path)
    return write


def write_data_csv(path, obs):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"stream_{i + 1}" for i in range(obs.shape[0])])
        for t in range(obs.shape[1]):
            writer.writerow([t + 1] + [f"{v:.17g}" for v in obs[:, t]])


class TestCalibrate:
    def test_tables_emitted(self, config_path, capsys):
        assert main(["calibrate", "--config", config_path()]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pfa_bound_per_stream"] == pytest.approx([0.05, 0.05])
        assert data["log_thresholds"][0][1] is None   # own-stream entry
        assert data["pmi_bound_matrix"][0][1] == pytest.approx(0.05)

    def test_explicit_log_a_round_trip(self, config_path, capsys):
        assert main(["calibrate", "--config", config_path()]) == 0
        emitted = json.loads(capsys.readouterr().out)["log_thresholds"]
        # re-feed the emitted thresholds verbatim (null -> NaN on the diagonal)
        log_a = [[np.nan if cell is None else cell for cell in row]
                 for row in emitted]
        path2 = config_path({"targets": {"log_a": log_a}}, name="cfg2.yaml")
        assert main(["calibrate", "--config", path2]) == 0
        again = json.loads(capsys.readouterr().out)["log_thresholds"]
        assert again == emitted

    def test_calibrate_with_sine_models_whitens_nothing(self, config_path,
                                                        monkeypatch, capsys):
        # Q of a sine signal is closed form: the delay scales read it for
        # every theta, stream pair and grid point without a whitening
        model = {"kind": "ar_gaussian", "theta_min": 0.25, "theta_max": 2.0,
                 "ar_coeffs": [0.5],
                 "signal": {"kind": "sine", "omega": 0.3, "amplitude": 3.0}}
        path = config_path({"models": [model] * 3,
                            "theta_points": [0.5, 1.0, 1.5]})
        calls = []
        whiten = models_module.whiten
        monkeypatch.setattr(models_module, "whiten",
                            lambda *args: calls.append(1) or whiten(*args))
        assert main(["calibrate", "--config", path]) == 0
        scales = json.loads(capsys.readouterr().out)["psi_delay_scale"]
        assert len(scales) == 3 and all(None not in v for v in scales.values())
        assert calls == []

    def test_prior_built_once(self, config_path, monkeypatch, capsys):
        # the head mass q that the thresholds read comes from the config
        # section, not from a second prior whose table is renormalized again
        path = config_path({"prior": {"kind": "explicit_pmf",
                                      "probs": [0.5, 0.3, 0.2], "q": 0.1}})
        calls = []
        init = ChangePointPrior.__init__
        monkeypatch.setattr(ChangePointPrior, "__init__",
                            lambda *a, **k: calls.append(1) or init(*a, **k))
        assert main(["calibrate", "--config", path]) == 0
        assert len(calls) == 1
        # and the thresholds still read it: alpha must stay below 1 - q
        path = config_path({"prior": {"kind": "geometric", "rho": 0.05,
                                      "q": 0.96}}, name="heavy_head.yaml")
        assert main(["calibrate", "--config", path]) == 2
        assert "1 - head mass 0.04" in capsys.readouterr().err

    def test_delay_scale_uses_each_competitors_infimum(self, config_path,
                                                      capsys):
        sigmas = (1.0, 1.7)
        path = config_path({
            "models": [{"kind": "gaussian", "theta_min": 0.25,
                        "theta_max": 2.0, "sigma": s} for s in sigmas],
            "theta_points": [0.5, 1.0, 1.5]})
        assert main(["calibrate", "--config", path]) == 0
        data = json.loads(capsys.readouterr().out)
        log_a, mu = data["log_thresholds"], data["prior_tail_exponent"]
        # inf I_0j over the grid 0.25..2.0 is at its first point
        inf_0 = [0.25 ** 2 / (2 * s ** 2) for s in sigmas]
        for theta, psis in data["psi_delay_scale"].items():
            for i, j in ((0, 1), (1, 0)):
                info = float(theta) ** 2 / (2 * sigmas[i] ** 2)
                want = max(log_a[i][0] / (info + mu),
                           log_a[i][j + 1] / (info + min(mu, inf_0[j])))
                assert psis[i] == pytest.approx(want, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_pmi_bound_where_a_i0_overflows(self, config_path, capsys):
        # alpha = 1e-310 gives log A_i0 = 713.8, past exp's range
        path = config_path({"targets": {"alpha": 1e-310, "beta": 0.05}})
        assert main(["calibrate", "--config", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pfa_bound_per_stream"] == [0.0, 0.0]
        assert data["pmi_bound_matrix"][0][1] == pytest.approx(0.05)
        assert data["pmi_bound_matrix"][1][0] == pytest.approx(0.05)

    def test_invalid_targets_exit_2(self, config_path, capsys):
        path = config_path({"targets": {"alpha": 2.0, "beta": 0.05}})
        assert main(["calibrate", "--config", path]) == 2

    def test_unknown_config_key_exit_2(self, config_path):
        path = config_path({"bogus_key": 1})
        assert main(["calibrate", "--config", path]) == 2

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nope.yaml"
        assert main(["calibrate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read config file: [Errno 2] No such file or "
            f"directory: '{path}'\n")

    @pytest.mark.parametrize("overrides, message", [
        pytest.param({"prior": 5}, None, id="prior"),
        pytest.param({"models": [1]}, None, id="models"),
        pytest.param({"mixing": [1, 2]}, None, id="mixing"),
        pytest.param({"theta_points": 1.0}, None, id="theta_points"),
        pytest.param({"models": [{"kind": "ar_gaussian", "theta_min": 0.25,
                                  "theta_max": 2.0, "ar_coeffs": 0.5}]},
                     None, id="ar_coeffs"),
        pytest.param({"nu_points": [5]}, None, id="nu_points"),
        pytest.param({"models": [{"kind": "nope", "theta_min": 0.25,
                                  "theta_max": 2.0}]},
                     "error: stream 1: unknown model kind 'nope'\n",
                     id="model_kind"),
        pytest.param({"targets": {"log_a": 5}}, None, id="log_a_scalar"),
        pytest.param({"targets": {"log_a": [[1.0, float("nan")]]}}, None,
                     id="log_a_rows"),
        pytest.param({"targets": {"alpha": {"a": 1}, "beta": 0.05}}, None,
                     id="alpha_mapping"),
        pytest.param({"models": [{"kind": "gaussian", "theta_min": 0.25,
                                  "theta_max": 2.0, "sigmaa": 2.0}] * 2},
                     None, id="model_key"),
        pytest.param({"models": [{"kind": "gaussian", "theta_min": 0.25,
                                  "theta_max": 2.0, "ar_coeffs": [0.5]}] * 2},
                     None, id="gaussian_ar_coeffs"),
        pytest.param({"prior": {"kind": "geometric", "rho": 0.05, "qq": 0.5}},
                     None, id="prior_key"),
        pytest.param({"mixing": {"min": 0.25, "max": 2.0, "count": 8,
                                 "spaceing": "log"}}, None, id="mixing_key"),
        pytest.param({"out": 5}, None, id="out_int"),
        pytest.param({"models": [{"kind": "ar_gaussian", "theta_min": 0.25,
                                  "theta_max": 2.0, "ar_coeffs": [0.5],
                                  "stationary_init": "no"}] * 2},
                     None, id="stationary_init_str"),
        pytest.param({"mixing": {"min": 0.25, "max": 2.0, "count": 1,
                                 "single_point": "no"}},
                     None, id="single_point_str"),
        pytest.param({"mixing": {"min": 0.25, "max": 2.0, "count": 1,
                                 "single_point": True, "spacing": "bogus"}},
                     "error: invalid mixing grid: unknown grid spacing "
                     "'bogus'\n", id="single_point_bad_spacing"),
        pytest.param({"horizon": 2.7}, None, id="horizon_float"),
        pytest.param({"trials": True}, None, id="trials_bool"),
        pytest.param({"window": True}, None, id="window_bool"),
        pytest.param({"seed": 1.5}, None, id="seed_float"),
        pytest.param({"mixing": {"min": 0.25, "max": 2.0, "count": True,
                                 "single_point": True}},
                     None, id="count_bool"),
        pytest.param({"mixing": {"min": 0.25, "max": 2.0,
                                 "count": 2 ** 63, "spacing": "log"}},
                     "error: invalid mixing grid: mixing.count must be at "
                     "most 65536, got 9223372036854775808\n",
                     id="count_past_int64"),
        pytest.param({"mixing": {"min": 0.25, "max": 2.0,
                                 "count": 65537, "spacing": "log"}},
                     "error: invalid mixing grid: mixing.count must be at "
                     "most 65536, got 65537\n", id="count_past_max"),
        pytest.param({"models": [{"kind": "gaussian", "theta_min": 0.25,
                                  "theta_max": 2.0, "sigma": True}] * 2},
                     None, id="sigma_bool"),
        pytest.param({"theta_points": [True]}, None, id="theta_points_bool"),
        pytest.param({"targets": {"log_a": [[True, None, 3.0],
                                            [3.0, 3.0, None]]}},
                     None, id="log_a_bool"),
        pytest.param({"targets": {"log_a": [[3.0, None, None],
                                            [3.0, 3.0, None]]}},
                     None, id="log_a_null_off_diagonal"),
        pytest.param({"seed": -1}, "error: seed must be >= 0\n",
                     id="seed_negative"),
        pytest.param({"threads": 0}, "error: threads must be >= 1\n",
                     id="threads_zero"),
        pytest.param({"window": 0}, "error: window must be >= 1\n",
                     id="window_zero"),
        pytest.param({"mixing": {"min": 0.25, "max": 2.0, "count": 8,
                                 "weights": "gaussian", "v": float("nan")}},
                     "error: invalid mixing grid: v must be a finite number, "
                     "got nan\n", id="mixing_v_nan"),
        pytest.param({"models": [{"kind": "gaussian", "theta_min": 0.25,
                                  "theta_max": 2.0, "sigma": float("nan")}] * 2},
                     "error: stream 1: sigma must be a finite number, got nan\n",
                     id="sigma_nan"),
        pytest.param({"prior": {"kind": "discrete_weibull", "kappa": 0.5,
                                "scale": float("inf")}},
                     "error: invalid prior: scale must be a finite number, "
                     "got inf\n", id="weibull_scale_inf"),
        pytest.param({"models": [{"kind": "ar_gaussian", "theta_min": 0.25,
                                  "theta_max": 2.0,
                                  "signal": {"amplitude": float("nan")}}] * 2},
                     "error: stream 1: amplitude must be a finite number, "
                     "got nan\n", id="amplitude_nan"),
        pytest.param({"theta_points": [float("nan")]},
                     "error: invalid config: theta_points must be a finite "
                     "number, got nan\n", id="theta_points_nan"),
        pytest.param({"change_stream": 0},
                     "error: change_stream must be >= 1\n",
                     id="change_stream_zero"),
        pytest.param({"change_stream": 3},
                     "error: change_stream must be <= 2\n",
                     id="change_stream_past_streams"),
        pytest.param({"targets": {"alpha": float("nan"), "beta": 0.05}},
                     "error: invalid risk targets: false-alarm targets must "
                     "lie in (0, 1), got [nan nan]\n", id="alpha_nan"),
        pytest.param({"targets": {"alpha": 0.05, "beta": float("nan")}},
                     "error: invalid risk targets: misidentification targets "
                     "must lie in (0, 1)\n", id="beta_nan"),
        pytest.param({"targets": {"alpha": 0.05, "beta_bar": float("nan")}},
                     "error: invalid risk targets: misidentification targets "
                     "must lie in (0, 1)\n", id="beta_bar_nan"),
        pytest.param({"prior": {"kind": "geometric", "q": 0.0}},
                     "error: prior section missing key 'rho'\n",
                     id="prior_without_rho"),
        pytest.param({"prior": {"kind": "geometric", "rho": 0.05, "q": 2}},
                     "error: invalid prior: head mass q must be in [0, 1), "
                     "got 2.0\n", id="q_past_one"),
        pytest.param({"prior": {"kind": "explicit_pmf", "probs": []}},
                     "error: invalid prior: probability table must be a "
                     "nonempty 1-d array\n", id="probs_empty"),
        pytest.param({"prior": {"kind": "explicit_pmf", "probs": [0, 0]}},
                     "error: invalid prior: probability table has no mass\n",
                     id="probs_no_mass"),
        pytest.param({"mixing": {"min": 0.25, "max": 2.0, "count": 1}},
                     "error: invalid mixing grid: grid count must be >= 2 "
                     "(set single_point: true to override)\n",
                     id="count_1_without_single_point"),
        pytest.param({"mixing": {"min": 0.25, "max": 2.0, "count": 8,
                                 "weights": "gaussian", "v": 0}},
                     "error: invalid mixing grid: gaussian weight scale must "
                     "be positive, got 0.0\n", id="mixing_v_zero"),
        pytest.param({"targets": {"beta_bar": 0.05}},
                     "error: targets section missing key 'alpha'\n",
                     id="beta_bar_without_alpha"),
        pytest.param({"prior": {"kind": "geometric", "rho": 0.05, "q": 0.99},
                      "targets": {"alpha": 0.5, "beta_bar": 0.05}},
                     "error: invalid risk targets: alpha 0.5 must be below "
                     "1 - head mass 0.01\n", id="alpha_past_one_minus_q"),
    ])
    def test_malformed_config_exit_2(self, config_path, capsys, overrides,
                                     message):
        assert main(["calibrate", "--config", config_path(overrides)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if message is not None:
            assert err == message

    @pytest.mark.parametrize("text, message", [
        ("- 1\n", "error: config root must be a mapping\n"),
        (yaml.safe_dump({key: value for key, value in BASE_CONFIG.items()
                         if key != "mixing"}),
         "error: config is missing required section 'mixing'\n"),
    ], ids=["list_root", "no_mixing"])
    def test_malformed_config_file_exit_2(self, tmp_path, capsys, text,
                                          message):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        assert main(["calibrate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == message


    @pytest.mark.parametrize("command", ["calibrate", "detect", "simulate",
                                         "validate"])
    def test_grid_count_past_int64_exits_2(self, config_path, tmp_path,
                                           capsys, command):
        """A count of 2^63 ended in an IndexError from np.linspace in every
        command; it is rejected with the key's name."""
        path = config_path({"mixing": {"min": 0.25, "max": 2.0,
                                       "count": 2 ** 63, "spacing": "log"}})
        argv = [command, "--config", path]
        if command == "detect":
            write_data_csv(tmp_path / "data.csv", np.zeros((2, 40)))
            argv.append(str(tmp_path / "data.csv"))
        assert main(argv) == 2
        assert "mixing.count" in capsys.readouterr().err


class TestDetect:
    def _fixture_path(self, tmp_path, theta=2.0, nu=50, horizon=200, seed=4,
                      stream=1):
        models = [ARGaussianSignal(0.25, 2.0), ARGaussianSignal(0.25, 2.0)]
        path = simulate(models, horizon, np.random.default_rng(seed),
                        stream=stream, theta=theta, nu=nu)
        csv_path = tmp_path / "data.csv"
        write_data_csv(csv_path, path.observations)
        return str(csv_path)

    def test_strong_signal_alarm(self, config_path, tmp_path, capsys):
        data = self._fixture_path(tmp_path)
        assert main(["detect", "--config", config_path(), data]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["stopped"] is True
        assert verdict["stream"] == 1
        assert verdict["time"] > 50

    def test_censored_exit_3(self, config_path, tmp_path, capsys):
        data = self._fixture_path(tmp_path, stream=0, horizon=5)
        huge = [[50.0, None, 50.0], [50.0, 50.0, None]]
        huge = [[np.nan if c is None else c for c in row] for row in huge]
        path = config_path({"targets": {"log_a": huge}})
        assert main(["detect", "--config", path, data]) == 3
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["stopped"] is False

    def test_threshold_monotonicity_paired(self, config_path, tmp_path, capsys):
        data = self._fixture_path(tmp_path)
        loose = config_path({"targets": {"alpha": 0.4, "beta": 0.4}},
                            name="loose.yaml")
        tight = config_path({"targets": {"alpha": 0.001, "beta": 0.001}},
                            name="tight.yaml")
        assert main(["detect", "--config", loose, data]) == 0
        t_loose = json.loads(capsys.readouterr().out)["time"]
        assert main(["detect", "--config", tight, data]) == 0
        t_tight = json.loads(capsys.readouterr().out)["time"]
        assert t_loose <= t_tight

    def test_verdict_json_is_canonical(self, config_path, tmp_path):
        data = self._fixture_path(tmp_path)
        out = tmp_path / "out"
        assert main(["detect", "--config", config_path(), "--out", str(out),
                     data]) == 0
        text = (out / "verdict.json").read_text()
        verdict = json.loads(text)
        assert set(verdict) == {f.name for f in dataclasses.fields(Verdict)}
        assert text == json.dumps(verdict, sort_keys=True, indent=2) + "\n"

    def test_empty_file_exit_2(self, config_path, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert main(["detect", "--config", config_path(), str(data)]) == 2

    @pytest.mark.filterwarnings("error")
    def test_overflowing_ratio_exit_2(self, config_path, tmp_path, capsys):
        # theta * x overflows at theta = 2 on the first row: no statistic
        # is a number, so the run fails there rather than never passing
        data = tmp_path / "huge.csv"
        data.write_text("t,stream_1,stream_2\n1,1e308,1e308\n"
                        "2,-1e308,1e308\n3,1e308,-1e308\n")
        assert main(["detect", "--config", config_path(), str(data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: log-likelihood ratio overflows at step 1:")

    @pytest.mark.filterwarnings("error")
    def test_finite_ratio_past_limit_exit_2(self, config_path, tmp_path,
                                            capsys):
        # every cumz is finite, but |cumz| at the first row is past float
        # max / 4, and cumz_3 - cumz_1 (about 1.8e308) would overflow
        data = tmp_path / "huge.csv"
        data.write_text("t,stream_1,stream_2\n1,-4.5e307,0\n"
                        "2,4.5e307,0\n3,4.5e307,0\n")
        assert main(["detect", "--config", config_path(), str(data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: log-likelihood ratio overflows at step 1:")

    def test_nan_cell_exit_2(self, config_path, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("t,stream_1,stream_2\n1,0.5,nan\n")
        assert main(["detect", "--config", config_path(), str(data)]) == 2
        assert "row 2" in capsys.readouterr().err

    def test_over_long_cell_in_bad_file_exit_2(self, config_path, tmp_path,
                                               capsys):
        # the walk reads past a cell longer than csv's default field size
        # limit, 131 072 characters, and names the bad row after it
        data = tmp_path / "bad.csv"
        data.write_text("t,stream_1,stream_2\n1," + " " * 200_000
                        + "0.5,0.1\n2,nan,0.1\n")
        assert main(["detect", "--config", config_path(), str(data)]) == 2
        assert "error: row 3: non-finite observation" in capsys.readouterr().err

    def test_long_cell_past_the_field_limit_exit_2(self, config_path,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        # a non-ASCII file goes to the walk, which names the line of a cell
        # longer than its field limit
        monkeypatch.setattr(cli, "_FIELD_LIMIT", 8)
        data = tmp_path / "long.csv"
        data.write_text("t,stream_1,stream_2\n1,\xa00.5,0.1\n"
                        "2,0.123456789,0.1\n", encoding="utf-8")
        assert main(["detect", "--config", config_path(), str(data)]) == 2
        assert capsys.readouterr().err == (
            "error: line 3: field larger than field limit (8)\n")

    def test_unreadable_data_file_exit_2(self, config_path, tmp_path, capsys):
        assert main(["detect", "--config", config_path(), str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read data file: [Errno {errno.EISDIR}] "
            f"{os.strerror(errno.EISDIR)}: {str(tmp_path)!r}\n")

    def test_wrong_header_exit_2(self, config_path, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("time,a,b\n1,0.5,0.2\n")
        assert main(["detect", "--config", config_path(), str(data)]) == 2

    @pytest.mark.parametrize("body, message", [
        ("1,0.5,0.2\n\n2,0.1,0.3\n", "row 3: expected 3 cells"),
        ("1,0.5,0.2\n2,0.1,0.3\n\n", "row 4: expected 3 cells"),
        ("1.0,0.5,0.2\n", "row 2: non-numeric cell"),
        ("1,0.5,0.2\n3,0.1,0.3\n", "row 3: time index must be 2, got 3"),
        ("1,0.5,0.2\n2,0.1,0.3,0.4\n", "row 3: expected 3 cells"),
        ("1,0.5,0.2\n2,0.1\n", "row 3: expected 3 cells"),
        ("1,0.5,0.2\n2,inf,0.3\n", "row 3: non-finite observation"),
        ("1,0.5,1e400\n", "row 2: non-finite observation"),
        ("1,nan,0.2\n2,0.1\n", "row 2: non-finite observation"),
        ("", "has a header but no rows"),
        # "\udcff" is written as the undecodable byte 0xff
        ("1,0.5,0.2\n2,0.1,0.\udcff3\n", "row 3: non-numeric cell"),
        ("t,stream_\udcff1,stream_2\n1,0.5,0.2\n",
         "data header must be t,stream_1,stream_2, got t,stream_"),
        ("1,0.5,0.2\n2,0.1\n3,\udcff,0.2\n", "row 3: expected 3 cells"),
    ], ids=["blank_mid", "blank_end", "float_t", "t_gap", "extra_cell",
            "short_row", "inf", "overflow", "first_bad_row_wins", "header_only",
            "undecodable_cell", "undecodable_header",
            "bad_row_before_undecodable"])
    def test_bad_row_named_exit_2(self, config_path, tmp_path, capsys, body,
                                  message):
        # a body that starts with a header line replaces the good one
        text = body if body.startswith("t,") else "t,stream_1,stream_2\n" + body
        data = tmp_path / "bad.csv"
        data.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert main(["detect", "--config", config_path(), str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_cr_endings_and_quoted_cells_same_verdict(self, config_path,
                                                      tmp_path, capsys):
        data = self._fixture_path(tmp_path)
        with open(data, newline="") as fh:
            lines = fh.read().splitlines()
        variant = tmp_path / "variant.csv"
        variant.write_text("\r".join(lines[:1] + [
            ",".join(f'"{c}"' if j == 1 else c
                     for j, c in enumerate(line.split(",")))
            for line in lines[1:]]) + "\r", newline="")
        assert main(["detect", "--config", config_path(), data]) == 0
        expected = capsys.readouterr().out
        assert main(["detect", "--config", config_path(), str(variant)]) == 0
        assert capsys.readouterr().out == expected


def _read_outcome(read, path):
    """What a data-CSV reader makes of a file: the array's shape, dtype and
    bytes, or the type and message of its error."""
    try:
        obs = read(path, 2)
    except (ConfigError, ValueError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("array", obs.shape, obs.dtype.str, obs.tobytes())


_T_FORMS = [str, lambda k: f"{k}.0", lambda k: f"+{k}", lambda k: f" {k} ",
            lambda k: str(k + 1), lambda k: str(k - 1), lambda k: str(-k),
            lambda k: str(2 ** 63 + k), lambda k: f'"{k}"', lambda k: f"{k}_0",
            lambda k: "".join(chr(0x660 + int(d)) for d in str(k))]
_NONFINITE_FORMS = ["nan", "-inf", "inf", "1e400", "-1e400", '"nan"']
_VALUE_FORMS = ["", "1_000", "\u0663.\u0665", " 0.5 ", "\xa00.5", '"0.5" ',
                '"1,5"', '"0.5\n"', '"0.5\r\n"', "0x1", "1e-400"]


@st.composite
def data_csv_texts(draw):
    """A two-stream data CSV: well-formed lines with a few defects drawn
    from the grammar below, and one of the three line endings."""
    values = draw(st.lists(st.tuples(*[st.floats(allow_nan=False,
                                                 allow_infinity=False)] * 2),
                           max_size=12))
    lines = [["t", "stream_1", "stream_2"]] + [
        [str(k), repr(a), repr(b)] for k, (a, b) in enumerate(values, 1)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["t", "nonfinite", "value", "quote",
                                     "stray_cr", "blank", "short", "long",
                                     "bom"]))
        if kind == "bom":
            lines[0][0] = "\ufeff" + lines[0][0]
            continue
        if kind == "blank":
            lines.insert(draw(st.integers(1, len(lines))), [])
            continue
        # the header is line 0: quotes and a stray "\r" may land in it
        r = draw(st.integers(0, len(lines) - 1))
        c = 0 if kind == "t" else draw(st.integers(
            1 if kind in ("nonfinite", "value") else 0, 2))
        if (r == 0 and kind not in ("quote", "stray_cr")) or c >= len(lines[r]):
            continue
        if kind == "t":
            lines[r][0] = draw(st.sampled_from(_T_FORMS))(r)
        elif kind == "nonfinite":
            lines[r][c] = draw(st.sampled_from(_NONFINITE_FORMS))
        elif kind == "value":
            lines[r][c] = draw(st.sampled_from(_VALUE_FORMS))
        elif kind == "quote":
            lines[r][c] = f'"{lines[r][c]}"'
        elif kind == "stray_cr":
            lines[r][c] += "\r"
        elif kind == "short":
            lines[r] = lines[r][:-1]
        else:
            lines[r] = lines[r] + ["0.5"]
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(",".join(line) for line in lines)
    return text + eol if draw(st.booleans()) else text


class TestDataIngest:
    @pytest.mark.filterwarnings("error::UserWarning")
    @settings(max_examples=1000, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=data_csv_texts())
    def test_table_reader_matches_row_walk_property(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert (_read_outcome(cli._read_data_csv, str(path))
                == _read_outcome(oracle_read_data_csv, str(path)))

    def test_valid_file_never_walked(self, tmp_path, monkeypatch):
        obs = np.random.default_rng(8).standard_normal((2, 20_000))
        path = tmp_path / "data.csv"
        write_data_csv(path, obs)

        def walk(*args):
            raise AssertionError("a well-formed file was read row by row")

        monkeypatch.setattr(cli, "_walk_rows", walk)
        got = cli._read_data_csv(str(path), 2)
        assert got.dtype == np.float64 and got.shape == (2, 20_000)
        assert got.flags.c_contiguous
        assert np.array_equal(got, obs)

    def test_long_cell_read_alike_for_every_line_ending(self, tmp_path):
        # with "\r" endings the table reader leaves the file to the walk,
        # which then takes the cell past csv's default field size limit
        limit = csv.field_size_limit()
        got = []
        for eol in ("\n", "\r\n", "\r"):
            path = tmp_path / "data.csv"
            path.write_text(eol.join(["t,stream_1,stream_2",
                                      "1," + " " * 200_000 + "0.5,0.1",
                                      "2,0.2,0.3", ""]), newline="")
            got.append(cli._read_data_csv(str(path), 2))
        for obs in got:
            np.testing.assert_array_equal(obs, [[0.5, 0.2], [0.1, 0.3]])
        assert csv.field_size_limit() == limit

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_bad_row_in_a_pipe_named(self, config_path, capsys):
        # a pipe can be read only once, so the row walk reads what the
        # table reader read; an undecodable byte fails only its own row
        for body, message in [
                (b"2,0.1\n", "row 3: expected 3 cells"),
                (b"2,0.1\n3,\xff,0.2\n", "row 3: expected 3 cells"),
                (b"2,\xff,0.1\n", "row 3: non-numeric cell")]:
            read_end, write_end = os.pipe()
            with os.fdopen(write_end, "wb") as fh:
                fh.write(b"t,stream_1,stream_2\n1,0.5,0.2\n" + body)
            try:
                code = main(["detect", "--config", config_path(),
                             f"/dev/fd/{read_end}"])
            finally:
                os.close(read_end)
            assert code == 2
            assert message in capsys.readouterr().err


class TestSimulate:
    def test_writes_report_and_passes_bounds(self, config_path, tmp_path,
                                             capsys):
        out = tmp_path / "out"
        code = main(["simulate", "--config",
                     config_path({"trials": 300, "theta_points": []}),
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text
        report = json.loads((out / "report.json").read_text())
        assert len(report["pfa"]) == 2
        assert (out / "report.csv").exists()

    def test_same_seed_identical_bytes(self, config_path, tmp_path):
        cfg = config_path({"trials": 40})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == \
               (out2 / "report.json").read_bytes()

    def test_flag_overrides_config_seed(self, config_path, tmp_path):
        cfg = config_path({"trials": 30})
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "99"])
        main(["simulate", "--config", cfg, "--out", str(out2)])
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["plan"]["seed"] == 99 and r2["plan"]["seed"] == 11
        assert r1["pfa"] != r2["pfa"]

    def test_theta_without_post_change_stop_has_no_pmi_rows(
            self, config_path, tmp_path, monkeypatch):
        # every trial at theta = 1 alarms at or before its change point, so
        # no trial conditions P(d = j | T > nu); theta = 0.5 runs as drawn
        run_change_batch = cli.montecarlo.run_change_batch

        def early_alarms(plan, models, prior, mixing, thresholds, stream, theta):
            if theta == 0.5:
                return run_change_batch(plan, models, prior, mixing,
                                        thresholds, stream, theta)
            return [TrialOutcome(i, True, 5, 2, 10, stream, theta)
                    for i in range(plan.n_trials)]

        monkeypatch.setattr(cli.montecarlo, "run_change_batch", early_alarms)
        out = tmp_path / "out"
        main(["simulate", "--config",
              config_path({"trials": 20, "theta_points": [0.5, 1.0]}),
              "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["pmi"] and {r["theta"] for r in report["pmi"]} == {0.5}
        assert {c["theta"] for c in report["delay"]} <= {0.5}
        assert report["censoring"]["change_trials"] == 40

    def test_zero_trials_exit_2(self, config_path):
        assert main(["simulate", "--config", config_path({"trials": 0})]) == 2

    @pytest.mark.parametrize("overrides, message", [
        ({"change_stream": 3}, "change_stream must be <= 2"),
        ({"theta_points": [5.0]},
         "theta_points: 5 outside change_stream 1's parameter interval "
         "[0.25, 2]"),
    ], ids=["change_stream", "theta_points"])
    def test_bad_change_batch_exit_2_before_any_trial(
            self, config_path, monkeypatch, capsys, overrides, message):
        def run_null_batch(*args):
            raise AssertionError("ran the null batch before the checks")

        monkeypatch.setattr(cli.montecarlo, "run_null_batch", run_null_batch)
        assert main(["simulate", "--config", config_path(overrides)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestValidate:
    def test_diagnostics_pass(self, config_path, capsys):
        code = main(["validate", "--config",
                     config_path({"trials": 30, "theta_points": [1.0]})])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_theta_points_default_to_the_grid_ends(self, config_path,
                                                   tmp_path):
        # the grid's ends are numpy floats; the paths drawn for a theta
        # must not depend on its type
        diagnostics = []
        for name, points in (("ends", [0.25, 2.0]), ("default", [])):
            out = tmp_path / name
            main(["validate", "--config",
                  config_path({"trials": 20, "theta_points": points}),
                  "--out", str(out)])
            report = json.loads((out / "report.json").read_text())
            diagnostics.append(report["diagnostics"])
        assert len(diagnostics[0]) == 8
        assert diagnostics[1] == diagnostics[0]

    def test_one_point_grid_is_checked_once(self, config_path, tmp_path):
        # without theta_points the grid's ends are the thetas, and a
        # one-point grid has one: two rows per stream, none repeated
        out = tmp_path / "out"
        mixing = {"min": 1.0, "max": 1.0, "count": 1, "single_point": True}
        main(["validate", "--config",
              config_path({"trials": 20, "theta_points": [], "mixing": mixing}),
              "--out", str(out)])
        rows = json.loads((out / "report.json").read_text())["diagnostics"]
        assert sorted(row["stream"] for row in rows) == [1, 1, 2, 2]
        assert {row["theta"] for row in rows} == {1.0}
        assert len({json.dumps(row, sort_keys=True) for row in rows}) == 4

    def test_theta_outside_a_stream_interval_exit_2(self, config_path,
                                                    monkeypatch, capsys):
        def validate_conditions(*args, **kwargs):
            raise AssertionError("drew paths before the theta check")

        monkeypatch.setattr(cli.montecarlo, "validate_conditions",
                            validate_conditions)
        models = [BASE_CONFIG["models"][0],
                  dict(BASE_CONFIG["models"][1], theta_max=1.0)]
        mixing = dict(BASE_CONFIG["mixing"], max=1.0)
        path = config_path({"models": models, "mixing": mixing,
                            "theta_points": [1.5]})
        assert main(["validate", "--config", path]) == 2
        assert capsys.readouterr().err == (
            "error: theta_points: 1.5 outside stream 2's parameter interval "
            "[0.25, 1]\n")

    @pytest.mark.parametrize("model", [
        {"signal": {"kind": "constant", "amplitude": 0.0}},
        {"ar_coeffs": [1.0]},
    ], ids=["zero_signal", "unit_root"])
    def test_zero_information_exit_2(self, config_path, capsys, model):
        models = [dict(BASE_CONFIG["models"][0], kind="ar_gaussian", **model),
                  BASE_CONFIG["models"][1]]
        path = config_path({"models": models, "trials": 5})
        assert main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err == ("error: stream 1: information number is 0 at "
                       "theta=1, so there is no drift to check\n")


class TestReport:
    AR_09 = {"kind": "ar_gaussian", "theta_min": 0.25, "theta_max": 2.0,
             "ar_coeffs": [0.9]}

    @pytest.mark.parametrize("command, overrides, code", [
        ("simulate", {"trials": 80, "theta_points": [2.0]}, 0),
        ("simulate", {"trials": 40}, 4),
        ("simulate", {"horizon": 40, "targets": {"alpha": 0.05, "beta": 0.2}},
         3),
        ("validate", {"trials": 30}, 0),
        ("validate", {"models": [AR_09] * 2, "theta_points": [0.25],
                      "trials": 20}, 4),
    ], ids=["simulate_pass", "simulate_bound_fail", "simulate_flagged",
            "validate_pass", "validate_drift_fail"])
    def test_round_trip(self, config_path, tmp_path, capsys, command,
                        overrides, code):
        # ``report`` on a saved report prints the lines of the run that
        # wrote it and returns its exit code
        out = tmp_path / "out"
        assert main([command, "--config", config_path(overrides),
                     "--out", str(out)]) == code
        printed = capsys.readouterr().out
        assert "PASS" in printed
        assert main(["report", str(out / "report.json")]) == code
        assert capsys.readouterr().out == printed

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("content, reason", [
        ([], "expected a JSON object, got list"),
        ("text", "expected a JSON object, got str"),
        ({"pfa": 5}, "'int' object is not iterable"),
        ({"pfa": [{"stream": 1}]}, "missing key 'estimate'"),
        ({"flags": "abc"}, "flags must be a list, got str"),
        (b"not json", "Expecting value: line 1 column 1 (char 0)"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: "
                    "invalid start byte"),
    ], ids=["list", "string", "table_not_a_list", "cell_without_estimate",
            "flags_string", "not_json", "not_utf8"])
    def test_not_a_report_exit_2(self, tmp_path, capsys, content, reason):
        path = tmp_path / "report.json"
        path.write_bytes(content if isinstance(content, bytes)
                         else json.dumps(content).encode())
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot read report: {path} is not a "
                                f"risk report: {reason}\n")

    def test_flagged_report_exit_3(self, tmp_path, capsys):
        # the same code ``simulate`` returns for an exceeded censor budget
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"flags": [
            "censor budget exceeded: 9/40 change-present trials censored "
            "(budget 0.01)"]}))
        assert main(["report", str(path)]) == 3
        assert "FLAG: censor budget exceeded" in capsys.readouterr().out


class TestCommandLine:
    def _data(self, tmp_path):
        path = tmp_path / "data.csv"
        write_data_csv(path, np.zeros((2, 5)))
        return str(path)

    @pytest.mark.parametrize("command",
                             ["calibrate", "detect", "simulate", "validate"])
    def test_grid_outside_parameter_interval_exit_2(self, config_path,
                                                    tmp_path, capsys, command):
        path = config_path({"models": [{"kind": "gaussian", "theta_min": 0.5,
                                        "theta_max": 2.0}] * 2})
        argv = [command, "--config", path, "--out", str(tmp_path / "out")]
        if command == "detect":
            argv.append(self._data(tmp_path))
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: stream 1: mixing grid end 0.25 outside parameter "
            "interval [0.5, 2]\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, code", [("detect", 0), ("simulate", 4)])
    def test_weibull_scale_past_float_range_warns_nothing(
            self, config_path, tmp_path, capsys, command, code):
        """At scale 1e-308, n / scale overflows for n >= 2: the survivor
        and the pmf reach their limit 0 (log -inf), with no warning.  The
        log-pmf is -inf there, not NaN, so ``detect`` alarms on stream 2 at
        step 10; ``simulate``'s 25 trials per batch leave a PMI upper limit
        above its bound (exit 4), with no NaN in the report."""
        path = config_path({"prior": {"kind": "discrete_weibull",
                                      "kappa": 0.5, "scale": 1e-308}})
        out = tmp_path / "out"
        argv = [command, "--config", path, "--out", str(out)]
        if command == "detect":
            write_data_csv(tmp_path / "data.csv",
                           np.random.default_rng(0).standard_normal((2, 40)))
            argv.append(str(tmp_path / "data.csv"))
        assert main(argv) == code
        if command == "detect":
            verdict = json.loads((out / "verdict.json").read_text())
            assert (verdict["stopped"], verdict["time"],
                    verdict["stream"]) == (True, 10, 2)
        else:
            assert "nan" not in capsys.readouterr().out
            assert "NaN" not in (out / "report.json").read_text()

    @pytest.mark.parametrize("command, flag", [
        ("calibrate", "--seed"), ("calibrate", "--trials"),
        ("calibrate", "--threads"), ("calibrate", "--window"),
        ("detect", "--seed"), ("detect", "--trials"), ("detect", "--threads"),
        ("validate", "--threads"), ("validate", "--window")])
    def test_flag_the_command_does_not_read_exit_2(self, config_path,
                                                   tmp_path, capsys, command,
                                                   flag):
        argv = [command, "--config", config_path(), flag, "5"]
        if command == "detect":
            argv.append(self._data(tmp_path))
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestExtremeModelParameters:
    """A parameter whose square the information number reads must have a
    positive finite square, and each model's energy Q and its information
    number at theta_max must be finite; a model that breaks this exits 2
    when it is built, not in the arithmetic of a later step."""

    AR = {"kind": "ar_gaussian", "theta_min": 0.25, "theta_max": 2.0}
    SINE = dict(AR, ar_coeffs=[0.5],
                signal={"kind": "sine", "omega": 0.3, "amplitude": 3.0})

    @pytest.mark.parametrize("command", ["calibrate", "simulate", "validate"])
    @pytest.mark.parametrize("overrides, message", [
        ({"models": [dict(AR, sigma=1e-170)] * 2}, "sigma squared must be a "
         "positive finite float, got 1e-170"),
        ({"models": [dict(AR, sigma=1e170)] * 2}, "sigma squared must be a "
         "positive finite float, got 1e+170"),
        ({"models": [dict(AR, signal={"kind": "constant",
                                      "amplitude": 1e200})] * 2},
         "amplitude squared must be a positive finite float, got 1e+200"),
        ({"models": [dict(AR, signal={"kind": "sine", "omega": 0.3,
                                      "amplitude": 1e200})] * 2},
         "amplitude squared must be a positive finite float, got 1e+200"),
        ({"models": [dict(AR, theta_max=1e300)] * 2,
          "mixing": dict(BASE_CONFIG["mixing"], max=1e200),
          "theta_points": [1e200]},
         "theta_max squared must be a positive finite float, got 1e+300"),
        ({"models": [dict(AR, ar_coeffs=[-1e160])] * 2},
         "ar_coeffs [-1e+160] with amplitude 1.0: the whitened signal energy "
         "Q overflows"),
        ({"models": [dict(SINE, ar_coeffs=[1e308])] * 2},
         "ar_coeffs [1e+308] with amplitude 3.0: the whitened signal energy "
         "Q overflows"),
        ({"models": [dict(AR, sigma=1e-100,
                          signal={"kind": "constant", "amplitude": 1e100})] * 2},
         "sigma 1e-100: the information number theta_max**2 * Q / "
         "(2 * sigma**2) overflows at theta_max 2.0 with Q 1e+200"),
    ], ids=["sigma_underflow", "sigma_overflow", "constant_amplitude",
            "sine_amplitude", "theta_max", "energy_overflow",
            "sine_energy_overflow", "information_overflow"])
    @pytest.mark.filterwarnings("error")
    def test_exit_2_naming_the_field(self, config_path, capsys, command,
                                     overrides, message):
        assert main([command, "--config", config_path(overrides)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: stream 1: invalid model: {message}\n"

    @pytest.mark.parametrize("command", ["detect", "simulate"])
    @pytest.mark.filterwarnings("error")
    def test_sine_phase_overflow_exit_2_naming_omega(self, config_path,
                                                     tmp_path, capsys,
                                                     command):
        """omega * t overflows at t = 2: the signal's values name omega
        before the engine reads them."""
        signal = dict(self.SINE["signal"], omega=1e308)
        argv = [command, "--config",
                config_path({"models": [dict(self.SINE, signal=signal)] * 2})]
        if command == "detect":
            write_data_csv(tmp_path / "data.csv",
                           np.random.default_rng(0).standard_normal((2, 40)))
            argv.append(str(tmp_path / "data.csv"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: signal omega 1e+308: omega * t + "
                                "phase overflows at step 2\n")

    @pytest.mark.filterwarnings("error")
    def test_sine_phase_overflow_calibrates(self, config_path, capsys):
        # the closed-form Q never forms omega * t
        signal = dict(self.SINE["signal"], omega=1e308)
        path = config_path({"models": [dict(self.SINE, signal=signal)] * 2,
                            "theta_points": [0.5, 1.0]})
        assert main(["calibrate", "--config", path]) == 0
        scales = json.loads(capsys.readouterr().out)["psi_delay_scale"]
        assert all(0 < psi < np.inf for psis in scales.values()
                   for psi in psis)


class TestExplosiveAR:
    """AR noise with a root of modulus above 1 outgrows its innovations
    until float64 keeps none of them, so ``simulate`` and ``validate``
    refuse to draw its paths and exit 2 naming ``ar_coeffs``.  Given data
    whitens as well as any, so ``calibrate`` and ``detect`` take such a
    model, and unit roots still simulate."""

    SINE = TestExtremeModelParameters.SINE

    def _path(self, config_path, ar_coeffs, **overrides):
        models = [dict(self.SINE, ar_coeffs=ar_coeffs), BASE_CONFIG["models"][1]]
        return config_path(dict(overrides, models=models))

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("horizon", [300, 3000])
    @pytest.mark.filterwarnings("error")
    def test_draws_exit_2_naming_ar_coeffs(self, config_path, capsys,
                                           command, horizon):
        path = self._path(config_path, [1.5], horizon=horizon)
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: ar_coeffs [1.5]: explosive AR noise "
                                "(largest root modulus 1.5 > 1) cannot be "
                                "simulated; calibrate and detect take it\n")

    @pytest.mark.filterwarnings("error")
    def test_calibrate_and_detect_take_it(self, config_path, tmp_path,
                                          capsys):
        path = self._path(config_path, [1.5])
        assert main(["calibrate", "--config", path]) == 0
        obs = np.random.default_rng(0).standard_normal((2, 60))
        obs[0] = lfilter([1.0], [1.0, -1.5], obs[0])
        write_data_csv(tmp_path / "data.csv", obs)
        # the whitened data is the innovations: no alarm in 60 steps
        assert main(["detect", "--config", path, str(tmp_path / "data.csv")]) == 3
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("ar_coeffs", [[1.0], [1.5, -0.5]])
    @pytest.mark.filterwarnings("error")
    def test_unit_roots_simulate(self, config_path, capsys, ar_coeffs):
        path = self._path(config_path, ar_coeffs)
        # 25 trials leave some Clopper-Pearson upper limits above their bounds
        assert main(["simulate", "--config", path]) == 4
        assert main(["validate", "--config", path]) == 0
        assert capsys.readouterr().err == ""


class TestRangeChecks:
    """The ranges of the keys a flag overrides are checked on the values in
    force, before anything is built from the config."""

    @pytest.mark.parametrize("command, flag, value, message", [
        ("simulate", "--trials", "0", "trials must be >= 1"),
        ("validate", "--trials", "0", "trials must be >= 1"),
        ("validate", "--trials", "-2", "trials must be >= 1"),
        ("simulate", "--seed", "-5", "seed must be >= 0"),
        ("validate", "--seed", "-5", "seed must be >= 0"),
        ("simulate", "--threads", "0", "threads must be >= 1"),
        ("detect", "--window", "0", "window must be >= 1"),
        ("simulate", "--window", "0", "window must be >= 1"),
        ("simulate", "--trials", "1000001",
         "trials must be at most 1000000, got 1000001"),
    ])
    def test_out_of_range_flag_exit_2_before_any_build(
            self, config_path, tmp_path, capsys, monkeypatch, command, flag,
            value, message):
        def build_prior(section):
            raise AssertionError("built a prior from an out-of-range value")

        monkeypatch.setattr(cli, "build_prior", build_prior)
        argv = [command, "--config", config_path(), flag, value]
        if command == "detect":
            argv.append(str(tmp_path / "unread.csv"))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("trials", [1e20, 2 ** 63])
    def test_trials_past_max_exit_2_at_once(self, config_path, capsys,
                                            command, trials):
        """A trial count past the maximum exits 2 naming the key before a
        batch lists its tasks; 1e20 trials once grew the process until it
        was killed."""
        start = time.perf_counter()
        assert main([command, "--config",
                     config_path({"trials": trials})]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: trials must be at most 1000000, got {int(trials)}\n")

    def test_horizon_past_memory_exit_2_at_once(self, config_path, capsys):
        """A horizon of 10^17 steps needs 1.6 EB per path, past any address
        space: the allocation fails at once, and the error names the
        shape."""
        path = config_path({"horizon": 10 ** 17, "trials": 2})
        start = time.perf_counter()
        assert main(["simulate", "--config", path]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory: ")
        assert "100000000000000000" in captured.err
        assert captured.err.count("\n") == 1

    def test_window_past_the_path_detects_as_full_mode(self, config_path,
                                                       tmp_path):
        """No maximum bounds ``window``: one far longer than the data runs,
        allocates by the data, and gives full mode's verdict."""
        obs = np.random.default_rng(3).standard_normal((2, 200))
        obs[1, 120:] += 1.5
        write_data_csv(tmp_path / "data.csv", obs)
        verdicts = []
        for i, extra in enumerate(([], ["--window", "1000000000"])):
            out = tmp_path / f"out{i}"
            assert main(["detect", "--config", config_path(), "--out",
                         str(out), *extra, str(tmp_path / "data.csv")]) == 0
            verdicts.append((out / "verdict.json").read_text())
        assert verdicts[0] == verdicts[1]
        assert json.loads(verdicts[0])["stopped"]

    def test_flags_override_out_of_range_config_values(self, config_path,
                                                       tmp_path, capsys):
        path = config_path({"trials": 0, "seed": -1})
        assert main(["validate", "--config", path, "--trials", "30",
                     "--seed", "11"]) == 0
        assert "PASS" in capsys.readouterr().out
        data = tmp_path / "data.csv"
        write_data_csv(data, np.zeros((2, 5)))
        path = config_path({"window": 0}, name="window.yaml")
        assert main(["detect", "--config", path, "--window", "5",
                     str(data)]) == 3
        assert json.loads(capsys.readouterr().out)["stopped"] is False


def test_config_without_plan_keys_loads_the_defaults(tmp_path):
    # RunConfig's declaration holds the only defaults of the plan keys
    sections = {key: BASE_CONFIG[key] for key in ("prior", "models", "mixing")}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(sections))
    assert load_config(str(path)) == RunConfig(**sections)


WORKLOADS_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "workloads.py")


class TestYamlLoader:
    """``load_config`` parses with libyaml where PyYAML was built with it.
    It shares the pure-Python safe loader's resolver and constructors, so
    both give the same config."""

    # every section, each plan key, and scalars the resolver types
    EVERY_SECTION = (
        "# a comment\n"
        "prior: {kind: discrete_weibull, kappa: 0.5, scale: 40.0, q: 1.0e-2}\n"
        "models:\n"
        "  - {kind: gaussian, theta_min: 0.25, theta_max: 2, sigma: 1.5}\n"
        "  - kind: ar_gaussian\n"
        "    theta_min: .25\n"
        "    theta_max: 2.0\n"
        "    ar_coeffs: [0.5, -0.2]\n"
        "    stationary_init: false\n"
        "    signal: {kind: sine, omega: 0.3, amplitude: 3.0}\n"
        "mixing: {min: 0.25, max: 2.0, count: 12, spacing: linear,\n"
        "         weights: gaussian, v: 1.0}\n"
        "targets: {alpha: 0.05, beta: 0.01, beta_bar: 0.02}\n"
        "horizon: 500\ntrials: 40\nseed: 7\nthreads: 2\nwindow: 50\n"
        "theta_points: [0.5, 1.0]\nchange_stream: 2\nout: 'runs/one'\n")

    @staticmethod
    def _both(path, monkeypatch):
        """The config in ``path`` by the default loader and by the
        pure-Python one, and the loaders ``yaml.load`` was called with."""
        used, load = [], yaml.load

        def spy(fh, Loader):
            used.append(Loader)
            return load(fh, Loader=Loader)

        monkeypatch.setattr(yaml, "load", spy)
        fast = load_config(path)
        with monkeypatch.context() as m:
            m.delattr(yaml, "CSafeLoader")
            slow = load_config(path)
        return fast, slow, used

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="no libyaml")
    def test_same_config_as_the_pure_python_loader(self, tmp_path,
                                                   monkeypatch):
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      WORKLOADS_PATH)
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses resolve their annotations through sys.modules
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        texts = [yaml.safe_dump(workloads.config_dict(name))
                 for name in workloads.NAMES] + [self.EVERY_SECTION]
        for i, text in enumerate(texts):
            path = tmp_path / f"cfg{i}.yaml"
            path.write_text(text)
            fast, slow, used = self._both(str(path), monkeypatch)
            assert fast == slow
            assert used == [yaml.CSafeLoader, yaml.SafeLoader]
        assert fast.prior["q"] == 0.01 and fast.out == "runs/one"

    @pytest.mark.parametrize("libyaml", [True, False])
    def test_invalid_yaml_exit_2(self, tmp_path, monkeypatch, capsys, libyaml):
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        elif not yaml.__with_libyaml__:
            pytest.skip("no libyaml")
        path = tmp_path / "cfg.yaml"
        path.write_text("prior: [1, 2\n")
        assert main(["calibrate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: config file is not valid YAML:")


class TestBadPathAndDeepNesting:
    """An OS error on a path a command reads or writes, and input nested
    past the interpreter's recursion limit, exit 2 with one ``error:``
    line instead of a traceback."""

    @pytest.mark.parametrize("argv, pure_python, message", [
        pytest.param(["calibrate", "--config", "{dir}"], False,
                     "cannot read config file: [Errno 21] Is a directory",
                     id="config_is_a_directory"),
        pytest.param(["calibrate", "--config", "{cfg}", "--out", "{file}"],
                     False, "[Errno 17] File exists",
                     id="calibrate_out_is_a_file"),
        pytest.param(["detect", "--config", "{cfg}", "--out", "{file}",
                      "{data}"], False, "[Errno 17] File exists",
                     id="detect_out_is_a_file"),
        pytest.param(["simulate", "--config", "{cfg}", "--out", "{file}"],
                     False, "[Errno 17] File exists",
                     id="simulate_out_is_a_file"),
        pytest.param(["calibrate", "--config", "{cfg}", "--out", "{file}/x"],
                     False, "[Errno 20] Not a directory",
                     id="out_under_a_file"),
        pytest.param(["report", "{deep_json}"], False,
                     "cannot read report: {deep_json} is not a risk report: "
                     "maximum recursion depth exceeded",
                     id="report_nested_5000_deep"),
        pytest.param(["calibrate", "--config", "{deep_yaml}"], True,
                     "config file is not valid YAML: maximum recursion depth "
                     "exceeded", id="config_nested_500_deep_pure_python"),
        # libyaml loads it and the message that quotes it runs out of
        # depth; the pure-Python loader stops at its nesting instead
        pytest.param(["calibrate", "--config", "{deep_out}"], False,
                     "maximum recursion depth exceeded",
                     id="config_value_nested_5000_deep"),
    ])
    def test_exit_2_with_one_error_line(self, config_path, tmp_path,
                                        monkeypatch, capsys, argv,
                                        pure_python, message):
        if pure_python:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        cfg = config_path({"horizon": 40, "trials": 2})
        paths = {"dir": tmp_path, "cfg": cfg, "file": tmp_path / "a_file",
                 "data": tmp_path / "data.csv",
                 "deep_json": tmp_path / "deep.json",
                 "deep_yaml": tmp_path / "deep.yaml",
                 "deep_out": tmp_path / "deep_out.yaml"}
        paths["file"].write_text("")
        write_data_csv(paths["data"], np.zeros((2, 5)))
        paths["deep_json"].write_text("[" * 5000 + "]" * 5000)
        paths["deep_yaml"].write_text("[" * 500 + "]" * 500)
        paths["deep_out"].write_text((tmp_path / "cfg.yaml").read_text()
                                     + "out: " + "[" * 5000 + "]" * 5000)
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message.format(**paths) in err


class TestImportFootprint:
    """scipy loads only to simulate AR noise and to take the Monte Carlo
    quantiles, and the process pool only for a campaign on several
    workers: neither importing the package nor ``detect`` on AR streams
    loads any scipy module or the pool."""

    GUARD = ("import sys\n{code}\n"
             "loaded = sorted(m for m in sys.modules\n"
             "                if m == 'scipy' or m.startswith('scipy.')\n"
             "                or m.startswith('concurrent.futures.process'))\n"
             "assert not loaded, loaded\n")

    def _run(self, code):
        import changeid
        src = os.path.dirname(os.path.dirname(changeid.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", self.GUARD.format(code=code)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_import_loads_neither(self):
        self._run("import changeid")

    def test_detect_on_ar_streams_loads_neither(self, config_path, tmp_path):
        models = [{"kind": "ar_gaussian", "theta_min": 0.25, "theta_max": 2.0,
                   "ar_coeffs": [0.5]}] * 2
        cfg = config_path({"models": models})
        obs = np.random.default_rng(5).standard_normal((2, 300)) + 0.8
        data = tmp_path / "data.csv"
        write_data_csv(data, obs)
        self._run("from changeid import cli\n"
                  f"assert cli.main(['detect', '--config', {cfg!r}, {str(data)!r}]) == 0")
