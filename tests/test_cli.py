import csv
import json

import numpy as np
import pytest
import yaml

from changeid import ARGaussianSignal, simulate
from changeid.cli import main


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

    def test_invalid_targets_exit_2(self, config_path, capsys):
        path = config_path({"targets": {"alpha": 2.0, "beta": 0.05}})
        assert main(["calibrate", "--config", path]) == 2

    def test_unknown_config_key_exit_2(self, config_path):
        path = config_path({"bogus_key": 1})
        assert main(["calibrate", "--config", path]) == 2

    def test_missing_config_file_exit_2(self, tmp_path):
        assert main(["calibrate", "--config", str(tmp_path / "nope.yaml")]) == 2

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
    ])
    def test_malformed_config_exit_2(self, config_path, capsys, overrides,
                                     message):
        assert main(["calibrate", "--config", config_path(overrides)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if message is not None:
            assert err == message


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

    def test_empty_file_exit_2(self, config_path, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("")
        assert main(["detect", "--config", config_path(), str(data)]) == 2

    def test_nan_cell_exit_2(self, config_path, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("t,stream_1,stream_2\n1,0.5,nan\n")
        assert main(["detect", "--config", config_path(), str(data)]) == 2
        assert "row 2" in capsys.readouterr().err

    def test_wrong_header_exit_2(self, config_path, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("time,a,b\n1,0.5,0.2\n")
        assert main(["detect", "--config", config_path(), str(data)]) == 2


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

    def test_zero_trials_exit_2(self, config_path):
        assert main(["simulate", "--config", config_path({"trials": 0})]) == 2


class TestValidate:
    def test_diagnostics_pass(self, config_path, capsys):
        code = main(["validate", "--config",
                     config_path({"trials": 30, "theta_points": [1.0]})])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out


class TestReport:
    def test_summarizes_saved_report(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", config_path({"trials": 40}),
              "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out / "report.json")]) == 0
        assert "PFA stream 1" in capsys.readouterr().out

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.json")]) == 2

    def test_flagged_report_exit_3(self, tmp_path, capsys):
        # the same code ``simulate`` returns for an exceeded censor budget
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"flags": [
            "censor budget exceeded: 9/40 change-present trials censored "
            "(budget 0.01)"]}))
        assert main(["report", str(path)]) == 3
        assert "FLAG: censor budget exceeded" in capsys.readouterr().out
