"""Command-line entry point.

Subcommands:

* ``calibrate`` -- thresholds and closed-form risk/delay tables from targets
* ``detect``    -- run the rule offline on a CSV of observations
* ``simulate``  -- Monte Carlo campaign; writes a risk report (JSON + CSV)
* ``validate``  -- law-of-large-numbers diagnostics for the configured models
* ``report``    -- summarize a previously written risk report

Exit codes: 0 success/alarm, 2 usage or data error, 3 censored (no alarm,
or censor budget exceeded), 4 bound-check or diagnostic failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import montecarlo, theory
from .config import (ConfigError, RunConfig, build_mixing, build_models,
                     build_prior, build_thresholds, load_config)
from .models import ModelError, info_number_pair_inf
from .montecarlo import ExperimentPlan, RiskReport, jsonable
from .rule import CalibrationError, run

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CENSORED = 3
EXIT_BOUND_FAIL = 4

# the walk's csv field size limit: a cell of any length that fits in
# memory, and a value every platform's C long holds
_FIELD_LIMIT = 2 ** 31 - 1


def _load(args):
    """Config with flag overrides applied, and the objects built from it:
    (cfg, prior, models, mixing, thresholds)."""
    cfg = load_config(args.config)
    for key in ("seed", "trials", "threads", "window", "out"):
        if getattr(args, key, None) is not None:
            setattr(cfg, key, getattr(args, key))
    return (cfg, build_prior(cfg.prior), build_models(cfg.models),
            build_mixing(cfg.mixing), build_thresholds(cfg))


def _emit(text: str, out_dir: Optional[str], filename: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, filename), "w") as fh:
        fh.write(text)


def _theory_tables(cfg: RunConfig, thresholds, models, mixing, prior) -> dict:
    per_stream, total = theory.pfa_bound(thresholds)
    pair, rows = theory.pmi_bound(thresholds)
    mu = prior.tail_exponent().mu
    tables = {
        "log_thresholds": thresholds.log_a.tolist(),
        "pfa_bound_per_stream": per_stream.tolist(),
        "pfa_bound_total": total,
        "pmi_bound_matrix": pair.tolist(),
        "pmi_bound_row_sums": rows.tolist(),
        "prior_tail_exponent": mu,
        "psi_delay_scale": {},
    }
    for theta in cfg.theta_points:
        psis = []
        for i in range(1, cfg.n_streams + 1):
            try:
                info = models[i - 1].info_number(theta)
            except ModelError:
                psis.append(None)
                continue
            pair_inf = {}
            for j in range(1, cfg.n_streams + 1):
                if j == i:
                    continue
                on_grid, _ = info_number_pair_inf(models[i - 1], theta,
                                                  models[j - 1],
                                                  grid_j=mixing.grid)
                pair_inf[j] = on_grid
            psis.append(theory.psi_threshold(thresholds, i, info, pair_inf, mu))
        tables["psi_delay_scale"][repr(float(theta))] = psis
    return tables


def cmd_calibrate(args) -> int:
    cfg, prior, models, mixing, thresholds = _load(args)
    tables = _theory_tables(cfg, thresholds, models, mixing, prior)
    _emit(json.dumps(jsonable(tables), sort_keys=True, indent=2,
                     allow_nan=False) + "\n",
          cfg.out, "thresholds.json")
    return EXIT_OK


def _read_data_csv(path: str, n_streams: int) -> np.ndarray:
    """The observations of a data CSV as a C-contiguous (N, T) array.

    A well-formed file is parsed in one ``np.loadtxt`` call.  Any other
    file is walked row by row, which accepts every cell Python's
    ``int``/``float`` accept and names the first bad row.
    """
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        # the walk decodes as it reads, so it still names a bad row that
        # comes before the undecodable bytes
        text = None
    except OSError as exc:
        raise ConfigError(f"cannot read data file: {exc}")
    obs = None if text is None else _load_table(text, n_streams)
    if obs is None:
        obs = _walk_rows(path, n_streams, text)
    return np.ascontiguousarray(obs)


def _load_table(text: str, n_streams: int) -> Optional[np.ndarray]:
    """The (N, T) observations when an ASCII file's body parses in one
    ``np.loadtxt`` call and passes the walk's checks as a table; None for
    any other file, which the walk then reads."""
    # numpy decodes the bytes it is given as latin-1, which gives back the
    # text only when the text is ASCII
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    # with no lone "\r", every line ends at "\n", as it does for numpy, and
    # the header is the first line
    if raw.count(b"\r") != raw.count(b"\r\n"):
        return None
    head, _, body = raw.partition(b"\n")
    expected = ["t"] + [f"stream_{i}" for i in range(1, n_streams + 1)]
    # a header with quotes fails this split and is left to the walk
    if [h.strip() for h in head.decode().split(",")] != expected:
        return None
    # a first row that is missing or blank is one the walk rejects; numpy
    # would warn on a body of blank lines
    if not body or body.startswith((b"\r", b"\n")):
        return None
    dtype = np.dtype([("t", np.int64), ("x", np.float64, (n_streams,))])
    try:
        table = np.loadtxt(io.BytesIO(body), dtype=dtype, delimiter=",",
                           comments=None, quotechar='"', ndmin=1)
    except ValueError:
        return None
    # numpy skips blank lines, which the walk rejects, and a quoted line
    # break joins two lines into one row: either leaves fewer rows than
    # lines, so the time index cannot match the line numbers
    lines = body.count(b"\n") + (not body.endswith(b"\n"))
    if (not np.array_equal(table["t"], np.arange(1, lines + 1))
            or not np.isfinite(table["x"]).all()):
        return None
    return table["x"].T


def _walk_rows(path: str, n_streams: int, text: Optional[str]) -> np.ndarray:
    """The observations read one csv row at a time from ``text``, or from
    the file when it did not decode; raises ConfigError at the first bad
    row.  Like ``np.loadtxt``, the walk takes a cell of any length, so a
    file reads the same whatever its line endings."""
    # the field size limit is process-wide: raised for this read only
    limit = csv.field_size_limit(_FIELD_LIMIT)
    try:
        with (open(path, newline="") if text is None
              else io.StringIO(text, newline="")) as fh:
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
    except csv.Error as exc:
        # a cell longer than _FIELD_LIMIT characters
        raise ConfigError(f"line {reader.line_num}: {exc}")
    except OSError as exc:
        raise ConfigError(f"cannot read data file: {exc}")
    finally:
        csv.field_size_limit(limit)
    if not rows:
        raise ConfigError(f"data file {path} has a header but no rows")
    return np.asarray(rows, dtype=float).T


def cmd_detect(args) -> int:
    cfg, prior, models, mixing, thresholds = _load(args)
    obs = _read_data_csv(args.data, cfg.n_streams)
    verdict = run(models, prior, mixing, thresholds, obs, window=cfg.window)
    payload = {
        "stopped": verdict.stopped,
        "time": verdict.time,
        "stream": verdict.stream,
        "met_streams": list(verdict.met_streams),
        "horizon": verdict.horizon,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", cfg.out,
          "verdict.json")
    return EXIT_OK if verdict.stopped else EXIT_CENSORED


def _plan_dict(cfg: RunConfig) -> dict:
    # worker count affects scheduling only, never results, so it is not
    # part of the reproducibility record
    return {
        "trials": cfg.trials, "horizon": cfg.horizon, "seed": cfg.seed,
        "window": cfg.window,
        "theta_points": list(cfg.theta_points),
        "change_stream": cfg.change_stream,
        "prior": cfg.prior, "models": cfg.models, "mixing": cfg.mixing,
        "targets": {k: v for k, v in cfg.targets.items()},
    }


def cmd_simulate(args) -> int:
    cfg, prior, models, mixing, thresholds = _load(args)
    plan = ExperimentPlan(n_trials=cfg.trials, horizon=cfg.horizon,
                          master_seed=cfg.seed, window=cfg.window,
                          threads=cfg.threads)
    report = RiskReport(plan=_plan_dict(cfg))
    report.theory = _theory_tables(cfg, thresholds, models, mixing, prior)

    null_outcomes = montecarlo.run_null_batch(plan, models, prior, mixing,
                                              thresholds)
    report.pfa = montecarlo.estimate_pfa(null_outcomes, prior, cfg.n_streams,
                                         horizon=cfg.horizon)
    change_trials = 0
    change_censored = 0
    stream = cfg.change_stream
    for theta in cfg.theta_points:
        outcomes = montecarlo.run_change_batch(plan, models, prior, mixing,
                                               thresholds, stream, theta)
        change_trials += len(outcomes)
        change_censored += sum(1 for o in outcomes if not o.stopped)
        for row in montecarlo.estimate_pmi(outcomes, stream, cfg.n_streams):
            row["theta"] = float(theta)
            report.pmi.append(row)
        try:
            cell = montecarlo.estimate_delay(outcomes, stream, r=1)
            cell["theta"] = float(theta)
            report.delay.append(cell)
        except montecarlo.MonteCarloError:
            pass
    report.censoring = {
        "null_trials": len(null_outcomes),
        "null_censored": sum(1 for o in null_outcomes if not o.stopped),
        "change_trials": change_trials,
        "change_censored": change_censored,
    }
    report.check_censor_budget()

    bound_fail = False
    bounds = report.theory["pfa_bound_per_stream"]
    for cell in report.pfa:
        ok = cell["upper"] <= bounds[cell["stream"] - 1]
        bound_fail |= not ok
        print(f"PFA stream {cell['stream']}: estimate {cell['estimate']:.5g} "
              f"upper {cell['upper']:.5g} bound {bounds[cell['stream'] - 1]:.5g} "
              f"{'PASS' if ok else 'FAIL'}")
    pmi_bounds = report.theory["pmi_bound_matrix"]
    for cell in report.pmi:
        bound = pmi_bounds[cell["true_stream"] - 1][cell["decided_stream"] - 1]
        ok = cell["upper"] <= bound
        bound_fail |= not ok
        print(f"PMI {cell['true_stream']}->{cell['decided_stream']} "
              f"theta={cell['theta']:g}: estimate {cell['estimate']:.5g} "
              f"upper {cell['upper']:.5g} bound {bound:.5g} "
              f"{'PASS' if ok else 'FAIL'}")

    _emit(report.to_json(), cfg.out, "report.json")
    if cfg.out is not None:
        _emit(report.to_csv(), cfg.out, "report.csv")
    if bound_fail:
        return EXIT_BOUND_FAIL
    if report.flags:
        return EXIT_CENSORED
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg, prior, models, mixing, thresholds = _load(args)
    thetas = cfg.theta_points or list(mixing.grid[[0, -1]])
    report = RiskReport(plan=_plan_dict(cfg))
    report.theory = _theory_tables(cfg, thresholds, models, mixing, prior)
    report.diagnostics = montecarlo.validate_conditions(
        models, thetas, master_seed=cfg.seed,
        n_paths=min(cfg.trials, 100))
    failed = False
    for row in report.diagnostics:
        ok = row["ok"]
        failed |= not ok
        print(f"drift stream {row['stream']} theta={row['theta']:g} "
              f"n={row['n']}: rate {row['mean_rate']:.5g} "
              f"target {row['target']:.5g} {'PASS' if ok else 'FAIL'}")
    _emit(report.to_json(), cfg.out, "report.json")
    if cfg.out is not None:
        _emit(report.to_csv(), cfg.out, "report.csv")
    return EXIT_BOUND_FAIL if failed else EXIT_OK


def cmd_report(args) -> int:
    try:
        with open(args.report) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for cell in data.get("pfa", []):
        print(f"PFA stream {cell['stream']}: estimate {cell['estimate']:.5g} "
              f"upper {cell['upper']:.5g}")
    for cell in data.get("pmi", []):
        print(f"PMI {cell['true_stream']}->{cell['decided_stream']}: "
              f"estimate {cell['estimate']:.5g} upper {cell['upper']:.5g}")
    for cell in data.get("delay", []):
        print(f"delay stream {cell['stream']} r={cell['r']}: "
              f"estimate {cell['estimate']:.5g}")
    flags = data.get("flags", [])
    for flag in flags:
        print(f"FLAG: {flag}")
    # the only flag a report carries is the censor budget, which
    # ``simulate`` also answers with EXIT_CENSORED
    return EXIT_CENSORED if flags else EXIT_OK


def _add_common(p: argparse.ArgumentParser, config_required: bool = True) -> None:
    p.add_argument("--config", required=config_required, help="YAML run config")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--trials", type=int, help="trial count override")
    p.add_argument("--threads", type=int, help="worker cap override")
    p.add_argument("--out", help="output directory (default: stdout)")
    p.add_argument("--window", type=int,
                   help="window-limited candidate span override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="changeid",
        description="Multistream sequential change detection and identification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="thresholds and closed-form tables")
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("detect", help="run the rule on a CSV of observations")
    _add_common(p)
    p.add_argument("data", help="CSV with header t,stream_1..stream_N")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("simulate", help="Monte Carlo risk estimation")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="information-rate diagnostics")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="summarize a saved risk report")
    p.add_argument("report", help="path to report.json")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, CalibrationError, ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
