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
import dataclasses
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
from .models import ModelError
from .montecarlo import ExperimentPlan, RiskReport, canonical_json
from .rule import run

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CENSORED = 3
EXIT_BOUND_FAIL = 4

# the walk's csv field size limit: a cell of any length that fits in
# memory, and a value every platform's C long holds
_FIELD_LIMIT = 2 ** 31 - 1

# the config values a flag may override, each given only to the
# subcommands that read it
_OVERRIDES = {
    "seed": dict(type=int, help="master seed override"),
    "trials": dict(type=int, help="trial count override"),
    "threads": dict(type=int, help="worker cap override"),
    "window": dict(type=int, help="window-limited candidate span override"),
    "out": dict(help="output directory (default: stdout)"),
}


def _load(args):
    """Config with flag overrides applied, and the objects built from it:
    (cfg, prior, models, mixing, thresholds)."""
    cfg = load_config(args.config, {
        key: getattr(args, key) for key in _OVERRIDES
        if getattr(args, key, None) is not None})
    prior, models, mixing = (build_prior(cfg.prior), build_models(cfg.models),
                             build_mixing(cfg.mixing))
    # the mixing measure lives on each stream's parameter interval
    for idx, model in enumerate(models, start=1):
        for end in (mixing.grid[0], mixing.grid[-1]):
            if not model.theta_min <= end <= model.theta_max:
                raise ConfigError(
                    f"stream {idx}: mixing grid end {end:g} outside parameter "
                    f"interval [{model.theta_min:g}, {model.theta_max:g}]")
    return cfg, prior, models, mixing, build_thresholds(cfg)


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
    mu = prior.tail_exponent()
    # inf I_0j over stream j's mixing grid; for the shipped Gaussian model
    # the pre-change drift rate I_0j equals the post-change rate I_j
    competitor_info = {j: min(m.info_number(g) for g in mixing.grid)
                       for j, m in enumerate(models, start=1)}
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
        for i, model in enumerate(models, start=1):
            try:
                info = model.info_number(theta)
            except ModelError:
                psis.append(None)
                continue
            psis.append(theory.psi_threshold(thresholds, i, info,
                                             competitor_info, mu))
        tables["psi_delay_scale"][repr(float(theta))] = psis
    return tables


def cmd_calibrate(args) -> int:
    cfg, prior, models, mixing, thresholds = _load(args)
    tables = _theory_tables(cfg, thresholds, models, mixing, prior)
    _emit(canonical_json(tables), cfg.out, "thresholds.json")
    return EXIT_OK


def _read_data_csv(path: str, n_streams: int) -> np.ndarray:
    """The observations of a data CSV as a C-contiguous (N, T) array.

    The file is read once, as bytes.  A well-formed ASCII file is parsed
    in one ``np.loadtxt`` call.  Any other file is decoded as UTF-8 and
    walked row by row, which accepts every cell Python's ``int``/``float``
    accept and names the first bad row; an undecodable byte, read as
    U+FFFD, fails its row.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read data file: {exc}")
    obs = _load_table(raw, n_streams)
    if obs is None:
        obs = _walk_rows(raw.decode("utf-8", "replace"), n_streams, path)
    return np.ascontiguousarray(obs)


def _header(n_streams: int) -> list:
    """The data CSV's header cells: t, stream_1..stream_N."""
    return ["t"] + [f"stream_{i}" for i in range(1, n_streams + 1)]


def _load_table(raw: bytes, n_streams: int) -> Optional[np.ndarray]:
    """The (N, T) observations when an ASCII file's body parses in one
    ``np.loadtxt`` call and passes the walk's checks as a table; None for
    any other file, which the walk then reads."""
    # numpy decodes the bytes it is given as latin-1, which gives back the
    # text only when the text is ASCII
    if not raw.isascii():
        return None
    # with no lone "\r", every line ends at "\n", as it does for numpy, and
    # the header is the first line; only a file with a "\r" is counted
    if b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n"):
        return None
    head, _, body = raw.partition(b"\n")
    expected = _header(n_streams)
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
    lines = (np.count_nonzero(np.frombuffer(body, np.uint8) == ord("\n"))
             + (not body.endswith(b"\n")))
    if (not np.array_equal(table["t"], np.arange(1, lines + 1))
            or not np.isfinite(table["x"]).all()):
        return None
    return table["x"].T


def _walk_rows(text: str, n_streams: int, path: str) -> np.ndarray:
    """The observations read one csv row at a time from the file's
    ``text``; raises ConfigError at the first bad row.  Like
    ``np.loadtxt``, the walk takes a cell of any length, so a file reads
    the same whatever its line endings."""
    # the field size limit is process-wide: raised for this read only
    limit = csv.field_size_limit(_FIELD_LIMIT)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"data file {path} is empty")
        expected = _header(n_streams)
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
    finally:
        csv.field_size_limit(limit)
    if not rows:
        raise ConfigError(f"data file {path} has a header but no rows")
    return np.asarray(rows, dtype=float).T


def cmd_detect(args) -> int:
    cfg, prior, models, mixing, thresholds = _load(args)
    obs = _read_data_csv(args.data, cfg.n_streams)
    verdict = run(models, prior, mixing, thresholds, obs, window=cfg.window)
    _emit(canonical_json(dataclasses.asdict(verdict)), cfg.out, "verdict.json")
    return EXIT_OK if verdict.stopped else EXIT_CENSORED


def _plan_dict(cfg: RunConfig) -> dict:
    plan = dataclasses.asdict(cfg)
    # worker count affects scheduling only and the output directory only
    # where the report goes, never results, so neither is part of the
    # reproducibility record
    del plan["threads"], plan["out"]
    return plan


def _check_theta_points(cfg: RunConfig, models, streams, label: str) -> None:
    """Each ``theta_points`` entry lies in the parameter interval of each
    of ``streams`` (1-based), which the message calls ``label``.  Checked
    by the commands that draw paths at these thetas, not in ``_load``:
    calibrate reports a null delay scale for a stream whose interval
    excludes a theta."""
    for theta in cfg.theta_points:
        for stream in streams:
            model = models[stream - 1]
            if not model.theta_min <= theta <= model.theta_max:
                raise ConfigError(
                    f"theta_points: {theta:g} outside {label} {stream}'s "
                    f"parameter interval [{model.theta_min:g}, "
                    f"{model.theta_max:g}]")


def cmd_simulate(args) -> int:
    cfg, prior, models, mixing, thresholds = _load(args)
    stream = cfg.change_stream
    _check_theta_points(cfg, models, [stream], "change_stream")
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
    for theta in cfg.theta_points:
        outcomes = montecarlo.run_change_batch(plan, models, prior, mixing,
                                               thresholds, stream, theta)
        change_trials += len(outcomes)
        change_censored += sum(1 for o in outcomes if not o.stopped)
        # a theta none of whose trials stops after nu has no pmi rows, and
        # one with no post-change stop on the stream no delay cell
        try:
            rows = montecarlo.estimate_pmi(outcomes, stream, cfg.n_streams)
        except montecarlo.MonteCarloError:
            rows = []
        for row in rows:
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
    return _finish(report, cfg.out)


def cmd_validate(args) -> int:
    cfg, prior, models, mixing, thresholds = _load(args)
    _check_theta_points(cfg, models, range(1, cfg.n_streams + 1), "stream")
    thetas = cfg.theta_points or list(mixing.grid[[0, -1]])
    report = RiskReport(plan=_plan_dict(cfg))
    report.theory = _theory_tables(cfg, thresholds, models, mixing, prior)
    report.diagnostics = montecarlo.validate_conditions(
        models, thetas, master_seed=cfg.seed,
        n_paths=min(cfg.trials, 100))
    return _finish(report, cfg.out)


def _float(value) -> float:
    """A number read from a report: null, which ``canonical_json`` writes
    for a non-finite value, reads as NaN, so a null bound fails its check."""
    return math.nan if value is None else value


def _summary(data) -> tuple:
    """The stdout text of a risk report's JSON and the exit code of the run
    that wrote it: EXIT_BOUND_FAIL when a bound or drift check fails, else
    EXIT_CENSORED when the report carries a flag, else EXIT_OK.  Raises
    KeyError, TypeError or ValueError on JSON that is not a risk report."""
    if not isinstance(data, dict):
        raise TypeError(f"expected a JSON object, got {type(data).__name__}")
    flags = data.get("flags", [])
    if not isinstance(flags, list):
        raise TypeError(f"flags must be a list, got {type(flags).__name__}")
    lines, failed = [], False

    def check(text, ok):
        nonlocal failed
        failed |= not ok
        lines.append(f"{text} {'PASS' if ok else 'FAIL'}")

    # the estimate before the bound: a cell without one is named as such
    for cell in data.get("pfa", []):
        text = (f"PFA stream {cell['stream']}: estimate {cell['estimate']:.5g} "
                f"upper {cell['upper']:.5g}")
        bound = _float(data["theory"]["pfa_bound_per_stream"][cell["stream"] - 1])
        check(f"{text} bound {bound:.5g}", cell["upper"] <= bound)
    for cell in data.get("pmi", []):
        i, j = cell["true_stream"], cell["decided_stream"]
        text = (f"PMI {i}->{j} theta={cell['theta']:g}: estimate "
                f"{cell['estimate']:.5g} upper {cell['upper']:.5g}")
        bound = _float(data["theory"]["pmi_bound_matrix"][i - 1][j - 1])
        check(f"{text} bound {bound:.5g}", cell["upper"] <= bound)
    for cell in data.get("delay", []):
        lines.append(f"delay stream {cell['stream']} r={cell['r']} "
                     f"theta={cell['theta']:g}: estimate {cell['estimate']:.5g}")
    for row in data.get("diagnostics", []):
        check(f"drift stream {row['stream']} theta={row['theta']:g} "
              f"n={row['n']}: rate {_float(row['mean_rate']):.5g} "
              f"target {_float(row['target']):.5g}", row["ok"])
    lines.extend(f"FLAG: {flag}" for flag in flags)
    code = EXIT_BOUND_FAIL if failed else EXIT_CENSORED if flags else EXIT_OK
    return "".join(f"{line}\n" for line in lines), code


def _finish(report: RiskReport, out_dir: Optional[str]) -> int:
    """Print the report's summary, write ``report.json`` (and, with an
    output directory, ``report.csv``) and return the summary's exit code."""
    text = report.to_json()
    summary, code = _summary(json.loads(text))
    sys.stdout.write(summary)
    _emit(text, out_dir, "report.json")
    if out_dir is not None:
        _emit(report.to_csv(), out_dir, "report.csv")
    return code


def cmd_report(args) -> int:
    try:
        with open(args.report, encoding="utf-8") as fh:
            summary, code = _summary(json.load(fh))
    except OSError as exc:
        print(f"error: cannot read report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # a file that is not UTF-8 or not JSON raises a ValueError
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: cannot read report: {args.report} is not a risk "
              f"report: {reason}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(summary)
    return code


def _add_config(p: argparse.ArgumentParser, *overrides: str) -> None:
    """``--config`` and the config overrides the subcommand reads."""
    p.add_argument("--config", required=True, help="YAML run config")
    for key in overrides:
        p.add_argument(f"--{key}", **_OVERRIDES[key])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="changeid",
        description="Multistream sequential change detection and identification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="thresholds and closed-form tables")
    _add_config(p, "out")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("detect", help="run the rule on a CSV of observations")
    _add_config(p, "window", "out")
    p.add_argument("data", help="CSV with header t,stream_1..stream_N")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("simulate", help="Monte Carlo risk estimation")
    _add_config(p, *_OVERRIDES)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="information-rate diagnostics")
    _add_config(p, "seed", "trials", "out")
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
    except ValueError as exc:  # every library error is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's message names the shape
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
