"""Measure one workload in this fresh process and write the raw results.

Usage: python3 worker.py --src DIR --work DIR --workload NAME --seed N
                         --seconds S --trace 0|1 --result FILE

The process runs one untimed warm-up operation, then operations until
``--seconds`` have passed, each followed by calls of the reference loop
(reference.py) that measure the machine's speed, then the output checks.
With ``--trace 1`` each operation runs twice, untraced and then with every
public name in ``tracer.TARGETS`` wrapped, and one untimed pass under
tracemalloc follows.
The process's ``ru_maxrss`` is the workload's peak RSS, which is why each
workload gets a process of its own.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
import checks  # noqa: E402
from stats import tail  # noqa: E402
from reference import SpeedMeter, loop  # noqa: E402
from tracer import REQUIRED, TraceError, Tracer  # noqa: E402

CAPTURE_EVERY = 80      # sample every 80th trial of the warm-up pool
CAPTURE_LIMIT = 12
REF_SHARE = 0.25        # reference calls after each operation, share of its wall
LAYERS = ("cli", "config", "montecarlo", "models", "rule", "engine")


def source_digest(paths) -> str:
    """Digest of the given source files, names included."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def build(workload):
    from changeid import config
    cfg = config.load_config(workload.config_path)
    return (cfg, config.build_prior(cfg.prior), config.build_models(cfg.models),
            config.build_mixing(cfg.mixing), config.build_thresholds(cfg))


class Run:
    """Accumulates operations, outcomes and failures of one worker run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.pooled = {}            # mc-standard: the warm-up pool by batch tag
        self.digests = []           # (key, digest) per operation, in order

    def op(self, rep: int):
        """Run operation ``rep`` (0 is the warm-up); returns its OpResult, or
        None if it raised."""
        try:
            res = self.workload.op(rep) if rep else self.workload.warm_up()
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failures.append(f"operation {rep} raised")
            return None
        self.attempted += res.attempted
        self.failures.extend(res.failures)
        if self.workload.name != "mc-standard":
            key = "detect"
        else:
            key = "pool" if rep == 0 else "campaign"
        self.digests.append((key, workloads.digest(res.outcomes)))
        if rep == 0 and res.pooled:
            self.pooled = res.pooled
        return res


def timed_loop(run: Run, seconds: float, meter: SpeedMeter) -> list:
    """Operations 1, 2, ... until ``seconds`` have passed, each followed by
    reference calls for REF_SHARE of its wall."""
    results = []
    t_end = time.perf_counter() + seconds
    while not results or time.perf_counter() < t_end:
        res = run.op(len(results) + 1)
        if res is None:
            raise RuntimeError("a measured operation raised; see above")
        results.append(res)
        meter.sample(REF_SHARE * res.wall_s)
    return results


def traced_pairs(run: Run, seconds: float, required):
    """Operations 1, 2, ... until ``seconds`` have passed, each run untraced
    and then traced, so each pair's wall difference is the tracing overhead
    of the same work.  Returns the (untraced, traced, layer metrics) triples
    and the tracer holding the last operation's spans.  Fails if a required
    name was never called."""
    pairs = []
    tracer = Tracer()
    t_end = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < t_end:
        rep = len(pairs) + 1
        ref = run.op(rep)
        tracer.reset()
        tracer.install()
        try:
            res = run.op(rep)
        finally:
            tracer.uninstall()
        if ref is None or res is None:
            raise RuntimeError("a measured operation raised; see above")
        pairs.append((ref, res, layer_metrics(tracer.summary(), tracer.counts, res)))
    missing = tracer.missing_calls(required)
    if missing:
        raise TraceError(f"traced names never called: {', '.join(missing)}")
    return pairs, tracer


def layer_metrics(summary: dict, counts, res) -> dict:
    """Per-layer numbers of one traced operation."""
    def calls(span):
        return summary.get(span, {}).get("calls", 0)

    def per_call_us(span):
        c = calls(span)
        return summary[span]["total_s"] / c * 1e6 if c else 0.0

    def self_s(prefix):
        return sum(v["self_s"] for k, v in summary.items()
                   if k.startswith(prefix + "."))

    steps = calls("engine.advance")
    run_total = summary.get("rule.run", {}).get("total_s", 0.0)
    run_self = summary.get("rule.run", {}).get("self_s", 0.0)
    frames = calls("engine.frame")
    m = {
        "engine.log_mix_values_us": per_call_us("engine.log_mix_values"),
        "engine.advance_us": per_call_us("engine.advance"),
        "engine.advance_calls": steps,
        "engine.frame_us": per_call_us("engine.frame"),
        "engine.frame_calls": frames,
        "engine.frame_rows": counts["frame_rows"],
        "engine.frame_bytes_computed": counts["frame_bytes"],
        "engine.sup_lower_bounds_us": per_call_us("engine.sup_lower_bounds"),
        "engine.init_us": per_call_us("engine.init"),
        "rule.check_stop_us": per_call_us("rule.check_stop"),
        "rule.run_self_us_per_step": run_self / steps * 1e6 if steps else 0.0,
        "rule.run_self_share": 100.0 * run_self / run_total if run_total else 0.0,
        "rule.runs": calls("rule.run"),
        "rule.stops": counts["stops"],
        "rule.screen_pass_ratio": calls("engine.sup_lower_bounds") / steps if steps else 0.0,
        "rule.exact_frame_ratio": frames / steps if steps else 0.0,
        "rule.frame_useful_ratio": counts["stops"] / frames if frames else 0.0,
        "models.simulate_calls": calls("models.simulate"),
        "models.samples_used_ratio": (steps / counts["supplied_steps"]
                                      if counts["supplied_steps"] else 0.0),
        "config.build_ms": self_s("config") * 1e3,
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = 100.0 * self_s(layer) / res.wall_s
    # layer detail that exists on some workloads only (report, not JSON)
    batch_self = (summary.get("montecarlo.run_null_batch", {}).get("self_s", 0.0)
                  + summary.get("montecarlo.run_change_batch", {}).get("self_s", 0.0))
    detail = {
        "models.simulate_us": per_call_us("models.simulate"),
        "montecarlo.trial_self_us": (batch_self / calls("rule.run") * 1e6
                                     if calls("montecarlo.run_null_batch") else None),
        "montecarlo.estimate_ms": sum(v["self_s"] for k, v in summary.items()
                                      if k.startswith("montecarlo.estimate_")) * 1e3,
        "cli.self_ms": summary.get("cli.main", {}).get("self_s", 0.0) * 1e3,
        "counts": dict(counts),
    }
    return {"metrics": m, "detail": detail}


def engine_peak_mb(workload, objs, captured) -> float:
    """Peak traced allocation (MB) during ``rule.run``: over the captured
    campaign paths, or over one run on the detect workload's data."""
    import numpy as np
    from changeid import rule

    cfg, prior, models, mixing, thresholds = objs
    if captured:
        calls = [(a, k) for a, k, _ in captured]
    else:
        obs = np.loadtxt(workload.data_path, delimiter=",", skiprows=1)[:, 1:].T
        calls = [((models, prior, mixing, thresholds, obs),
                  {"window": cfg.window})]
    peak = 0
    tracemalloc.start()
    try:
        for args, kwargs in calls:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            rule.run(*args, **kwargs)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import changeid  # noqa: F401  (import before timing anything)
    import numpy
    import scipy

    workload = workloads.Workload(args.workload, args.seed, args.work)
    objs = build(workload)
    is_mc = workload.name == "mc-standard"
    run = Run(workload)
    out = {"versions": {"python": sys.version.split()[0],
                        "numpy": numpy.__version__, "scipy": scipy.__version__},
           "src_digest": source_digest(
               os.path.join(args.src, "changeid", n)
               for n in sorted(os.listdir(os.path.join(args.src, "changeid")))
               if n.endswith(".py"))}

    # warm-up: untimed; on mc-standard it also samples paths for re-derivation
    with checks.capture_runs(CAPTURE_EVERY, CAPTURE_LIMIT) as captured:
        warm = run.op(0)
    captured = list(captured)
    # the first operation in a process pays the allocator's page faults,
    # which a one-shot CLI user pays too; reported, never a bounded metric
    out["warm_up_wall_s"] = warm.wall_s if warm is not None else None

    if args.trace == 0:
        meter = SpeedMeter()
        for _ in range(10):
            loop()
        results = timed_loop(run, args.seconds, meter)
        out["ops"] = [{"wall_s": r.wall_s, "steps": r.steps,
                       "null_s": r.null_s, "change_s": r.change_s,
                       "null_trials": r.null_trials,
                       "change_trials": r.change_trials} for r in results]
        out["ref"] = {"calls": meter.calls, "seconds": meter.seconds}
    else:
        pairs, tracer = traced_pairs(
            run, args.seconds, REQUIRED["mc-standard" if is_mc else "detect"])
        spans_path = os.path.join(
            args.work, f"trace-{workload.name}-s{args.seed}.csv")
        tracer.write_spans(spans_path)
        out["traced"] = [{"wall_s": res.wall_s, "steps": res.steps,
                          "overhead_s": res.wall_s - ref.wall_s, **lm}
                         for ref, res, lm in pairs]
        out["spans_path"] = spans_path
        out["tails"] = {name: tail(tracer.durations(name))
                        for name in ("engine.advance", "rule.run")}
        for _, res, lm in pairs:
            advanced = lm["metrics"]["engine.advance_calls"]
            if advanced != res.steps:
                run.failures.append(f"traced advance calls {advanced} != "
                                    f"steps from verdicts {res.steps}")
        out["engine_peak_mb"] = engine_peak_mb(workload, objs, captured)

    # output checks
    cfg, prior, models, mixing, thresholds = objs
    if is_mc:
        run.failures.extend(checks.rederive(captured))
        if not captured:
            run.failures.append("no campaign paths captured for re-derivation")
        run.failures.extend(checks.bound_failures(
            run.pooled, prior, thresholds, cfg.n_streams, cfg.change_stream,
            cfg.horizon))
    store = checks.DigestStore(
        os.path.join(args.work, "digests.json"),
        f"{workload.name}/seed={args.seed}/src={out['src_digest']}"
        f"/workloads={source_digest([workloads.__file__])}")
    for key, value in run.digests:
        run.failures.extend(store.check({key: value}))

    out.update(attempted=run.attempted, failures=run.failures,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
