"""changeid benchmark: one command, every metric by name with its unit.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of mc-standard, detect-long, wide-window, or ``all``.  With
``--trace 0`` the end-to-end metrics are measured untraced; with
``--trace 1`` the per-layer metrics come from a run with every traced
public name wrapped (see tracer.py).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 when every output check passed, 1 when one failed and 2 when the
benchmark cannot run (for example, no changeid source under ./src).

Each run works in a fresh process per measurement: three set-up probes
(setup_probe.py) give ``setup_s`` as their median, and one worker process
(worker.py) warms up, measures and checks, so its ``ru_maxrss`` is the
workload's peak RSS.  Timings are scaled to the speed of a reference loop
timed alongside them (reference.py), because the machine's own speed
drifts.  Inputs, outcome digests, traces and a record of each
run with its provenance are written under ./.perfbench_work.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from reference import REF_CALL_S  # noqa: E402
from stats import median, tail  # noqa: E402

SETUP_PROBES = 3
RUN_LIMIT_S = 170           # a run must end within 180 s
NAMES = ("mc-standard", "detect-long", "wide-window")

END_TO_END = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "setup.import_s": "s",
    "engine.log_mix_values_us": "us", "engine.advance_us": "us",
    "engine.advance_calls": "count", "engine.frame_us": "us",
    "engine.frame_calls": "count", "engine.frame_rows": "count",
    "engine.frame_bytes_computed": "B", "engine.sup_lower_bounds_us": "us",
    "engine.init_us": "us", "engine.peak_mb": "MB",
    "rule.check_stop_us": "us", "rule.run_self_us_per_step": "us",
    "rule.run_self_share": "%", "rule.runs": "count", "rule.stops": "count",
    "rule.screen_pass_ratio": "ratio", "rule.exact_frame_ratio": "ratio",
    "rule.frame_useful_ratio": "ratio", "models.simulate_calls": "count",
    "models.samples_used_ratio": "ratio", "config.build_ms": "ms",
    "cli.self_share": "%", "config.self_share": "%",
    "montecarlo.self_share": "%", "models.self_share": "%",
    "rule.self_share": "%", "engine.self_share": "%",
    "trace.overhead_s": "s",
}
# counts are taken from the first traced operation, which is the same
# operation for a given seed; timings are medians over traced operations
EXACT = {k for k, u in PER_LAYER.items() if u in ("count", "B")} | {
    "rule.screen_pass_ratio", "rule.exact_frame_ratio",
    "rule.frame_useful_ratio", "models.samples_used_ratio"}


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def provenance(seed: int, versions: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            **versions, "git_commit": git_commit(), "seed": seed}


def git_commit():
    """HEAD commit of the checkout, or None outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _child(argv, deadline: float, **kwargs):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + os.path.basename(argv[0]))
    try:
        return subprocess.run([sys.executable] + argv, timeout=remaining,
                              check=True, **kwargs)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{os.path.basename(argv[0])} exceeded the time limit")
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"{os.path.basename(argv[0])} exited with {exc.returncode}")


def measure(name: str, seed: int, seconds: float, trace: int, work: str,
            deadline: float) -> dict:
    import workloads

    src = os.path.join(ROOT, "src")
    workload = workloads.Workload(name, seed, work)
    workload.prepare()
    probes = []
    for _ in range(SETUP_PROBES):
        done = _child([os.path.join(HERE, "setup_probe.py"), src,
                       workload.config_path], deadline,
                      stdout=subprocess.PIPE, text=True)
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    result_path = os.path.join(work, f"result-{name}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    _child([os.path.join(HERE, "worker.py"), "--src", src, "--work", work,
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--result", result_path],
           deadline, stdout=sys.stderr)
    with open(result_path) as fh:
        raw = json.load(fh)
    return summarize(name, seed, trace, probes, raw)


def summarize(name, seed, trace, probes, raw) -> dict:
    setup_raw = [p["setup_s"] for p in probes]
    setup = [p["setup_s"] * p["scale"] for p in probes]
    rec = {"workload": name, "trace": trace,
           "provenance": provenance(seed, raw["versions"]),
           "src_digest": raw["src_digest"], "attempted": raw["attempted"],
           "failures": raw["failures"], "setup_s_samples": setup,
           "setup_s_raw_samples": setup_raw,
           "detail": {"warm_up_wall_s": raw["warm_up_wall_s"]}}
    if trace == 0:
        ops = raw["ops"]
        walls = [o["wall_s"] for o in ops]
        ref_call_s = raw["ref"]["seconds"] / raw["ref"]["calls"]
        scale = REF_CALL_S / ref_call_s
        wall = sum(walls) / len(walls) * scale
        rec["metrics"] = {
            "setup_s": median(setup),
            "wall_s": wall,
            "steps_per_s": ops[0]["steps"] / wall,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        rec["tails"] = {"op_wall_s": tail(walls), "setup_s": tail(setup)}
        rec["op_wall_s_samples"] = walls
        rec["detail"].update(ref_call_ms=ref_call_s * 1e3, speed_scale=scale,
                             setup_speed_scales=[p["scale"] for p in probes])
        if name == "mc-standard":
            n = len(ops)
            rec["detail"].update(
                null_trials_per_s=ops[0]["null_trials"] * n
                / (sum(o["null_s"] for o in ops) * scale),
                change_trials_per_s=ops[0]["change_trials"] * n
                / (sum(o["change_s"] for o in ops) * scale))
    else:
        traced = raw["traced"]
        first = traced[0]["metrics"]
        m = {k: (first[k] if k in EXACT else median(t["metrics"][k] for t in traced))
             for k in first}
        m["setup.import_s"] = median(p["import_s"] for p in probes)
        m["engine.peak_mb"] = raw["engine_peak_mb"]
        overhead = median(t["overhead_s"] for t in traced)
        m["trace.overhead_s"] = overhead
        rec["metrics"] = m
        rec["provenance"]["tracing_overhead_s"] = overhead
        rec["provenance"]["tracing_overhead_share"] = median(
            t["overhead_s"] / (t["wall_s"] - t["overhead_s"]) for t in traced)
        rec["tails"] = raw["tails"]
        details = [t["detail"] for t in traced]
        rec["detail"].update({k: (median(d[k] for d in details)
                                  if details[0][k] is not None else None)
                              for k in ("models.simulate_us",
                                        "montecarlo.trial_self_us",
                                        "montecarlo.estimate_ms", "cli.self_ms")})
        rec["detail"]["counts"] = details[0]["counts"]
        rec["spans_path"] = raw["spans_path"]
    rec["failure_rate"] = (min(len(raw["failures"]), raw["attempted"])
                           / raw["attempted"])
    return rec


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(rec: dict) -> None:
    name, units = rec["workload"], END_TO_END if rec["trace"] == 0 else PER_LAYER
    print(f"== {name} (trace {rec['trace']}) ==")
    print("provenance: " + json.dumps(rec["provenance"], sort_keys=True))
    for key, unit in units.items():
        print(f"{name:12s} {key:28s} {_fmt(rec['metrics'][key]):>14s} {unit}")
    for key, t in rec.get("tails", {}).items():
        pct = (f"p{t['pct']} {_fmt(t['value'])}" if t["pct"] is not None
               else "no percentile with 10 samples beyond it")
        print(f"{name:12s} {key:28s} median {_fmt(t['median'])}, {pct}, n={t['n']}")
    for key, v in rec.get("detail", {}).items():
        print(f"{name:12s} {key:28s} {_fmt(v) if not isinstance(v, dict) else json.dumps(v, sort_keys=True)}")
    print(f"{name:12s} {'failure_rate':28s} {_fmt(rec['failure_rate'])} "
          f"({len(rec['failures'])} failed checks / {rec['attempted']} operations)")
    for msg in rec["failures"][:20]:
        print(f"{name:12s} FAILED: {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(ROOT, "src", "changeid", "__init__.py")):
        print(f"error: no changeid source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(os.path.join(work, "runs"), exist_ok=True)
    names = NAMES if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    records = []
    for i, name in enumerate(names):
        deadline = start + RUN_LIMIT_S * (i + 1)
        try:
            rec = measure(name, args.seed, args.seconds, args.trace, work, deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        with open(os.path.join(work, "runs", f"{name}-s{args.seed}-t{args.trace}.json"),
                  "w") as fh:
            json.dump(rec, fh, indent=1, sort_keys=True)
        report(rec)
        records.append(rec)

    units = END_TO_END if args.trace == 0 else PER_LAYER
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "/"
        for key, unit in units.items():
            metrics[prefix + key] = {"value": rec["metrics"][key], "unit": unit}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(min(len(r["failures"]), r["attempted"]) for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
