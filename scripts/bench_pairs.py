"""Alternating parent/change perfbench pairs, written as BENCH_<PR>.json.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --parent HEAD --out BENCH_11.json \\
        --seeds 1101-1110 --seconds 24 [--trace-seed 1101] \\
        [--claim mc-standard:wall_s] [--note TEXT ...]

Both sides run from fresh sibling directories of equal path length under
the work directory, ``parent`` and ``change``, because the directory alone
moves the timings (``detect-long``'s ``wall_s`` read about 10% apart from
the checkout and from a copy elsewhere).  The parent side is ``git archive
PARENT`` unpacked.  The change side is a copy of the working tree's files
that git lists (``git ls-files --cached --others --exclude-standard``):
every tracked file as it stands on disk, so uncommitted edits are measured,
and every untracked file that ``.gitignore`` does not exclude; a tracked
file deleted from disk is left out.  For every seed both sides run
``perfbench/run.py --workload all --seed S --seconds T``, the parent
first on the first, third, ... seed and second on the others, so that
drift of the machine's speed falls on both sides alike.  With
``--trace-seed`` each side also makes one ``--trace 1`` run.  Last,
``scripts/kernel_sweep.py`` of the working tree times each side's
``Detector.lookahead`` over its N x G sweep and per call over the block
size, and its exact frames over n.  The line count of each side's
``src/changeid/*.py``, and their total, is kept under ``src_lines``.

The output keeps every run record that perfbench wrote and summarizes
each workload: for every end-to-end metric of BENCHMARK.json the values
per side, their medians and quartiles, the pairs the change won,
``change_worse_by`` (the relative change of the median in the metric's
worse direction) against the metric's bound, and ``relative_spread`` (the
larger IQR / median of the two sides); per-layer numbers come from the
traced runs.  ``--claim WORKLOAD:METRIC`` adds a claim block, met when
the change wins at least nine in ten pairs and its median is better than
the parent's by more than the parent's IQR.  The sweep's tables are kept
per side under ``kernel``.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# per-layer numbers worth a line in the summary; the traced records keep all
LAYER_KEYS = ("engine.advance_calls", "engine.advance_us", "engine.frame_calls",
              "engine.frame_us", "engine.init_us", "engine.log_mix_values_us",
              "engine.sup_lower_bounds_us", "models.simulate_calls",
              "rule.check_stop_us", "rule.exact_frame_ratio",
              "rule.run_self_us_per_step", "rule.screen_pass_ratio",
              "setup.import_s")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def unpack_parent(rev: str, work: str) -> tuple:
    """(commit, directory) of ``git archive rev`` unpacked under ``work``."""
    commit = git("rev-parse", rev).decode().strip()
    dest = os.path.join(work, "parent")
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tf:
        tf.extractall(dest)
    return commit, dest


def copy_change(work: str) -> str:
    """The directory under ``work`` that holds a copy of the working tree's
    tracked files as they stand and of its untracked, unignored files."""
    dest = os.path.join(work, "change")
    listed = git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard")
    for rel in sorted(set(listed.decode().split("\0")) - {""}):
        src, dst = os.path.join(ROOT, rel), os.path.join(dest, rel)
        if os.path.isfile(src):  # a tracked file may be deleted from disk
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)
    return dest


def run_side(root: str, seed: int, seconds: float, trace: int,
             workloads: list) -> dict:
    """The run records perfbench wrote in ``root``, by workload."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    print(f"[{os.path.basename(root)}] {' '.join(cmd[1:])}", flush=True)
    # exit 1 (a failed output check) still writes the records, which say so
    if subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL).returncode == 2:
        raise SystemExit(f"perfbench could not run in {root}")
    records = {}
    for name in workloads:
        path = os.path.join(root, ".perfbench_work", "runs",
                            f"{name}-s{seed}-t{trace}.json")
        with open(path) as fh:
            rec = json.load(fh)
        # a run is read back once: a stale record must not stand in for it
        os.remove(path)
        if "spans_path" in rec:
            rec["spans_path"] = os.path.relpath(rec["spans_path"], root)
        records[name] = rec
    return records


def kernel_table(root: str) -> dict:
    """The tables of scripts/kernel_sweep.py for the engine in ``root``."""
    cmd = [sys.executable, os.path.join(ROOT, "scripts", "kernel_sweep.py"),
           "--src", os.path.join(root, "src")]
    print(f"[{os.path.basename(root)}] scripts/kernel_sweep.py", flush=True)
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def src_lines(root: str) -> dict:
    """Lines of each ``src/changeid/*.py`` in ``root``, and their total."""
    pkg = os.path.join(root, "src", "changeid")
    counts = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                counts[name] = fh.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def quartiles(values) -> list:
    return [float(q) for q in np.percentile(values, [25, 75])]


def compare(parent: list, change: list, better: str, bound=None) -> dict:
    """Pairwise and median comparison of one metric; ``parent[i]`` and
    ``change[i]`` are the same seed."""
    sign = 1.0 if better == "lower" else -1.0
    pm, cm = float(np.median(parent)), float(np.median(change))
    pq, cq = quartiles(parent), quartiles(change)
    out = {"better": better, "parent": parent, "change": change,
           "parent_median": pm, "change_median": cm,
           "parent_quartiles": pq, "change_quartiles": cq,
           "change_better_pairs": sum(sign * (c - p) < 0
                                      for p, c in zip(parent, change)),
           "change_worse_by": sign * (cm - pm) / pm,
           "median_gap_exceeds_parent_iqr": sign * (pm - cm) > pq[1] - pq[0],
           "relative_spread": max((pq[1] - pq[0]) / pm, (cq[1] - cq[0]) / cm)}
    if bound is not None:
        out["bound"] = bound
        out["verdict"] = ("within bound" if out["change_worse_by"] <= bound
                          else "worse than bound")
    return out


def summarize(runs: dict, traced: dict, seeds: list, bench: dict) -> dict:
    summary = {}
    for name in runs["change"]:
        per = {side: [runs[side][name][str(s)] for s in seeds] for side in SIDES}
        row = {"correct": {side: all(not r["failures"] for r in per[side])
                           for side in SIDES},
               "failed_ops": {side: sum(min(len(r["failures"]), r["attempted"])
                                        for r in per[side]) for side in SIDES}}
        for metric in bench["end_to_end"]:
            key = metric["name"]
            row[key] = compare([r["metrics"][key] for r in per["parent"]],
                               [r["metrics"][key] for r in per["change"]],
                               metric["better"], metric["bound"])
        if traced:
            row["traced_correct"] = {side: not traced[side][name]["failures"]
                                     for side in SIDES}
            for key in LAYER_KEYS:
                row[key] = {side: traced[side][name]["metrics"][key]
                            for side in SIDES}
        summary[name] = row
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--out", required=True, help="output JSON, e.g. BENCH_11.json")
    ap.add_argument("--seeds", required=True, help="e.g. 1101-1110 or 7,901")
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--claim", help="WORKLOAD:METRIC of the claimed gain")
    ap.add_argument("--note", action="append", default=[])
    ap.add_argument("--work", help="directory for both sides' trees "
                    "(default: a new temporary directory)")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    work = tempfile.mkdtemp(prefix="bench_pairs_", dir=args.work)
    try:
        commit, parent_root = unpack_parent(args.parent, work)
        head = git("rev-parse", "HEAD").decode().strip()
        roots = {"parent": parent_root, "change": copy_change(work)}
        runs = {side: {name: {} for name in workloads} for side in SIDES}
        order = {}
        for i, seed in enumerate(seeds):
            order[str(seed)] = list(SIDES if i % 2 == 0 else SIDES[::-1])
            for side in order[str(seed)]:
                recs = run_side(roots[side], seed, args.seconds, 0, workloads)
                for name, rec in recs.items():
                    runs[side][name][str(seed)] = rec
        traced = {}
        if args.trace_seed is not None:
            traced = {side: run_side(roots[side], args.trace_seed,
                                     args.seconds, 1, workloads)
                      for side in SIDES}
        kernel = {side: kernel_table(roots[side]) for side in SIDES}
        lines = {side: src_lines(roots[side]) for side in SIDES}
    finally:
        shutil.rmtree(work)

    first = runs["change"][workloads[0]][str(seeds[0])]["provenance"]
    out = {
        "what": ("perfbench before/after records: "
                 f"{len(seeds)} alternating parent/change pairs of "
                 f"`python3 perfbench/run.py --workload all --seed S --seconds "
                 f"{args.seconds:g}` (S in {args.seeds}, parent first on the "
                 "first, third, ... seed)"
                 + (f", plus one `--trace 1 --seed {args.trace_seed}` run per "
                    "side" if traced else "")
                 + ", written by scripts/bench_pairs.py; `kernel` holds each "
                   "side's tables from scripts/kernel_sweep.py (us per "
                   "looked-ahead step over N x G, us per lookahead call "
                   "over the block size, and us per exact frame over n); "
                   "`src_lines` holds each side's line count per "
                   "src/changeid/*.py and their total. "
                   "Summary per workload "
                   "and end-to-end metric: medians, quartiles, pairs the "
                   "change won, change_worse_by = relative change of the "
                   "median in the metric's worse direction, relative_spread "
                   "= the larger IQR/median of the two sides. Per-layer "
                   "values come from the traced runs."),
        "parent": f"{commit} (tree from git archive)",
        "change": (f"working tree over {head} (tracked files as on disk "
                   "and untracked unignored files, copied beside the "
                   "parent's tree)"),
        "machine": {k: first.get(k) for k in ("cpu", "nproc", "numpy",
                                             "python", "scipy")},
        "order": order,
        "notes": args.note,
        "runs": runs,
        "traced": traced,
        "kernel": kernel,
        "src_lines": lines,
        "summary": summarize(runs, traced, seeds, bench),
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        row = out["summary"][workload][metric]
        out["claim"] = {
            "workload": workload, "metric": metric,
            "parent_median": row["parent_median"],
            "change_median": row["change_median"],
            "change_better_pairs": row["change_better_pairs"],
            "median_gap_exceeds_parent_iqr": row["median_gap_exceeds_parent_iqr"],
            "met": (10 * row["change_better_pairs"] >= 9 * len(seeds)
                    and row["median_gap_exceeds_parent_iqr"])}
    with open(os.path.join(ROOT, args.out), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, row in out["summary"].items():
        for metric in bench["end_to_end"]:
            r = row[metric["name"]]
            print(f"{name:12s} {metric['name']:12s} parent {r['parent_median']:.6g} "
                  f"change {r['change_median']:.6g} won {r['change_better_pairs']}"
                  f"/{len(seeds)} worse_by {r['change_worse_by']:+.3f} "
                  f"{r['verdict']}")
    print("src lines: " + "  ".join(f"{side} {lines[side]['total']}"
                                    for side in SIDES))
    if "claim" in out:
        print("claim: " + json.dumps(out["claim"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
