"""Microseconds per looked-ahead step of ``Detector.lookahead`` over N x G.

Usage (from the repository root):

    python3 scripts/kernel_sweep.py [--src DIR]

For N in {2, 8} streams and G in {8, 12, 32} grid points, in full mode and at
windows 1, 7, 50 and 200, a detector looks ahead a path of ``STEPS``
Gaussian observations in 64-step blocks and commits each block before the
next.  Only the ``lookahead`` calls are timed, and the best of ``REPS``
repetitions is kept.  Short windows split a block into many chunks, so
they show the per-chunk cost of the windowed scan.

The engine measured is ``DIR/changeid`` (default: this tree's ``src``), so
one copy of the script measures any tree.  Prints the table as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STREAMS = (2, 8)
GRIDS = (8, 12, 32)
WINDOWS = (None, 1, 7, 50, 200)
BLOCK = 64
STEPS = 1280
REPS = 7


def time_path(engine, prior, models, mixing, window, obs) -> float:
    """Seconds spent in ``lookahead`` over the path ``obs`` (N, T)."""
    det = engine.Detector(prior, models, mixing, window=window,
                          capacity=obs.shape[1])
    spent = 0.0
    for lo in range(0, obs.shape[1], BLOCK):
        block = obs[:, lo:lo + BLOCK]
        t0 = time.perf_counter()
        det.lookahead(block)
        spent += time.perf_counter() - t0
        for _ in range(block.shape[1]):
            det.advance()
    return spent


def sweep(src: str) -> dict:
    sys.path.insert(0, src)
    from changeid import engine
    from changeid.models import ARGaussianSignal
    from changeid.prior import ChangePointPrior

    prior = ChangePointPrior.geometric(0.05)
    rng = np.random.default_rng(0)
    rows = []
    for n in STREAMS:
        models = [ARGaussianSignal(0.25, 2.0) for _ in range(n)]
        obs = rng.standard_normal((n, STEPS))
        for g in GRIDS:
            mixing = engine.MixingMeasure.uniform(0.25, 2.0, g, spacing="log")
            for window in WINDOWS:
                best = min(time_path(engine, prior, models, mixing, window, obs)
                           for _ in range(REPS))
                rows.append({"streams": n, "grid": g, "entries": n * g,
                             "window": window,
                             "us_per_step": round(1e6 * best / STEPS, 3)})
    return {"steps": STEPS, "block": BLOCK, "reps": REPS, "rows": rows}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the changeid package to measure")
    args = ap.parse_args(argv)
    json.dump(sweep(os.path.abspath(args.src)), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
