"""Microseconds per looked-ahead step of ``Detector.lookahead`` over N x G,
per ``lookahead`` call over the block size, per exact ``Detector.frame``
over n, and per block screen of ``rule.run`` over the block's steps and
streams.

Usage (from the repository root):

    python3 scripts/kernel_sweep.py [--src DIR]

For N in {2, 8} streams and G in {8, 12, 32} grid points, in full mode and at
windows 1, 7, 50 and 200, a detector looks ahead a path of ``STEPS``
Gaussian observations in 64-step blocks and commits each block before the
next.  Only the ``lookahead`` calls are timed, and the best of ``REPS``
repetitions is kept.  Short windows split a block into many chunks, so
they show the per-chunk cost of the windowed scan.

The ``blocks`` table times one ``lookahead`` call of m steps: a detector
looks ahead ``BLOCK_CALLS`` blocks of m Gaussian observations, committing
each before the next, and the best of ``REPS`` repetitions is kept.  Its
cases (``BLOCK_CASES``) are N = 2, G = 8 in full mode at m in {1, 64,
256, 1 024}; N = 8, G = 32 at window 200 at m in {64, 128, 256}, the
blocks ``wide-window``'s rule takes under a 16 384- and a 32 768-entry
budget and one more; and N = 3, G = 5 and N = 1, G = 7 in full mode at
m = 1 024, whose odd N x G rows are summed without the complex view
(``engine._accumulate``).  The first row is the fixed
cost of a call, which the rule's block size spreads over the block's
steps.  At N = 2, G = 8, m = 1 024 the running log-sum-exp re-bases about
three times a call (54 times over the 16 calls), so that row shows the
search for the next re-base.

The ``frames`` table times one exact frame, ``Detector.frame()``, at the
committed times n in {100, 1 000, 10 000, 20 000}, in full mode and at
window 200, for N = 1, G = 8, for N = 2, G = 8 and for N = 8, G = 32: a
detector looks ahead and commits n Gaussian observations in 64-step
blocks, then builds ``FRAME_CALLS`` frames at n per repetition, and the
best of ``REPS`` repetitions is kept.

The ``screen`` table times the block screen of ``rule.run`` on one
look-ahead block of m steps over N streams, for (m, N) in ``SCREEN_CASES``
(G = 8): ``rule._passes_screen``, the function ``rule.run`` screens a
block with, on the rows a ``lookahead`` call returned, and the steps where
some stream passes as a list; ``SCREEN_CALLS`` screens per repetition,
best of ``REPS``.  A tree without ``rule._passes_screen`` gets an empty
table.

The engine measured is ``DIR/changeid`` (default: this tree's ``src``), so
one copy of the script measures any tree.  Prints the table as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import timeit

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STREAMS = (2, 8)
GRIDS = (8, 12, 32)
WINDOWS = (None, 1, 7, 50, 200)
BLOCK = 64
STEPS = 1280
REPS = 7
FRAME_NS = (100, 1_000, 10_000, 20_000)
FRAME_SHAPES = ((1, 8), (2, 8), (8, 32))
FRAME_WINDOWS = (None, 200)
FRAME_CALLS = 5
# (streams, grid points, window, block sizes) of the ``blocks`` table
BLOCK_CASES = ((2, 8, None, (1, 64, 256, 1024)), (8, 32, 200, (64, 128, 256)),
               (3, 5, None, (1024,)), (1, 7, None, (1024,)))
BLOCK_CALLS = 16
# (steps, streams) of the ``screen`` table
SCREEN_CASES = ((64, 2), (2048, 2), (128, 8))
SCREEN_GRID = 8
SCREEN_CALLS = 200


def time_path(engine, prior, models, mixing, window, obs,
              size=BLOCK) -> float:
    """Seconds spent in ``lookahead`` over the path ``obs`` (N, T), looked
    ahead in blocks of ``size`` steps."""
    det = engine.Detector(prior, models, mixing, window=window,
                          capacity=obs.shape[1])
    spent = 0.0
    for lo in range(0, obs.shape[1], size):
        block = obs[:, lo:lo + size]
        t0 = time.perf_counter()
        det.lookahead(block)
        spent += time.perf_counter() - t0
        for _ in range(block.shape[1]):
            det.advance()
    return spent


def time_frame(engine, prior, models, mixing, window, obs) -> float:
    """Seconds per ``frame`` at n = obs.shape[1], after committing ``obs``."""
    det = engine.Detector(prior, models, mixing, window=window,
                          capacity=obs.shape[1])
    for lo in range(0, obs.shape[1], BLOCK):
        block = obs[:, lo:lo + BLOCK]
        det.lookahead(block)
        for _ in range(block.shape[1]):
            det.advance()
    return min(timeit.repeat(det.frame, number=FRAME_CALLS,
                             repeat=REPS)) / FRAME_CALLS


def sweep(src: str) -> dict:
    sys.path.insert(0, src)
    from changeid import engine, rule
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
    frames = []
    for n, g in FRAME_SHAPES:
        models = [ARGaussianSignal(0.25, 2.0) for _ in range(n)]
        mixing = engine.MixingMeasure.uniform(0.25, 2.0, g, spacing="log")
        obs = rng.standard_normal((n, max(FRAME_NS)))
        for window in FRAME_WINDOWS:
            for steps in FRAME_NS:
                spent = time_frame(engine, prior, models, mixing, window,
                                   obs[:, :steps])
                frames.append({"streams": n, "grid": g, "window": window,
                               "n": steps,
                               "us_per_frame": round(1e6 * spent, 3)})
    blocks = []
    for n, g, window, sizes in BLOCK_CASES:
        models = [ARGaussianSignal(0.25, 2.0) for _ in range(n)]
        mixing = engine.MixingMeasure.uniform(0.25, 2.0, g, spacing="log")
        obs = rng.standard_normal((n, BLOCK_CALLS * max(sizes)))
        for size in sizes:
            path = obs[:, :BLOCK_CALLS * size]
            best = min(time_path(engine, prior, models, mixing, window, path,
                                 size) for _ in range(REPS))
            blocks.append({"streams": n, "grid": g, "window": window,
                           "block": size,
                           "us_per_call": round(1e6 * best / BLOCK_CALLS, 3)})
    screens = []
    mixing = engine.MixingMeasure.uniform(0.25, 2.0, SCREEN_GRID, spacing="log")
    for m, n in SCREEN_CASES if hasattr(rule, "_passes_screen") else ():
        models = [ARGaussianSignal(0.25, 2.0) for _ in range(n)]
        det = engine.Detector(prior, models, mixing, capacity=m)
        mix, bound = det.lookahead(rng.standard_normal((n, m)))
        log_a = rule.calibrate(0.05, 0.05, n_streams=n).log_a
        lsv, slack = det.tables.log_survivor[:m], det.screen_slack

        def screen():
            return rule._passes_screen(log_a, slack, mix.T, lsv,
                                       bound.T).tolist()
        best = min(timeit.repeat(screen, number=SCREEN_CALLS, repeat=REPS))
        screens.append({"steps": m, "streams": n, "grid": SCREEN_GRID,
                        "us_per_screen": round(1e6 * best / SCREEN_CALLS, 3)})
    return {"steps": STEPS, "block": BLOCK, "reps": REPS, "rows": rows,
            "block_calls": BLOCK_CALLS, "blocks": blocks,
            "frame_calls": FRAME_CALLS, "frames": frames,
            "screen_calls": SCREEN_CALLS, "screen": screens}


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
