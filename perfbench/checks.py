"""Output checks that feed the benchmark's failure count.

* ``capture_runs`` samples the paths ``changeid.montecarlo.run`` is called
  with, and ``rederive`` replays each through a screen-free loop
  (``Detector.step`` and ``rule.check_stop`` at every step), which must give
  the same (time, stream) as the screened rule.
* ``bound_failures`` requires every pooled PFA and PMI upper limit of a
  campaign to lie at or below its closed-form ``theory`` bound.
* ``DigestStore`` requires the outcome digest of an operation to repeat
  across the runs of one seed on the same program source.
"""
from __future__ import annotations

import contextlib
import json
import os


@contextlib.contextmanager
def capture_runs(every: int, limit: int):
    """Record every ``every``-th call of ``changeid.montecarlo.run`` (at most
    ``limit``) as (args, kwargs, verdict) while the context is open."""
    from changeid import montecarlo

    original = montecarlo.run
    captured = []
    state = {"calls": 0}

    def recording_run(*args, **kwargs):
        verdict = original(*args, **kwargs)
        if state["calls"] % every == 0 and len(captured) < limit:
            captured.append((args, kwargs, verdict))
        state["calls"] += 1
        return verdict

    montecarlo.run = recording_run
    try:
        yield captured
    finally:
        montecarlo.run = original


def screen_free_verdict(models, prior, mixing, thresholds, path, window=None):
    """(time, stream) of the rule with an exact frame at every step."""
    from changeid import Detector, rule

    obs = getattr(path, "observations", path)
    horizon = obs.shape[1]
    det = Detector(prior, models, mixing, window=window,
                   capacity=max(horizon, 16))
    for t in range(horizon):
        verdict = rule.check_stop(det.step(obs[:, t]), thresholds)
        if verdict is not None:
            return verdict.time, verdict.stream
    return None, None


def rederive(captured) -> list:
    """Failure messages for captured runs whose verdict the screen-free
    loop does not reproduce."""
    failures = []
    for args, kwargs, verdict in captured:
        expected = screen_free_verdict(*args, **kwargs)
        got = (verdict.time, verdict.stream)
        if got != expected:
            failures.append(f"screened verdict {got} != screen-free {expected}")
    return failures


def bound_failures(pooled: dict, prior, thresholds, n_streams: int,
                   stream: int, horizon: int) -> list:
    """Failure messages for PFA/PMI upper limits above the theory bounds.

    ``pooled`` maps "null" to no-change outcomes and every other tag to the
    change-present outcomes of one theta on ``stream``.
    """
    from changeid import montecarlo, theory

    pfa_bound, _ = theory.pfa_bound(thresholds)
    pmi_bound, _ = theory.pmi_bound(thresholds)
    failures = []
    for row in montecarlo.estimate_pfa(pooled["null"], prior, n_streams,
                                       horizon=horizon):
        bound = pfa_bound[row["stream"] - 1]
        if not row["upper"] <= bound:
            failures.append(f"PFA stream {row['stream']}: upper "
                            f"{row['upper']:.5g} > bound {bound:.5g}")
    for tag, outcomes in pooled.items():
        if tag == "null":
            continue
        for row in montecarlo.estimate_pmi(outcomes, stream, n_streams):
            bound = pmi_bound[row["true_stream"] - 1][row["decided_stream"] - 1]
            if not row["upper"] <= bound:
                failures.append(
                    f"PMI {row['true_stream']}->{row['decided_stream']} {tag}: "
                    f"upper {row['upper']:.5g} > bound {bound:.5g}")
    return failures


class DigestStore:
    """Outcome digests of earlier runs, keyed by workload, seed and the
    digest of the program source, kept in one JSON file."""

    def __init__(self, path: str, key: str):
        self.path = path
        self.key = key
        try:
            with open(path) as fh:
                self._all = json.load(fh)
        except (OSError, ValueError):
            self._all = {}
        self.known = self._all.get(key, {})

    def check(self, digests: dict) -> list:
        """Failure messages for operations whose digest differs from an
        earlier run; records the new digests."""
        failures = []
        for rep, value in digests.items():
            earlier = self.known.get(str(rep))
            if earlier is not None and earlier != value:
                failures.append(f"operation {rep}: outcome digest {value} "
                                f"differs from an earlier run's {earlier}")
            self.known[str(rep)] = value
        self._all[self.key] = self.known
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self._all, fh, sort_keys=True)
        os.replace(tmp, self.path)
        return failures
