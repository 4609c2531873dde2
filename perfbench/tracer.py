"""Span tracing of changeid's public names, installed from outside the package.

``Tracer.install`` replaces each name in ``TARGETS`` with a wrapper that
records a span (name, start, end, parent) and feeds the exact counters.
Spans stay in memory until ``reset``; ``summary`` reduces them to per-name
call counts, total time and self time (duration minus the time covered by
child spans).

A target that no longer exists raises ``TraceError`` at install time, and
``missing_calls`` names the targets a workload should reach but did not, so
a refactor that renames or bypasses a public name breaks the traced run
instead of silently dropping a layer.
"""
from __future__ import annotations

import csv
import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np


class TraceError(RuntimeError):
    """A traced public name is missing or was never called."""


_CONFIG_BUILDERS = ("load_config", "build_prior", "build_models",
                    "build_mixing", "build_thresholds")

# (owner, attribute, span name).  The owner is a module, or module:Class.
# ``run`` and ``simulate`` are wrapped as globals of the modules that call
# them, so a caller that stops going through them shows up as missing.
TARGETS = (
    [("changeid.montecarlo", n, f"montecarlo.{n}")
     for n in ("run_null_batch", "run_change_batch", "estimate_pfa",
               "estimate_pmi", "estimate_delay")]
    + [("changeid.montecarlo", "simulate", "models.simulate"),
       ("changeid.montecarlo", "run", "rule.run"),
       ("changeid.cli", "main", "cli.main"),
       ("changeid.cli", "run", "rule.run"),
       ("changeid.rule", "check_stop", "rule.check_stop")]
    + [(mod, n, f"config.{n}") for mod in ("changeid.cli", "changeid.config")
       for n in _CONFIG_BUILDERS]
    + [("changeid.engine:Detector", n, f"engine.{n.strip('_')}")
       for n in ("__init__", "advance", "log_mix_values", "sup_lower_bounds",
                 "log_sup_values", "frame")]
)

_ENGINE = [f"changeid.engine:Detector.{n}" for n in
           ("__init__", "advance", "log_mix_values", "sup_lower_bounds",
            "log_sup_values", "frame")]

# targets each workload must reach; a traced run that misses one fails
REQUIRED = {
    "mc-standard": _ENGINE + [
        "changeid.rule.check_stop", "changeid.config.load_config",
        "changeid.montecarlo.run", "changeid.montecarlo.simulate",
        "changeid.montecarlo.run_null_batch",
        "changeid.montecarlo.run_change_batch",
        "changeid.montecarlo.estimate_pfa", "changeid.montecarlo.estimate_pmi",
        "changeid.montecarlo.estimate_delay"],
    "detect": _ENGINE + [
        "changeid.rule.check_stop", "changeid.cli.main", "changeid.cli.run",
        "changeid.cli.load_config"],
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _path_horizon(args, kwargs) -> int:
    path = kwargs["path"] if "path" in kwargs else args[4]
    obs = getattr(path, "observations", path)
    return int(np.shape(obs)[1])


def _count_run(counts, args, kwargs, verdict):
    counts["supplied_steps"] += _path_horizon(args, kwargs)
    counts["stops"] += bool(verdict.stopped)


def _count_frame(counts, args, kwargs, frame):
    det = args[0]
    start = 0 if det.window is None else max(0, det.n - det.window)
    rows = det.n - start
    width = max(m.grid.size for m in det.mixing)
    counts["frame_rows"] += rows
    counts["frame_bytes"] += rows * det.n_streams * width * 8


_HOOKS = {"rule.run": _count_run, "engine.frame": _count_frame}


class Tracer:
    """In-memory span recorder over changeid's public names."""

    def __init__(self):
        self.names = []                      # span name by id
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.calls = Counter()               # by target key, never reset
        self.counts = Counter()              # exact counters, reset per op
        self._restore = []

    # -- installation ----------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        try:
            for owner, attr, span in targets:
                self._install_one(owner, attr, span)
        except Exception:
            self.uninstall()
            raise

    def _install_one(self, owner: str, attr: str, span: str) -> None:
        try:
            obj = _resolve(owner)
            original = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
        except (ImportError, AttributeError, KeyError) as exc:
            raise TraceError(f"traced name {owner}.{attr} is missing: {exc!r}")
        key = f"{owner}.{attr}"
        if isinstance(original, property):
            replacement = property(self._wrap(original.fget, span, key),
                                   original.fset, original.fdel, original.__doc__)
        elif callable(original):
            replacement = self._wrap(original, span, key)
        else:
            raise TraceError(f"traced name {key} is not callable")
        setattr(obj, attr, replacement)
        self._restore.append((obj, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    def _wrap(self, fn, span: str, key: str):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._name_ids[span]
        hook = _HOOKS.get(span)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, calls, counts = self._stack, self.calls, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            calls[key] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    # -- results ---------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and counters (call counts are kept)."""
        for arr in (self.span_name, self.span_parent, self.span_start,
                    self.span_end):
            del arr[:]
        self.counts.clear()

    def missing_calls(self, required) -> list:
        return [key for key in required if self.calls[key] == 0]

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        out = {}
        for i, span in enumerate(self.names):
            sel = name == i
            if sel.any():
                out[span] = {"calls": int(sel.sum()),
                             "total_s": float(dur[sel].sum()),
                             "self_s": float(self_time[sel].sum())}
        return out

    def durations(self, span: str) -> list:
        """Durations (s) of every recorded span named ``span``."""
        if span not in self._name_ids:
            return []
        sel = np.frombuffer(self.span_name, dtype=np.int32) == self._name_ids[span]
        return (np.frombuffer(self.span_end, dtype=np.float64)[sel]
                - np.frombuffer(self.span_start, dtype=np.float64)[sel]).tolist()

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as CSV: id, name, parent, start, end."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "name", "parent", "start_s", "end_s"])
            t0 = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_name)):
                writer.writerow([i, self.names[self.span_name[i]],
                                 self.span_parent[i],
                                 f"{self.span_start[i] - t0:.9f}",
                                 f"{self.span_end[i] - t0:.9f}"])
