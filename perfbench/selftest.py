"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it; it takes about a minute.
"""
import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import TraceError, Tracer  # noqa: E402
from worker import layer_metrics  # noqa: E402


@pytest.fixture
def small_campaign(tmp_path, monkeypatch):
    for name, value in (("MC_NULL_STEPS", 400), ("MC_CHANGE_TRIALS", 8),
                        ("MC_POOL_TRIALS", 12)):
        monkeypatch.setattr(workloads, name, value)
    w = workloads.Workload("mc-standard", 5, str(tmp_path))
    w.prepare()
    w.warm_up()
    return w


def _traced_exact_metrics(workload):
    tracer = Tracer()
    tracer.install()
    try:
        res = workload.op(1)
        lm = layer_metrics(tracer.summary(), tracer.counts, res)
    finally:
        tracer.uninstall()
    return {k: v for k, v in lm["metrics"].items() if k in bench.EXACT}, res


def test_counters_repeat_in_process(small_campaign):
    first, res = _traced_exact_metrics(small_campaign)
    second, _ = _traced_exact_metrics(small_campaign)
    assert first == second
    assert first["rule.runs"] == first["models.simulate_calls"] == res.attempted
    assert res.change_trials == 16
    assert res.attempted == res.null_trials + res.change_trials
    assert first["engine.advance_calls"] == res.steps > 0


def test_counters_repeat_across_traced_runs():
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           "detect-long", "--seed", "3", "--seconds", "1", "--trace", "1"]
    runs = []
    for _ in range(2):
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=170)
        assert done.returncode == 0
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append({k: v["value"] for k, v in result["metrics"].items()
                     if k in bench.EXACT})
    assert set(runs[0]) == bench.EXACT
    assert runs[0] == runs[1]


def test_rederive_flags_corrupted_verdict(small_campaign):
    with checks.capture_runs(every=3, limit=4) as captured:
        small_campaign.op(1)
    assert len(captured) == 4
    assert checks.rederive(captured) == []
    args, kwargs, verdict = captured[0]
    wrong = dataclasses.replace(verdict, time=(verdict.time or 0) + 1)
    captured[0] = (args, kwargs, wrong)
    failures = checks.rederive(captured)
    assert len(failures) == 1 and "screen-free" in failures[0]


def test_detect_check_flags_wrong_stream(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "DETECT_STREAM", 1)   # true change is on 2
    w = workloads.Workload("detect-long", 4, str(tmp_path))
    w.prepare()
    monkeypatch.setattr(workloads, "DETECT_STREAM", 2)
    res = w.op(1)
    assert any("expected 2" in f for f in res.failures)


def test_campaign_is_a_prefix_of_the_pool(small_campaign):
    pool = {tag: [(o.time, o.stream) for o in outs]
            for tag, outs in small_campaign.warm_up().pooled.items()}
    first, second = small_campaign.op(1), small_campaign.op(2)
    assert first.outcomes == second.outcomes and first.steps == second.steps
    for tag, outs in first.pooled.items():
        assert [(o.time, o.stream) for o in outs] == pool[tag][:len(outs)]
    assert sum(o.time if o.stopped else workloads.MC_HORIZON
               for o in first.pooled["null"]) >= 400


def test_digest_store_flags_changed_outcomes(tmp_path):
    path = str(tmp_path / "digests.json")
    assert checks.DigestStore(path, "k").check({"1": "aa"}) == []
    assert checks.DigestStore(path, "k").check({"1": "aa", "2": "bb"}) == []
    assert len(checks.DigestStore(path, "k").check({"1": "ab"})) == 1
    assert checks.DigestStore(path, "other").check({"1": "ab"}) == []


def test_missing_traced_name_fails_loudly():
    from changeid import engine

    original = engine.Detector.advance
    tracer = Tracer()
    with pytest.raises(TraceError, match="no_such_name"):
        tracer.install([("changeid.engine:Detector", "advance", "engine.advance"),
                        ("changeid.engine:Detector", "no_such_name", "engine.x")])
    assert engine.Detector.advance is original     # partial install undone
    tracer.install([("changeid.rule", "check_stop", "rule.check_stop")])
    tracer.uninstall()
    assert tracer.missing_calls(["changeid.rule.check_stop"]) == [
        "changeid.rule.check_stop"]


def test_fails_without_program_source(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench_dir / name).write_text(open(os.path.join(HERE, name)).read())
    done = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "detect-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
