import concurrent.futures
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.stats import beta as beta_dist, norm as norm_dist

from changeid import (ARGaussianSignal, ChangePointPrior, ExperimentPlan,
                      MixingMeasure, MonteCarloError, RiskReport,
                      TrialOutcome, calibrate, clopper_pearson_upper,
                      estimate_delay, estimate_pfa, estimate_pmi,
                      SineSignal, run_change_batch, run_null_batch,
                      validate_conditions)
from changeid import montecarlo
from changeid.engine import stream_tables
from changeid.montecarlo import _batch_id
from conftest import oracle_llr_increments


def outcome(idx, stopped=True, time=1, stream=1, nu=-1, true_stream=0,
            theta=0.0):
    return TrialOutcome(trial_index=idx, stopped=stopped, time=time,
                        stream=stream, true_nu=nu, true_stream=true_stream,
                        true_theta=theta)


def standard_setup():
    prior = ChangePointPrior.geometric(0.1)
    models = [ARGaussianSignal(0.25, 2.0), ARGaussianSignal(0.25, 2.0)]
    mix = MixingMeasure.uniform(0.25, 2.0, 5)
    th = calibrate(0.1, 0.1, n_streams=2)
    return prior, models, mix, th


class TestClopperPearson:
    def test_zero_successes_closed_form(self):
        # upper limit for k=0 is 1 - (1 - c)^(1/n)
        for n in (10, 59, 400):
            assert clopper_pearson_upper(0, n) == pytest.approx(
                1.0 - 0.05 ** (1.0 / n), rel=1e-10)

    def test_all_successes(self):
        assert clopper_pearson_upper(7, 7) == 1.0

    def test_matches_beta_quantile(self):
        assert clopper_pearson_upper(3, 50, 0.9) == pytest.approx(
            float(beta_dist.ppf(0.9, 4, 47)))

    def test_empty_sample_rejected(self):
        with pytest.raises(MonteCarloError):
            clopper_pearson_upper(0, 0)


class TestQuantilesMatchScipyStats:
    """The intervals call scipy.special directly; scipy.stats is the
    reference for the quantiles they take."""

    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
    def test_clopper_pearson_grid(self, confidence):
        for n in (1, 2, 3, 7, 25, 59, 100, 400, 1000, 10_000):
            for k in {0, 1, n // 3, n // 2, n - 2, n - 1} & set(range(n)):
                assert clopper_pearson_upper(k, n, confidence) == float(
                    beta_dist.ppf(confidence, k + 1, n - k))

    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
    def test_normal_limits(self, confidence):
        prior = ChangePointPrior.geometric(0.1)
        times = [40 + (i % 7) for i in range(60)]
        outs = [outcome(i, time=t) for i, t in enumerate(times)]
        weights = [prior.survivor(t) for t in times]
        point = math.fsum(weights) / 60
        var = math.fsum((w - point) ** 2 for w in weights) / 59
        upper = estimate_pfa(outs, prior, 1, confidence, horizon=100)[0]["upper"]
        assert upper == point + float(norm_dist.ppf(confidence)) * math.sqrt(var / 60)
        mean = math.fsum(times) / 60
        var = math.fsum((t - mean) ** 2 for t in times) / 59
        half = float(norm_dist.ppf(0.5 + confidence / 2.0)) * math.sqrt(var / 60)
        row = estimate_delay(outs, 1, confidence=confidence)
        assert (row["lower"], row["upper"]) == (mean - half, mean + half)


class TestEstimatePfa:
    def test_forced_stop_at_one_splits_survivor(self):
        prior = ChangePointPrior.geometric(0.2)
        outs = [outcome(i, time=1, stream=1 + (i % 2)) for i in range(10)]
        rows = estimate_pfa(outs, prior, 2, horizon=50)
        s1 = prior.survivor(1)
        assert rows[0]["estimate"] == pytest.approx(s1 * 0.5)
        assert rows[1]["estimate"] == pytest.approx(s1 * 0.5)

    def test_never_stopping_gives_zero(self):
        prior = ChangePointPrior.geometric(0.2)
        outs = [outcome(i, stopped=False, time=None, stream=None)
                for i in range(5)]
        rows = estimate_pfa(outs, prior, 2, horizon=50)
        assert rows[0]["estimate"] == 0.0
        assert rows[0]["censor_term"] == pytest.approx(prior.survivor(51))

    def test_interval_contains_point(self):
        prior, models, mix, th = standard_setup()
        plan = ExperimentPlan(n_trials=40, horizon=300, master_seed=5)
        outs = run_null_batch(plan, models, prior, mix, th)
        for row in estimate_pfa(outs, prior, 2, horizon=300):
            assert 0.0 <= row["estimate"] <= row["upper"] <= 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(MonteCarloError):
            estimate_pfa([], ChangePointPrior.geometric(0.1), 2, horizon=50)

    def test_identity_against_naive_double_sum(self):
        # survivor-weighted estimator vs sum_k pi_k P(T <= k, d = i)
        # computed from the same trials; the two are algebraically equal
        prior = ChangePointPrior.geometric(0.3)
        rng = np.random.default_rng(2)
        times = rng.integers(1, 25, size=200)
        streams = rng.integers(1, 3, size=200)
        outs = [outcome(i, time=int(t), stream=int(d))
                for i, (t, d) in enumerate(zip(times, streams))]
        rows = estimate_pfa(outs, prior, 2, horizon=30)
        for i in (1, 2):
            naive = math.fsum(
                float(np.exp(prior.log_pmf(k))) *
                np.mean([(o.time <= k and o.stream == i) for o in outs])
                for k in range(2000))
            assert rows[i - 1]["estimate"] == pytest.approx(naive, abs=1e-6)


class TestEstimatePmi:
    def test_counts_and_exclusions(self):
        outs = ([outcome(i, time=10, stream=2, nu=3, true_stream=1)
                 for i in range(3)] +          # wrong decisions after nu
                [outcome(i + 3, time=10, stream=1, nu=3, true_stream=1)
                 for i in range(6)] +          # correct decisions
                [outcome(9, time=2, stream=2, nu=3, true_stream=1)])  # T <= nu
        rows = estimate_pmi(outs, stream=1, n_streams=2)
        assert len(rows) == 1               # j = i excluded by definition
        assert rows[0]["decided_stream"] == 2
        assert rows[0]["n_eligible"] == 9
        assert rows[0]["estimate"] == pytest.approx(3 / 9)

    def test_censored_count_in_denominator_only(self):
        outs = [outcome(0, time=10, stream=2, nu=3, true_stream=1),
                outcome(1, stopped=False, time=None, stream=None, nu=3,
                        true_stream=1)]
        rows = estimate_pmi(outs, stream=1, n_streams=2)
        assert rows[0]["n_eligible"] == 2
        assert rows[0]["n_wrong"] == 1

    def test_no_eligible_trials(self):
        outs = [outcome(0, time=2, stream=1, nu=10, true_stream=1)]
        with pytest.raises(MonteCarloError):
            estimate_pmi(outs, stream=1, n_streams=2)


class TestEstimateDelay:
    def test_degenerate_time_fixed_k(self):
        outs = [outcome(i, time=9, stream=1, nu=0, true_stream=1)
                for i in range(4)]
        cell = estimate_delay(outs, stream=1, r=1, k=2)
        assert cell["estimate"] == pytest.approx(7.0)
        cell2 = estimate_delay(outs, stream=1, r=2, k=2)
        assert cell2["estimate"] == pytest.approx(49.0)

    def test_head_convention_contributes_time_itself(self):
        outs = [outcome(0, time=5, stream=1, nu=-1, true_stream=1)]
        cell = estimate_delay(outs, stream=1, r=1)  # integrated, own nu = -1
        assert cell["estimate"] == pytest.approx(5.0)   # T, not T + 1

    def test_censored_excluded_and_counted(self):
        outs = [outcome(0, time=9, stream=1, nu=0, true_stream=1),
                outcome(1, stopped=False, time=None, stream=None, nu=0,
                        true_stream=1)]
        cell = estimate_delay(outs, stream=1, r=1, k=0)
        assert cell["n_used"] == 1
        assert cell["n_censored"] == 1

    def test_empty_conditioning_set(self):
        outs = [outcome(0, time=3, stream=2, nu=0, true_stream=1)]
        with pytest.raises(MonteCarloError):
            estimate_delay(outs, stream=1, r=1, k=0)

    def test_moment_order_below_one_rejected(self):
        with pytest.raises(ValueError, match="moment order r must be >= 1"):
            estimate_delay([outcome(0)], stream=1, r=0)


class TestBatches:
    def test_reproducible(self):
        prior, models, mix, th = standard_setup()
        plan = ExperimentPlan(n_trials=15, horizon=200, master_seed=42)
        a = run_null_batch(plan, models, prior, mix, th)
        b = run_null_batch(plan, models, prior, mix, th)
        assert a == b

    def test_change_batch_mostly_correct(self):
        prior, models, mix, th = standard_setup()
        plan = ExperimentPlan(n_trials=30, horizon=400, master_seed=7)
        outs = run_change_batch(plan, models, prior, mix, th, stream=2,
                                theta=1.5)
        correct = sum(1 for o in outs
                      if o.stopped and o.stream == 2 and o.time > o.true_nu)
        assert correct >= 25
        assert all(o.true_stream == 2 for o in outs)

    def test_fixed_nu_recorded(self):
        prior, models, mix, th = standard_setup()
        plan = ExperimentPlan(n_trials=5, horizon=100, master_seed=1)
        outs = run_change_batch(plan, models, prior, mix, th, stream=1,
                                theta=1.0, nu=12)
        assert all(o.true_nu == 12 for o in outs)

    @pytest.mark.parametrize("field, message", [
        ("n_trials", "need at least one trial"),
        ("horizon", "horizon must be >= 1"),
        ("threads", "threads must be >= 1"),
    ])
    def test_plan_rejects_a_zero(self, field, message):
        kwargs = dict(n_trials=1, horizon=1, master_seed=0)
        kwargs[field] = 0
        with pytest.raises(ValueError, match=message):
            ExperimentPlan(**kwargs)

    @pytest.mark.parametrize("stream", [0, 3])
    def test_change_stream_out_of_range_rejected(self, stream):
        prior, models, mix, th = standard_setup()
        plan = ExperimentPlan(n_trials=5, horizon=100, master_seed=1)
        with pytest.raises(ValueError, match=r"stream must be in 1\.\.2"):
            run_change_batch(plan, models, prior, mix, th, stream=stream,
                             theta=1.0)

    def test_parallel_matches_serial(self):
        prior, models, mix, th = standard_setup()
        serial = ExperimentPlan(n_trials=8, horizon=150, master_seed=3,
                                threads=1)
        parallel = ExperimentPlan(n_trials=8, horizon=150, master_seed=3,
                                  threads=2)
        assert (run_null_batch(serial, models, prior, mix, th)
                == run_null_batch(parallel, models, prior, mix, th))
        assert (run_change_batch(serial, models, prior, mix, th, stream=2,
                                 theta=1.0)
                == run_change_batch(parallel, models, prior, mix, th,
                                    stream=2, theta=1.0))

    @pytest.mark.parametrize("cpus, pools", [(3, [3]), (1, []), (None, [])])
    def test_threads_caps_the_workers_at_one_per_cpu(self, monkeypatch,
                                                      cpus, pools):
        # a stand-in pool that runs the trials in this process records the
        # workers it is asked for, so that no worker process starts
        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        prior, models, mix, th = standard_setup()
        capped = ExperimentPlan(n_trials=4, horizon=60, master_seed=3,
                                threads=10 ** 6)
        serial = ExperimentPlan(n_trials=4, horizon=60, master_seed=3)
        assert (run_null_batch(capped, models, prior, mix, th)
                == run_null_batch(serial, models, prior, mix, th))
        assert started == pools

    def test_memory_before_the_first_trial_does_not_grow_with_trials(
            self, monkeypatch):
        prior, models, mix, th = standard_setup()

        class FirstTrial(Exception):
            pass

        def first_trial(*args, **kwargs):
            raise FirstTrial(tracemalloc.get_traced_memory()[0])

        monkeypatch.setattr(montecarlo, "simulate", first_trial)

        def held(n_trials):
            plan = ExperimentPlan(n_trials=n_trials, horizon=100,
                                  master_seed=0)
            tracemalloc.start()
            try:
                with pytest.raises(FirstTrial) as err:
                    run_null_batch(plan, models, prior, mix, th)
            finally:
                tracemalloc.stop()
            return err.value.args[0]

        held(10)  # the first batch's one-time allocations
        assert held(100_000) - held(10) < 2 ** 20


class TestValidateConditions:
    def test_iid_gaussian_rate(self):
        models = [ARGaussianSignal(0.25, 2.0)]
        rows = validate_conditions(models, [1.0], master_seed=0,
                                   n_paths=50, n_values=(2000,))
        row = rows[0]
        assert row["target"] == pytest.approx(0.5)
        assert row["mean_rate"] == pytest.approx(0.5, abs=0.05)
        assert row["pre_change_negative"]
        assert row["ok"]

    def test_ar_sine_rate(self):
        # a time-varying signal checks that the increments read the
        # whitened signal at the observations' own times
        models = [ARGaussianSignal(0.25, 2.0, sigma=1.3, ar_coeffs=(0.4, 0.1),
                                   signal=SineSignal(0.7))]
        rows = validate_conditions(models, [1.0], master_seed=0,
                                   n_paths=50, n_values=(2000,))
        row = rows[0]
        assert row["target"] == pytest.approx(models[0].info_number(1.0))
        assert row["relative_deviation"] <= 0.05
        assert row["pre_change_negative"]
        assert row["ok"]


    def test_one_point_grid_is_not_padded(self):
        """The tables it sums are the model's own one-point grid, with no
        zero-weight copy that would double the sum: its rates are the
        brute-force increments' on the same draws."""
        model = ARGaussianSignal(0.25, 2.0, ar_coeffs=(0.4,),
                                 signal=SineSignal(0.7))
        theta, n, paths = 1.0, 300, 5
        assert stream_tables([model], [MixingMeasure([theta], [1.0])],
                             n).grid.shape == (1, 1)
        row, = validate_conditions([model], [theta], master_seed=3,
                                   n_paths=paths, n_values=(n,))
        post, pre = [], []
        sig = theta * model.signal_values(n)
        for p in range(paths):
            rng = np.random.default_rng(
                (3, _batch_id(f"slln:s1:theta={theta!r}:n={n}"), p))
            x = model.sample_noise(n, rng)
            pre.append(oracle_llr_increments(model, x, [theta]).sum() / n)
            post.append(oracle_llr_increments(model, x + sig, [theta]).sum() / n)
        assert row["mean_rate"] == pytest.approx(np.mean(post), rel=1e-12)
        assert row["pre_change_rate"] == pytest.approx(np.mean(pre), rel=1e-12)


class TestRiskReport:
    def _report(self):
        rep = RiskReport(plan={"trials": 3})
        rep.pfa = [{"stream": 1, "estimate": 0.01, "upper": 0.02,
                    "n_trials": 3, "n_alarms": 1, "censor_term": 0.0}]
        rep.theory = {"pfa_bound_per_stream": [0.05], "nan_cell": float("nan")}
        return rep

    def test_json_roundtrip_and_nan_as_null(self):
        text = self._report().to_json()
        data = json.loads(text)   # must be strict JSON
        assert data["theory"]["nan_cell"] is None
        assert data["pfa"][0]["estimate"] == 0.01

    def test_json_deterministic(self):
        assert self._report().to_json() == self._report().to_json()

    def test_censor_budget_flagging(self):
        rep = self._report()
        rep.censoring = {"change_trials": 100, "change_censored": 5}
        rep.check_censor_budget(0.01)
        assert rep.flags and "censor budget" in rep.flags[0]
        rep2 = self._report()
        rep2.censoring = {"change_trials": 1000, "change_censored": 2}
        rep2.check_censor_budget(0.01)
        assert not rep2.flags

    def test_csv_has_one_row_per_cell_key(self):
        text = self._report().to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "table,cell,key,value"
        assert any(line.startswith("pfa,0,estimate") for line in lines)
