import math

import numpy as np
import pytest

from changeid import (ARGaussianSignal, ChangePointPrior, ExperimentPlan,
                      MixingMeasure, ThresholdMatrix, calibrate,
                      estimate_delay, pfa_bound, pmi_bound, psi_threshold,
                      run_change_batch)


def matrix(a0, a12, a21):
    return ThresholdMatrix(log_a=np.log(np.array(
        [[a0, np.nan, a12], [a0, a21, np.nan]])))


class TestBounds:
    def test_pfa_bound_hand_values(self):
        per, total = pfa_bound(matrix(9.0, 11.0, 11.0))
        np.testing.assert_allclose(per, 0.1)
        assert total == pytest.approx(0.2)

    def test_pmi_bound_hand_values(self):
        # (1 + A_i0)/(A_i0 A_ji): A_10 = 9, A_21 = 20 -> 10/(9*20)
        th = matrix(9.0, 15.0, 20.0)
        pair, rows = pmi_bound(th)
        assert pair[0, 1] == pytest.approx(10.0 / (9.0 * 20.0))
        assert pair[1, 0] == pytest.approx(10.0 / (9.0 * 15.0))
        assert np.isnan(pair[0, 0]) and np.isnan(pair[1, 1])
        assert rows[0] == pytest.approx(pair[0, 1])

    def test_calibrated_thresholds_meet_targets_exactly(self):
        th = calibrate(0.05, 0.05, n_streams=2)
        per, _ = pfa_bound(th)
        np.testing.assert_allclose(per, 0.05, rtol=1e-12)
        pair, _ = pmi_bound(th)
        assert pair[0, 1] == pytest.approx(0.05, rel=1e-12)


class TestPsi:
    def test_threshold_form_hand_value(self):
        th = matrix(math.e ** 6, math.e ** 8, math.e ** 8)
        # stream 1: max(6 / (0.5 + 0.1), 8 / (0.5 + 0.1)) with inf I_02 = 0.1
        got = psi_threshold(th, 1, info=0.5, competitor_info={2: 0.1}, mu=0.1)
        assert got == pytest.approx(max(6 / 0.6, 8 / 0.6))

    def test_no_change_branch_dominates_when_competitor_easy(self):
        th = matrix(math.e ** 10, math.e ** 2, math.e ** 2)
        got = psi_threshold(th, 1, info=0.5, competitor_info={2: 4.5}, mu=0.0)
        assert got == pytest.approx(20.0)

    def test_competitor_rate_capped_by_prior_tail(self):
        # mu = 0.02 < inf I_0j = 0.1: stream j's statistic falls at mu, so
        # the competitor ratio grows at I_i + mu = 0.52, not inf I_ij = 0.6
        th = matrix(math.e ** 6, math.e ** 8, math.e ** 8)
        got = psi_threshold(th, 1, info=0.5, competitor_info={2: 0.1}, mu=0.02)
        assert got == pytest.approx(8 / 0.52)

    def test_acceptance_config_scale_unchanged(self):
        # there mu = 0.0513 exceeds inf I_0j = 0.25^2 / 2 = 0.03125, so the
        # competitor rate is still inf I_ij
        prior = ChangePointPrior.geometric(0.05, q=0.0)
        model = ARGaussianSignal(0.25, 2.0, sigma=1.0)
        mix = MixingMeasure.uniform(0.25, 2.0, 8, spacing="log")
        th = calibrate(0.05, 0.05, n_streams=2)
        mu = prior.tail_exponent()
        info = model.info_number(1.0)
        inf_02 = min(model.info_number(g) for g in mix.grid)
        assert inf_02 < mu
        got = psi_threshold(th, 1, info, {2: inf_02}, mu)
        assert got == max(th.log_a[0, 0] / (info + mu),
                          th.log_a[0, 2] / (info + inf_02))


def test_psi_ladder_slow_tailed_prior():
    """With rho = 0.01 (mu = 0.01005 < inf I_0j = 0.125) the measured mean
    delay approaches the scale that uses I_i + mu as the competitor rate;
    the rate inf I_ij alone underestimates it by about a quarter."""
    prior = ChangePointPrior.geometric(0.01, q=0.0)
    models = [ARGaussianSignal(0.5, 2.0), ARGaussianSignal(0.5, 2.0)]
    mix = MixingMeasure.uniform(0.5, 2.0, 8, spacing="log")
    mu = prior.tail_exponent()
    info = models[0].info_number(1.0)
    inf_02 = min(models[1].info_number(g) for g in mix.grid)
    plan = ExperimentPlan(n_trials=200, horizon=3000, master_seed=20240823)
    for log_a0 in (24.0, 48.0):
        th = ThresholdMatrix(log_a=np.array(
            [[log_a0, np.nan, 2.37 * log_a0],
             [log_a0, 2.37 * log_a0, np.nan]]))
        outcomes = run_change_batch(plan, models, prior, mix, th,
                                    stream=1, theta=1.0)
        delay = estimate_delay(outcomes, stream=1, r=1)["estimate"]
        r1 = delay / psi_threshold(th, 1, info, {2: inf_02}, mu)
        r1_inf_rate = delay / (2.37 * log_a0 / (info + inf_02))
        assert r1 <= 1.12, (log_a0, r1)
        assert r1_inf_rate > 1.12, (log_a0, r1_inf_rate)
