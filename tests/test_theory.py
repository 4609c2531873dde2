import math

import numpy as np
import pytest

from changeid import (ThresholdMatrix, calibrate, pfa_bound, pmi_bound,
                      psi_threshold)


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
        # stream 1: max(6 / (0.5 + 0.1), 8 / 0.6) with inf I_12 = 0.6
        got = psi_threshold(th, 1, info=0.5, pair_inf={2: 0.6}, mu=0.1)
        assert got == pytest.approx(max(6 / 0.6, 8 / 0.6))

    def test_no_change_branch_dominates_when_competitor_easy(self):
        th = matrix(math.e ** 10, math.e ** 2, math.e ** 2)
        got = psi_threshold(th, 1, info=0.5, pair_inf={2: 5.0}, mu=0.0)
        assert got == pytest.approx(20.0)
