import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from changeid import (ARGaussianSignal, ChangePointPrior, ConstantSignal,
                      Detector, EngineError, MixingMeasure, SineSignal,
                      posterior_no_change)
from conftest import oracle_frame


def make_setup(n_streams=2, grid_pts=5, q=0.0, rho=0.1):
    prior = ChangePointPrior.geometric(rho, q=q)
    models = [ARGaussianSignal(0.25, 2.0) for _ in range(n_streams)]
    mix = MixingMeasure.uniform(0.25, 2.0, grid_pts)
    return prior, models, mix


class TestMixingMeasure:
    def test_uniform_weights(self):
        m = MixingMeasure.uniform(0.25, 2.0, 8, spacing="log")
        assert m.grid[0] == pytest.approx(0.25)
        assert m.grid[-1] == pytest.approx(2.0)
        np.testing.assert_allclose(m.weights, 0.125)
        # log spacing: constant ratio between neighbours
        np.testing.assert_allclose(np.diff(np.log(m.grid)),
                                   math.log(8.0) / 7.0, atol=1e-12)

    def test_gaussian_weights_sum_to_one(self):
        m = MixingMeasure.gaussian(0.5, 3.0, 7, v=1.0)
        assert math.fsum(m.weights.tolist()) == pytest.approx(1.0, abs=1e-12)
        # decaying with theta on the equal-width interior cells (the two
        # endpoint cells are half width)
        assert np.all(np.diff(m.weights[1:-1]) <= 0)

    def test_validation(self):
        with pytest.raises(EngineError):
            MixingMeasure(grid=np.array([1.0, 0.5]), weights=np.array([0.5, 0.5]))
        with pytest.raises(EngineError):
            MixingMeasure(grid=np.array([0.5, 1.0]), weights=np.array([0.7, 0.7]))


class TestOracleEquivalence:
    @pytest.mark.parametrize("q,window", [(0.0, None), (0.2, None), (0.0, 7),
                                          (0.0, 1), (0.0, 2)])
    def test_statistics_match_brute_force(self, rng, q, window):
        prior, models, mix = make_setup(q=q)
        det = Detector(prior, models, mix, window=window)
        obs = rng.standard_normal((2, 20))
        grids = [mix.grid, mix.grid]
        weights = [mix.weights, mix.weights]
        for n in range(1, 21):
            frame = det.step(obs[:, n - 1])
            o_mix, o_sup, o_surv, o_ratio = oracle_frame(
                obs, prior, grids, weights, n, window=window)
            np.testing.assert_allclose(frame.log_mix, o_mix, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(frame.log_sup, o_sup, rtol=1e-9, atol=1e-9)
            assert frame.log_survivor == pytest.approx(o_surv, abs=1e-9)
            ok = ~np.isnan(o_ratio)
            np.testing.assert_allclose(frame.log_ratio[ok], o_ratio[ok],
                                       rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("signal,values", [
        (ConstantSignal(2.0), np.full(20, 2.0)),
        (SineSignal(0.3, amplitude=3.0), 3.0 * np.sin(0.3 * np.arange(1, 21))),
    ], ids=["constant", "sine"])
    def test_ar_gaussian_without_ar_coeffs(self, rng, signal, values):
        # AR order 0: the post-change mean is theta*S_t, not theta
        prior = ChangePointPrior.geometric(0.1)
        models = [ARGaussianSignal(0.25, 2.0, ar_coeffs=(), signal=signal),
                  ARGaussianSignal(0.25, 2.0)]
        mix = MixingMeasure.uniform(0.25, 2.0, 5)
        det = Detector(prior, models, mix)
        obs = rng.standard_normal((2, 20))
        for n in range(1, 21):
            frame = det.step(obs[:, n - 1])
            o_mix, o_sup, _, _ = oracle_frame(
                obs, prior, [mix.grid] * 2, [mix.weights] * 2, n,
                signals=[values, None])
            np.testing.assert_allclose(frame.log_mix, o_mix, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(frame.log_sup, o_sup, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("window", [None, 4])
    def test_ar_order_two_matches_llr_increments(self, rng, window):
        # the engine's carried AR history against the model's own whitening
        prior = ChangePointPrior.geometric(0.1)
        models = [ARGaussianSignal(0.25, 2.0, ar_coeffs=(0.5, -0.3),
                                   signal=SineSignal(0.3, amplitude=2.0)),
                  ARGaussianSignal(0.25, 2.0, sigma=1.5, ar_coeffs=(0.2,))]
        mix = MixingMeasure.uniform(0.25, 2.0, 4)
        obs = rng.standard_normal((2, 30))
        cum = [np.vstack([np.zeros((1, 4)), np.cumsum(
            m.llr_increments(obs[s], mix.grid), axis=0)])
            for s, m in enumerate(models)]
        lp = prior.log_pmf_head_merged(30)
        det = Detector(prior, models, mix, window=window)
        det.lookahead(obs[:, :11])
        for n in range(1, 31):
            det.advance(obs[:, n - 1])
            lo = 0 if window is None else max(0, n - window)
            want = [logsumexp(lp[lo:n, None] + mix.log_weights
                              + c[n] - c[lo:n]) for c in cum]
            np.testing.assert_allclose(det.log_mix_values, want,
                                       rtol=1e-9, atol=1e-9)

    def test_per_stream_grids(self, rng):
        prior = ChangePointPrior.geometric(0.1)
        models = [ARGaussianSignal(0.25, 2.0), ARGaussianSignal(0.5, 3.0)]
        mixes = [MixingMeasure.uniform(0.25, 2.0, 5),
                 MixingMeasure.uniform(0.5, 3.0, 3)]
        det = Detector(prior, models, mixes)
        obs = rng.standard_normal((2, 12))
        for n in range(1, 13):
            frame = det.step(obs[:, n - 1])
        o_mix, o_sup, _, _ = oracle_frame(
            obs, prior, [m.grid for m in mixes], [m.weights for m in mixes], 12)
        np.testing.assert_allclose(frame.log_mix, o_mix, rtol=1e-9)
        np.testing.assert_allclose(frame.log_sup, o_sup, rtol=1e-9)


class TestBounds:
    @pytest.mark.parametrize("window", [None, 3])
    def test_mixture_below_sup_and_lower_bound_below_sup(self, rng, window):
        prior, models, mix = make_setup()
        det = Detector(prior, models, mix, window=window)
        obs = rng.standard_normal((2, 30))
        for n in range(1, 31):
            det.advance(obs[:, n - 1])
            mix_v = det.log_mix_values
            slb = det.sup_lower_bounds
            sup = det.log_sup_values
            assert np.all(mix_v <= slb + 1e-12)
            assert np.all(slb <= sup + 1e-12)
            assert np.all(sup <= slb + math.log(mix.grid.size) + 1e-12)
            # the bound is the best one-point mixture over the grid
            one_point = [oracle_frame(obs, prior, [[g], [g]], [[1.0], [1.0]],
                                      n, window=window)[0]
                         for g in mix.grid]
            np.testing.assert_allclose(slb, np.max(one_point, axis=0),
                                       rtol=1e-9, atol=1e-9)


class TestPosterior:
    def test_posterior_in_unit_interval(self, rng):
        prior, models, mix = make_setup(n_streams=1)
        det = Detector(prior, models, mix)
        for t in range(25):
            frame = det.step(rng.standard_normal(1))
            p = posterior_no_change(frame, 1)
            assert 0.0 <= p <= 1.0

    def test_posterior_drops_under_strong_signal(self):
        prior, models, mix = make_setup(n_streams=1)
        det = Detector(prior, models, mix)
        rng = np.random.default_rng(5)
        for t in range(40):
            frame = det.step(rng.standard_normal(1) + 2.0)
        assert posterior_no_change(frame, 1) < 1e-6


class TestWindow:
    def test_window_covering_everything_is_exact(self, rng):
        prior, models, mix = make_setup()
        obs = rng.standard_normal((2, 15))
        d1 = Detector(prior, models, mix)
        d2 = Detector(prior, models, mix, window=15)
        for t in range(15):
            f1 = d1.step(obs[:, t])
            f2 = d2.step(obs[:, t])
            np.testing.assert_array_equal(f1.log_mix, f2.log_mix)
            np.testing.assert_allclose(f1.log_sup, f2.log_sup, rtol=1e-12)

    def test_evicted_mass_grows(self, rng):
        prior, models, mix = make_setup()
        det = Detector(prior, models, mix, window=3)
        masses = []
        for t in range(8):
            det.advance(rng.standard_normal(2))
            masses.append(det.evicted_log_prior_mass)
        assert masses[0] == -math.inf
        assert masses[-1] > masses[3]


class TestErrors:
    def test_nan_observation_rejected(self):
        prior, models, mix = make_setup()
        det = Detector(prior, models, mix)
        with pytest.raises(EngineError):
            det.advance([np.nan, 0.0])

    def test_frame_before_first_observation(self):
        prior, models, mix = make_setup()
        det = Detector(prior, models, mix)
        with pytest.raises(EngineError):
            det.frame()

    def test_wrong_observation_length(self):
        prior, models, mix = make_setup()
        det = Detector(prior, models, mix)
        with pytest.raises(EngineError):
            det.advance([1.0])


class TestLookahead:
    """``lookahead`` computes the statistics that per-step ``advance`` has:
    the kernel is the same for a block of any length."""

    MODELS = [ARGaussianSignal(0.25, 2.0),
              ARGaussianSignal(0.25, 2.0, ar_coeffs=(0.5, -0.2),
                               signal=SineSignal(0.3, amplitude=3.0)),
              ARGaussianSignal(0.25, 2.0, sigma=1.3, ar_coeffs=(0.4,))]

    @pytest.mark.parametrize("window", [None, 1, 7, 50])
    @pytest.mark.parametrize("capacity", [16, 1024])
    def test_blocks_match_per_step(self, window, capacity):
        prior = ChangePointPrior.geometric(0.05, q=0.1)
        mix = MixingMeasure.uniform(0.25, 2.0, 6, spacing="log")
        rng = np.random.default_rng(3)
        obs = rng.standard_normal((3, 90)) + 0.4
        cuts = np.sort(rng.choice(np.arange(1, 90), size=9, replace=False))
        one = Detector(prior, self.MODELS, mix, window=window, capacity=capacity)
        blocks = Detector(prior, self.MODELS, mix, window=window,
                          capacity=capacity)
        bounds = [0, *cuts.tolist(), 90]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            mix, bound = blocks.lookahead(obs[:, lo:hi])
            for t in range(lo, hi):
                one.advance(obs[:, t])
                blocks.advance(obs[:, t])
                np.testing.assert_array_equal(blocks.log_mix_values, mix[t - lo])
                np.testing.assert_array_equal(blocks.sup_lower_bounds,
                                              bound[t - lo])
                np.testing.assert_array_equal(blocks.log_mix_values,
                                              one.log_mix_values)
                np.testing.assert_array_equal(blocks.sup_lower_bounds,
                                              one.sup_lower_bounds)
                f1, f2 = one.frame(), blocks.frame()
                for name in ("log_mix", "log_sup", "log_ratio"):
                    np.testing.assert_array_equal(getattr(f1, name),
                                                  getattr(f2, name))
                assert f1.log_survivor == f2.log_survivor

    def test_statistics_before_commit_are_the_committed_ones(self, rng):
        prior, models, mix = make_setup()
        det = Detector(prior, models, mix)
        obs = rng.standard_normal((2, 6))
        det.advance(obs[:, 0])
        before = det.log_mix_values.copy(), det.sup_lower_bounds.copy()
        det.lookahead(obs[:, 1:])
        assert det.n == 1
        np.testing.assert_array_equal(det.log_mix_values, before[0])
        np.testing.assert_array_equal(det.sup_lower_bounds, before[1])

    def test_advance_rejects_other_observation(self, rng):
        prior, models, mix = make_setup()
        det = Detector(prior, models, mix)
        obs = rng.standard_normal((2, 5))
        det.lookahead(obs)
        det.advance(obs[:, 0])
        with pytest.raises(EngineError, match="differs from the looked-ahead"):
            det.advance(obs[:, 1] + 1e-9)
        assert det.n == 1
        det.advance(obs[:, 1])
        assert det.n == 2

    def test_lookahead_with_pending_steps_rejected(self, rng):
        prior, models, mix = make_setup()
        det = Detector(prior, models, mix)
        obs = rng.standard_normal((2, 5))
        det.lookahead(obs[:, :3])
        det.advance(obs[:, 0])
        with pytest.raises(EngineError, match="still to be committed"):
            det.lookahead(obs[:, 3:])

    def test_nan_inside_block_names_its_step(self, rng):
        prior, models, mix = make_setup()
        obs = rng.standard_normal((2, 8))
        obs[1, 5] = np.nan
        per_step = Detector(prior, models, mix)
        for t in range(5):
            per_step.advance(obs[:, t])
        with pytest.raises(EngineError) as want:
            per_step.advance(obs[:, 5])
        det = Detector(prior, models, mix)
        det.advance(obs[:, 0])
        with pytest.raises(EngineError) as got:
            det.lookahead(obs[:, 1:])
        assert str(got.value) == str(want.value)
        assert "non-finite observation at step 6" in str(got.value)
        # nothing was looked ahead: the finite steps still go through
        for t in range(1, 5):
            det.advance(obs[:, t])
        np.testing.assert_array_equal(det.log_mix_values,
                                      per_step.log_mix_values)


class TestCapacityGrowth:
    def test_growth_preserves_statistics(self, rng):
        prior, models, mix = make_setup()
        obs = rng.standard_normal((2, 40))
        # at window 5 the tables grow inside the chunk of candidates 15..19,
        # whose suffix scan then reads the regrown tables
        for window in (None, 5):
            small = Detector(prior, models, mix, window=window, capacity=16)
            big = Detector(prior, models, mix, window=window, capacity=64)
            for t in range(40):
                f1 = small.step(obs[:, t])
                f2 = big.step(obs[:, t])
                np.testing.assert_allclose(f1.log_mix, f2.log_mix, rtol=1e-12)
                np.testing.assert_allclose(f1.log_sup, f2.log_sup, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
def test_mixture_matches_oracle_property(seed, n):
    prior, models, mix = make_setup(grid_pts=3)
    obs = np.random.default_rng(seed).standard_normal((2, n))
    det = Detector(prior, models, mix)
    for t in range(n):
        frame = det.step(obs[:, t])
    o_mix, o_sup, _, _ = oracle_frame(obs, prior, [mix.grid] * 2,
                                      [mix.weights] * 2, n)
    np.testing.assert_allclose(frame.log_mix, o_mix, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(frame.log_sup, o_sup, rtol=1e-9, atol=1e-9)
