import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from changeid import (ARGaussianSignal, ChangePointPrior, ConstantSignal,
                      Detector, EngineError, MixingMeasure, SineSignal,
                      engine, posterior_no_change)
from conftest import oracle_frame, oracle_llr_increments


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

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_one_point_grid_is_theta_min(self, spacing):
        for m in (MixingMeasure.uniform(0.5, 2.0, 1, spacing=spacing),
                  MixingMeasure.gaussian(0.5, 2.0, 1, v=1.0, spacing=spacing)):
            assert m.grid.tolist() == [0.5] and m.weights.tolist() == [1.0]

    def test_one_point_grid_checks_its_spacing(self):
        with pytest.raises(EngineError, match="unknown grid spacing 'bogus'"):
            MixingMeasure.uniform(0.5, 2.0, 1, spacing="bogus")

    def test_gaussian_weights_sum_to_one(self):
        m = MixingMeasure.gaussian(0.5, 3.0, 7, v=1.0)
        assert math.fsum(m.weights.tolist()) == pytest.approx(1.0, abs=1e-12)
        # decaying with theta on the equal-width interior cells (the two
        # endpoint cells are half width)
        assert np.all(np.diff(m.weights[1:-1]) <= 0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("v", [1e-10, 1e-300])
    def test_gaussian_weights_that_all_underflow_name_v(self, v):
        with pytest.raises(EngineError, match=f"underflow to 0 at v={v:g};"):
            MixingMeasure.gaussian(0.25, 2.0, 4, v=v)

    def test_validation(self):
        with pytest.raises(EngineError):
            MixingMeasure(grid=np.array([1.0, 0.5]), weights=np.array([0.5, 0.5]))
        with pytest.raises(EngineError):
            MixingMeasure(grid=np.array([0.5, 1.0]), weights=np.array([0.7, 0.7]))

    @pytest.mark.parametrize("grid, weights", [
        ([1.0, 2.0], [math.nan, math.nan]),
        ([math.nan], [1.0]),
        ([1.0, math.inf], [0.5, 0.5]),
    ], ids=["nan_weights", "nan_single_point", "inf_grid_point"])
    def test_non_finite_rejected(self, grid, weights):
        with pytest.raises(EngineError):
            MixingMeasure(grid=grid, weights=weights)


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
        # the engine's carried AR history against scipy's whitening,
        # on rows of 2 x 48 entries
        prior = ChangePointPrior.geometric(0.1)
        models = [ARGaussianSignal(0.25, 2.0, ar_coeffs=(0.5, -0.3),
                                   signal=SineSignal(0.3, amplitude=2.0)),
                  ARGaussianSignal(0.25, 2.0, sigma=1.5, ar_coeffs=(0.2,))]
        for grid_pts in (4, 48):
            mix = MixingMeasure.uniform(0.25, 2.0, grid_pts)
            obs = rng.standard_normal((2, 30))
            cum = [np.vstack([np.zeros((1, grid_pts)), np.cumsum(
                oracle_llr_increments(m, obs[s], mix.grid), axis=0)])
                for s, m in enumerate(models)]
            lp = prior.log_pmf_head_merged(30)
            det = Detector(prior, models, mix, window=window)
            det.lookahead(obs[:, :11])
            for n in range(1, 31):
                if n > 11:
                    det.lookahead(obs[:, n - 1:n])
                det.advance()
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
            det.lookahead(obs[:, n - 1:n])
            det.advance()
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
            det.lookahead(rng.standard_normal((2, 1)))
            det.advance()
            masses.append(det.evicted_log_prior_mass)
        assert masses[0] == -math.inf
        assert masses[-1] > masses[3]

    @pytest.mark.parametrize("prior, survivor, s", [
        (ChangePointPrior.geometric(0.1, q=0.2),
         lambda s: 0.8 * 0.9 ** s, 20),
        (ChangePointPrior.discrete_weibull(0.5, 10.0, q=0.1),
         lambda s: 0.9 * math.exp(-(s / 10.0) ** 0.5), 60),
        # near 0: the survivor is 1.26e-13, which a sum of the pmf misses
        (ChangePointPrior.discrete_weibull(1.0, 10.0),
         lambda s: math.exp(-s / 10.0), 297),
        (ChangePointPrior.from_pmf(np.linspace(1.0, 0.1, 30)),
         lambda s: 0.0, 40),
    ], ids=["geometric", "weibull_heavy", "weibull_near_0", "explicit_past"])
    def test_evicted_mass_is_the_survivors_complement(self, rng, prior,
                                                      survivor, s):
        # the merged mass of k < s is 1 - P(nu >= s)
        _, models, mix = make_setup()
        det = Detector(prior, models, mix, window=3)
        det.lookahead(rng.standard_normal((2, s + 3)))
        for _ in range(s + 3):
            det.advance()
        want = math.log1p(-survivor(s))
        got = det.evicted_log_prior_mass
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestErrors:
    def test_nan_observation_rejected(self):
        prior, models, mix = make_setup()
        det = Detector(prior, models, mix)
        with pytest.raises(EngineError, match="non-finite observation at step 1"):
            det.step([np.nan, 0.0])
        assert det.n == 0

    def test_frame_before_first_observation(self):
        prior, models, mix = make_setup()
        det = Detector(prior, models, mix)
        with pytest.raises(EngineError):
            det.frame()

    def test_wrong_observation_length(self):
        prior, models, mix = make_setup()
        det = Detector(prior, models, mix)
        with pytest.raises(EngineError, match="observation vector of length 2"):
            det.step([1.0])
        assert det.n == 0


class TestLookahead:
    """``lookahead`` computes the statistics that ``step`` has one step at
    a time: the kernel is the same for a block of any length."""

    MODELS = [ARGaussianSignal(0.25, 2.0),
              ARGaussianSignal(0.25, 2.0, ar_coeffs=(0.5, -0.2),
                               signal=SineSignal(0.3, amplitude=3.0)),
              ARGaussianSignal(0.25, 2.0, sigma=1.3, ar_coeffs=(0.4,))]

    @pytest.mark.parametrize("window", [None, 1, 7, 50])
    @pytest.mark.parametrize("capacity", [16, 1024])
    def test_blocks_match_per_step(self, window, capacity):
        prior = ChangePointPrior.geometric(0.05, q=0.1)
        # narrow rows and wide ones, 3 x 6 and 3 x 32 entries
        for grid_pts in (6, 32):
            self._blocks_match_per_step(
                prior, MixingMeasure.uniform(0.25, 2.0, grid_pts, spacing="log"),
                window, capacity)

    def _blocks_match_per_step(self, prior, mix, window, capacity):
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
                one.lookahead(obs[:, t:t + 1])
                one.advance()
                blocks.advance()
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
        det.step(obs[:, 0])
        before = det.log_mix_values.copy(), det.sup_lower_bounds.copy()
        det.lookahead(obs[:, 1:])
        assert det.n == 1
        np.testing.assert_array_equal(det.log_mix_values, before[0])
        np.testing.assert_array_equal(det.sup_lower_bounds, before[1])

    def test_commit_needs_a_looked_ahead_step(self, rng):
        prior, models, mix = make_setup()
        det = Detector(prior, models, mix)
        obs = rng.standard_normal((2, 3))
        with pytest.raises(EngineError, match="no looked-ahead step"):
            det.advance()
        assert det.n == 0
        det.lookahead(obs[:, :2])
        det.advance()
        with pytest.raises(EngineError, match="still to be committed"):
            det.step(obs[:, 2])
        assert det.n == 1
        det.advance()
        with pytest.raises(EngineError, match="no looked-ahead step"):
            det.advance()
        assert det.n == 2
        assert det.step(obs[:, 2]).n == 3

    def test_lookahead_with_pending_steps_rejected(self, rng):
        prior, models, mix = make_setup()
        det = Detector(prior, models, mix)
        obs = rng.standard_normal((2, 5))
        det.lookahead(obs[:, :3])
        det.advance()
        with pytest.raises(EngineError, match="still to be committed"):
            det.lookahead(obs[:, 3:])

    def test_nan_inside_block_names_its_step(self, rng):
        prior, models, mix = make_setup()
        obs = rng.standard_normal((2, 8))
        obs[1, 5] = np.nan
        per_step = Detector(prior, models, mix)
        frames = [per_step.step(obs[:, t]) for t in range(5)]
        with pytest.raises(EngineError) as want:
            per_step.step(obs[:, 5])
        det = Detector(prior, models, mix)
        det.step(obs[:, 0])
        # the finite steps before the NaN are looked ahead and commit with
        # the per-step statistics
        mix_rows, bound_rows = det.lookahead(obs[:, 1:])
        assert len(mix_rows) == len(bound_rows) == 4
        for t in range(1, 5):
            det.advance()
            f1, f2 = frames[t], det.frame()
            assert (f1.n, f1.log_survivor) == (f2.n, f2.log_survivor)
            for name in ("log_mix", "log_sup", "log_ratio"):
                np.testing.assert_array_equal(getattr(f1, name),
                                              getattr(f2, name))
            np.testing.assert_array_equal(det.sup_lower_bounds,
                                          bound_rows[t - 1])
        # the next look-ahead starts at the NaN and raises at its step
        with pytest.raises(EngineError) as got:
            det.lookahead(obs[:, 5:])
        assert str(got.value) == str(want.value)
        assert "non-finite observation at step 6" in str(got.value)
        assert det.n == 5

    @pytest.mark.filterwarnings("error")
    def test_overflowing_ratio_inside_block_names_its_step(self, rng):
        prior, models, mix = make_setup()
        obs = rng.standard_normal((2, 6))
        # theta * x overflows at theta = 2: the ratio is not a number
        obs[0, 2] = 1e308
        per_step = Detector(prior, models, mix)
        frames = [per_step.step(obs[:, t]) for t in range(2)]
        det = Detector(prior, models, mix)
        mix_rows, bound_rows = det.lookahead(obs)
        assert len(mix_rows) == len(bound_rows) == 2
        for t in range(2):
            det.advance()
            np.testing.assert_array_equal(frames[t].log_ratio,
                                          det.frame().log_ratio)
        with pytest.raises(EngineError,
                           match="log-likelihood ratio overflows at step 3"):
            det.lookahead(obs[:, 2:])
        assert det.n == 2

    # stream 1's whitened signal is 2 after its first step, and stream 2
    # carries none: its whitened signal is 0 at every step
    BAD_MODELS = [ARGaussianSignal(0.25, 2.0, ar_coeffs=(0.5,),
                                   signal=ConstantSignal(4.0)),
                  ARGaussianSignal(0.25, 2.0, ar_coeffs=(0.3,),
                                   signal=ConstantSignal(0.0))]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("stream, value, message", [
        # 0 * inf: the increments are NaN, not infinite
        (1, np.inf, "non-finite observation"),
        (0, np.nan, "non-finite observation"),
        # theta * u = 4e308 at theta = 2
        (0, 1e308, "log-likelihood ratio overflows"),
        # finite cumz past float max / 4, whose differences would overflow
        (0, -2e307, "log-likelihood ratio overflows"),
    ], ids=["inf_times_zero_signal", "nan", "infinite_ratio", "past_limit"])
    def test_one_check_names_the_bad_step(self, rng, stream, value, message):
        prior = ChangePointPrior.geometric(0.1)
        mix = MixingMeasure.uniform(0.25, 2.0, 5)
        good = rng.standard_normal((2, 12))
        obs = good.copy()
        obs[stream, 5] = value
        want = f"{message} at step 6: {obs[:, 5]}"
        # a one-step block raises at its step
        single = Detector(prior, self.BAD_MODELS, mix)
        for t in range(5):
            single.step(obs[:, t])
        with pytest.raises(EngineError) as err:
            single.step(obs[:, 5])
        assert str(err.value) == want
        # inside a block the look-ahead stops short of it, and the next
        # block raises at its first step
        det = Detector(prior, self.BAD_MODELS, mix)
        mix_rows, _ = det.lookahead(obs)
        assert len(mix_rows) == 5
        for _ in range(5):
            det.advance()
        with pytest.raises(EngineError) as err:
            det.lookahead(obs[:, 5:])
        assert str(err.value) == want
        # neither raise leaves a trace: good observations go on as on a
        # detector that never saw the bad one
        fresh = Detector(prior, self.BAD_MODELS, mix)
        fresh.lookahead(good[:, :5])
        for _ in range(5):
            fresh.advance()
        want_rows = fresh.lookahead(good[:, 5:])
        for _ in range(7):
            fresh.advance()
        for d in (single, det):
            assert d.n == 5
            for got, ref in zip(d.lookahead(good[:, 5:]), want_rows):
                assert got.tobytes() == ref.tobytes()
            for _ in range(7):
                d.advance()
            assert d.frame().log_ratio.tobytes() == fresh.frame().log_ratio.tobytes()
            assert d.screen_slack == fresh.screen_slack


class TestScan:
    """The running log-sum-exp of ``lookahead`` carries each column as an
    offset and a linear sum.  It re-bases at a row with an entry far above
    the offset, and where a column without prior mass meets a finite entry;
    a re-base depends only on the carried state and the row, so the
    statistics stay the same bits whatever the blocks."""

    IID = [ARGaussianSignal(0.25, 2.0), ARGaussianSignal(0.25, 2.0)]
    MIX = MixingMeasure.uniform(0.25, 2.0, 6, spacing="log")
    T = 300

    @classmethod
    def _outlier_path(cls):
        obs = np.random.default_rng(21).standard_normal((2, cls.T)) + 0.3
        # theta * x lowers cumz by up to 1 000: the newest candidate's
        # entry lies far more than the headroom above every earlier one
        obs[0, 120] = -500.0
        obs[1, 200] = -400.0
        return obs

    @staticmethod
    def _hole_prior():
        # no mass before k = 20, between 60 and 130, and after 250
        probs = np.ones(250)
        probs[:20] = 0.0
        probs[60:130] = 0.0
        return ChangePointPrior("explicit_pmf", probs=probs)

    def _case(self, case):
        if case == "outlier":
            return ChangePointPrior.geometric(0.05, q=0.1), self._outlier_path()
        rng = np.random.default_rng(22)
        return self._hole_prior(), rng.standard_normal((2, self.T)) + 0.3

    @pytest.mark.parametrize("rows", [1, 2, 64, 201])
    @pytest.mark.parametrize("width", [2, 32])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_both_paths_match_accumulate(self, rows, width, reverse):
        """The scan's bulk runs and its re-base rows give the values of
        ``np.logaddexp.accumulate``, -inf where it has -inf, and the same
        bits when the rows are split into two calls."""
        rng = np.random.default_rng(rows * width)
        # steps of hundreds re-base often; zero prior mass gives whole
        # rows, columns and single entries of -inf
        base = rng.standard_normal((rows, 3, width)) * 300.0
        base[rng.random(base.shape) < 0.1] = -np.inf
        base[::7] = -np.inf
        base[:, 1, 0] = -np.inf
        want = np.logaddexp.accumulate(base[::-1] if reverse else base, axis=0)
        runs = []
        for split in (rows, rows // 2):
            a = base.copy()
            view = (a[::-1] if reverse else a).reshape(1, rows, -1)
            assert np.shares_memory(view, a)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                state = engine._scan(view[:, :split]) if split else None
                engine._scan(view[:, split:], state)
            runs.append(view.reshape(want.shape))
        assert runs[0].tobytes() == runs[1].tobytes()
        assert np.array_equal(np.isneginf(runs[0]), np.isneginf(want))
        np.testing.assert_allclose(runs[0], want, rtol=1e-13)

    def test_cases_force_rebases(self):
        prior, obs = self._case("outlier")
        det = Detector(prior, self.IID, self.MIX, capacity=self.T)
        det.lookahead(obs)
        a = det.tables.lp[:self.T, None, None] - det._cumz[:self.T]
        running = np.logaddexp.accumulate(a, axis=0)
        assert np.any(a[1:] - running[:-1] > engine._HEADROOM)
        lp = self._hole_prior().log_pmf_head_merged(self.T)
        assert np.isneginf(lp[:20]).all() and np.isneginf(lp[60:130]).all()
        assert np.isneginf(lp[250:]).all()

    @pytest.mark.parametrize("window", [None, 1, 7, 50])
    @pytest.mark.parametrize("case", ["outlier", "holes"])
    def test_blocks_match_single_steps_across_rebases(self, window, case):
        prior, obs = self._case(case)
        rng = np.random.default_rng(23)
        cuts = np.sort(rng.choice(np.arange(1, self.T), size=12, replace=False))
        single = Detector(prior, self.IID, self.MIX, window=window, capacity=16)
        blocks = Detector(prior, self.IID, self.MIX, window=window, capacity=16)
        bounds = [0, *cuts.tolist(), self.T]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                mix_rows, bound_rows = blocks.lookahead(obs[:, lo:hi])
                for t in range(lo, hi):
                    one = single.step(obs[:, t])
                    blocks.advance()
                    assert mix_rows[t - lo].tobytes() == one.log_mix.tobytes()
                    assert (bound_rows[t - lo].tobytes()
                            == single.sup_lower_bounds.tobytes())
                    assert blocks.frame().log_ratio.tobytes() == \
                           one.log_ratio.tobytes()

    @pytest.mark.parametrize("window", [None, 1, 7, 50])
    @pytest.mark.parametrize("case", ["outlier", "holes"])
    def test_matches_oracle_across_rebases(self, window, case):
        prior, obs = self._case(case)
        det = Detector(prior, self.IID, self.MIX, window=window)
        det.lookahead(obs)
        grids, weights = [self.MIX.grid] * 2, [self.MIX.weights] * 2
        empty = 0
        for n in range(1, self.T + 1):
            det.advance()
            if n % 7 and n not in (120, 121, 201, 251):
                continue
            frame = det.frame()
            with np.errstate(divide="ignore", invalid="ignore"):
                o_mix, o_sup, _, _ = oracle_frame(obs, prior, grids, weights,
                                                  n, window=window)
            # -inf where the window holds no prior mass, on both sides
            empty += np.isneginf(o_mix).sum()
            np.testing.assert_allclose(frame.log_mix, o_mix, rtol=1e-12, atol=1e-9)
            np.testing.assert_allclose(frame.log_sup, o_sup, rtol=1e-12, atol=1e-9)
        assert (empty > 0) == (case == "holes")

    # outliers of -3 000 at these observations lower cumz by 750 to 1 500
    # on the narrow grid, whose drift alone never re-bases over LONG steps
    LONG = 2200
    NARROW = MixingMeasure.uniform(0.25, 0.5, 4)
    OUTLIERS = {None: (400, 1500), 7: (145, 282, 1500), 50: (130, 260, 1500)}

    def _long_path(self, window):
        obs = np.random.default_rng(25).standard_normal((2, self.LONG))
        for i, t in enumerate(self.OUTLIERS[window]):
            obs[i % 2, t] = -3000.0
        return obs

    @staticmethod
    def _jumps(a):
        """Rows of the candidate entries a, (..., r, N, G), with an entry
        more than the headroom above the running value before it: each is
        above its offset too, so a re-base."""
        running = np.logaddexp.accumulate(a, axis=-3)
        return (a[..., 1:, :, :] - running[..., :-1, :, :]
                > engine._HEADROOM).any(axis=(-2, -1))

    @pytest.mark.parametrize("window", [None, 7, 50])
    def test_long_runs_match_single_steps(self, window):
        """One look-ahead of the whole path: in full mode a run that
        re-bases in its second search segment, then one that re-bases in
        its third; in window mode whole chunks where only some re-base,
        the first re-base row lying in a later chunk than the first chunk
        that re-bases.  Every row is the one single steps give."""
        prior = ChangePointPrior.geometric(0.05)
        obs = self._long_path(window)
        block = Detector(prior, self.IID, self.NARROW, window=window,
                         capacity=self.LONG)
        single = Detector(prior, self.IID, self.NARROW, window=window,
                          capacity=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mix_rows, bound_rows = block.lookahead(obs)
            for t in range(self.LONG):
                one = single.step(obs[:, t])
                block.advance()
                assert mix_rows[t].tobytes() == one.log_mix.tobytes()
                assert bound_rows[t].tobytes() == \
                       single.sup_lower_bounds.tobytes()
                if t % 11 == 0:
                    assert block.frame().log_ratio.tobytes() == \
                           one.log_ratio.tobytes()
        a = block.tables.lp[:self.LONG, None, None] - block._cumz[:self.LONG]
        seg = engine._SEARCH_ROWS
        if window is None:
            first, second = np.flatnonzero(self._jumps(a)) + 1
            assert seg <= first < 3 * seg
            assert 3 * seg <= second - (first + 1) < 7 * seg
            assert self.LONG - (second + 1) > 2 * seg
        else:
            whole = self.LONG // window
            chunks, rows = np.nonzero(self._jumps(
                a[:whole * window].reshape(whole, window, 2, -1)))
            assert 0 < len(set(chunks)) < whole
            assert rows[0] > rows.min()

    def test_accuracy_against_longdouble(self):
        """On a long full-mode path the scan is closer to an 80-bit
        running log-sum-exp than the ``np.logaddexp`` chain it replaced."""
        if np.finfo(np.longdouble).nmant <= np.finfo(float).nmant:
            pytest.skip("no extended precision on this platform")
        prior = ChangePointPrior.geometric(1e-3)
        mix = MixingMeasure.uniform(0.25, 2.0, 8, spacing="log")
        obs = np.random.default_rng(24).standard_normal((2, 4000))
        obs[1, 1000:] += 0.5
        det = Detector(prior, self.IID, mix, capacity=4000)
        got = det.lookahead(obs)[0]
        lp, cumz = det.tables.lp[:4000], det._cumz[:4001]
        a = lp[:, None, None] - cumz[:-1]
        chain = engine._lse(np.moveaxis(
            cumz[1:] + np.logaddexp.accumulate(a, axis=0) + det.tables.logw,
            2, 0))
        # the reference: a longdouble sum rescaled when it would overflow
        wide = a.astype(np.longdouble)
        off, total = wide[0].copy(), np.ones(wide.shape[1:], np.longdouble)
        ref_b = np.empty_like(wide)
        ref_b[0] = wide[0]
        for k in range(1, len(wide)):
            up = wide[k] > off + 5000
            total = np.where(up, total * np.exp(off - wide[k]), total)
            off = np.where(up, wide[k], off)
            total = total + np.exp(wide[k] - off)
            ref_b[k] = off + np.log(total)
        t = cumz[1:].astype(np.longdouble) + ref_b + det.tables.logw
        top = t.max(axis=2, keepdims=True)
        ref = np.log(np.exp(t - top).sum(axis=2)) + top[..., 0]
        err = float(np.abs(got - ref).max())
        err_chain = float(np.abs(chain - ref).max())
        assert err <= err_chain
        assert err < 1e-12


class TestSlidingBuffer:
    """Window mode keeps cumz in a buffer whose rows depend on the window
    and the look-ahead blocks, not on n: over a path many times longer
    than the buffer, the rows it moves to its front give the statistics
    bit for bit, whatever the blocks."""

    MODELS = TestLookahead.MODELS
    T = 1500

    @staticmethod
    def _frames(det, obs, bounds):
        """The per-step statistics and frame of every step, and the frame
        of the committed time again after each block is looked ahead."""
        steps, again = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            det.lookahead(obs[:, lo:hi])
            if lo:
                again.append(det.frame())
            for t in range(lo, hi):
                det.advance()
                steps.append((det.log_mix_values, det.sup_lower_bounds,
                              det.frame()))
        return steps, again

    @staticmethod
    def _assert_same_frame(f1, f2):
        assert (f1.n, f1.log_survivor) == (f2.n, f2.log_survivor)
        for name in ("log_mix", "log_sup", "log_ratio"):
            np.testing.assert_array_equal(getattr(f1, name), getattr(f2, name))

    @pytest.mark.parametrize("window", [1, 7, 50, 300])
    def test_long_path_blocks_match_per_step(self, window):
        # narrow rows and wide ones, 3 x 6 and 3 x 32 entries
        for grid_pts in (6, 32):
            self._long_path_blocks_match_per_step(
                MixingMeasure.uniform(0.25, 2.0, grid_pts, spacing="log"),
                window)

    def _long_path_blocks_match_per_step(self, mix, window):
        prior = ChangePointPrior.geometric(0.05, q=0.1)
        rng = np.random.default_rng(window)
        obs = rng.standard_normal((3, self.T)) + 0.4
        cuts = np.sort(rng.choice(np.arange(1, self.T), size=40, replace=False))
        patterns = {
            "step": list(range(self.T + 1)),
            "cuts": [0, *cuts.tolist(), self.T],
            "blocks": [*range(0, self.T, 400), self.T],
        }
        dets = {name: Detector(prior, self.MODELS, mix, window=window,
                               capacity=16) for name in patterns}
        ref, _ = self._frames(dets["step"], obs, patterns["step"])
        for name in ("cuts", "blocks"):
            steps, again = self._frames(dets[name], obs, patterns[name])
            for (mix1, bound1, f1), (mix2, bound2, f2) in zip(ref, steps,
                                                              strict=True):
                np.testing.assert_array_equal(mix1, mix2)
                np.testing.assert_array_equal(bound1, bound2)
                self._assert_same_frame(f1, f2)
            for f2 in again:
                self._assert_same_frame(ref[f2.n - 1][2], f2)
        # every buffer is shorter than the path, so its rows have moved; a
        # block of m steps needs L + 1 + m rows, and gets at most twice that
        for name, det in dets.items():
            assert len(det._cumz) <= 2 * (window + 1 + 400) < self.T, name
        assert window + 2 <= len(dets["step"]._cumz) <= 2 * (window + 2)

    def test_rows_depend_on_neither_n_nor_capacity(self, rng):
        prior, models, mix = make_setup()
        obs = rng.standard_normal((2, 10_000))
        rows = []
        for capacity in (16, 10_000):
            det = Detector(prior, models, mix, window=50, capacity=capacity)
            for lo in range(0, 10_000, 40):
                det.lookahead(obs[:, lo:lo + 40])
                for t in range(lo, lo + 40):
                    det.advance()
                if det.n in (1_000, 10_000):
                    rows.append(len(det._cumz))
        assert rows == rows[:1] * 4
        assert 50 + 1 + 40 <= rows[0] <= 2 * (50 + 1 + 40)


class TestCapacityGrowth:
    def test_growth_preserves_statistics(self, rng):
        obs = rng.standard_normal((2, 40))
        # at window 5 the tables grow inside the chunk of candidates 15..19,
        # whose suffix scan then reads the regrown tables
        for window in (None, 5):
            # a new prior has no shared tables yet
            prior, models, mix = make_setup()
            small = Detector(prior, models, mix, window=window, capacity=16)
            shared = small.tables
            big = Detector(prior, models, mix, window=window, capacity=64)
            for t in range(40):
                f1 = small.step(obs[:, t])
                f2 = big.step(obs[:, t])
                for name in ("log_mix", "log_sup", "log_ratio"):
                    np.testing.assert_array_equal(getattr(f1, name),
                                                  getattr(f2, name))
                assert small.evicted_log_prior_mass == big.evicted_log_prior_mass
            # past its tables a detector takes the prior's shared entry,
            # which covers it, and a later detector of capacity 16 shares it
            assert small.tables.cap == 64 and small.tables is big.tables
            assert shared.cap == 16 and not shared.sw.flags.writeable
            later = Detector(prior, models, mix, window=window, capacity=16)
            assert later.tables is small.tables

    def test_full_mode_buffer_grows_with_its_tables(self, rng):
        """Full mode is the window L = infinity: its cumz buffer grows to
        the cap + 1 + m rows that hold every time up to the tables'
        capacity, not to twice the rows a block reads."""
        prior, models, mix = make_setup()
        det = Detector(prior, models, mix, capacity=16)
        for x in rng.standard_normal((200, 2)):
            det.step(x)
            assert len(det._cumz) <= det.tables.cap + 1 + 1, det.n

    @pytest.mark.parametrize("prior", [
        ChangePointPrior.geometric(0.1, q=0.1),
        ChangePointPrior.discrete_weibull(0.5, 10.0, q=0.2),
        ChangePointPrior.discrete_weibull(1.0, 10.0),
        ChangePointPrior.from_pmf(np.linspace(1.0, 0.1, 30)),
    ], ids=["geometric", "weibull_heavy", "weibull_exp", "explicit"])
    def test_frame_survivor_is_the_priors(self, rng, prior):
        # the frame reads P(nu >= n) from the table the block screen reads;
        # it equals the prior's value at every step, before and after growth
        _, models, mix = make_setup()
        obs = rng.standard_normal((2, 40))
        det = Detector(prior, models, mix, capacity=16)
        with pytest.raises(EngineError):
            det.log_survivor
        for t in range(40):
            frame = det.step(obs[:, t])
            assert frame.log_survivor == float(prior.log_survivor(det.n))
        assert det.tables.cap == 64


class TestSharedTables:
    """Detectors with the same prior, model and mixing objects share one
    set of read-only config tables, which grows to the largest capacity
    asked for."""

    FIELDS = ("grid", "logw", "grid_sq", "ar", "s2", "lp", "log_survivor",
              "sw", "half_v")

    def test_shared_and_read_only(self):
        prior, models, mix = make_setup()
        a = Detector(prior, models, mix, capacity=100)
        b = Detector(prior, models, mix, window=5, capacity=100)
        assert a.tables is b.tables
        for name in self.FIELDS:
            arr = getattr(a.tables, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[...] = 0.0
        # other model objects replace the prior's entry, and a larger
        # capacity grows it
        others = [ARGaussianSignal(0.25, 2.0) for _ in models]
        assert Detector(prior, others, mix, capacity=100).tables is not a.tables
        assert Detector(prior, models, mix, capacity=200).tables is not a.tables

    def test_tables_die_with_the_prior(self):
        prior, models, mix = make_setup()
        ref = weakref.ref(Detector(prior, models, mix).tables)
        assert ref() is not None
        del prior
        gc.collect()
        assert ref() is None


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


def _lse_along(a, axis):
    """The log-sum-exp over a grid axis as the engine once took it along a
    trailing axis, where numpy sums in pairwise order: the reference for
    the grid-order sum along a leading axis."""
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)


class TestGridReductions:
    """Every reduction over the mixing grid runs along a leading axis.  A
    max is exact in any order, so the screen bound and the exact sup keep
    the bits of the trailing-axis formulas; the mixture sums its terms in
    grid order, within a few ulp of numpy's pairwise sum."""

    MODELS = TestLookahead.MODELS[:2]
    T = 120
    CASES = [1, 7, 8, 9, 16, 32, 33, "pad5-9", "holes"]

    @staticmethod
    def _case(case):
        geo = ChangePointPrior.geometric(0.05, q=0.1)
        if case == "pad5-9":
            return geo, [MixingMeasure.uniform(0.25, 2.0, g, spacing="log")
                         for g in (5, 9)]
        if case == "holes":
            # no mass before k = 20, between 50 and 80, and after 100
            probs = np.ones(100)
            probs[:20] = 0.0
            probs[50:80] = 0.0
            return (ChangePointPrior("explicit_pmf", probs=probs),
                    MixingMeasure.uniform(0.25, 2.0, 8, spacing="log"))
        return geo, MixingMeasure.uniform(0.25, 2.0, case, spacing="log")

    def _obs(self):
        return np.random.default_rng(31).standard_normal((2, self.T)) + 0.3

    @pytest.mark.parametrize("case", CASES)
    def test_full_mode_matches_trailing_axis_formulas(self, case):
        prior, mixing = self._case(case)
        det = Detector(prior, self.MODELS, mixing, capacity=self.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mix_rows, bound_rows = det.lookahead(self._obs())
        tab, cumz = det.tables, det._cumz[:self.T + 1]
        # full mode scans a first block in one call: the windowed mixture b
        b = tab.lp[:self.T, None, None] - cumz[:-1]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            engine._scan(b.reshape(1, self.T, -1))
        t1 = cumz[1:] + b
        assert bound_rows.tobytes() == t1.max(axis=2).tobytes()
        want = _lse_along(t1 + tab.logw, axis=2)
        # -inf, not NaN, where the window holds no prior mass
        empty = np.isneginf(want)
        assert empty.any() == (case == "holes")
        assert np.array_equal(np.isneginf(mix_rows), empty)
        ulp = np.spacing(np.maximum(np.abs(want[~empty]), 1.0))
        assert np.all(np.abs(mix_rows[~empty] - want[~empty]) <= 4 * ulp)

    @pytest.mark.parametrize("window", [None, 1, 7, 50])
    @pytest.mark.parametrize("case", CASES)
    def test_exact_sup_and_blocks_match_single_steps(self, window, case):
        prior, mixing = self._case(case)
        obs = self._obs()
        cuts = np.sort(np.random.default_rng(32).choice(
            np.arange(1, self.T), size=8, replace=False))
        single = Detector(prior, self.MODELS, mixing, window=window, capacity=16)
        blocks = Detector(prior, self.MODELS, mixing, window=window, capacity=16)
        bounds = [0, *cuts.tolist(), self.T]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                mix_rows, bound_rows = blocks.lookahead(obs[:, lo:hi])
                for t in range(lo, hi):
                    one = single.step(obs[:, t])
                    blocks.advance()
                    assert mix_rows[t - lo].tobytes() == one.log_mix.tobytes()
                    assert (bound_rows[t - lo].tobytes()
                            == single.sup_lower_bounds.tobytes())
                    frame = blocks.frame()
                    assert frame.log_ratio.tobytes() == one.log_ratio.tobytes()
                    s, n, base = blocks._window_start, blocks.n, blocks._base
                    cz = blocks._cumz
                    rowmax = (cz[n - base] - cz[s - base:n - base]).max(axis=2)
                    want = _lse_along(blocks.tables.lp[s:n, None] + rowmax,
                                      axis=0)
                    assert frame.log_sup.tobytes() == want.tobytes()


class TestExactFrame:
    """``log_sup_values`` walks the window's rows in chunks of at most
    ``_FRAME_ENTRIES`` entries.  Its max over the grid is exact in any
    order, and its sum over the candidates runs in row order for every
    N."""

    T = 400

    @staticmethod
    def _reference(det):
        s, n, b = det._window_start, det.n, det._base
        cz = det._cumz
        a = det.tables.lp[s:n, None] + (cz[n - b] - cz[s - b:n - b]).max(axis=2)
        m = np.maximum(a.max(axis=0), -np.finfo(float).max)
        e = np.exp(a - m)
        with np.errstate(divide="ignore"):
            return np.log(np.add.accumulate(e, axis=0)[-1]) + m

    @staticmethod
    def _prior(case):
        if case == "geometric":
            return ChangePointPrior.geometric(0.05, q=0.1)
        # no mass before k = 20, between 60 and 200, and after 300: whole
        # chunks of -inf rows
        probs = np.ones(300)
        probs[:20] = 0.0
        probs[60:200] = 0.0
        return ChangePointPrior("explicit_pmf", probs=probs)

    @pytest.mark.parametrize("n_streams", [1, 2, 3, 8])
    @pytest.mark.parametrize("window", [None, 150])
    @pytest.mark.parametrize("case", ["geometric", "holes"])
    def test_chunks_match_row_order_reference(self, monkeypatch, n_streams,
                                              window, case):
        mix = MixingMeasure.uniform(0.25, 2.0, 6, spacing="log")
        # 40-row chunks: the full window spans ten, window 150 four
        monkeypatch.setattr(engine, "_FRAME_ENTRIES", 40 * n_streams * 6)
        models = [ARGaussianSignal(0.25, 2.0)] * n_streams
        obs = np.random.default_rng(n_streams).standard_normal(
            (n_streams, self.T)) + 0.3
        det = Detector(self._prior(case), models, mix, window=window,
                       capacity=self.T)
        det.lookahead(obs)
        empty = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in range(1, self.T + 1):
                det.advance()
                if n % 7 and n not in (119, 120, 121, 200, self.T):
                    continue
                sup = det.log_sup_values
                assert not np.isnan(sup).any()
                empty += np.isneginf(sup).sum()
                assert sup.tobytes() == self._reference(det).tobytes()
        assert det.n - det._window_start > 2 * 40
        assert (empty > 0) == (case == "holes")

    def test_real_chunks_match_reference_without_a_grid_sized_buffer(self):
        prior, models, mix = make_setup(grid_pts=8)
        n = 12_300
        obs = np.random.default_rng(5).standard_normal((2, n))
        det = Detector(prior, models, mix, capacity=n)
        det.lookahead(obs)
        for _ in range(n):
            det.advance()
        assert n * 2 * 8 > 3 * engine._FRAME_ENTRIES
        tracemalloc.start()
        try:
            sup = det.log_sup_values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sup.tobytes() == self._reference(det).tobytes()
        # the (N, n) buffer and one chunk's scratch, not n x N x G entries
        assert peak <= 8 * (2 * n + engine._FRAME_ENTRIES) + 4096
        assert peak < 8 * n * 2 * 8 / 2


class TestComplexViewSums:
    """The cumulative sums of ``lookahead`` and ``_scan`` run on a
    complex128 view of their float64 rows where a row holds whole column
    pairs, and as plain float sums where N x G is odd; the detector's
    tables hold each grid as given."""

    # (N, G): N x G even, G odd with N x G even, N x G odd
    SHAPES = [(2, 4), (2, 5), (1, 7), (3, 5)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_detector_tables_pad_an_odd_width(self, shape):
        """An odd N x G is not padded: the tables of every shape are
        (N, G), and the rows of cumz hold N x G entries."""
        n_streams, g = shape
        models = [ARGaussianSignal(0.25, 2.0)] * n_streams
        mix = MixingMeasure.uniform(0.25, 2.0, g, spacing="log")
        det = Detector(ChangePointPrior.geometric(0.05), models, mix)
        tab = det.tables
        assert tab.grid.shape == tab.logw.shape == (n_streams, g)
        assert det._cumz.shape[1:] == (n_streams, g)
        assert np.array_equal(tab.grid, np.tile(mix.grid, (n_streams, 1)))
        assert np.array_equal(tab.logw, np.tile(mix.log_weights, (n_streams, 1)))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_accumulate_is_float_accumulate(self, shape):
        """Bit for bit ``np.add.accumulate`` along the rows, with +-inf,
        NaN and _EMPTY entries and columns, on whole arrays, on slices of
        the leading axes and on rows in reverse, at the widths N x G."""
        n_streams, g = shape
        width = n_streams * g
        rng = np.random.default_rng(width)
        base = rng.standard_normal((3, 50, width)) * 100.0
        special = rng.random(base.shape)
        base[special < 0.03] = np.inf
        base[special > 0.97] = -np.inf
        base[(special > 0.5) & (special < 0.52)] = np.nan
        base[:, :, 0] = engine._EMPTY
        base[:, 10, -1] = np.nan
        base[1, :, width // 2] = -np.inf
        for view in (lambda a: a, lambda a: a[1:, 7:41], lambda a: a[:, ::-1],
                     lambda a: a[::2, 5:-3][:, ::-3]):
            got = base.copy()
            with np.errstate(invalid="ignore", over="ignore"):
                engine._accumulate(view(got))
                want = np.add.accumulate(view(base), axis=1)
            assert view(got).tobytes() == want.tobytes()
            # the entries outside the view are untouched
            mask = np.ones(base.shape, bool)
            view(mask)[...] = False
            assert got[mask].tobytes() == base[mask].tobytes()

    @pytest.mark.parametrize("window", [None, 7, 50])
    def test_padded_frames_match_oracle(self, rng, window):
        """N = 3 streams on a 5-point grid, whose rows hold an odd number
        of entries: every frame of one look-ahead matches the brute-force
        oracle, and single steps give the same bits."""
        prior = ChangePointPrior.geometric(0.05, q=0.1)
        models = [ARGaussianSignal(0.25, 2.0)] * 3
        mix = MixingMeasure.uniform(0.25, 2.0, 5, spacing="log")
        obs = rng.standard_normal((3, 120)) + 0.3
        block = Detector(prior, models, mix, window=window, capacity=120)
        single = Detector(prior, models, mix, window=window, capacity=16)
        assert block.tables.grid.shape == (3, 5)
        grids, weights = [mix.grid] * 3, [mix.weights] * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mix_rows, bound_rows = block.lookahead(obs)
            for n in range(1, 121):
                one = single.step(obs[:, n - 1])
                block.advance()
                frame = block.frame()
                assert mix_rows[n - 1].tobytes() == one.log_mix.tobytes()
                assert bound_rows[n - 1].tobytes() == \
                       single.sup_lower_bounds.tobytes()
                assert frame.log_ratio.tobytes() == one.log_ratio.tobytes()
                if n % 6:
                    continue
                o_mix, o_sup, _, _ = oracle_frame(obs, prior, grids, weights,
                                                  n, window=window)
                np.testing.assert_allclose(frame.log_mix, o_mix, rtol=1e-12)
                np.testing.assert_allclose(frame.log_sup, o_sup, rtol=1e-12)
