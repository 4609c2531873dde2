import math

import numpy as np
import pytest
from scipy.stats import norm

from changeid import (ARGaussianSignal, ChangePointPrior, ConstantSignal,
                      Detector, MixingMeasure, ModelError,
                      SineSignal, simulate, validate_conditions, whiten)
from changeid.engine import stream_tables
from conftest import oracle_llr_increments


def engine_increments(model, x, theta):
    """The detector's increments of one stream at theta, from rest."""
    order = len(model.ar_coeffs)
    tab = stream_tables([model], [MixingMeasure([theta], [1.0])], x.size)
    hist = np.concatenate((np.zeros(order), x))[None]
    return tab.increments(0, hist)[:, 0, 0]


class TestWhiten:
    def test_order_two_hand_computed(self):
        # x~_1 = 1, x~_2 = 2 - 0.4*1, x~_3 = 3 - 0.4*2 - 0.2*1, ...
        out = whiten([1.0, 2.0, 3.0, 4.0], [0.4, 0.2])
        np.testing.assert_allclose(out, [1.0, 1.6, 2.0, 2.4], atol=1e-12)

    def test_no_coefficients_identity(self):
        x = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(whiten(x, []), x)

    def test_inverts_ar_recursion(self, rng):
        coeffs = [0.5, -0.3]
        w = rng.standard_normal(200)
        x = np.empty(200)
        for t in range(200):
            x[t] = w[t] + sum(c * x[t - lag - 1]
                              for lag, c in enumerate(coeffs) if t - lag - 1 >= 0)
        np.testing.assert_allclose(whiten(x, coeffs), w, atol=1e-10)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_matches_lfilter_exactly(self, rng, order):
        # up to order 2 the lag products sum in scipy's order too
        from scipy.signal import lfilter
        coeffs = rng.uniform(-0.6, 0.6, (3, order))
        x = rng.standard_normal((3, 500)) * 10.0
        want = np.array([lfilter(np.concatenate(([1.0], -c)), [1.0], row)
                         for c, row in zip(coeffs, x)])
        for s in range(3):
            assert np.array_equal(whiten(x[s], coeffs[s]), want[s])
        assert np.array_equal(whiten(x, coeffs), want)

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_block_after_history_matches_whole_series(self, rng, order):
        # the engine whitens each block behind the last p observations
        coeffs = rng.uniform(-0.3, 0.3, (2, order))
        x = rng.standard_normal((2, 200))
        whole = whiten(x, coeffs)
        for cut in (order, 17, 150):
            block = whiten(x[:, cut - order:], coeffs)[:, order:]
            assert np.array_equal(block, whole[:, cut:])


class TestMeanShiftDefaults:
    # the default ARGaussianSignal (AR order 0, unit signal) is the i.i.d.
    # N(0, sigma^2) -> N(theta, sigma^2) mean shift
    def test_increment_matches_density_ratio(self, rng):
        model = ARGaussianSignal(0.1, 3.0, sigma=1.5)
        x = rng.standard_normal(20) * 1.5
        for theta in (0.5, 2.0):
            got = engine_increments(model, x, theta)
            want = norm.logpdf(x, theta, 1.5) - norm.logpdf(x, 0.0, 1.5)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_info_number(self):
        model = ARGaussianSignal(0.25, 2.0)
        assert model.info_number(1.0) == pytest.approx(0.5)
        assert model.info_number(0.5) == pytest.approx(0.125)
        model2 = ARGaussianSignal(0.25, 2.0, sigma=2.0)
        assert model2.info_number(1.0) == pytest.approx(0.125)

    def test_theta_out_of_range(self):
        model = ARGaussianSignal(0.25, 2.0)
        with pytest.raises(ModelError):
            validate_conditions([model], [3.0], master_seed=0, n_paths=1,
                                n_values=(3,))
        with pytest.raises(ModelError):
            model.info_number(0.1)


class TestARGaussianSignal:
    def _model(self, **kw):
        defaults = dict(theta_min=0.25, theta_max=2.0, sigma=1.0,
                        ar_coeffs=(0.5,), signal=ConstantSignal())
        defaults.update(kw)
        return ARGaussianSignal(**defaults)

    @pytest.mark.parametrize("kw", [
        dict(sigma=math.nan), dict(sigma=math.inf), dict(ar_coeffs=(math.nan,)),
        dict(ar_coeffs=(0.5, math.inf)), dict(theta_max=math.inf)],
        ids=["sigma_nan", "sigma_inf", "ar_nan", "ar_inf", "theta_max_inf"])
    def test_non_finite_parameter_rejected(self, kw):
        with pytest.raises(ModelError):
            self._model(**kw)

    @pytest.mark.parametrize("make", [
        lambda: ConstantSignal(math.nan), lambda: SineSignal(math.inf),
        lambda: SineSignal(0.3, phase=math.nan)],
        ids=["constant_amplitude_nan", "sine_omega_inf", "sine_phase_nan"])
    def test_non_finite_signal_rejected(self, make):
        with pytest.raises(ModelError, match="must be finite"):
            make()

    def test_whitened_energy_constant_signal(self):
        # Q = (a (1 - sum rho))^2 for a constant signal
        assert self._model().whitened_energy() == pytest.approx(0.25)
        m2 = self._model(ar_coeffs=(0.3, 0.2),
                         signal=ConstantSignal(amplitude=2.0))
        assert m2.whitened_energy() == pytest.approx(1.0)

    def test_info_number_ar1(self):
        assert self._model().info_number(2.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("kw, field", [
        (dict(ar_coeffs=(-1e160,)), "ar_coeffs"),
        (dict(sigma=1e-100, signal=ConstantSignal(1e100)), "sigma")],
        ids=["energy", "information"])
    def test_constant_signal_information_must_be_finite(self, kw, field):
        with pytest.raises(ModelError, match=f"^{field} .* overflows"):
            self._model(**kw)

    @pytest.mark.parametrize("kw", [
        dict(signal=ConstantSignal(0.0)), dict(ar_coeffs=(0.75, 0.25))],
        ids=["zero_amplitude", "unit_ar_sum"])
    def test_zero_energy_allowed(self, kw):
        assert self._model(**kw).info_number(2.0) == 0.0

    def test_increment_matches_innovation_density_ratio(self, rng):
        model = self._model(ar_coeffs=(0.4, 0.1), sigma=1.3)
        x = rng.standard_normal(30)
        theta = 1.0
        xt = whiten(x, [0.4, 0.1])
        st = whiten(np.ones(30), [0.4, 0.1])
        want = norm.logpdf(xt, theta * st, 1.3) - norm.logpdf(xt, 0.0, 1.3)
        got = engine_increments(model, x, theta)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_sine_signal_energy_numeric(self):
        m = self._model(ar_coeffs=(), signal=SineSignal(omega=0.7))
        # mean of sin^2 is 1/2
        assert m.whitened_energy() == pytest.approx(0.5, abs=1e-3)

    def test_noise_autocorrelation(self, rng):
        m = self._model(stationary_init=True)
        x = m.sample_noise(200_000, rng)
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert r1 == pytest.approx(0.5, abs=0.02)

    def test_llr_increment_scalar_matches_batch(self, rng):
        # the detector computes increments one step at a time; with a
        # one-point grid and window 1, log_mix(n) = log pi_{n-1} + inc_n.
        # An AR(2) stream next to an order-0 one checks the zero padding.
        models = [self._model(ar_coeffs=(0.4, 0.1), sigma=1.3,
                              signal=SineSignal(omega=0.7)),
                  ARGaussianSignal(0.25, 2.0, sigma=0.8)]
        x = rng.standard_normal((2, 10))
        batch = np.stack([oracle_llr_increments(m, x[s], [1.0])[:, 0]
                          for s, m in enumerate(models)], axis=1)
        prior = ChangePointPrior.geometric(0.1)
        one_point = MixingMeasure(grid=np.array([1.0]), weights=np.array([1.0]))
        det = Detector(prior, models, one_point, window=1)
        lp = prior.log_pmf_head_merged(10)
        for t in range(10):
            det.step(x[:, t])
            np.testing.assert_allclose(det.log_mix_values - lp[t], batch[t],
                                       rtol=0, atol=1e-9)


class TestSimulate:
    def _models(self):
        return [ARGaussianSignal(0.25, 2.0), ARGaussianSignal(0.25, 2.0)]

    def test_shapes_and_labels(self, rng):
        path = simulate(self._models(), 100, rng, stream=2, theta=1.0, nu=10)
        assert path.observations.shape == (2, 100)
        assert path.true_stream == 2 and path.true_nu == 10

    def test_change_injection_mean(self):
        rng = np.random.default_rng(3)
        path = simulate(self._models(), 20000, rng, stream=1, theta=2.0, nu=0)
        assert np.mean(path.observations[0]) == pytest.approx(2.0, abs=0.05)
        assert abs(np.mean(path.observations[1])) < 0.05

    def test_head_change_equals_time_zero_change(self):
        p1 = simulate(self._models(), 50, np.random.default_rng(9),
                      stream=1, theta=1.0, nu=-1)
        p2 = simulate(self._models(), 50, np.random.default_rng(9),
                      stream=1, theta=1.0, nu=0)
        np.testing.assert_array_equal(p1.observations, p2.observations)

    def test_no_change_mode(self, rng):
        path = simulate(self._models(), 50, rng, stream=0)
        assert path.true_stream == 0 and path.true_nu == -1

    def test_change_after_horizon_leaves_path_clean(self, rng):
        path = simulate(self._models(), 50, rng, stream=1, theta=2.0, nu=200)
        assert abs(np.mean(path.observations[0])) < 1.0

    def test_nu_requires_prior_or_value(self, rng):
        with pytest.raises(ModelError):
            simulate(self._models(), 50, rng, stream=1, theta=1.0)
