import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from changeid import ARGaussianSignal, ChangePointPrior, PriorError, simulate


def pmf(prior, k):
    """pi_k = P(nu = k) for k >= 0."""
    return float(np.exp(prior.log_pmf(k)))


class TestGeometric:
    def test_survivor_closed_form(self):
        prior = ChangePointPrior.geometric(0.05)
        # 0.95 ** 10 computed independently
        assert prior.survivor(10) == pytest.approx(0.5987369392383787, rel=1e-12)
        assert prior.survivor(0) == pytest.approx(1.0)

    def test_pmf_sums_to_one(self):
        prior = ChangePointPrior.geometric(0.2, q=0.3)
        total = prior.q + sum(pmf(prior, k) for k in range(200))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_tail_exponent(self):
        mu = ChangePointPrior.geometric(0.1).tail_exponent()
        assert mu == pytest.approx(-math.log(0.9), rel=1e-12)

    def test_invalid_rho(self):
        with pytest.raises(PriorError):
            ChangePointPrior.geometric(0.0)
        with pytest.raises(PriorError):
            ChangePointPrior.geometric(1.5)

    def test_sample_matches_pmf(self, rng):
        prior = ChangePointPrior.geometric(0.3, q=0.2)
        draws = np.array([prior.sample(rng) for _ in range(20000)])
        assert np.mean(draws == -1) == pytest.approx(0.2, abs=0.02)
        assert np.mean(draws == 0) == pytest.approx(pmf(prior, 0), abs=0.02)
        assert np.mean(draws == 2) == pytest.approx(pmf(prior, 2), abs=0.02)


class TestDiscreteWeibull:
    def test_survivor_closed_form(self):
        prior = ChangePointPrior.discrete_weibull(kappa=0.5, scale=10.0)
        assert prior.survivor(40) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_heavy_tail_exponent_zero(self):
        te = ChangePointPrior.discrete_weibull(0.5, 10.0).tail_exponent()
        assert te == 0.0
        te1 = ChangePointPrior.discrete_weibull(1.0, 10.0).tail_exponent()
        assert te1 == pytest.approx(0.1)

    def test_pmf_consistent_with_survivor(self):
        prior = ChangePointPrior.discrete_weibull(0.7, 5.0, q=0.1)
        for k in range(30):
            assert pmf(prior, k) == pytest.approx(
                prior.survivor(k) - prior.survivor(k + 1), abs=1e-14)

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(PriorError):
            ChangePointPrior.discrete_weibull(0.5, scale)

    def test_log_pmf_no_cancellation_in_far_tail(self):
        prior = ChangePointPrior.discrete_weibull(1.0, 2.0)
        lp = float(prior.log_pmf(np.array([500]))[0])
        # direct survivor difference underflows; the log form must not
        assert np.isfinite(lp)
        assert lp == pytest.approx(math.log(1 - math.exp(-0.5)) - 250.0, rel=1e-9)


    @pytest.mark.filterwarnings("error")
    def test_scale_past_float_range_reaches_the_limit(self):
        # n / scale overflows for n >= 2: S(n) and pi_n are 0, not NaN,
        # and no warning is raised
        prior = ChangePointPrior.discrete_weibull(0.5, 1e-308)
        k = np.arange(6)
        assert prior.log_survivor(k)[2:].tolist() == [-math.inf] * 4
        lp = prior.log_pmf(k)
        assert lp[0] == 0.0 and lp[1] == -1e154
        assert lp[2:].tolist() == [-math.inf] * 4
        assert prior.log_pmf_head_merged(6).tolist() == lp.tolist()


class TestExplicitPmf:
    def test_renormalization_and_head(self):
        prior = ChangePointPrior.from_pmf([2.0, 1.0, 1.0], q=0.2)
        assert prior.q == pytest.approx(0.2)
        assert pmf(prior, 0) == pytest.approx(0.4)
        assert pmf(prior, 5) == 0.0

    def test_survivor_pmf_exact_consistency(self):
        probs = np.abs(np.sin(np.arange(1, 50))) + 0.01
        prior = ChangePointPrior.from_pmf(probs)
        for n in range(probs.size):
            assert prior.survivor(n) - prior.survivor(n + 1) == pytest.approx(
                pmf(prior, n), abs=1e-15)

    def test_tail_exponent_recovers_geometric_rate(self):
        rho = 0.1
        probs = rho * (1 - rho) ** np.arange(2000)
        te = ChangePointPrior.from_pmf(probs).tail_exponent()
        assert te == pytest.approx(-math.log1p(-rho), rel=1e-3)

    def test_negative_entries_rejected(self):
        with pytest.raises(PriorError):
            ChangePointPrior.from_pmf([0.5, -0.1, 0.6])


class TestHeadMergedLogPmf:
    def test_head_mass_folded_into_zero(self):
        prior = ChangePointPrior.geometric(0.1, q=0.25)
        lp = prior.log_pmf_head_merged(5)
        assert lp[0] == pytest.approx(math.log(0.25 + pmf(prior, 0)))
        assert lp[2] == pytest.approx(math.log(pmf(prior, 2)))

    def test_fold_keeps_a_small_pi_0_accurate(self):
        # pi_0 = 1 - exp(-1/1000): the log form carries no cancellation
        prior = ChangePointPrior.discrete_weibull(1.0, 1000.0)
        lp = prior.log_pmf_head_merged(3)
        assert lp[0] == pytest.approx(math.log(-math.expm1(-1e-3)), abs=1e-15)
        with_head = ChangePointPrior.discrete_weibull(1.0, 1000.0, q=0.2)
        assert with_head.log_pmf_head_merged(3)[0] == pytest.approx(
            math.log(0.2 + 0.8 * -math.expm1(-1e-3)), abs=1e-15)

    def test_total_mass_plus_survivor_is_one(self):
        prior = ChangePointPrior.geometric(0.07, q=0.1)
        h = 50
        lp = prior.log_pmf_head_merged(h)
        assert math.fsum(np.exp(lp)) + prior.survivor(h) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("prior, draws", [
    (ChangePointPrior.geometric(0.05, q=0.3),
     [30, 4, 38, -1, 34, 9, -1, -1, 4, 21, -1, -1]),
    (ChangePointPrior.discrete_weibull(0.7, 30.0, q=0.3),
     [55, 3, 77, -1, 68, 10, -1, -1, 3, 35, -1, -1]),
    (ChangePointPrior.from_pmf(np.arange(1.0, 21.0), q=0.2),
     [9, 17, 7, -1, 7, 15, -1, -1, 17, 11, 13, 18]),
], ids=["geometric", "discrete_weibull", "explicit_pmf"])
def test_sample_draws_are_pinned(prior, draws):
    # each draw takes two uniforms, the head included, so a seed gives the
    # same change points whatever the prior's head mass did to earlier ones
    rng = np.random.default_rng(2024)
    assert [prior.sample(rng) for _ in range(12)] == draws


@pytest.mark.parametrize("prior", [
    ChangePointPrior.geometric(1e-20), ChangePointPrior.geometric(1e-308),
    ChangePointPrior.geometric(5e-324),
    ChangePointPrior.discrete_weibull(0.5, 1e300)],
    ids=["rho=1e-20", "rho=1e-308", "rho=5e-324", "weibull_scale=1e300"])
def test_draws_past_int64_are_its_largest_value(prior):
    """A draw of 2^63 or more, which a cast to int64 turned into -2^63
    with a warning, is int64's largest value: a change past any horizon,
    so a simulated path gains no signal."""
    nu_max = int(np.iinfo(np.int64).max)
    models = [ARGaussianSignal(0.25, 2.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = [prior.sample(np.random.default_rng(s)) for s in range(1, 9)]
        paths = [simulate(models, 50, np.random.default_rng(s), stream=1,
                          theta=2.0, prior=prior) for s in range(1, 9)]
    assert nu_max in draws
    assert all(50 <= nu <= nu_max for nu in draws)
    for s, path in enumerate(paths, start=1):
        # the noise is drawn before nu, so the path is the null path's
        null = simulate(models, 50, np.random.default_rng(s))
        assert 50 <= path.true_nu <= nu_max
        assert np.array_equal(path.observations, null.observations)


@pytest.mark.parametrize("make, message", [
    (lambda: ChangePointPrior(ChangePointPrior.EXPLICIT),
     "explicit_pmf prior needs a probability table"),
    (lambda: ChangePointPrior("bogus"), "unknown prior kind 'bogus'"),
    (lambda: ChangePointPrior.geometric(0.1).survivor(-1),
     "survivor defined on n >= 0"),
    (lambda: ChangePointPrior.geometric(0.1).log_pmf(-1),
     "log_pmf vectorized form defined on k >= 0"),
    (lambda: ChangePointPrior.geometric(0.1).log_pmf_head_merged(0),
     "horizon must be >= 1"),
], ids=["explicit_without_table", "unknown_kind", "survivor_below_0",
        "log_pmf_below_0", "head_merged_horizon_0"])
def test_out_of_domain_rejected(make, message):
    with pytest.raises(PriorError, match=message):
        make()


@settings(max_examples=50, deadline=None)
@given(rho=st.floats(0.01, 0.95), q=st.floats(0.0, 0.9),
       n=st.integers(0, 200))
def test_survivor_monotone_and_bounded(rho, q, n):
    prior = ChangePointPrior.geometric(rho, q=q)
    s0, s1 = prior.survivor(n), prior.survivor(n + 1)
    assert 0.0 <= s1 <= s0 <= 1.0 - q + 1e-12


@settings(max_examples=30, deadline=None)
@given(kappa=st.floats(0.2, 1.0), scale=st.floats(0.5, 50.0),
       k=st.integers(0, 100))
def test_weibull_pmf_nonnegative(kappa, scale, k):
    prior = ChangePointPrior.discrete_weibull(kappa, scale)
    assert pmf(prior, k) >= 0.0
