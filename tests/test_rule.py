import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from changeid import (ARGaussianSignal, CalibrationError, ChangePointPrior,
                      ConstantSignal, Detector, EngineError, MixingMeasure,
                      SineSignal,
                      StatisticFrame,
                      ThresholdMatrix, calibrate, calibrate_star, check_stop,
                      run, simulate)
from changeid import engine, rule
from changeid.engine import log_ratio_matrix
from changeid.rule import _met
from conftest import oracle_verdict


def frame_with_ratio(ratio):
    ratio = np.asarray(ratio, dtype=float)
    n = ratio.shape[0]
    return StatisticFrame(n=7, log_mix=np.zeros(n), log_sup=np.zeros(n),
                          log_survivor=0.0, log_ratio=ratio)


class TestCalibrate:
    def test_symmetric_example(self):
        th = calibrate(0.1, 0.1, n_streams=2)
        a = th.linear()
        assert a[0, 0] == pytest.approx(9.0)          # (1-0.1)/0.1
        assert a[0, 2] == pytest.approx(1 / 0.09)     # 1/((1-0.1)*0.1)
        assert a[1, 1] == pytest.approx(1 / 0.09)

    def test_asymmetric_competitor(self):
        # threshold guarding against competitor j uses alpha_j and beta_ji
        th = calibrate([0.1, 0.5], [[np.nan, 0.2], [0.1, np.nan]], n_streams=2)
        a = th.linear()
        assert a[0, 0] == pytest.approx(9.0)
        assert a[1, 0] == pytest.approx(1.0)
        # A_12 = 1/((1 - alpha_2) beta_21) = 1/(0.5 * 0.1) = 20
        assert a[0, 2] == pytest.approx(20.0)
        # A_21 = 1/((1 - alpha_1) beta_12) = 1/(0.9 * 0.2)
        assert a[1, 1] == pytest.approx(1 / 0.18)

    def test_star_variant(self):
        th = calibrate_star(0.1, 0.05, n_streams=2)
        a = th.linear()
        # A_0 = (N/alpha)(1 - alpha/N) = 20 * 0.95 = 19
        assert a[0, 0] == pytest.approx(19.0)
        # A_j = (N-1)/((1 - alpha/N) beta_bar) = 1/(0.95*0.05)
        assert a[0, 2] == pytest.approx(1 / 0.0475)

    def test_invalid_targets(self):
        with pytest.raises(CalibrationError):
            calibrate(0.0, 0.1, n_streams=2)
        with pytest.raises(CalibrationError):
            calibrate(0.1, 1.0, n_streams=2)
        with pytest.raises(CalibrationError):
            calibrate_star(1.5, 0.1, n_streams=2)
        with pytest.raises(CalibrationError, match="need at least one stream"):
            calibrate_star(0.1, 0.1, n_streams=0)
        # a NaN target or head mass lies outside its range
        for args, kw in [((math.nan, 0.05), {}), ((0.05, math.nan), {}),
                         ((0.05, 0.05), dict(head_mass=math.nan)),
                         ((0.05, 0.05), dict(head_mass=-0.1)),
                         ((0.05, 0.05), dict(head_mass=1.0))]:
            with pytest.raises(CalibrationError, match="must lie in"):
                calibrate(*args, n_streams=2, **kw)
            with pytest.raises(CalibrationError, match="must lie in"):
                calibrate_star(*args, n_streams=2, **kw)

    def test_head_mass_constraint(self):
        calibrate(0.05, 0.05, n_streams=2, head_mass=0.5)
        with pytest.raises(CalibrationError):
            calibrate(0.6, 0.05, n_streams=2, head_mass=0.5)

    def test_matrix_shape_validation(self):
        with pytest.raises(CalibrationError):
            ThresholdMatrix(log_a=np.zeros((2, 2)))
        with pytest.raises(CalibrationError):
            ThresholdMatrix(log_a=np.full((2, 3), np.nan))


class TestCheckStop:
    def _th(self):
        return ThresholdMatrix(log_a=np.array([[1.0, np.nan, 1.0],
                                               [1.0, 1.0, np.nan]]))

    def test_no_stream_met(self):
        frame = frame_with_ratio([[0.5, np.nan, 2.0], [0.5, 2.0, np.nan]])
        assert check_stop(frame, self._th()) is None

    def test_single_winner(self):
        frame = frame_with_ratio([[2.0, np.nan, 2.0], [0.0, 2.0, np.nan]])
        v = check_stop(frame, self._th())
        assert v.stopped and v.stream == 1 and v.time == 7

    def test_tie_breaks_to_smallest_index(self):
        frame = frame_with_ratio([[2.0, np.nan, 2.0], [2.0, 2.0, np.nan]])
        v = check_stop(frame, self._th())
        assert v.stream == 1 and v.met_streams == (1, 2)

    def test_partial_crossing_does_not_stop(self):
        # beats the no-change competitor but not the other stream
        frame = frame_with_ratio([[5.0, np.nan, 0.5], [0.0, 0.0, np.nan]])
        assert check_stop(frame, self._th()) is None

    def test_nan_ratio_never_triggers(self):
        frame = frame_with_ratio([[np.nan, np.nan, 2.0], [0.0, 0.0, np.nan]])
        assert check_stop(frame, self._th()) is None


class TestRun:
    def _setup(self):
        prior = ChangePointPrior.geometric(0.1)
        models = [ARGaussianSignal(0.25, 2.0), ARGaussianSignal(0.25, 2.0)]
        mix = MixingMeasure.uniform(0.25, 2.0, 5)
        return prior, models, mix

    def test_unreachable_thresholds_censor(self, rng):
        prior, models, mix = self._setup()
        th = ThresholdMatrix(log_a=np.array([[1e9, np.nan, 1e9],
                                             [1e9, 1e9, np.nan]]))
        path = simulate(models, 50, rng, stream=1, theta=2.0, nu=0)
        v = run(models, prior, mix, th, path)
        assert not v.stopped and v.time is None and v.stream is None
        assert v.horizon == 50

    def test_path_with_another_stream_count_rejected(self):
        prior, models, mix = self._setup()
        th = calibrate(0.05, 0.05, n_streams=2)
        with pytest.raises(ValueError, match="path has 3 streams, expected 2"):
            run(models, prior, mix, th, np.zeros((3, 10)))

    def test_strong_signal_identified(self):
        prior, models, mix = self._setup()
        th = calibrate(0.05, 0.05, n_streams=2)
        rng = np.random.default_rng(11)
        path = simulate(models, 200, rng, stream=2, theta=2.0, nu=5)
        v = run(models, prior, mix, th, path)
        assert v.stopped and v.stream == 2
        assert v.time > 5

    def test_matches_screening_free_oracle(self):
        prior, models, mix = self._setup()
        th = calibrate(0.2, 0.2, n_streams=2)
        grids = [mix.grid] * 2
        weights = [mix.weights] * 2
        for seed in range(12):
            rng = np.random.default_rng(seed)
            stream = seed % 3
            path = simulate(models, 40, rng, stream=stream,
                            theta=1.5 if stream else 0.0,
                            nu=3 if stream else None)
            v = run(models, prior, mix, th, path)
            t, d = oracle_verdict(path.observations, prior, grids, weights,
                                  th.log_a)
            assert (v.time, v.stream) == (t, d)

    def test_threshold_monotonicity(self):
        prior, models, mix = self._setup()
        loose = calibrate(0.4, 0.4, n_streams=2)
        tight = calibrate(0.001, 0.001, n_streams=2)
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            path = simulate(models, 400, rng, stream=1, theta=1.5, nu=10)
            v_loose = run(models, prior, mix, loose, path)
            v_tight = run(models, prior, mix, tight, path)
            if v_tight.stopped:
                assert v_loose.stopped
                assert v_loose.time <= v_tight.time

    def test_window_argument_passthrough(self):
        prior, models, mix = self._setup()
        th = calibrate(0.1, 0.1, n_streams=2)
        rng = np.random.default_rng(21)
        path = simulate(models, 150, rng, stream=1, theta=1.5, nu=10)
        v_full = run(models, prior, mix, th, path)
        v_win = run(models, prior, mix, th, path, window=150)
        assert (v_full.time, v_full.stream) == (v_win.time, v_win.stream)


class TestScreen:
    """The screen in ``run`` never changes a verdict: it agrees with an
    exact frame and ``check_stop`` at every step."""

    MODELS = [ARGaussianSignal(0.25, 2.0),
              ARGaussianSignal(0.25, 2.0, ar_coeffs=(0.5,),
                               signal=SineSignal(omega=0.3, amplitude=3.0)),
              ARGaussianSignal(0.25, 2.0, sigma=1.3)]

    @pytest.mark.parametrize("window", [None, 5], ids=["full", "window5"])
    @pytest.mark.parametrize("n_streams", [1, 3])
    def test_matches_screen_free_loop(self, n_streams, window):
        models = self.MODELS[:n_streams]
        prior = ChangePointPrior.geometric(0.05)
        mix = MixingMeasure.uniform(0.25, 2.0, 6, spacing="log")
        th = calibrate(0.1, 0.1, n_streams=n_streams)
        stops = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            stream = seed % (n_streams + 1)
            path = simulate(models, 80, rng, stream=stream,
                            theta=1.0 if stream else 0.0,
                            nu=10 if stream else None)
            det = Detector(prior, models, mix, window=window)
            assert np.all(det.log_mix_values == -np.inf)
            want = None
            for t in range(path.observations.shape[1]):
                want = check_stop(det.step(path.observations[:, t]), th)
                if want is not None:
                    break
            got = run(models, prior, mix, th, path, window=window)
            if want is None:
                assert not got.stopped
            else:
                stops += 1
                assert (got.time, got.stream, got.met_streams) == \
                       (want.time, want.stream, want.met_streams)
        assert stops > 0


    def test_screen_admits_a_ratio_its_bound_rounds_below(self):
        """``sup_lower_bounds`` can round above ``log_sup_values``.  A
        threshold set to the exact ratio at n = 3 then fails the unslacked
        screen there, and ``run`` stopped 4 steps late; the screen's slack
        keeps the step."""
        prior = ChangePointPrior.geometric(0.05, q=0.0)
        mix = MixingMeasure.uniform(0.25, 2.0, 8, spacing="log")
        models = [ARGaussianSignal(0.25, 2.0),
                  ARGaussianSignal(0.25, 2.0, ar_coeffs=(0.5,))]
        path = simulate(models, 400, np.random.default_rng(0), stream=1,
                        theta=0.5, nu=100)
        det = Detector(prior, models, mix)
        for t in range(3):
            frame = det.step(path.observations[:, t])
        excess = det.sup_lower_bounds[1] - det.log_sup_values[1]
        assert excess > 0
        th = ThresholdMatrix(np.array([[-1e6, np.nan, frame.log_ratio[0, 2]],
                                       [1e6, 1e6, np.nan]]))
        assert check_stop(frame, th).time == 3
        got = run(models, prior, mix, th, path)
        assert (got.time, got.stream) == (3, 1)
        assert excess < det.screen_slack


class TestNonFinite:
    """A non-finite observation stops ``run`` only if no earlier step
    stops it: the rule returns the earlier verdict, and otherwise raises at
    the bad step with the text that the per-step path gives."""

    MODELS = [ARGaussianSignal(0.25, 2.0),
              ARGaussianSignal(0.25, 2.0, ar_coeffs=(0.5,),
                               signal=SineSignal(omega=0.3, amplitude=3.0))]
    HORIZON = 1200

    @pytest.mark.parametrize("window", [None, 50], ids=["full", "window50"])
    @pytest.mark.parametrize("change", [False, True], ids=["never", "change"])
    @pytest.mark.parametrize("nan_step", [1, 64, 65, 66, 193, 1000])
    def test_stop_before_else_raise_at_step(self, nan_step, change, window):
        prior = ChangePointPrior.geometric(0.05)
        mix = MixingMeasure.uniform(0.25, 2.0, 6, spacing="log")
        rng = np.random.default_rng(7)
        if change:
            # stops at step 23, before every NaN but the first
            th = calibrate(0.1, 0.1, n_streams=2)
            path = simulate(self.MODELS, self.HORIZON, rng, stream=2,
                            theta=1.5, nu=20)
        else:
            th = ThresholdMatrix(log_a=np.array([[1e9, np.nan, 1e9],
                                                 [1e9, 1e9, np.nan]]))
            path = simulate(self.MODELS, self.HORIZON, rng)
        obs = path.observations.copy()
        obs[nan_step % 2, nan_step - 1] = np.nan
        det = Detector(prior, self.MODELS, mix, window=window)
        want = None
        try:
            for t in range(self.HORIZON):
                want = check_stop(det.step(obs[:, t]), th)
                if want is not None:
                    break
        except EngineError as err:
            want = str(err)
        stops = change and nan_step > 1
        if stops:
            got = run(self.MODELS, prior, mix, th, obs, window=window)
            assert (got.time, got.stream, got.met_streams) == \
                   (want.time, want.stream, want.met_streams)
            assert got.time < nan_step
        else:
            with pytest.raises(EngineError) as err:
                run(self.MODELS, prior, mix, th, obs, window=window)
            assert str(err.value) == want == (
                f"non-finite observation at step {nan_step}: "
                f"{obs[:, nan_step - 1]}")


class TestBlockScreen:
    """``run`` screens a block of steps with the functions that test one
    step; a block's rows are the per-step answers."""

    @staticmethod
    def _rows(rng, shape, holes):
        x = rng.normal(0.0, 3.0, shape)
        x[rng.random(shape) < holes] = -np.inf
        x[rng.random(shape) < holes / 2] = np.nan
        return x

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_streams", [1, 2, 3, 4])
    def test_rows_match_per_step(self, n_streams):
        rng = np.random.default_rng(40 + n_streams)
        log_a = calibrate(0.2, 0.2, n_streams=n_streams).log_a
        for holes in (0.0, 0.2, 0.6):
            m = 50
            mix = self._rows(rng, (n_streams, m), holes)
            bound = self._rows(rng, (n_streams, m), holes)
            lsv = self._rows(rng, m, holes)
            ratio = log_ratio_matrix(mix, lsv, bound)
            met = _met(ratio, log_a)
            assert ratio.shape == (n_streams, n_streams + 1, m)
            assert met.shape == (n_streams, m)
            for s in range(m):
                one = log_ratio_matrix(mix[:, s], lsv[s], bound[:, s])
                np.testing.assert_array_equal(ratio[..., s], one)
                np.testing.assert_array_equal(met[:, s], _met(one, log_a))

    @pytest.mark.filterwarnings("error")
    def test_prior_without_mass_in_window_warns_nothing(self):
        # past the support of a 10-point prior, a 5-step window holds no
        # prior mass: mixture, bound and survivor are all -inf, in the
        # rule's block screen and in the frames of ``step``
        prior = ChangePointPrior.from_pmf(np.full(10, 0.1))
        models = [ARGaussianSignal(0.25, 2.0), ARGaussianSignal(0.25, 2.0)]
        mix = MixingMeasure.uniform(0.25, 2.0, 4, spacing="log")
        th = calibrate(0.1, 0.1, n_streams=2)
        for seed in range(6):
            path = simulate(models, 200, np.random.default_rng(seed))
            run(models, prior, mix, th, path, window=5)
            det = Detector(prior, models, mix, window=5)
            for x in path.observations.T:
                check_stop(det.step(x), th)


# the steps between the sampled frames of ``_largest_blocks_match_single_steps``
_SAMPLE = 499


def test_largest_blocks_match_single_steps(monkeypatch):
    _largest_blocks_match_single_steps(monkeypatch, 1)


def test_largest_blocks_match_single_steps_two_streams(monkeypatch):
    _largest_blocks_match_single_steps(monkeypatch, 2)


def _largest_blocks_match_single_steps(monkeypatch, n_streams):
    """At G = 4 the blocks of ``run`` grow to _BLOCK_ENTRIES // (4 N)
    steps.  On a path three times that long, with outliers that make the
    scan re-base inside the first block of that size, every looked-ahead
    row and every row of cumz is the one a single-step loop gives.  So is
    the frame at every _SAMPLE-th step and at every step the block screen
    passes, up to the first that stops, and that step's verdict is the
    screen-free loop's: the screen passes it, and no sampled step before
    it meets the exact criterion."""
    models = [ARGaussianSignal(0.25, 4.0)] * n_streams
    mix = MixingMeasure.uniform(0.25, 4.0, 4)
    prior = ChangePointPrior.geometric(1e-3)
    th = calibrate(1e-4, 1e-4, n_streams=n_streams)
    cap = rule._BLOCK_ENTRIES // (4 * n_streams)
    horizon = 3 * cap
    obs = np.random.default_rng(61).standard_normal((n_streams, horizon))
    # theta * x lowers cumz by about 1 200 at each outlier
    obs[0, np.arange(cap + 300, 2 * cap, 700)] = -300.0
    # a change a few hundred steps before the horizon
    obs[0, horizon - 400:] += 1.0

    blocks = []

    class Recorded(Detector):
        def lookahead(self, block):
            rows = super().lookahead(block)
            blocks.append(rows)
            return rows

    monkeypatch.setattr(rule, "Detector", Recorded)
    got = run(models, prior, mix, th, obs)
    sizes = [len(m) for m, _ in blocks]
    assert max(sizes) == cap and sizes.count(cap) >= 2

    single = Detector(prior, models, mix, capacity=16)
    replay = Detector(prior, models, mix, capacity=16)
    want = None
    frames = 0
    for mix_rows, bound_rows in blocks:
        replay.lookahead(obs[:, replay.n:replay.n + len(mix_rows)])
        # the rule's screen thresholds, lowered by the block's slack
        screen_a = th.log_a.copy()
        screen_a[:, 1:] -= replay.screen_slack
        for r in range(len(mix_rows)):
            single.lookahead(obs[:, single.n:single.n + 1])
            single.advance()
            replay.advance()
            assert mix_rows[r].tobytes() == single.log_mix_values.tobytes()
            assert bound_rows[r].tobytes() == single.sup_lower_bounds.tobytes()
            if want is not None:
                continue
            passed = _met(log_ratio_matrix(mix_rows[r], single.log_survivor,
                                           bound_rows[r]), screen_a).any()
            if not passed and single.n % _SAMPLE:
                continue
            one = single.frame()
            f = replay.frame()
            frames += 1
            for name in ("log_mix", "log_sup", "log_ratio"):
                assert getattr(f, name).tobytes() == getattr(one, name).tobytes()
            assert f.log_survivor == one.log_survivor
            want = check_stop(one, th)
            assert passed or want is None
    n = single.n
    assert replay.n == n == sum(sizes) and frames > horizon // _SAMPLE // 2
    assert replay._cumz[:n + 1].tobytes() == single._cumz[:n + 1].tobytes()
    assert got.stopped and got.time > horizon - 400
    assert (got.time, got.stream, got.met_streams) == \
           (want.time, want.stream, want.met_streams)
    # each outlier's candidate lies far more than the headroom above the
    # running value before it, and so above the carried offset: a re-base
    lo = sum(sizes[:sizes.index(cap)])
    a = replay.tables.lp[:lo + cap, None, None] - replay._cumz[:lo + cap]
    running = np.logaddexp.accumulate(a, axis=0)
    jumps = np.flatnonzero((a[1:] - running[:-1] > engine._HEADROOM)
                           .any(axis=(1, 2)))
    assert np.count_nonzero(jumps >= lo) >= 3


def test_window_run_memory_does_not_grow_with_the_path():
    # at window 200 the statistic table holds L + 1 + m rows of N x G, so
    # only the N-wide per-step tables (about 0.14 KB a step here) grow with
    # the path; a table of every step would grow by 25 MB from 4 000 to
    # 16 000 steps
    n_streams, width = 8, 32
    models = [ARGaussianSignal(0.25, 2.0) for _ in range(n_streams)]
    mix = MixingMeasure.uniform(0.25, 2.0, width)
    log_a = np.full((n_streams, n_streams + 1), 40.0)
    log_a[np.eye(n_streams, n_streams + 1, k=1, dtype=bool)] = np.nan
    th = ThresholdMatrix(log_a=log_a)
    peaks = []
    for horizon in (4_000, 16_000):
        obs = np.random.default_rng(horizon).standard_normal((n_streams, horizon))
        prior = ChangePointPrior.geometric(1e-4)
        tracemalloc.start()
        try:
            verdict = run(models, prior, mix, th, obs, window=200)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert not verdict.stopped
    assert peaks[1] - peaks[0] < 4 * 2 ** 20


def test_window_run_slides_its_buffer_at_most_every_other_block(monkeypatch):
    """At N = 8, G = 32 and window 200 the rule looks ahead a 64-step block
    and then 128-step ones.  The buffer of cumz is sized at twice the
    L + 1 + m rows of the first, 530, and a slide leaves 329 rows in use,
    so the block after a slide fits; sized at twice the rows the first
    blocks used, 386, it slid on nearly every call."""
    n_streams, width = 8, 32
    models = [ARGaussianSignal(0.25, 2.0) for _ in range(n_streams)]
    mix = MixingMeasure.uniform(0.25, 2.0, width)
    log_a = np.full((n_streams, n_streams + 1), 40.0)
    log_a[np.eye(n_streams, n_streams + 1, k=1, dtype=bool)] = np.nan
    slid = []

    class Counted(Detector):
        def lookahead(self, block):
            slid.append(False)
            return super().lookahead(block)

        def _slide(self, n0, m):
            slid[-1] = True
            super()._slide(n0, m)

    monkeypatch.setattr(rule, "Detector", Counted)
    obs = np.random.default_rng(8).standard_normal((n_streams, 6_000))
    verdict = run(models, ChangePointPrior.geometric(1e-4), mix,
                  ThresholdMatrix(log_a=log_a), obs, window=200)
    assert not verdict.stopped and len(slid) == 48
    assert not any(a and b for a, b in zip(slid, slid[1:]))
    assert sum(slid) <= len(slid) // 2


def test_window_past_the_path_sizes_its_buffer_by_the_path(monkeypatch):
    """A window longer than the path gives full mode's verdict, and its
    buffer of cumz is sized by the detector's capacity, the horizon: the
    2(L + 1 + m) rows of window 10^9 would take about 256 GB at N x G =
    16."""
    kept = []

    class Kept(Detector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            kept.append(self)

    monkeypatch.setattr(rule, "Detector", Kept)
    models = [ARGaussianSignal(0.25, 2.0) for _ in range(2)]
    mix = MixingMeasure.uniform(0.25, 2.0, 8)
    log_a = np.full((2, 3), 6.0)
    log_a[np.eye(2, 3, k=1, dtype=bool)] = np.nan
    obs = np.random.default_rng(9).standard_normal((2, 300))
    obs[0, 150:] += 1.0
    prior = ChangePointPrior.geometric(0.01)
    full, windowed = (run(models, prior, mix, ThresholdMatrix(log_a=log_a),
                          obs, window=w) for w in (None, 10 ** 9))
    assert windowed == full and full.stopped
    assert len(kept[1]._cumz) <= 2 * obs.shape[1]


def _draw_prior(data, kind):
    if kind == "geometric":
        return ChangePointPrior.geometric(
            data.draw(st.floats(0.001, 0.05), label="rho"),
            q=data.draw(st.sampled_from([0.0, 0.1]), label="q"))
    if kind == "discrete_weibull":
        return ChangePointPrior.discrete_weibull(
            data.draw(st.floats(0.3, 1.0), label="kappa"),
            data.draw(st.floats(20.0, 500.0), label="scale"))
    # a support shorter than the horizon drives the survivor to zero
    size = data.draw(st.integers(10, 800), label="support")
    return ChangePointPrior.from_pmf(np.full(size, 1.0 / size))


@pytest.mark.filterwarnings("error")
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_block_run_matches_screen_free_loop_property(data):
    """``run`` gives the verdict of an exact frame and ``check_stop`` at
    every step.  The horizons cross at least three look-ahead blocks
    (64 + 128 + 256 steps at most), and the screen-free detector starts at
    capacity 16, so its tables grow along the way."""
    n_streams = data.draw(st.integers(1, 4), label="N")
    count = data.draw(st.integers(1, 16), label="G")
    window = data.draw(st.one_of(st.none(), st.integers(1, 20)), label="window")
    kind = data.draw(st.sampled_from(["geometric", "discrete_weibull",
                                      "explicit_pmf"]), label="prior")
    horizon = data.draw(st.integers(450, 600), label="horizon")
    prior = _draw_prior(data, kind)
    models = []
    for _ in range(n_streams):
        order = data.draw(st.integers(0, 2), label="AR order")
        coeffs = tuple(data.draw(st.floats(-0.45, 0.45), label="AR coefficient")
                       for _ in range(order))
        signal = data.draw(st.sampled_from([
            ConstantSignal(), SineSignal(omega=0.3, amplitude=3.0)]), label="signal")
        models.append(ARGaussianSignal(0.25, 2.0, ar_coeffs=coeffs, signal=signal))
    mix = MixingMeasure.uniform(0.25, 2.0, count, spacing="log")
    alpha = data.draw(st.sampled_from([1e-4, 1e-2, 0.1]), label="alpha")
    th = calibrate(alpha, alpha, n_streams=n_streams)
    stream = data.draw(st.integers(0, n_streams), label="stream")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    path = simulate(models, horizon, rng, stream=stream,
                    theta=0.5 if stream else 0.0,
                    nu=data.draw(st.integers(0, horizon), label="nu") if stream else None)

    det = Detector(prior, models, mix, window=window, capacity=16)
    want = None
    for t in range(horizon):
        want = check_stop(det.step(path.observations[:, t]), th)
        if want is not None:
            break
    got = run(models, prior, mix, th, path, window=window)
    if want is None:
        assert not got.stopped and got.horizon == horizon
    else:
        assert (got.time, got.stream, got.met_streams) == \
               (want.time, want.stream, want.met_streams)
