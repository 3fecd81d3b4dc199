import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, simpson
from scipy.interpolate import CubicHermiteSpline

from gap_predict.approx import Approximant, fit_approximant
from gap_predict.predictor import (EtaState, eta_levels, fit_eta,
                                   iterated_integrals, kernel_eval,
                                   predict_convolution, predict_eta_grid)
from gap_predict.signal import SpectrumSpec, exact_hk, sample_grid
from gap_predict.taper import TaperSpec

GAUSS03 = TaperSpec("gaussian", 0.3)


def make_approx(a, T=1.0, gap=1.0):
    """Wrap a raw coefficient vector in an Approximant for API-level tests."""
    a = np.asarray(a, dtype=float)
    return Approximant(T=T, omega_gap=gap, taper=GAUSS03, d=len(a), a=a,
                       eps2=1.0, fit_nodes=64)


def tone_state(a, spec, t1, span, h):
    n = int(round(span / h)) + 1
    times = t1 + h * np.arange(n)
    values = sample_grid(spec, t1, h, n)
    eta = np.array([exact_hk(spec, k, t1) for k in range(1, len(a) + 1)])
    return EtaState.from_window(a, times, values, eta)


def predict_from_eta_recursive(state, t):
    """Oracle: the prediction via the normative recursion
    x_k = eta_k + int x_{k-1}, re-integrating the eta contributions
    numerically.  Agrees with the closed form up to trapezoid error on the
    polynomial terms."""
    h = float(np.mean(np.diff(state.times)))
    cur = state.values
    y = 0.0
    for k in range(1, len(state.a) + 1):
        cur = state.eta[k - 1] + cumulative_trapezoid(cur, dx=h, initial=0.0)
        y += state.a[k - 1] * np.interp(t, state.times, cur)
    return float(y)


def find_left_root(func, lo, hi, scan_points=512):
    """Oracle: leftmost root of func in [lo, hi], or None when a uniform scan
    finds no sign change; the first bracket is bisected to 1e-10."""
    if not hi > lo:
        raise ValueError("window must satisfy lo < hi")
    xs = np.linspace(lo, hi, scan_points)
    vals = np.array([func(x) for x in xs])
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            return float(xs[i])
        if vals[i] * vals[i + 1] < 0.0:
            left, right = xs[i], xs[i + 1]
            fleft = vals[i]
            while right - left > 1e-10:
                mid = 0.5 * (left + right)
                fmid = func(mid)
                if fmid == 0.0:
                    return float(mid)
                if fleft * fmid < 0.0:
                    right = mid
                else:
                    left, fleft = mid, fmid
            return float(0.5 * (left + right))
    if vals[-1] == 0.0:
        return float(xs[-1])
    return None


def predict_one(approx, times, values, **kwargs):
    """Convolution prediction at the last sample time of the record."""
    y, tail = predict_convolution(approx, times, values, [times[-1]], **kwargs)
    return y[0], tail[0]


class TestKernel:
    def test_examples(self):
        assert kernel_eval([1.0], 17.3) == 1.0
        assert kernel_eval([0.0, 1.0], 3.0) == 3.0
        assert kernel_eval([1.0, 1.0, 1.0], 2.0) == pytest.approx(5.0, abs=1e-14)

    def test_rejects_negative_lag(self):
        with pytest.raises(ValueError):
            kernel_eval([1.0], -0.5)


class TestPredictConvolution:
    def test_zero_input(self):
        approx = make_approx([1.0, 0.5])
        times = np.linspace(-10.0, 0.0, 1001)
        y_hat, tail = predict_one(approx, times, np.zeros_like(times))
        assert y_hat == 0.0
        assert tail == 0.0

    def test_constant_kernel_times_constant_signal(self):
        approx = make_approx([1.0, 0.0])
        times = np.linspace(-10.0, 0.0, 2001)
        y_hat, tail = predict_one(approx, times, np.full_like(times, 0.7))
        assert y_hat == pytest.approx(0.7 * 10.0, rel=1e-12)
        assert tail == pytest.approx(0.7 * 10.0, rel=1e-12)

    def test_rejections(self):
        approx = make_approx([1.0, 0.0])
        with pytest.raises(ValueError):
            predict_one(approx, [0.0, 1.0], [0.0, 0.0])
        bad_times = np.linspace(-10.0, 0.0, 101)
        bad_times[50] += 1e-5
        with pytest.raises(ValueError):
            predict_one(approx, bad_times, np.zeros(101))
        bad_times[50] = np.nan
        with pytest.raises(ValueError, match="uniform"):
            predict_one(approx, bad_times, np.zeros(101))
        with pytest.raises(ValueError):  # window shorter than history_length
            times = np.linspace(-5.0, 0.0, 501)
            predict_one(approx, times, np.zeros(501))

    def test_rejects_output_times_off_lattice_or_short_of_history(self):
        approx = make_approx([1.0, 0.0])
        times = np.linspace(-10.0, 2.0, 1201)
        values = np.zeros_like(times)
        predict_convolution(approx, times, values, [0.0, 1.0 + 5e-10, 2.0])
        with pytest.raises(ValueError, match="sample grid: the nearest "
                           "sample is 1 and the step is 0.01"):
            predict_convolution(approx, times, values, [1.0, 1.004])
        for t in (2.5, np.nan):
            with pytest.raises(ValueError, match="outside the sample grid, "
                               "which runs from -10 to 2"):
                predict_convolution(approx, times, values, [1.0, t])
        with pytest.raises(ValueError, match="full history"):
            predict_convolution(approx, times, values, [1.0, -0.01])

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 101, 1000, 10001, 10002])
    def test_weights_reproduce_scipy_simpson(self, n):
        # with K = 1 the output is the weighted window sum itself
        h = 10.0 / (n - 1)
        times = h * np.arange(n)
        values = np.random.default_rng(n).standard_normal(n)
        y_hat, _ = predict_one(make_approx([1.0]), times, values)
        ref = simpson(values, dx=h)
        assert y_hat == pytest.approx(ref, rel=1e-14,
                                      abs=1e-15 * h * np.abs(values).sum())

    @pytest.mark.parametrize("L", [10.0, 10.001])   # n_lag even, odd
    def test_grid_matches_per_window_simpson(self, L):
        self._check_against_per_window_simpson(L, "spaced")

    @pytest.mark.parametrize("outputs", ["scattered", "reversed", "repeated",
                                         "first", "empty"])
    @pytest.mark.parametrize("L", [10.0, 10.001])   # n_lag even, odd
    def test_any_output_order_matches_per_window_simpson(self, L, outputs):
        self._check_against_per_window_simpson(L, outputs)

    @staticmethod
    def _check_against_per_window_simpson(L, outputs):
        h = 1e-3
        a = np.array([0.8, -0.5, 0.3])
        times = -12.0 + h * np.arange(20001)
        values = np.cos(2.1 * times) * np.exp(-0.05 * times ** 2)
        n_lag = int(round(L / h))
        valid = np.arange(n_lag, len(times))
        idx = {"spaced": valid[::397],
               "scattered": np.random.default_rng(7).choice(valid, 40,
                                                            replace=False),
               "reversed": valid[::-331],
               "repeated": valid[[5, -1, 5, 0, -1, 5, 2000]],
               "first": valid[:1],
               "empty": valid[:0]}[outputs]
        y, tail = predict_convolution(make_approx(a), times, values,
                                      times[idx], history_length=L)
        assert y.shape == tail.shape == idx.shape
        lags = h * np.arange(n_lag, -1, -1)
        K = sum(a[k] * lags ** k / math.factorial(k) for k in range(3))
        for j, i in enumerate(idx):
            window = values[i - n_lag:i + 1]
            ref = simpson(K * window, dx=h)
            assert y[j] == pytest.approx(
                ref, abs=1e-13 * h * np.abs(K * window).sum())
            assert tail[j] == pytest.approx(abs(K[0] * window[0]) * L,
                                            rel=1e-12)

    @pytest.mark.parametrize("L", [10.0, 10.001])   # n_lag even, odd
    def test_no_output_times_means_every_full_window(self, L):
        # the default output times are the samples with a full window, and
        # the FFT covers the same segment as the explicit call's
        h = 1e-3
        a = np.array([0.8, -0.5, 0.3])
        times = -12.0 + h * np.arange(20001)
        values = np.cos(2.1 * times) * np.exp(-0.05 * times ** 2)
        n_lag = int(round(L / h))
        y, tail = predict_convolution(make_approx(a), times, values,
                                      history_length=L)
        y_ref, tail_ref = predict_convolution(make_approx(a), times, values,
                                              times[n_lag:], history_length=L)
        assert len(y) == len(times) - n_lag
        assert np.array_equal(y, y_ref) and np.array_equal(tail, tail_ref)

    def test_no_output_times_refuses_a_record_short_of_one_window(self):
        # 10 time units of history need 1001 samples at h = 0.01
        approx = make_approx([1.0, 0.0])
        times = np.linspace(0.0, 9.99, 1000)
        with pytest.raises(ValueError, match=r"^record too short for "
                           r"history_length=10\.0$"):
            predict_convolution(approx, times, np.ones_like(times))
        y, _ = predict_convolution(approx, np.linspace(0.0, 10.0, 1001),
                                   np.ones(1001))
        assert y == pytest.approx([10.0], rel=1e-12)

    def test_round_off_is_relative_to_the_largest_window(self):
        # one FFT product serves every output, so its round-off is set by the
        # largest window it covers: a 1e6x spike in the oldest samples
        # stays within 1e-13 of that window's sum at every output
        h = 1e-3
        a = np.array([0.8, -0.5, 0.3])
        times = -10.0 + h * np.arange(20001)
        values = np.cos(2.1 * times)
        values[:100] *= 1e6
        n_lag = 10000
        idx = np.arange(n_lag, len(times), 199)
        y, _ = predict_convolution(make_approx(a), times, values, times[idx])
        lags = h * np.arange(n_lag, -1, -1)
        K = sum(a[k] * lags ** k / math.factorial(k) for k in range(3))
        windows = [values[i - n_lag:i + 1] for i in idx]
        ref = np.array([simpson(K * w, dx=h) for w in windows])
        scale = max(h * np.abs(K * w).sum() for w in windows)
        assert np.abs(y - ref).max() <= 1e-13 * scale

    def test_small_degree_matches_frequency_oracle(self):
        # d=3 on a wide bump: the kernel grows only quadratically, so a long
        # window genuinely converges to sum_k a_k h_k(x)(t)
        spec = SpectrumSpec.from_bumps(1.0, [(2.0, 0.9, 1.0)])
        approx = fit_approximant(1.0, 1.0, GAUSS03, 3)
        L, h = 200.0, 1e-3
        t = 3.0
        n = int(round(L / h)) + 1
        times = t - L + h * np.arange(n)
        values = sample_grid(spec, times[0], h, n)
        y_hat, tail = predict_one(approx, times, values, history_length=L)
        oracle = sum(approx.a[k - 1] * exact_hk(spec, k, t) for k in range(1, 4))
        assert abs(y_hat - oracle) <= max(1e-6, tail)
        assert abs(y_hat - oracle) < 1e-3  # genuinely converged

    def test_high_degree_flags_truncation(self):
        # d=8 over a short window: the tail diagnostic must blow the whistle
        spec = SpectrumSpec.from_bumps(1.0, [(2.0, 0.9, 1.0)])
        approx = fit_approximant(1.0, 1.0, GAUSS03, 8)  # L = 10*T
        t = 3.0
        n = int(round(10.0 / 1e-3)) + 1
        times = t - 10.0 + 1e-3 * np.arange(n)
        values = sample_grid(spec, times[0], 1e-3, n)
        y_hat, tail = predict_one(approx, times, values)
        oracle = sum(approx.a[k - 1] * exact_hk(spec, k, t) for k in range(1, 9))
        assert abs(y_hat - oracle) <= max(1e-6, tail)
        assert tail > 1.0

    def test_history_length_default(self):
        # L defaults to 10*T: a record spanning 20 = 10*T has exactly one
        # output with a full window, one spanning 19.9 has none
        approx = make_approx([1.0, 0.0], T=2.0)
        times = np.linspace(0.0, 20.0, 2001)
        y_hat, tail = predict_one(approx, times, np.ones_like(times))
        assert y_hat == pytest.approx(20.0, rel=1e-12)
        with pytest.raises(ValueError):
            predict_one(approx, times[10:], np.ones(1991))

    def test_history_guard(self):
        approx = make_approx([1.0, 0.0], T=2.0)
        times = np.linspace(0.0, 30.0, 3001)
        with pytest.raises(ValueError, match="guard"):
            predict_one(approx, times, np.zeros_like(times), history_length=5.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="history_length must be finite"):
                predict_one(approx, times, np.zeros_like(times),
                            history_length=bad)


class TestIteratedIntegrals:
    def test_polynomial_exactness(self):
        times = np.linspace(0.0, 2.0, 401)
        f = iterated_integrals(times, np.ones_like(times), 2)
        assert np.max(np.abs(f[0] - times)) < 1e-12
        assert np.max(np.abs(f[1] - times ** 2 / 2)) < 1e-12
        assert f[0][0] == 0.0 and f[1][0] == 0.0

    def test_cosine_antiderivatives(self):
        h = 1e-3
        times = h * np.arange(3001)
        f = iterated_integrals(times, np.cos(times), 3)
        assert np.max(np.abs(f[0] - np.sin(times))) < 1e-6
        assert np.max(np.abs(f[1] - (1 - np.cos(times)))) < 1e-6

    @pytest.mark.parametrize("n", [3, 4, 5, 9])
    def test_short_windows_are_exact_for_cubics(self, n):
        # the first step takes the four-point rule, or the three-point rule
        # on a three-sample window, which is exact for quadratics only; the
        # Gregory steps after it are exact for cubics, and so is each
        # Euler-Maclaurin level on a cubic f_{k-1}
        h = 0.37
        t = h * np.arange(n)
        tau = t - t[0]
        x = 1.0 - 2.0 * t + 0.5 * t ** 2 + (0.25 * t ** 3 if n > 3 else 0.0)
        exact = (tau - tau ** 2 + tau ** 3 / 6.0
                 + (tau ** 4 / 16.0 if n > 3 else 0.0))
        f = iterated_integrals(t, x, 3)
        assert f.shape == (3, n)
        assert np.max(np.abs(f[0] - exact)) < 1e-14
        ones = iterated_integrals(t, np.ones(n), 4)
        for k in range(4):
            assert np.max(np.abs(ones[k] - tau ** (k + 1)
                                 / math.factorial(k + 1))) < 1e-14
        with pytest.raises(ValueError, match="at least 3 samples"):
            iterated_integrals(t[:2], x[:2], 1)

    @pytest.mark.parametrize("off_lattice", [False, True])
    def test_halving_the_step_cuts_the_error_sixteenfold(self, off_lattice):
        # the integrals and the Hermite step between nodes are O(h^4): on a
        # tone with known h_k, halving h cuts the error against
        # sum_k a_k h_k(t) at least 12x, on the sample lattice and off it
        # (d = 16, nu = 0.3: 1.1e-6 -> 6.7e-8, far above the round-off of
        # sum|a_k| = 4.3e4)
        spec = SpectrumSpec.from_tones(1.0, [(2.0, 0.5)])
        approx = fit_approximant(1.0, 1.0, GAUSS03, 16)
        t_eval = 0.01 * np.arange(629) + (0.0103 if off_lattice else 0.0)
        t_eval = t_eval[t_eval <= 2.0 * math.pi]
        # h_k(t) = Re[c (i w)^-k e^{i w t}] for the tone c e^{i w t}
        exact = np.real(0.5 * np.exp(2j * t_eval) * sum(
            approx.a[k - 1] * (2j) ** -k for k in range(1, 17)))
        errors = []
        for h in (2e-3, 1e-3):
            state = tone_state(approx.a, spec, t1=0.0,
                               span=2.0 * math.pi + h, h=h)
            errors.append(np.max(np.abs(predict_eta_grid(state, t_eval)
                                        - exact)))
        assert errors[0] >= 12.0 * errors[1]

    @pytest.mark.parametrize("k", [1, 8, 31])
    def test_leading_levels_do_not_depend_on_d(self, k):
        # a sweep integrates each record once, to its largest degree, and
        # gives the row of degree k the first k levels
        rng = np.random.default_rng(k)
        times = -0.5 + 1e-3 * np.arange(2001)
        x = rng.standard_normal(len(times))
        prefix = iterated_integrals(times, x, 32)[:k]
        alone = iterated_integrals(times, x, k)
        assert prefix.shape == alone.shape
        assert prefix.tobytes() == alone.tobytes()

    def test_derivative_recovers_previous_level(self):
        h = 1e-3
        times = h * np.arange(2001)
        x = np.cos(2 * times) + 0.3 * np.sin(3 * times)
        f = iterated_integrals(times, x, 3)
        for k in range(3):
            lower = x if k == 0 else f[k - 1]
            deriv = np.diff(f[k]) / h
            mid = 0.5 * (lower[1:] + lower[:-1])
            assert np.max(np.abs(deriv - mid)) < 5e-3


def predict_eta_double_loop(state, t_eval):
    """The closed form summed per k with an inner loop over l, each x_k
    interpolated (scipy's cubic Hermite spline with the exact slopes
    f_k' = f_{k-1}, f_0 = x) and extended on its own.  Returns the sum and
    its scale, the sum of the magnitudes of its terms."""
    t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))
    d = len(state.a)
    delta = t_eval - state.t1
    w = np.empty((d, len(t_eval)))
    w[0] = 1.0
    for j in range(1, d):
        w[j] = w[j - 1] * delta / j
    y = np.zeros_like(t_eval)
    scale = np.zeros_like(t_eval)
    for k in range(1, d + 1):
        slope = state.values if k == 1 else state.f[k - 2]
        xk = CubicHermiteSpline(state.times, state.f[k - 1], slope)(t_eval)
        size = np.abs(xk)
        for l in range(1, k + 1):
            xk = xk + state.eta[l - 1] * w[k - l]
            size = size + abs(state.eta[l - 1]) * w[k - l]
        y = y + state.a[k - 1] * xk
        scale = scale + abs(state.a[k - 1]) * size
    return y, scale


def random_eta_case(d, t_kind):
    """A random degree-d state and evaluation times on the sample lattice,
    off it, or 2^17 + 5 times, most of them off it."""
    rng = np.random.default_rng(d)
    h = 1e-3
    times = 0.3 + h * np.arange(1501)
    values = np.cos(3.0 * times) + 0.1 * rng.standard_normal(len(times))
    state = EtaState.from_window(rng.uniform(-1, 1, d), times, values,
                                 rng.uniform(-1, 1, d))
    if t_kind == "on_lattice":
        t_eval = times[::7]
    elif t_kind == "off_lattice":
        t_eval = rng.uniform(times[0], times[-1], 400)
    else:  # long
        n = (1 << 17) + 5
        t_eval = np.concatenate((times, rng.uniform(times[0], times[-1],
                                                    n - len(times))))
    return state, t_eval


class TestEtaPrediction:
    @pytest.mark.parametrize("d", [1, 2, 5, 16, 32])
    @pytest.mark.parametrize("t_kind", ["on_lattice", "off_lattice", "long"])
    def test_matches_double_loop(self, d, t_kind):
        # the regrouped sum rounds differently; its error is bounded by
        # rounding relative to the magnitudes of the double sum's terms
        state, t_eval = random_eta_case(d, t_kind)
        ref, scale = predict_eta_double_loop(state, t_eval)
        assert np.all(np.abs(predict_eta_grid(state, t_eval) - ref)
                      <= 1e-14 * scale)

    @pytest.mark.parametrize("d", [1, 5, 16])
    @pytest.mark.parametrize("t_kind", ["on_lattice", "off_lattice", "long"])
    def test_integrals_of_a_higher_degree_give_predict_eta_grid(
            self, d, t_kind):
        # the first d rows of integrals taken once at degree 2d, as the
        # harness sweep shares them across degrees, give the prediction of
        # the state's own degree-d integrals bit for bit
        state, t_eval = random_eta_case(d, t_kind)
        f = iterated_integrals(state.times, state.values, 2 * d)
        shared = EtaState(eta=state.eta, times=state.times,
                          values=state.values, f=f[:d], a=state.a)
        assert np.array_equal(predict_eta_grid(shared, t_eval),
                              predict_eta_grid(state, t_eval))

    def test_levels_on_sample_times_are_the_node_values(self):
        # a contiguous run of samples is a view of the integrals; the
        # Hermite step gives the node values on single sample times, the
        # last one included
        state, _ = random_eta_case(5, "on_lattice")
        levels = eta_levels(state.times, state.values, state.f,
                            state.times[100:400])
        assert np.shares_memory(levels, state.f)
        assert np.array_equal(levels, state.f[:, 100:400])
        picks = [0, 7, 1499, 1500]
        levels = eta_levels(state.times, state.values, state.f,
                            state.times[picks])
        assert not np.shares_memory(levels, state.f)
        assert np.array_equal(levels, state.f[:, picks])

    def test_state_rejects_constants_it_cannot_use(self):
        times = np.linspace(0.0, 1.0, 11)
        a = [1.0, 1.0]
        with pytest.raises(ValueError, match="eta must be finite"):
            EtaState.from_window(a, times, np.zeros(11), [1.0, np.nan])
        for eta in ([1.0], [1.0, 1.0, 1.0]):
            with pytest.raises(ValueError, match="one entry per coefficient"):
                EtaState.from_window(a, times, np.zeros(11), eta)
        for f in (np.zeros((3, 11)), np.zeros((2, 10))):
            with pytest.raises(ValueError, match="one trajectory per"):
                EtaState(eta=[1.0, 1.0], times=times, values=np.zeros(11),
                         f=f, a=a)

    def test_collapse_at_reference_time(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, 5)
        eta = rng.uniform(-1, 1, 5)
        times = np.linspace(2.0, 4.0, 501)
        state = EtaState.from_window(a, times, np.zeros_like(times), eta)
        expected = 0.0
        for k in range(5):
            expected += a[k] * eta[k]
        assert predict_eta_grid(state, [2.0])[0] == expected

    def test_hand_expansion_d2_zero_signal(self):
        a = np.array([0.7, -0.4])
        eta = np.array([1.3, 0.2])
        times = np.linspace(0.0, 3.0, 301)
        state = EtaState.from_window(a, times, np.zeros_like(times), eta)
        for t in (0.5, 1.7, 3.0):
            expected = a[0] * eta[0] + a[1] * (eta[1] + eta[0] * t)
            assert predict_eta_grid(state, [t])[0] == \
                pytest.approx(expected, abs=1e-12)

    def test_matches_frequency_oracle_on_tone(self):
        spec = SpectrumSpec.from_tones(1.0, [(2.0, 0.8 - 0.3j)])
        approx = fit_approximant(1.0, 1.0, GAUSS03, 4)
        state = tone_state(approx.a, spec, t1=0.25, span=5.0, h=2e-5)
        for t in (0.25, 1.0, 2.75, 5.25):
            oracle = sum(approx.a[k - 1] * exact_hk(spec, k, t)
                         for k in range(1, 5))
            assert predict_eta_grid(state, [t])[0] == \
                pytest.approx(oracle, abs=1e-8)

    def test_recursive_cross_check(self):
        spec = SpectrumSpec.from_tones(1.0, [(1.5, 1.0)])
        approx = fit_approximant(1.0, 1.0, GAUSS03, 4)
        state = tone_state(approx.a, spec, t1=0.0, span=4.0, h=1e-3)
        for t in (1.0, 2.5, 4.0):
            closed = predict_eta_grid(state, [t])[0]
            recursive = predict_from_eta_recursive(state, t)
            assert recursive == pytest.approx(closed, abs=1e-5)

    def test_rejects_out_of_range_times(self):
        state = tone_state(np.array([1.0, 0.0]),
                           SpectrumSpec.from_tones(1.0, [(2.0, 1.0)]),
                           t1=0.0, span=1.0, h=1e-3)
        for t in (-0.5, 1.5):
            with pytest.raises(ValueError):
                predict_eta_grid(state, [t])

    def test_shift_covariance(self):
        delta = 2.7
        omega, c = 2.0, 0.6 + 0.4j
        spec = SpectrumSpec.from_tones(1.0, [(omega, c)])
        shifted = SpectrumSpec.from_tones(
            1.0, [(omega, c * np.exp(-1j * omega * delta))])
        approx = fit_approximant(1.0, 1.0, GAUSS03, 3)
        state = tone_state(approx.a, spec, t1=0.0, span=3.0, h=1e-4)
        state_shift = tone_state(approx.a, shifted, t1=delta, span=3.0, h=1e-4)
        t_eval = np.array([0.0, 0.9, 2.4])
        y = predict_eta_grid(state, t_eval)
        y_shift = predict_eta_grid(state_shift, t_eval + delta)
        assert np.max(np.abs(y - y_shift)) < 1e-10


class TestFitEta:
    def setup_method(self):
        self.spec = SpectrumSpec.from_tones(1.0, [(2.0, 1.0)])
        self.approx = fit_approximant(1.0, 1.0, GAUSS03, 6)
        h = 1e-4
        n = int(round(8.0 / h)) + 1
        self.times = h * np.arange(n)
        self.values = sample_grid(self.spec, 0.0, h, n)

    def fit(self, fit_times, zeta):
        return fit_eta(self.approx.a, self.times, self.values, fit_times, zeta)

    def test_round_trip_recovers_eta(self):
        rng = np.random.default_rng(42)
        eta_true = rng.standard_normal(6)
        state = EtaState.from_window(self.approx.a, self.times, self.values,
                                     eta_true)
        fit_times = np.linspace(0.5, 6.5, 6)
        zeta = predict_eta_grid(state, fit_times)
        fit = self.fit(fit_times, zeta)
        assert np.max(np.abs(fit.state.eta - eta_true)) <= 1e-8 * np.max(np.abs(eta_true))
        assert np.max(np.abs(fit.residual)) <= 1e-10 * np.linalg.norm(zeta)
        assert fit.cond < 1e12
        # the fitted state itself reproduces the observations
        refit = predict_eta_grid(fit.state, fit_times)
        assert np.max(np.abs(refit - zeta)) <= 1e-10 * np.linalg.norm(zeta)

    def test_overdetermined_residual_within_tone_bound(self):
        # zeta are true future values; feasibility is guaranteed because the
        # exact eta already satisfies the tone error bound at every fit point
        fit_times = np.linspace(0.5, 6.5, 12)
        zeta = np.array([float(np.cos(2.0 * (tm + 1.0))) for tm in fit_times])
        fit = self.fit(fit_times, zeta)
        r_at_tone = math.exp(-(0.3 * 2.0) ** 2)
        bound = 2.0 * (abs(1.0 - r_at_tone) + self.approx.eps2)
        assert np.max(np.abs(fit.residual)) <= bound

    def test_validations(self):
        with pytest.raises(ValueError):
            self.fit([0.5, 0.4, 1.0, 2.0, 3.0, 4.0], np.zeros(6))
        with pytest.raises(ValueError):
            self.fit([0.5, 1.0], np.zeros(2))
        with pytest.raises(ValueError):
            self.fit(np.linspace(0.5, 20.0, 6), np.zeros(6))

    def test_warns_on_clustered_fit_times(self):
        fit_times = 1.0 + 1e-9 * np.arange(6)
        zeta = np.zeros(6)
        with pytest.warns(RuntimeWarning):
            self.fit(fit_times, zeta)


class TestFindLeftRoot:
    def test_cosine_window_without_root(self):
        assert find_left_root(math.cos, -7.0, -5.0) is None

    def test_cosine_window_with_root(self):
        root = find_left_root(math.cos, -8.0, -7.0)
        assert root == pytest.approx(math.pi / 2 - 3 * math.pi, abs=1e-10)

    def test_sine_root_at_origin(self):
        root = find_left_root(math.sin, -0.5, 0.5)
        assert root == pytest.approx(0.0, abs=1e-10)

    def test_leftmost_of_many(self):
        root = find_left_root(math.cos, -8.0, 0.0)
        assert root == pytest.approx(math.pi / 2 - 3 * math.pi, abs=1e-10)

    def test_validates_window(self):
        with pytest.raises(ValueError):
            find_left_root(math.cos, 1.0, 1.0)

    def test_anchors_iterated_integral_representation(self):
        # the lower-limit form of h_1 with R_1 a root of h_1 itself: for
        # x = cos, h_1 = sin, and integrating from a root of sin recovers sin
        spec = SpectrumSpec.from_tones(1.0, [(1.0, 1.0)])
        r1 = find_left_root(lambda s: exact_hk(spec, 1, s), -7.0, -5.0)
        assert r1 == pytest.approx(-2 * math.pi, abs=1e-10)
        h = 1e-4
        t = 1.2
        n = int(round((t - r1) / h)) + 1
        times = r1 + h * np.arange(n)
        f1 = iterated_integrals(times, np.cos(times), 1)[0]
        assert f1[-1] == pytest.approx(exact_hk(spec, 1, times[-1]), abs=1e-6)
