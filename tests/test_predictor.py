import contextlib
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, simpson

from gap_predict import cli
from gap_predict.approx import Approximant, fit_approximant
from gap_predict.predictor import (_gregory_weights, eta_sum, fit_eta,
                                   iterated_integrals, predict_convolution)
from gap_predict.signal import SpectrumSpec, exact_etaP, sample_grid
from gap_predict.taper import TaperSpec

import oracles

GAUSS03 = TaperSpec("gaussian", 0.3)


def make_approx(a, T=1.0, gap=1.0):
    """An Approximant whose monomial form is a, its c from the independent
    monomial-to-Chebyshev oracle, for the convolution's API-level tests."""
    return Approximant(T=T, omega_gap=gap, taper=GAUSS03, d=len(a),
                       c=oracles.chebyshev_from_monomial(a, gap), eps2=1.0)


def random_approx(d, rng, gap=1.0):
    """An Approximant with random Chebyshev coefficients, c_0 = 0."""
    c = rng.uniform(-1, 1, d + 1)
    c[0] = 0.0
    return Approximant(T=1.0, omega_gap=gap, taper=GAUSS03, d=d, c=c,
                       eps2=1.0)


def eta_window(approx, times, values, etaP):
    """The recurrence of approx on the sampled window (times, values) from
    t1 = times[0] with the constants etaP: its levels z."""
    etaP = np.asarray(etaP, dtype=float)
    return SimpleNamespace(
        approx=approx, etaP=etaP, times=times, values=values, t1=times[0],
        z=iterated_integrals(times, values, approx.d, approx.omega_gap, etaP))


def predict_eta(w, t_eval, z=None):
    """The recurrence's prediction at the sample times t_eval: the window's
    levels (or z) there, weighted by sigma_j c_j."""
    z = w.z if z is None else z
    return eta_sum(w.approx, z[:, oracles.sample_index(w.times, t_eval)])


def tone_state(approx, spec, t1, span, h):
    n = int(round(span / h)) + 1
    times = t1 + h * np.arange(n)
    values = sample_grid(spec, t1, h, n)
    return eta_window(approx, times, values,
                      exact_etaP(spec, approx.omega_gap, approx.d, t1))


def tone_prediction(approx, spec, t):
    """Oracle: Re[A psi(i w) e^{iwt}] summed over the tones, the exact
    output of the realization."""
    t = np.asarray(t, dtype=float)
    return sum(np.real(tone.amplitude * oracles.psi(approx.c, approx.omega_gap,
                                                    tone.omega)
                       * np.exp(1j * tone.omega * t)) for tone in spec.tones)


def predict_by_monomial_recursion(approx, spec, times, values, t):
    """Oracle: the monomial form sum_k a_k x_k with x_k = h_k(t1) +
    int_{t1}^t x_{k-1} by the trapezoid, x_0 = x, and the tone's
    h_k = Re[A (i w)^-k e^{iwt}].  Agrees with the recurrence up to
    trapezoid error."""
    h = float(np.mean(np.diff(times)))
    cur = values
    y = 0.0
    a = oracles.monomial_from_chebyshev(approx.c, approx.omega_gap)
    for k, a_k in enumerate(a, start=1):
        h_k = sum(np.real(tone.amplitude * (1j * tone.omega) ** -k
                          * np.exp(1j * tone.omega * times[0]))
                  for tone in spec.tones)
        cur = h_k + cumulative_trapezoid(cur, dx=h, initial=0.0)
        y += a_k * np.interp(t, times, cur)
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
    y, tail = predict_convolution(approx, times, values, **kwargs)
    return y[-1], tail[-1]


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

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 101, 1000, 10001, 10002])
    def test_weights_reproduce_scipy_simpson(self, n):
        # with K = 1 the output is the weighted window sum itself: Gregory's
        # rule, which on 3 samples is scipy's Simpson
        h = 10.0 / (n - 1)
        times = h * np.arange(n)
        values = np.random.default_rng(n).standard_normal(n)
        y_hat, _ = predict_one(make_approx([1.0, 0.0]), times, values)
        refs = [oracles.gregory_weights(n, h) @ values]
        if n == 3:
            refs.append(simpson(values, dx=h))
        for ref in refs:
            assert y_hat == pytest.approx(
                ref, rel=1e-14, abs=1e-15 * h * np.abs(values).sum())

    def test_window_weights_are_symmetric_and_exact_for_cubics(self):
        # the same numbers at both ends, int_0^1 t^3 = 1/4 at every window
        # length and int_0^1 t^5 = 1/6 from 6 samples on; w @ y is the
        # recurrence's own integral z_1
        rng = np.random.default_rng(7)
        for n in [*range(3, 65), 10001, 10002]:
            h = 1.0 / (n - 1)
            w = _gregory_weights(n, h)
            assert np.array_equal(w, w[::-1]), n
            assert w @ (h * np.arange(n)) ** 3 == pytest.approx(0.25,
                                                                rel=1e-13), n
            if n >= 6:
                assert w @ (h * np.arange(n)) ** 5 == pytest.approx(
                    1 / 6, rel=1e-13), n
            y = rng.standard_normal(n)
            z = iterated_integrals(h * np.arange(n), y, 1, 1.0, [0.0])
            assert w @ y == pytest.approx(
                z[1, -1], rel=1e-13, abs=1e-15 * h * np.abs(y).sum()), n

    @pytest.mark.parametrize("L", [10.0, 10.001])   # n_lag even, odd
    def test_grid_matches_per_window_simpson(self, L):
        # one output per sample with a full window, the first and the last
        # among those checked, against each window's own Gregory sum
        h = 1e-3
        a = np.array([0.8, -0.5, 0.3])
        times = -12.0 + h * np.arange(20001)
        values = np.cos(2.1 * times) * np.exp(-0.05 * times ** 2)
        n_lag = int(round(L / h))
        approx = make_approx(a)
        y, tail = predict_convolution(approx, times, values, history_length=L)
        assert y.shape == tail.shape == (len(times) - n_lag,)
        K = oracles.monomial_kernel(oracles.monomial_from_chebyshev(
            approx.c, approx.omega_gap), h * np.arange(n_lag, -1, -1))
        w = oracles.gregory_weights(n_lag + 1, h)
        for j in [*range(0, len(y), 397), len(y) - 1]:
            window = values[j:j + n_lag + 1]
            ref = w @ (K * window)
            assert y[j] == pytest.approx(
                ref, abs=1e-13 * h * np.abs(K * window).sum())
            assert tail[j] == pytest.approx(abs(K[0] * window[0]) * L,
                                            rel=1e-12)

    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_impulse_response_is_the_monomial_kernel(self, d):
        # output j sees a unit impulse j samples back, so the outputs are
        # the Gregory-weighted kernel: the recurrence's impulse response
        # against the monomial form of c, at degrees where Gregory's rule
        # is not exact for it
        h, n_lag = 1e-3, 10000
        approx = random_approx(d, np.random.default_rng(d))
        values = np.zeros(2 * n_lag + 1)
        values[n_lag] = 1.0
        y, _ = predict_convolution(approx, h * np.arange(2 * n_lag + 1),
                                   values)
        wK = oracles.gregory_weights(n_lag + 1, h) * oracles.monomial_kernel(
            oracles.monomial_from_chebyshev(approx.c, approx.omega_gap),
            h * np.arange(n_lag + 1))
        assert np.abs(y - wK).max() <= 1e-12 * np.abs(wK).max()

    def test_refuses_a_record_short_of_one_window(self):
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
        approx = make_approx(a)
        y, _ = predict_convolution(approx, times, values)
        y = y[idx - n_lag]
        K = oracles.monomial_kernel(oracles.monomial_from_chebyshev(
            approx.c, approx.omega_gap), h * np.arange(n_lag, -1, -1))
        windows = [values[i - n_lag:i + 1] for i in idx]
        weights = oracles.gregory_weights(n_lag + 1, h)
        ref = np.array([weights @ (K * w) for w in windows])
        scale = max(h * np.abs(K * w).sum() for w in windows)
        assert np.abs(y - ref).max() <= 1e-13 * scale

    def test_small_degree_matches_frequency_oracle(self):
        # d=3 on a wide bump: the kernel grows only quadratically, so a long
        # window genuinely converges to the exact output of psi
        spec = SpectrumSpec.from_bumps(1.0, [(2.0, 0.9, 1.0)])
        approx = fit_approximant(1.0, 1.0, GAUSS03, 3)
        L, h = 200.0, 1e-3
        t = 3.0
        n = int(round(L / h)) + 1
        times = t - L + h * np.arange(n)
        values = sample_grid(spec, times[0], h, n)
        y_hat, tail = predict_one(approx, times, values, history_length=L)
        oracle = oracles.prediction(spec, approx.c, 1.0, t)
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
        oracle = oracles.prediction(spec, approx.c, 1.0, t)
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
        # L / h overflows: refused, not an OverflowError from rounding it
        with pytest.raises(ValueError, match="record too short for "
                                             "history_length=1e\\+308"):
            predict_one(approx, times, np.zeros_like(times),
                        history_length=1e308)


def power_levels(d, omega_gap, tau):
    """Oracle: the levels of x = 1 with etaP = 0, z_j = sum_{k>=1} p_jk
    tau^k / k!, where P_j(v) = sum_k p_jk v^k by P_0 = 1, P_1 = omega_gap v,
    P_{j+1} = 2 omega_gap v P_j + P_{j-1}."""
    p = np.zeros((d + 1, d + 1))
    p[0, 0] = 1.0
    p[1, 1] = omega_gap
    for j in range(1, d):
        p[j + 1, 1:] = 2.0 * omega_gap * p[j, :-1]
        p[j + 1] += p[j - 1]
    k = np.arange(1, d + 1)
    basis = tau[None, :] ** k[:, None] / np.array(
        [math.factorial(i) for i in k])[:, None]
    return p[:, 1:] @ basis


class TestIteratedIntegrals:
    """The recurrence's levels z_0..z_d on the sample lattice."""

    @pytest.mark.parametrize("omega_gap", [1.0, 0.6])
    def test_polynomial_exactness(self, omega_gap):
        # x = 1: every integrand up to z_4's is a cubic at most
        times = np.linspace(0.0, 2.0, 401)
        z = iterated_integrals(times, np.ones_like(times), 4, omega_gap,
                               np.zeros(4))
        assert z.shape == (5, 401)
        assert np.all(z[:, 0] == 0.0) and np.all(z[0] == 0.0)
        assert np.abs(z - power_levels(4, omega_gap, times)).max() < 1e-12

    H, GAP, D = 1e-3, 0.8, 12
    TONE = SpectrumSpec.from_tones(GAP, [(2.0, 0.4 - 0.3j)])

    def tone_levels(self, ref):
        # (times, levels) of the tone on 3001 samples from 0.5, from
        # t1 = times[ref] with the exact constants there
        times = 0.5 + self.H * np.arange(3001)
        x = sample_grid(self.TONE, times[0], self.H, len(times))
        etaP = exact_etaP(self.TONE, self.GAP, self.D, times[ref])
        return times, iterated_integrals(times, x, self.D, self.GAP, etaP,
                                         ref)

    def assert_transfer_function(self, times, z):
        # z_j = Re[A (P_j(v) - P_j(0)) e^{iwt}]
        gap, v = self.GAP, 1.0 / 2.0j
        p, p_prev, p0, p0_prev = gap * v, 1.0, 0.0, 1.0
        for j in range(1, self.D + 1):
            exact = np.real((0.4 - 0.3j) * (p - p0) * np.exp(2.0j * times))
            assert np.abs(z[j] - exact).max() < 1e-9, j
            p, p_prev = 2.0 * gap * v * p + p_prev, p
            p0, p0_prev = p0_prev, p0

    def test_tone_levels_follow_the_transfer_function(self):
        # with the exact constants
        self.assert_transfer_function(*self.tone_levels(0))

    @pytest.mark.parametrize("ref", [1500, 3000])
    def test_levels_from_a_later_reference_sample(self, ref):
        # from t1 = times[ref] with the exact constants there, on both
        # sides of it; with zero constants every level vanishes at t1
        times, z = self.tone_levels(ref)
        self.assert_transfer_function(times, z)
        x = sample_grid(self.TONE, times[0], self.H, len(times))
        zero = iterated_integrals(times, x, self.D, self.GAP,
                                  np.zeros(self.D), ref)
        assert np.all(zero[:, ref] == 0.0)

    @pytest.mark.parametrize("n", [3, 4, 5, 9])
    def test_short_windows_are_exact_for_cubics(self, n):
        # the first steps take the four-point rule on 4 or 5 samples, the
        # six-point rule from 6 on, or the three-point rule on a
        # three-sample window, which is exact for quadratics only; the
        # Gregory steps after them are exact for cubics
        h = 0.37
        t = h * np.arange(n)
        tau = t - t[0]
        x = 1.0 - 2.0 * t + 0.5 * t ** 2 + (0.25 * t ** 3 if n > 3 else 0.0)
        exact = (tau - tau ** 2 + tau ** 3 / 6.0
                 + (tau ** 4 / 16.0 if n > 3 else 0.0))
        z = iterated_integrals(t, x, 1, 1.0, [0.0])
        assert z.shape == (2, n)
        assert np.max(np.abs(z[1] - exact)) < 1e-14
        top = 4 if n > 3 else 3
        ones = iterated_integrals(t, np.ones(n), top, 1.0, np.zeros(top))
        assert np.max(np.abs(ones - power_levels(top, 1.0, tau))) < 1e-13
        with pytest.raises(ValueError, match="at least 3 samples"):
            iterated_integrals(t[:2], x[:2], 1, 1.0, [0.0])

    @pytest.mark.parametrize("dt", [0.01, 2.0 * math.pi / 628])
    def test_halving_the_step_cuts_the_error_sixtyfourfold(self, dt):
        # the integrals are O(h^6): on a tone, halving h from dt to dt/2
        # cuts the error against the exact output of psi at least 48x (62x
        # measured) at every dt step over [0, 2pi], for the demo's dt and
        # the long-window demo's, which is off the 1e-3 lattice; at dt/5
        # the error is already at round-off, which halving does not cut
        spec = SpectrumSpec.from_tones(1.0, [(2.0, 0.5)])
        approx = fit_approximant(1.0, 1.0, GAUSS03, 16)
        t_eval = dt * np.arange(629)
        t_eval = t_eval[t_eval <= 2.0 * math.pi + 1e-9]
        exact = tone_prediction(approx, spec, t_eval)
        errors = []
        for h in (dt, dt / 2):
            state = tone_state(approx, spec, t1=0.0,
                               span=2.0 * math.pi + h, h=h)
            errors.append(np.max(np.abs(predict_eta(state, t_eval)
                                        - exact)))
        assert errors[0] >= 48.0 * errors[1]

    @pytest.mark.parametrize("k", [1, 8, 31])
    def test_leading_levels_do_not_depend_on_d(self, k):
        # a sweep runs each record's recurrence once, to its largest degree,
        # and gives the row of degree k the first k + 1 levels
        rng = np.random.default_rng(k)
        times = -0.5 + 1e-3 * np.arange(2001)
        x = rng.standard_normal(len(times))
        etaP = rng.standard_normal(32)
        prefix = iterated_integrals(times, x, 32, 0.9, etaP)[:k + 1]
        alone = iterated_integrals(times, x, k, 0.9, etaP[:k])
        assert prefix.shape == alone.shape
        assert prefix.tobytes() == alone.tobytes()

    def test_refuses_arrays_over_the_grid_limit(self):
        # (d + 1) x samples: 4,097 by 8,192 is 33,562,624 entries, just
        # over 2^25, refused before the level array is made
        times = 1e-3 * np.arange(8192)
        message = re.escape("the recurrence's level array of 4097 x 8192 "
                            "entries is over the limit of 2^25")
        with pytest.raises(ValueError, match=message):
            iterated_integrals(times, np.zeros(8192), 4096, 1.0,
                               np.zeros(4096))
        # a stack of one record is refused in the same words
        with pytest.raises(ValueError, match=message):
            iterated_integrals(times, np.zeros((1, 8192)), 4096, 1.0,
                               np.zeros((1, 4096)))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 64, 1257])
    @pytest.mark.parametrize("records", [1, 2, 3])
    @pytest.mark.parametrize("at_middle", [False, True])
    def test_stacked_levels_are_each_records_own(self, n, records,
                                                 at_middle):
        # S records in one call give each record's levels of its own call
        # bit for bit: the convolution of the flattened stack writes
        # straddling windows only where the start-up rows overwrite them
        rng = np.random.default_rng([n, records])
        times = 0.3 + 0.01 * np.arange(n)
        x = rng.standard_normal((records, n))
        etaP = rng.standard_normal((records, 6))
        ref = n // 2 if at_middle else 0
        z = iterated_integrals(times, x, 6, 0.9, etaP, ref)
        assert z.shape == (7, records, n)
        for s in range(records):
            alone = iterated_integrals(times, x[s], 6, 0.9, etaP[s], ref)
            assert alone.shape == (7, n)
            assert np.array_equal(z[:, s], alone)

    def test_refuses_stacks_over_the_limit_or_off_the_times(self):
        # 4,097 levels of 3 records of 2,731 samples is 33,566,727 entries,
        # over 2^25, though one record's 11,188,907 are not; the message
        # names the record count.  etaP needs one row per record
        times = 1e-3 * np.arange(2731)
        message = re.escape("the recurrence's level array of 4097 x 3 x 2731 "
                            "entries (S = 3 records) is over the limit "
                            "of 2^25")
        with pytest.raises(ValueError, match=message):
            iterated_integrals(times, np.zeros((3, 2731)), 4096, 1.0,
                               np.zeros((3, 4096)))
        with pytest.raises(ValueError, match=re.escape(
                "etaP must hold 3 x 4 constants, one row of d = 4 per "
                "record, not (4,)")):
            iterated_integrals(times, np.zeros((3, 2731)), 4, 1.0,
                               np.zeros(4))
        # values that are not records on the times, one or a stack, are
        # refused, not integrated on a grid they do not lie on
        for shape in ((2730,), (3, 2732), (2, 3, 2731)):
            with pytest.raises(ValueError, match=re.escape(
                    f"values of shape {shape} are not records on the 2731 "
                    "sample times")):
                iterated_integrals(times, np.zeros(shape), 4, 1.0,
                                   np.zeros(4))

    def test_levels_follow_the_recurrence(self):
        # d/dt z_1 = omega_gap x and d/dt (z_{j+1} - z_{j-1}) =
        # 2 omega_gap y_j, y_j = z_j + x for even j
        h, gap = 1e-3, 0.7
        times = h * np.arange(2001)
        x = np.cos(2 * times) + 0.3 * np.sin(3 * times)
        z = iterated_integrals(times, x, 4, gap, [0.1, -0.2, 0.3, 0.05])
        y = z + np.where(np.arange(5) % 2 == 0, 1.0, 0.0)[:, None] * x
        mid = 0.5 * (y[:, 1:] + y[:, :-1])
        assert np.max(np.abs(np.diff(z[1]) / h - gap * mid[0])) < 5e-6
        for j in range(1, 4):
            deriv = np.diff(z[j + 1] - z[j - 1]) / h
            assert np.max(np.abs(deriv - 2.0 * gap * mid[j])) < 5e-6


def _interpolant_integrals(k):
    """W[i - 1] @ y[:k + 1] = int_0^i of the degree-k polynomial through
    y_0..y_k on the nodes 0..k, i = 1..k - 1: Lagrange's basis integrated
    exactly in rationals."""
    W = np.empty((k - 1, k + 1))
    for j in range(k + 1):
        poly = [Fraction(1)]  # L_j's coefficients, ascending
        for m in range(k + 1):
            if m != j:
                poly = [(b - m * a) / (j - m)
                        for a, b in zip(poly + [0], [0] + poly)]
        for i in range(1, k):
            W[i - 1, j] = sum(a * Fraction(i) ** (p + 1) / (p + 1)
                              for p, a in enumerate(poly))
    return W


def gregory_oracle(state, t_eval):
    """The prediction at the sample times t_eval with every level integrated
    by Gregory's rule to fifth differences, one level at a time:
    z_1 = omega_gap (etaP_0 + G x), z_{j+1} = 2 omega_gap (etaP_j + G y_j)
    + z_{j-1}.  G is the cumulative trapezoid with the end corrections
    h(D/12 - D^2/24 + 19 D^3/720 - 3 D^4/160) y_0 in forward differences and
    -h(B/12 + B^2/24 + 19 B^3/720 + 3 B^4/160) y_i in backward ones from
    i = 5 on, and the integral of the quintic through y_0..y_5 before."""
    approx, x, etaP = state.approx, state.values, state.etaP
    h = state.times[1] - state.times[0]
    start = h * _interpolant_integrals(5)

    def G(y):
        g = cumulative_trapezoid(y, dx=h, initial=0.0)
        fwd = [np.diff(y[:5], n)[0] for n in range(1, 5)]
        back = [np.diff(y, n)[5 - n:] for n in range(1, 5)]
        g[5:] += h * ((fwd[0] / 12 - fwd[1] / 24 + 19 * fwd[2] / 720
                       - 3 * fwd[3] / 160)
                      - (back[0] / 12 + back[1] / 24 + 19 * back[2] / 720
                         + 3 * back[3] / 160))
        g[1:5] = start @ y[:6]
        return g

    gap = approx.omega_gap
    z = [np.zeros_like(x), gap * (etaP[0] + G(x))]
    for j in range(1, approx.d):
        y = z[j] + (x if j % 2 == 0 else 0.0)
        z.append(2.0 * gap * (etaP[j] + G(y)) + z[j - 1])
    levels = np.array(z)[:, oracles.sample_index(state.times, t_eval)]
    return approx.weights @ levels, np.abs(approx.weights) @ np.abs(levels)


def random_eta_case(d, t_kind):
    """A random degree-d state and every 7th sample time, or 2^17 + 5
    sample times in random order with repeats."""
    rng = np.random.default_rng(d)
    h = 1e-3
    times = 0.3 + h * np.arange(1501)
    values = np.cos(3.0 * times) + 0.1 * rng.standard_normal(len(times))
    state = eta_window(random_approx(d, rng, gap=0.9), times, values,
                       rng.uniform(-1, 1, d))
    if t_kind == "on_lattice":
        t_eval = times[::7]
    else:  # long
        t_eval = times[rng.integers(0, len(times), (1 << 17) + 5)]
    return state, t_eval


class TestEtaPrediction:
    @pytest.mark.parametrize("d", [2, 3, 5, 16, 32])
    @pytest.mark.parametrize("t_kind", ["on_lattice", "long"])
    def test_matches_gregory_oracle(self, d, t_kind):
        state, t_eval = random_eta_case(d, t_kind)
        ref, scale = gregory_oracle(state, t_eval)
        assert np.all(np.abs(predict_eta(state, t_eval) - ref)
                      <= 1e-14 * scale)

    @pytest.mark.parametrize("d", [2, 5, 16])
    @pytest.mark.parametrize("t_kind", ["on_lattice", "long"])
    def test_levels_of_a_higher_degree_give_the_degree_d_prediction(
            self, d, t_kind):
        # levels taken once at degree 2d, as the harness sweep shares them
        # across degrees, or cut to their first d + 1 rows, give the
        # prediction of the window's own degree-d levels bit for bit
        state, t_eval = random_eta_case(d, t_kind)
        extra = np.random.default_rng(99).uniform(-1, 1, d)
        z = iterated_integrals(state.times, state.values, 2 * d,
                               state.approx.omega_gap,
                               np.concatenate((state.etaP, extra)))
        own = predict_eta(state, t_eval)
        assert np.array_equal(predict_eta(state, t_eval, z=z), own)
        assert np.array_equal(predict_eta(state, t_eval, z=z[:d + 1]), own)

    def test_rejects_constants_it_cannot_use(self):
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="etaP must be finite"):
            iterated_integrals(times, np.zeros(11), 2, 1.0, [1.0, np.nan])
        for etaP in ([1.0], [1.0, 1.0, 1.0]):
            with pytest.raises(ValueError,
                               match=r"one entry per level above y_0 \(d = 2\)"):
                iterated_integrals(times, np.zeros(11), 2, 1.0, etaP)

    def test_rejects_levels_it_cannot_use(self):
        # levels to a degree below the approximant's
        times = np.linspace(0.0, 1.0, 11)
        state = eta_window(random_approx(2, np.random.default_rng(1)), times,
                           np.zeros(11), [1.0, 1.0])
        with pytest.raises(ValueError):
            predict_eta(state, times, z=np.zeros((2, 11)))

    def test_collapse_at_reference_time(self):
        # at t1 every integral is 0: z_1 = omega_gap etaP_0 and
        # z_{j+1} = 2 omega_gap etaP_j + z_{j-1}, to the bit
        rng = np.random.default_rng(3)
        approx = random_approx(5, rng, gap=1.3)
        etaP = rng.uniform(-1, 1, 5)
        times = np.linspace(2.0, 4.0, 501)
        state = eta_window(approx, times, np.zeros_like(times), etaP)
        z = [0.0, etaP[0] * 1.3]
        for j in range(1, 5):
            z.append(etaP[j] * (2.0 * 1.3) + z[j - 1])
        assert predict_eta(state, [2.0])[0] == approx.weights @ np.array(z)

    def test_hand_expansion_d2_zero_signal(self):
        # z_1 = w e0, z_2 = 2w (e1 + w e0 tau); sigma = (1, -1, -1)
        c = np.array([0.0, 0.7, -0.4])
        gap, e0, e1 = 1.2, 1.3, 0.2
        approx = Approximant(T=1.0, omega_gap=gap, taper=GAUSS03, d=2, c=c,
                             eps2=1.0)
        times = np.linspace(0.0, 3.0, 301)
        state = eta_window(approx, times, np.zeros_like(times), [e0, e1])
        for t in (0.5, 1.7, 3.0):
            expected = (-c[1] * gap * e0
                        - c[2] * 2.0 * gap * (e1 + gap * e0 * t))
            assert predict_eta(state, [t])[0] == \
                pytest.approx(expected, abs=1e-12)

    def test_matches_frequency_oracle_on_tone(self):
        spec = SpectrumSpec.from_tones(1.0, [(2.0, 0.8 - 0.3j)])
        approx = fit_approximant(1.0, 1.0, GAUSS03, 4)
        state = tone_state(approx, spec, t1=0.25, span=5.0, h=2e-5)
        for t in (0.25, 1.0, 2.75, 5.25):
            assert predict_eta(state, [t])[0] == \
                pytest.approx(tone_prediction(approx, spec, t), abs=1e-8)

    def test_recursive_cross_check(self):
        # the monomial form, realized independently, gives the same output
        spec = SpectrumSpec.from_tones(1.0, [(1.5, 1.0)])
        approx = fit_approximant(1.0, 1.0, GAUSS03, 4)
        state = tone_state(approx, spec, t1=0.0, span=4.0, h=1e-3)
        for t in (1.0, 2.5, 4.0):
            closed = predict_eta(state, [t])[0]
            recursive = predict_by_monomial_recursion(
                approx, spec, state.times, state.values, t)
            assert recursive == pytest.approx(closed, abs=1e-5)

    def test_shift_covariance(self):
        delta = 2.7
        omega, c = 2.0, 0.6 + 0.4j
        spec = SpectrumSpec.from_tones(1.0, [(omega, c)])
        shifted = SpectrumSpec.from_tones(
            1.0, [(omega, c * np.exp(-1j * omega * delta))])
        approx = fit_approximant(1.0, 1.0, GAUSS03, 3)
        state = tone_state(approx, spec, t1=0.0, span=3.0, h=1e-4)
        state_shift = tone_state(approx, shifted, t1=delta, span=3.0, h=1e-4)
        t_eval = np.array([0.0, 0.9, 2.4])
        y = predict_eta(state, t_eval)
        y_shift = predict_eta(state_shift, t_eval + delta)
        assert np.max(np.abs(y - y_shift)) < 1e-10


class TestFitEta:
    def setup_method(self):
        self.spec = SpectrumSpec.from_tones(1.0, [(2.0, 1.0)])
        self.approx = fit_approximant(1.0, 1.0, GAUSS03, 6)
        h = 1e-4
        n = int(round(8.0 / h)) + 1
        self.times = h * np.arange(n)
        self.values = sample_grid(self.spec, 0.0, h, n)

    def fit(self, idx, zeta, approx=None, values=None):
        return fit_eta(self.approx if approx is None else approx, self.times,
                       self.values if values is None else values, idx, zeta)

    def test_round_trip_recovers_eta(self):
        rng = np.random.default_rng(42)
        eta_true = rng.standard_normal(6)
        state = eta_window(self.approx, self.times, self.values, eta_true)
        idx = np.arange(5000, 65001, 12000)
        zeta = eta_sum(self.approx, state.z[:, idx])
        fit = self.fit(idx, zeta)
        assert np.max(np.abs(fit.etaP - eta_true)) <= 1e-8 * np.max(np.abs(eta_true))
        assert np.max(np.abs(fit.residual)) <= 1e-10 * np.linalg.norm(zeta)
        assert fit.cond < 1e12
        # the fitted constants themselves reproduce the observations
        refit = eta_window(self.approx, self.times, self.values, fit.etaP)
        assert (np.max(np.abs(eta_sum(self.approx, refit.z[:, idx]) - zeta))
                <= 1e-10 * np.linalg.norm(zeta))

    @pytest.mark.parametrize("d", [2, 6, 12, 32])
    def test_responses_are_the_forward_recurrences(self, d):
        # the shifted response to each unit constant is the forward
        # recurrence's: a zero record predicted with etaP = e_l is fitted
        # back to e_l, at evenly strided samples and at the samples nearest
        # evenly spaced indices; at d = 32 the fit is near-singular (cond
        # ~1e16, warned) and the error is 1.4e-11 of cond
        approx = random_approx(d, np.random.default_rng(d), gap=1.1)
        zeros = np.zeros_like(self.times)
        with (pytest.warns(RuntimeWarning, match="near-singular") if d == 32
              else contextlib.nullcontext()):
            for idx in (np.arange(5000, 60000, 55000 // d)[:d],
                        np.rint(np.linspace(5500, 60500, d)).astype(int)):
                for l in range(d):
                    unit = np.eye(d)[l]
                    zeta = eta_sum(approx, eta_window(
                        approx, self.times, zeros, unit).z[:, idx])
                    fit = self.fit(idx, zeta, approx=approx, values=zeros)
                    assert np.abs(fit.etaP - unit).max() < 1e-9 * fit.cond, l

    def test_overdetermined_residual_within_tone_bound(self):
        # zeta are true future values; feasibility is guaranteed because the
        # exact constants already satisfy the tone error bound at every fit
        # point
        idx = np.rint(np.linspace(5000, 65000, 12)).astype(int)
        zeta = np.cos(2.0 * (self.times[idx] + 1.0))
        fit = self.fit(idx, zeta)
        r_at_tone = math.exp(-(0.3 * 2.0) ** 2)
        bound = 2.0 * (abs(1.0 - r_at_tone) + self.approx.eps2)
        assert np.max(np.abs(fit.residual)) <= bound

    def test_validations(self):
        # fit_eta takes the sample indices its caller picks; the caller
        # refuses fewer than d of them, observations past the record and a
        # fit span that does not lie after t1
        def picks(t1, theta, dbar):
            return cli._fit_eta_from_samples(self.approx, self.times,
                                             self.values, t1, theta, dbar)

        with pytest.raises(ValueError, match="need at least d=6 fit times, "
                                             "got 2"):
            picks(0.0, 8.0, 2)
        with pytest.raises(ValueError, match="theta=20.0 is past the last "
                                             "sample time 8"):
            picks(0.0, 20.0, 6)
        with pytest.raises(ValueError, match="observation window too short"):
            picks(0.0, 1.05, 6)
        _, _, fit, _ = picks(0.0, 8.0, 6)
        assert fit.etaP.shape == (6,)

    def test_refuses_constants_that_are_not_finite(self):
        # finite observations whose least-squares constants overflow
        approx = Approximant(T=1.0, omega_gap=1.0, taper=GAUSS03, d=2,
                             c=[0.0, 1e-3, 1e-3], eps2=1.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="etaP must be finite"):
            self.fit(np.array([10000, 20000]), np.array([1e306, -1e306]),
                     approx=approx, values=np.zeros_like(self.times))

    def test_warns_on_clustered_fit_times(self):
        # six consecutive samples
        with pytest.warns(RuntimeWarning):
            self.fit(np.arange(10000, 10006), np.zeros(6))

    @pytest.mark.parametrize("d, h, picks", [
        (6, 1e-4, np.arange(5000, 65001, 12000)), (2, 0.37, np.array([1, 2]))])
    def test_fit_stops_at_the_last_fit_sample(self, d, h, picks):
        # Gregory's rule is prefix-exact from 6 samples on, so the record
        # cut after the last fit sample (at 6 samples at least) gives the
        # constants of the whole record bit for bit, and they reproduce the
        # whole record's own predictions
        approx = random_approx(d, np.random.default_rng(d), gap=1.1)
        times = h * np.arange(picks[-1] + 6)
        values = np.cos(2.0 * times)
        eta_true = np.random.default_rng(1).uniform(-1, 1, d)
        zeta = eta_sum(approx, eta_window(approx, times, values,
                                          eta_true).z[:, picks])
        cut = max(picks[-1] + 1, 6)
        whole = fit_eta(approx, times, values, picks, zeta)
        part = fit_eta(approx, times[:cut], values[:cut], picks, zeta)
        assert whole.etaP.tobytes() == part.etaP.tobytes()
        assert whole.residual.tobytes() == part.residual.tobytes()
        assert np.abs(whole.etaP - eta_true).max() < 1e-9 * whole.cond


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
        # the lower-limit form of etaP_0 = D^-1 x with its anchor a root of
        # D^-1 x itself: for x = cos, D^-1 x = sin, and the first level
        # integrated from a root of sin recovers sin
        spec = SpectrumSpec.from_tones(1.0, [(1.0, 1.0)])
        r1 = find_left_root(lambda s: exact_etaP(spec, 1.0, 1, s)[0],
                            -7.0, -5.0)
        assert r1 == pytest.approx(-2 * math.pi, abs=1e-10)
        h = 1e-4
        t = 1.2
        n = int(round((t - r1) / h)) + 1
        times = r1 + h * np.arange(n)
        z1 = iterated_integrals(times, np.cos(times), 1, 1.0, [0.0])[1]
        assert z1[-1] == pytest.approx(exact_etaP(spec, 1.0, 1, times[-1])[0],
                                       abs=1e-6)
