"""Time-domain realizations of the gap-signal predictor.

Three interchangeable realizations of the same transfer function
psi(i*w) = sum_k a_k (i*w)^(-k):

* polynomial-kernel convolution over a truncated history window, with the
  kernel K(t) = sum_k a_k t^(k-1)/(k-1)!;
* the eta-state form: reference constants eta_k (the iterated antiderivatives
  at a reference time t1) plus running iterated integrals of the observed
  samples, combined in closed form;
* eta-state with the constants estimated from finite observations by a linear
  solve (square: zero residual at the fit points; overdetermined: least
  squares).

An eta state is built from a sampled window whose first sample is t1, either
with known constants (EtaState.from_window) or with fitted ones
(fit_eta(...).state).  iterated_integrals is the only integrator of the
window, so every caller gets the same iterated integrals.  from_window,
fit_eta and the harness sweep call it; the sweep runs only the eta form with
the exact constants, once per spectrum on its record from t_start, and the
fitted constants and the convolution form are reached from the command line
alone (fit-eta, predict --mode conv).

predict_eta_grid is the one realization of the eta form: the sweep and the
command line both predict through it.  It writes the output as
F(t) + q(t - t1), with F = sum_k a_k f_k interpolated at the evaluation times
and q a polynomial whose Taylor coefficients are the Hankel map of eta by a,
so its cost is linear in d.  fit_eta solves for eta through the same map.

The convolution form computes every output of a record with one FFT
product, in O((span + L/h) log(span + L/h)) for outputs spanning `span`
samples, so its round-off is relative to the largest of those windows,
not to each output's own.  It requires the signal to decay into the past;
its truncation is reported through a crude tail diagnostic |K(L) x(t-L)| * L
rather than hidden.  For large degree d the kernel grows factorially with the
lag, so the eta-state form is the practical realization; the convolution form
is kept as a direct demonstration for small d.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .approx import Approximant
from .signal import _fast_len

__all__ = ["kernel_eval", "predict_convolution", "iterated_integrals",
           "EtaState", "predict_eta_grid", "EtaFit", "fit_eta"]

COND_FLAG_THRESHOLD = 1e12


def kernel_eval(a, t):
    """K(t) = sum_{k=1}^d a_k t^(k-1)/(k-1)! for t >= 0 (scalar or array)."""
    a = np.asarray(a, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("kernel is evaluated for nonnegative lags only")
    acc = np.full_like(t_arr, a[0] if len(a) else 0.0)
    term = np.ones_like(t_arr)
    for k in range(2, len(a) + 1):
        term = term * (t_arr / (k - 1))
        acc = acc + a[k - 1] * term
    if np.ndim(t) == 0:
        return float(acc)
    return acc


def _uniform_step(times):
    times = np.asarray(times, dtype=float)
    if len(times) < 3:
        raise ValueError("need at least 3 samples")
    steps = np.diff(times)
    h = steps.mean()
    # written so that a NaN time fails: every comparison with NaN is false
    if not (h > 0 and np.max(np.abs(steps - h)) <= 1e-9 * h):
        raise ValueError("sample times must be uniform (relative jitter <= 1e-9)")
    return float(h)


def _sample_index(times, t):
    """Index of the sample time nearest each t (scalar or array), which must
    lie within 1e-9 * max(1, |t|) of it."""
    t = np.asarray(t, dtype=float)
    hi = np.clip(np.searchsorted(times, t), 1, len(times) - 1)
    idx = np.where(np.abs(times[hi - 1] - t) <= np.abs(times[hi] - t), hi - 1, hi)
    off = ~(np.abs(times[idx] - t) <= 1e-9 * np.maximum(1.0, np.abs(t)))
    if np.any(off):
        bad, j = t[off].flat[0], hi[off].flat[0]
        if not times[0] <= bad <= times[-1]:  # NaN included
            raise ValueError(
                f"t={bad} lies outside the sample grid, which runs from "
                f"{times[0]:g} to {times[-1]:g}")
        raise ValueError(
            f"t={bad} does not lie on the sample grid: the nearest sample is "
            f"{times[idx[off].flat[0]]:g} and the step is "
            f"{times[j] - times[j - 1]:g}")
    return idx


def _simpson_weights(n, h):
    # w @ y reproduces scipy.integrate.simpson(y, dx=h) for len(y) == n >= 3:
    # composite Simpson over the first odd number of points, plus Cartwright's
    # correction of the last interval when n is even
    m = n if n % 2 else n - 1
    w = np.zeros(n)
    w[0:m:2] = 2.0
    w[1:m:2] = 4.0
    w[0] = w[m - 1] = 1.0
    w *= h / 3.0
    if m < n:
        w[-1] += 5.0 * h / 12.0
        w[-2] += 2.0 * h / 3.0
        w[-3] -= h / 12.0
    return w


def predict_convolution(approx: Approximant, times, values, t_eval,
                        history_length=None):
    """Composite-Simpson approximation of int_{t-L}^{t} K(t-tau) x(tau) dtau
    at every t in t_eval, from one uniformly sampled record.

    history_length L defaults to 10*T; it must be finite and is rejected
    below that guard, since the truncated convolution is meaningless with
    less history.  Every t in t_eval must be a sample time with a full
    window of L behind it, in any order and with repeats.  The kernel is
    evaluated and Simpson-weighted once, and every output comes from one
    real-FFT correlation of that weighted kernel with the record segment the
    outputs cover: O((m + L/h) log(m + L/h)) for outputs spanning m samples.

    The FFT's round-off scales with the largest window in the segment, not
    with each output's own: the error of every output is within about
    1e-13 * max_j sum|wK * window_j| (tested), where a per-window sum would
    be within that fraction of its own window's sum.  On a cosine record
    whose oldest 0.1 time units carry a 1e6x spike, outputs whose windows
    never see the spike are off by up to 1.3e-11 of their own sum (d = 2, 4,
    8; 20,001 samples), and by up to 9e-9 with a 1e9x spike.

    Returns arrays (y_hat, tail_diag), the latter the truncation indicator
    |K(L) * x(t-L)| * L.  The indicator is a crude diagnostic, not a bound:
    when it is large the window is too short (or the degree too high) for the
    truncated form to be trusted.
    """
    L = 10.0 * approx.T if history_length is None else float(history_length)
    if not np.isfinite(L):
        raise ValueError(f"history_length must be finite, got {L}")
    if L < 10.0 * approx.T:
        raise ValueError(f"history_length {L} is below the 10*T guard")
    h = _uniform_step(times)
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != times.shape:
        raise ValueError("times and values must have equal length")
    n_lag = int(round(L / h))
    if n_lag < 2:
        raise ValueError(f"history_length {L} spans fewer than 2 sample steps")
    idx = np.atleast_1d(_sample_index(times, t_eval))
    short = idx < n_lag
    if np.any(short):
        raise ValueError(
            f"output time t={times[idx[short][0]]} lacks a full history "
            f"window of length {L}")
    if idx.size == 0:
        return np.zeros(0), np.zeros(0)
    K = kernel_eval(approx.a, h * np.arange(n_lag, -1, -1))
    wK = _simpson_weights(n_lag + 1, h) * K
    # the correlation of the segment with wK is its convolution with wK
    # reversed; a circular one of length >= len(seg) wraps only into the
    # first n_lag entries, which hold no full window and are never read
    lo = idx.min() - n_lag
    seg = values[lo:idx.max() + 1]
    n = _fast_len(len(seg))
    full = np.fft.irfft(np.fft.rfft(seg, n) * np.fft.rfft(wK[::-1], n), n)
    y = full[idx - lo]
    tail = np.abs(K[0] * values[idx - n_lag]) * (n_lag * h)
    return y, tail


def iterated_integrals(times, values, d: int) -> np.ndarray:
    """Running iterated integrals f_1..f_d from t1 = times[0].

    f_1 is the cumulative trapezoid of x, f_k the cumulative trapezoid of
    f_{k-1}; every f_k vanishes at t1.  Returns shape (d, len(times)), whose
    first k rows equal iterated_integrals(times, values, k).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    h = _uniform_step(times)
    values = np.asarray(values, dtype=float)
    f = np.empty((d, len(values)))
    cur = values
    for k in range(d):
        # the expression scipy.integrate.cumulative_trapezoid(cur, dx=h,
        # initial=0.0) evaluates, bit for bit
        cur = np.concatenate(([0.0], np.cumsum(h * (cur[1:] + cur[:-1]) / 2.0)))
        f[k] = cur
    return f


@dataclass(frozen=True, eq=False)
class EtaState:
    """Reference-time constants plus running integrals: everything the
    closed-form predictor needs for t >= t1 = times[0].

    f[k-1] is the k-th iterated integral of values from t1, as
    iterated_integrals computes it.  Build a state with EtaState.from_window
    or fit_eta, which compute f from the window, or from the first d rows of
    the window's integrals to a higher degree, as the harness sweep does.
    Completed states are immutable and safe to share across threads.
    """

    eta: np.ndarray
    times: np.ndarray
    values: np.ndarray
    f: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        for name in ("eta", "times", "values", "f", "a"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        d = len(self.a)
        if self.eta.shape != (d,):
            raise ValueError("eta must have one entry per coefficient")
        if not np.all(np.isfinite(self.eta)):
            raise ValueError("eta must be finite")
        if self.f.shape != (d, len(self.times)):
            raise ValueError("f must hold one trajectory per coefficient")

    @property
    def t1(self) -> float:
        return float(self.times[0])

    @classmethod
    def from_window(cls, a, times, values, eta) -> "EtaState":
        """The state with constants eta on the sampled window that starts at
        t1 = times[0]."""
        a = np.asarray(a, dtype=float)
        return cls(eta=eta, times=times, values=values,
                   f=iterated_integrals(times, values, len(a)), a=a)


def _eta_weights(d, delta):
    # w_j = delta^j / j!, j = 0..d-1
    w = np.empty((d,) + np.shape(delta))
    w[0] = 1.0
    for j in range(1, d):
        w[j] = w[j - 1] * delta / j
    return w


def _check_eta_range(times, t_eval):
    t1 = times[0]
    if np.any(t_eval < t1 - 1e-12 * max(1.0, abs(t1))):
        raise ValueError("eta-state predictions are defined for t >= t1 only")
    if np.any(t_eval > times[-1] + 1e-9):
        raise ValueError("f trajectories do not reach the requested time")


def _hankel(a):
    # H[l, j] = a_{l+j}, zero where l + j >= d: the symmetric map from the
    # constants eta to the Taylor coefficients c = H eta of the polynomial
    # part
    d = len(a)
    padded = np.concatenate((a, np.zeros(d)))
    return padded[np.add.outer(np.arange(d), np.arange(d))]


def _taylor(c, tau):
    # sum_j c_j tau^j / j! by Horner's rule
    acc = np.full_like(tau, c[-1])
    for j in range(len(c) - 2, -1, -1):
        acc = c[j] + acc * tau / (j + 1)
    return acc


def predict_eta_grid(state: EtaState, t_eval) -> np.ndarray:
    """Vectorized closed-form prediction at each t in t_eval (all >= t1).

    Uses x_k(t) = sum_{l=1}^{k} eta_l (t-t1)^(k-l)/(k-l)! + f_k(t), the
    closed form obtained by unrolling the recursion
    x_k = eta_k + int_{t1}^{t} x_{k-1}; f_k between sample nodes is linearly
    interpolated.

    The output sum_k a_k x_k(t) is regrouped as F(t) + q(t - t1):
    F = sum_k a_k f_k is one vector over the window, interpolated at t_eval,
    and q(tau) = sum_j c_j tau^j / j! with c_j = sum_l a_{l+j} eta_l, so a
    prediction costs O(d (n + m)) for n samples and m times.  c_0 is summed
    in ascending l, so the prediction at t1 is sum_k a_k eta_k to the bit
    (tested); elsewhere the result agrees with the per-k double sum to
    within 1e-14 of the sum of the magnitudes of its terms (tested).
    """
    t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))
    _check_eta_range(state.times, t_eval)
    # cumsum adds the terms of each c_j in ascending l, an order that
    # H @ eta does not promise
    c = np.cumsum(_hankel(state.a) * state.eta[:, None], axis=0)[-1]
    return (np.interp(t_eval, state.times, state.a @ state.f)
            + _taylor(c, t_eval - state.t1))


@dataclass(frozen=True, eq=False)
class EtaFit:
    state: EtaState
    residual: np.ndarray
    cond: float


def fit_eta(a, times, values, fit_times, zeta) -> EtaFit:
    """Estimate the reference constants from finite observations and return
    the fitted state on the sampled window (times, values), whose first
    sample is t1.

    Solves M etabar = zeta - phi where
    M[m, l] = sum_{k>=l} a_k (t_m - t1)^(k-l)/(k-l)! and
    phi_m = sum_k a_k f_k(t_m).  Square systems (len(fit_times) == d)
    reproduce the observations exactly at the fit points; overdetermined ones
    are solved in least squares.  Columns are norm-equilibrated (M mixes
    factorial scales); the condition estimate of the equilibrated system is
    always reported and a warning is issued above 1e12.

    The caller must choose fit_times inside the observable window, i.e.
    t_m + T within the recorded samples when zeta_m = x(t_m + T).
    """
    a = np.asarray(a, dtype=float)
    d = len(a)
    times = np.asarray(times, dtype=float)
    f = iterated_integrals(times, values, d)
    t1 = times[0]
    fit_times = np.asarray(fit_times, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if len(fit_times) < d:
        raise ValueError(f"need at least d={d} fit times, got {len(fit_times)}")
    if zeta.shape != fit_times.shape:
        raise ValueError("zeta must match fit_times")
    if np.any(np.diff(fit_times) <= 0) or fit_times[0] <= t1:
        raise ValueError("fit times must be strictly increasing and > t1")
    if np.any(fit_times > times[-1] + 1e-9):
        raise ValueError("fit times fall outside the recorded trajectories")

    # M[m, l] = sum_j (t_m - t1)^j / j! * a_{l+j}
    M = _eta_weights(d, fit_times - t1).T @ _hankel(a)
    phi = np.interp(fit_times, times, a @ f)
    rhs = zeta - phi

    scale = np.linalg.norm(M, axis=0)
    scale[scale == 0.0] = 1.0
    eta, _, rank, sv = np.linalg.lstsq(M / scale, rhs, rcond=None)
    eta = eta / scale
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if rank < d or cond > COND_FLAG_THRESHOLD:
        warnings.warn(
            f"eta fit is near-singular (cond ~ {cond:.2e}); the fit times may "
            "be clustered", RuntimeWarning, stacklevel=2)
    residual = M @ eta - rhs
    state = EtaState(eta=eta, times=times, values=values, f=f, a=a)
    return EtaFit(state=state, residual=residual, cond=cond)
