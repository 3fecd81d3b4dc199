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

predict_eta_grid is the composition of two steps.  eta_grid_levels depends
only on the window and the evaluation times: it interpolates every f_k there
and forms the weights (t - t1)^j / j!.  eta_grid_sum combines the first d
levels with the constants eta and the coefficients a.  Leading levels do not
depend on how many follow, so the harness sweep takes the levels once per
spectrum at the largest degree and sums them per row, bit for bit
equal to predict_eta_grid on each row's own state (tested).

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
           "EtaState", "eta_grid_levels", "eta_grid_sum", "predict_eta_grid",
           "EtaFit", "fit_eta"]

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
        raise ValueError(f"t={t[off].flat[0]} does not lie on the sample grid")
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
    or fit_eta, which compute f from the window.
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


def _interpolate_levels(times, f, t_eval):
    # fx[k] = f[k] linearly interpolated at t_eval
    fx = np.empty((len(f), len(t_eval)))
    for k in range(len(f)):
        fx[k] = np.interp(t_eval, times, f[k])
    return fx


def eta_grid_levels(times, f, t_eval):
    """The part of the closed form that depends only on the window and on
    t_eval: returns (fx, w), with fx[k] the iterated integral f[k] linearly
    interpolated at t_eval and w[j] = (t_eval - t1)^j / j!, each of shape
    (len(f), len(t_eval)), where t1 = times[0].

    Every row is computed on its own, so the leading d rows of the levels of
    f equal the levels of f[:d] bit for bit, and levels computed once at the
    largest degree serve every degree (tested).  Every t must lie in
    [t1, times[-1]].
    """
    times = np.asarray(times, dtype=float)
    t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))
    _check_eta_range(times, t_eval)
    return (_interpolate_levels(times, f, t_eval),
            _eta_weights(len(f), t_eval - times[0]))


def _sum_levels(x, w, eta, a) -> np.ndarray:
    # y = sum_k a_k x_k after adding eta_l * w_{k-l} to every row k >= l of
    # x in place, for l = 1..d in order
    d = len(a)
    for l in range(d):
        x[l:] += eta[l] * w[:d - l]
    y = np.zeros(x.shape[1])
    for k in range(d):
        y += a[k] * x[k]
    return y


def eta_grid_sum(levels, eta, a) -> np.ndarray:
    """Combine the levels of eta_grid_levels with the constants eta and the
    coefficients a, using the first d = len(a) levels:
    y = sum_k a_k (f_k + sum_{l<=k} eta_l w_{k-l}).

    x starts as a copy of the first d rows of fx.  For l = 1..d, one in-place
    update adds eta_l * w_{k-l} to every row k >= l, and y sums a_k * x_k
    over k in order.  Each x_k thus receives its eta terms in ascending l,
    the order of the per-k double sum, so the result is that sum's bit for
    bit (tested).  The levels are left unchanged.
    """
    fx, w = levels
    eta = np.asarray(eta, dtype=float)
    d = len(a)
    if eta.shape != (d,) or d > len(fx):
        raise ValueError("eta and a need one entry per level used")
    if not np.all(np.isfinite(eta)):
        raise ValueError("eta must be finite")
    return _sum_levels(fx[:d].copy(), w, eta, a)


# predict_eta_grid works through t_eval in blocks whose (d, points) arrays
# hold at most this many values (512 KB): (d, m) arrays over a whole long
# record made it slower than summing per k (measured: d = 16, m = 12,001)
_ETA_BLOCK_VALUES = 1 << 16


def predict_eta_grid(state: EtaState, t_eval) -> np.ndarray:
    """Vectorized closed-form prediction at each t in t_eval (all >= t1).

    Uses x_k(t) = sum_{l=1}^{k} eta_l (t-t1)^(k-l)/(k-l)! + f_k(t), the
    closed form obtained by unrolling the recursion
    x_k = eta_k + int_{t1}^{t} x_{k-1}; f_k between sample nodes is linearly
    interpolated.

    Each block of evaluation times runs the two parts of eta_grid_levels
    and then the sum of eta_grid_sum, with two differences that keep the
    blocks fast: the weights and the interpolated levels are assigned one
    at a time, and the sum updates the levels in place rather than a copy.
    Taking both levels from one call cost about a sixth, and a copy about a
    third (measured: d = 16 and 32, m = 12,001).  A caller that predicts on
    one grid with several (eta, a) pairs over the same window can compute
    the levels once and call eta_grid_sum per pair, with the same result
    bit for bit (tested).
    """
    t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))
    _check_eta_range(state.times, t_eval)
    d = len(state.a)
    step = max(1, _ETA_BLOCK_VALUES // d)
    y = np.empty_like(t_eval)
    for start in range(0, len(t_eval), step):
        t = t_eval[start:start + step]
        w = _eta_weights(d, t - state.t1)
        fx = _interpolate_levels(state.times, state.f, t)
        y[start:start + step] = _sum_levels(fx, w, state.eta, state.a)
    return y


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

    delta = fit_times - t1
    w = _eta_weights(d, delta)            # w[j, m] = delta_m^j / j!
    M = np.zeros((len(fit_times), d))
    for l in range(1, d + 1):
        for k in range(l, d + 1):
            M[:, l - 1] += a[k - 1] * w[k - l]
    phi = np.zeros(len(fit_times))
    for k in range(d):
        phi += a[k] * np.interp(fit_times, times, f[k])
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
