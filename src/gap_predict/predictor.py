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

The eta form has one path: iterated_integrals integrates a sampled window
once from its first sample t1, the record stage (eta_levels, eta_weights)
takes each f_k and (t - t1)^j / j! at the output times, and the approximant
stage (eta_sum) applies a and c, the Hankel map of eta by a, and refuses
unusable constants.  The harness sweep runs it with the exact constants,
predict --mode eta on its window's own samples with constants from a fit-eta
file or from fit_eta, which solves through the same Hankel map.  The
integrals are O(h^4).

The convolution form computes every output of a record with one FFT
product, in O((span + L/h) log(span + L/h)) for outputs spanning `span`
samples, so its round-off is relative to the largest of those windows,
not to each output's own.  Without output times it predicts at every
sample with a full window, as predict --mode conv does.  It requires the
signal to decay into the past; its truncation is reported through a crude
tail diagnostic |K(L) x(t-L)| * L rather than hidden.  For large degree d
the kernel grows factorially with the lag, so the eta-state form is the
practical realization; the convolution form is kept as a direct
demonstration for small d.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .approx import Approximant
from .signal import grid_size

__all__ = ["kernel_eval", "predict_convolution", "iterated_integrals",
           "eta_levels", "eta_weights", "eta_sum", "EtaFit", "fit_eta"]

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


def predict_convolution(approx: Approximant, times, values, t_eval=None,
                        history_length=None):
    """Composite-Simpson approximation of int_{t-L}^{t} K(t-tau) x(tau) dtau
    at every t in t_eval, from one uniformly sampled record.

    history_length L defaults to 10*T; it must be finite and is rejected
    below that guard, since the truncated convolution is meaningless with
    less history.  Every t in t_eval must be a sample time with a full
    window of L behind it, in any order and with repeats; t_eval=None means
    every sample with a full window, and a record with none is refused.  The
    kernel is evaluated and Simpson-weighted once, and every output comes
    from one real-FFT correlation of that weighted kernel with the record
    segment the outputs cover: O((m + L/h) log(m + L/h)) for outputs
    spanning m samples.

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
    if t_eval is None:
        if n_lag >= len(times):
            raise ValueError(f"record too short for history_length={L}")
        idx = np.arange(n_lag, len(times))
    else:
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
    # a power of two or three times one, at least len(seg) and at most 1.5x
    m = len(seg)
    n = min(1 << (m - 1).bit_length(), 3 << ((m - 1) // 3).bit_length())
    full = np.fft.irfft(np.fft.rfft(seg, n) * np.fft.rfft(wK[::-1], n), n)
    y = full[idx - lo]
    tail = np.abs(K[0] * values[idx - n_lag]) * (n_lag * h)
    return y, tail


def iterated_integrals(times, values, d: int) -> np.ndarray:
    """Running iterated integrals f_1..f_d from t1 = times[0], each O(h^4).

    f_1 is Gregory's rule, exact for cubics: the cumulative trapezoid of x
    plus (h/24)(-3x_0 + 4x_1 - x_2) - (h/24)(3x_i - 4x_{i-1} + x_{i-2}) at
    i >= 2, h(9x_0 + 19x_1 - 5x_2 + x_3)/24 at i = 1 (h(5x_0 + 8x_1 - x_2)/12
    on three samples).  f_k is the cumulative trapezoid of f_{k-1} less
    (h^2/12)(f_{k-2} - f_{k-2}(t1)), f_0 = x (Euler-Maclaurin), in place.
    Returns shape (d, len(times)), whose first k rows equal
    iterated_integrals(times, values, k); every f_k vanishes at t1.  An
    array of more than 2^25 entries is refused before it is made.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    h = _uniform_step(times)
    x = np.asarray(values, dtype=float)
    grid_size(d * len(x))
    f = np.empty((d, len(x)))
    f[:, 0] = 0.0
    for k in range(d):
        row, prev = f[k, 1:], (x if k == 0 else f[k - 1])
        np.add(prev[1:], prev[:-1], out=row)
        if k == 0:  # Gregory's start correction, carried on by the cumsum
            row[1] += (-3.0 * x[0] + 4.0 * x[1] - x[2]) / 12.0
        np.cumsum(row, out=row)
        row *= h / 2.0
        if k > 0:
            row -= (h * h / 12.0) * (f[k - 2, 1:] if k > 1 else x[1:] - x[0])
            continue
        row[1:] -= (h / 24.0) * (3.0 * x[2:] - 4.0 * x[1:-1] + x[:-2])
        row[0] = (h * (9.0 * x[0] + 19.0 * x[1] - 5.0 * x[2] + x[3]) / 24.0
                  if len(x) > 3 else h * (5.0 * x[0] + 8.0 * x[1] - x[2]) / 12.0)
    return f


def eta_weights(d, tau):
    """The record stage's weights tau^j / j!, j < d, shape (d, len(tau)),
    refused over 2^25 entries."""
    grid_size(d * len(tau))
    w = np.empty((d, len(tau)))
    w[0] = 1.0
    for j in range(1, d):
        w[j] = w[j - 1] * tau / j
    return w


def eta_levels(times, values, f, t_eval) -> np.ndarray:
    """The record stage: each row f_k of f, the iterated integrals of values,
    at t_eval, shape (len(f), len(t_eval)): a view of f on a run of sample
    times, else the O(h^4) cubic Hermite interpolant with the exact slope
    f_{k-1} (f_0 = values), which is the node value on a sample time.
    Entries are computed alone: the first k rows equal f[:k]'s."""
    t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))
    if np.shape(f)[1:] != np.shape(times):
        raise ValueError("f must hold one value per sample time")
    t1 = times[0]
    if np.any(t_eval < t1 - 1e-12 * max(1.0, abs(t1))):
        raise ValueError("eta-state predictions are defined for t >= t1 only")
    if np.any(t_eval > times[-1] + 1e-9):
        raise ValueError("f trajectories do not reach the requested time")
    m = len(t_eval)
    i0 = int(np.searchsorted(times, t_eval[0])) if m else 0
    if np.array_equal(times[i0:i0 + m], t_eval):
        return f[:, i0:i0 + m]
    j = np.clip(np.searchsorted(times, t_eval, side="right") - 1, 0,
                len(times) - 2)
    step = times[j + 1] - times[j]
    s = (t_eval - times[j]) / step
    lo, hi, x = f[:, j], f[:, j + 1], np.asarray(values, dtype=float)
    h01, h10, h11 = (s * s * (3.0 - 2.0 * s), s * (1.0 - s) ** 2 * step,
                     s * s * (s - 1.0) * step)
    out = lo * (1.0 - h01) + hi * h01
    out[0] += x[j] * h10 + x[j + 1] * h11
    out[1:] += lo[:-1] * h10 + hi[:-1] * h11
    return out


def _hankel(a):
    # H[l, j] = a_{l+j}, zero where l + j >= d: the symmetric map from the
    # constants eta to the Taylor coefficients c = H eta of the polynomial
    # part
    d = len(a)
    padded = np.concatenate((a, np.zeros(d)))
    return padded[np.add.outer(np.arange(d), np.arange(d))]


def _usable_eta(eta, d):
    # the constants as floats, refused unless they are d finite numbers
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (d,):
        raise ValueError("eta must have one entry per coefficient")
    if not np.all(np.isfinite(eta)):
        raise ValueError("eta must be finite")
    return eta


def eta_sum(a, eta, levels, weights) -> np.ndarray:
    """The approximant stage: sum_k a_k x_k(t), x_k = eta_k + int_{t1}^t
    x_{k-1} unrolled, as a @ levels[:d] + c @ weights[:d], d = len(a), with
    levels and weights from eta_levels and eta_weights at the same times, to
    any degree >= d, and c_j = sum_l a_{l+j} eta_l, in O(d m) for m times.
    eta must hold d finite entries.  c is summed in ascending l, so at t1
    the result is sum_k a_k eta_k to the bit; elsewhere it is within 1e-14
    of the sum of the magnitudes of the per-k double sum's terms (tested)."""
    d = len(a)
    eta = _usable_eta(eta, d)
    # cumsum adds the terms of each c_j in ascending l, an order that
    # H @ eta does not promise
    c = np.cumsum(_hankel(a) * eta[:, None], axis=0)[-1]
    return a @ levels[:d] + c @ weights[:d]


@dataclass(frozen=True, eq=False)
class EtaFit:
    eta: np.ndarray
    residual: np.ndarray
    cond: float


def fit_eta(a, times, values, f, fit_times, zeta) -> EtaFit:
    """Estimate the reference constants from finite observations on the
    sampled window (times, values), whose first sample is t1 and whose
    iterated integrals f (iterated_integrals, to degree >= d) are given.

    Solves M etabar = zeta - phi where
    M[m, l] = sum_{k>=l} a_k (t_m - t1)^(k-l)/(k-l)! and
    phi_m = sum_k a_k f_k(t_m).  Square systems (len(fit_times) == d)
    reproduce the observations exactly at the fit points; overdetermined ones
    are solved in least squares.  Columns are norm-equilibrated (M mixes
    factorial scales); the condition estimate of the equilibrated system is
    always reported and a warning is issued above 1e12.  A fit whose
    constants are not finite is refused as eta_sum refuses them.

    The caller must choose fit_times inside the observable window, i.e.
    t_m + T within the recorded samples when zeta_m = x(t_m + T).
    """
    a = np.asarray(a, dtype=float)
    d = len(a)
    times = np.asarray(times, dtype=float)
    t1 = times[0]
    fit_times = np.asarray(fit_times, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if len(fit_times) < d:
        raise ValueError(f"need at least d={d} fit times, got {len(fit_times)}")
    if zeta.shape != fit_times.shape:
        raise ValueError("zeta must match fit_times")
    if np.any(np.diff(fit_times) <= 0) or fit_times[0] <= t1:
        raise ValueError("fit times must be strictly increasing and > t1")

    # M[m, l] = sum_j (t_m - t1)^j / j! * a_{l+j}
    M = eta_weights(d, fit_times - t1).T @ _hankel(a)
    phi = a @ eta_levels(times, values, f, fit_times)[:d]
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
    return EtaFit(eta=_usable_eta(eta, d), residual=residual, cond=cond)
