"""Time-domain realizations of the gap-signal predictor psi (see approx).

* Convolution over a truncated history window, at every sample with a full
  window, for signals that decay into the past: the recurrence below with
  its constants forgotten.  Its kernel, the recurrence's response to an
  impulse, is weighted by the recurrence's own Gregory rule and grows like
  t^(d-1)/(d-1)!, so this form is a demonstration for small d.
* The recurrence in time.  v = 1/(i*w) is the antiderivative, so the levels
  y_0 = x, y_1 = omega_gap (etaP_0 + int_{t1}^t y_0) and
  y_{j+1} = 2 omega_gap (etaP_j + int_{t1}^t y_j) + y_{j-1} are P_j(v)
  applied to x, and the prediction is sum_j sigma_j c_j z_j with
  z_j = y_j - P_j(0) x (the x terms cancel).  Exact levels are bounded by
  the spectrum's mass, so nothing cancels at any degree.  etaP_j =
  (D^-1 y_j)(t1) comes from the spectrum (signal.exact_etaP).  A record
  alone fixes the prediction, not the constants: they enter it only as a
  polynomial of degree < d in t - t1, so predict_fitted fits to the
  observations' misfit the polynomial that realize_fitted adds to the
  prediction with etaP = 0, stored as its Chebyshev coefficients on the
  fit span.  Every eta path realizes at sample times only,
  through iterated_integrals, the one loop, and eta_sum.  Its integrals
  are Gregory's rule of order 6, Adams-Moulton increments with a 6-sample
  start-up (Hairer, Norsett & Wanner, Solving ODEs I, III.1); a record of
  4 or 5 samples takes order 4 and one of 3 Simpson's rule.  The loop
  takes a stack of records on one time grid, as a sweep's spectra share
  one, and realizes them in one pass: one convolution, one batched
  start-up product and one cumulative sum per level, each record's levels
  bit for bit those of its own call, where numpy's per-call overhead, not
  the arithmetic, dominates a level of a few thousand samples.
"""

from __future__ import annotations

import numpy as np

from .approx import Approximant
from .signal import _chebyshev, grid_size

__all__ = ["predict_convolution", "iterated_integrals", "eta_sum",
           "realize_fitted", "predict_fitted"]

# Gregory's rules as Adams-Moulton increments per unit step: order 6 on 6
# samples or more, the first four increments from y_0..y_5; order 4 on 4 or
# 5, the first two from y_0..y_3.  Each first row, reversed, is also every
# later increment's kernel.  Three samples take Simpson's two increments
_GREGORY = (np.array([[475.0, 1427.0, -798.0, 482.0, -173.0, 27.0],
                      [-27.0, 637.0, 1022.0, -258.0, 77.0, -11.0],
                      [11.0, -93.0, 802.0, 802.0, -93.0, 11.0],
                      [-11.0, 77.0, -258.0, 1022.0, 637.0, -27.0]]) / 1440.0,
            np.array([[9.0, 19.0, -5.0, 1.0],
                      [-1.0, 13.0, 13.0, -1.0]]) / 24.0)
_SIMPSON = np.array([[10.0, 16.0, -2.0], [-2.0, 16.0, 10.0]]) / 24.0


def _gregory_rows(n):
    # the increments of the highest-order rule that n >= 4 samples hold
    return next(rows for rows in _GREGORY if rows.shape[1] <= n)


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


def _gregory_weights(n, h):
    # w @ y is _gregory's last value on n >= 3 samples: h at every sample,
    # less, within k samples of either end, the part of the kernel row of
    # k + 1 taps that runs off that end.  short + short[::-1] mirrors bit for
    # bit.  From 6 samples on the ends are 95/288, 317/240, 23/30, 793/720
    # and 157/160; on 3 the order-4 row gives Simpson's [1, 4, 1] h/3
    row = _gregory_rows(max(n, 4))[0]
    k = len(row) - 1
    short = np.zeros(n)
    short[:k] = 1.0 - np.cumsum(row[:k])
    return (1.0 - (short + short[::-1])) * h


def predict_convolution(approx: Approximant, times, values,
                        history_length=None):
    """Gregory's-rule approximation of int_{t-L}^{t} K(t-tau) x(tau) dtau
    at every sample time t with a full window of L behind it, from one
    uniformly sampled record; a record with no such sample is refused.

    history_length L defaults to 10*T; it must be finite and is rejected
    below that guard, since the truncated convolution is meaningless with
    less history.  The kernel, the recurrence's impulse response, is realized
    on the lags by iterated_integrals and eta_sum and weighted once by the
    Gregory rule that iterated_integrals integrates with (symmetric, exact
    for quintics from 6 samples on, Simpson's on 3), and every output comes
    from one real-FFT convolution of that weighted kernel with the whole
    record: O(n log n) for n samples.

    The FFT's round-off scales with the largest window in the record, not
    with each output's own: the error of every output is within about
    1e-13 * max_j sum|wK * window_j| (tested).

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
    values = np.asarray(values, dtype=float)
    if values.shape != np.shape(times):
        raise ValueError("times and values must have equal length")
    m = len(values)
    # L / h may overflow; a window of m lags or more is refused either way
    n_lag = int(round(min(L / h, m)))
    if n_lag < 2:
        raise ValueError(f"history_length {L} spans fewer than 2 sample steps")
    if n_lag >= m:
        raise ValueError(f"record too short for history_length={L}")
    # the recurrence's prediction on a zero record after an impulse, which
    # puts a unit constant on every even level, is the kernel on the lags
    lags = h * np.arange(n_lag + 1)
    K = eta_sum(approx, iterated_integrals(lags, np.zeros(n_lag + 1), approx.d,
                                           approx.omega_gap,
                                           np.arange(approx.d) % 2 == 0))
    wK = _gregory_weights(n_lag + 1, h) * K
    # a circular convolution of length >= m wraps only into the first n_lag
    # entries, which hold no full window and are dropped.  The length is a
    # power of two or three times one, at least m and at most 1.5x
    n = min(1 << (m - 1).bit_length(), 3 << ((m - 1) // 3).bit_length())
    full = np.fft.irfft(np.fft.rfft(values, n) * np.fft.rfft(wK, n), n)
    tail = np.abs(K[-1] * values[:m - n_lag]) * (n_lag * h)
    return full[n_lag:m], tail


def _gregory(y, h, out, const, scale):
    # out[s] = scale * (const[s] + int_{t_0}^{t} y[s]) for each record s of
    # the (S, n) stack y, by Gregory's rule, O(h^6) and exact for quintics
    # on 6 samples or more: the cumsum of its increments, from k = 5 the
    # Adams-Moulton (h/1440)(27y_{k-5} - 173y_{k-4} + 482y_{k-3}
    # - 798y_{k-2} + 1427y_{k-1} + 475y_k); O(h^4) on 4 or 5.  One
    # convolution of the flattened stack, written from flat offset k, puts
    # each record's increments in place; the windows that straddle two
    # records land in the next one's first k columns, which its start-up
    # increments overwrite.  Those are one matrix-vector product per
    # record, batched, as a single record's are: one (S, k + 1) x (k + 1,
    # k - 1) matrix product sums in another order
    n = y.shape[1]
    rows = _gregory_rows(n) if n >= 4 else _SIMPSON
    if n >= 4:
        k = rows.shape[1] - 1  # the first increment the kernel row takes
        out.reshape(-1)[k:] = np.convolve(y.reshape(-1), rows[0] * (scale * h),
                                          "valid")
    out[:, 0] = scale * const
    out[:, 1:len(rows) + 1] = (rows @ y[:, :rows.shape[1], None])[..., 0] * (
        scale * h)
    np.add.accumulate(out, axis=1, out=out)


def _usable_etaP(etaP, d, records=None):
    # the constants as floats, refused unless they are d finite numbers, or
    # a (records, d) stack of them
    etaP = np.asarray(etaP, dtype=float)
    if records is not None and etaP.shape != (records, d):
        raise ValueError(f"etaP must hold {records} x {d} constants, one row "
                         f"of d = {d} per record, not {etaP.shape}")
    if records is None and etaP.shape != (d,):
        raise ValueError(f"etaP must have one entry per level above y_0 "
                         f"(d = {d}), not {etaP.size}")
    if not np.all(np.isfinite(etaP)):
        raise ValueError("etaP must be finite")
    return etaP


def iterated_integrals(times, values, d: int, omega_gap: float,
                       etaP, ref: int = 0) -> np.ndarray:
    """The levels z_0..z_d, shape (d + 1, len(times)), of the recurrence
    with the d constants etaP on the sampled window (times, values) from
    t1 = times[ref], by default its first sample: z_0 = 0,
    z_1 = omega_gap (etaP_0 + G x) and
    z_{j+1} = 2 omega_gap (etaP_j + G y_j) + z_{j-1}, y_j = z_j + x for even
    j and z_j for odd j, G Gregory's cumulative integral from t1 (O(h^6)
    on 6 samples or more), taken from times[0] less its value at t1.
    The first k + 1 rows are those of degree k.

    values of shape (S, len(times)), S records on the same times, with
    etaP of shape (S, d) give the levels of shape (d + 1, S, len(times)),
    each record's bit for bit those of its own call: a single record is
    the S = 1 case of the same loop.  A level array of more than 2^25
    entries is refused before it is made, naming S when it is over 1."""
    if d < 1:
        raise ValueError("d must be >= 1")
    h = _uniform_step(times)
    x = np.asarray(values, dtype=float)
    if x.shape[-1:] != np.shape(times) or x.ndim > 2:
        raise ValueError(f"values of shape {x.shape} are not records on the "
                         f"{len(times)} sample times")
    stacked = x.ndim == 2
    x = x.reshape(-1, x.shape[-1])
    S, n = x.shape
    etaP = _usable_etaP(etaP, d, S if stacked else None).reshape(S, d)
    grid_size((d + 1) * S * n, f"the recurrence's level array of {d + 1} x "
              + (f"{S} x {n} entries (S = {S} records)" if S > 1
                 else f"{n} entries"))
    z = np.zeros((d + 1, S, n))
    y, even = x, np.empty((S, n))
    for j in range(d):
        level = z[j + 1]
        scale = (2.0 if j else 1.0) * omega_gap
        _gregory(y, h, level, etaP[:, j], scale)
        if ref:
            level -= (level[:, ref] - scale * etaP[:, j])[:, None]
        if j > 1:
            level += z[j - 1]
        y = np.add(level, x, out=even) if j % 2 else level
    return z if stacked else z.reshape(d + 1, n)


def eta_sum(approx: Approximant, levels) -> np.ndarray:
    """The prediction sum_j sigma_j c_j z_j from levels to degree >= d (the
    first d + 1 rows are used), at whatever sample times they were taken:
    O(d m) for m times."""
    return approx.weights @ levels[:approx.d + 1]


def _phi_and_basis(approx, times, values, ref, span):
    # (phi, basis): the prediction with etaP = 0 from times[ref] and
    # T_0..T_{d-1} on the fit span mapped onto [-1, 1], one row per degree
    d = approx.d
    phi = eta_sum(approx, iterated_integrals(times, values, d,
                                             approx.omega_gap, np.zeros(d),
                                             ref))
    lo, hi = span
    return phi, _chebyshev((2.0 * times - (lo + hi)) / (hi - lo), d - 1)


def realize_fitted(approx: Approximant, times, values, ref, c, span):
    """The fitted prediction at every sample of the window (times, values):
    phi, the prediction with etaP = 0 from times[ref], plus the polynomial
    c @ T(u) of degree < d, T_0..T_{d-1} on the fit span (lo, hi) mapped
    onto [-1, 1], as predict_fitted fits it.  On a longer window from the
    same first sample, the same c, span and sample time of ref give the
    same levels bit for bit (Gregory's rule is prefix-exact), and so the
    same prediction but in the last few rows of the shorter window, which
    the matrix-vector products may round in BLAS's remainder loop: by a few
    ulps of phi."""
    y, basis = _phi_and_basis(approx, times, values, ref, span)
    y += c @ basis
    return y


def predict_fitted(approx: Approximant, times, values, idx, zeta):
    """(y, c, span, cond): the prediction at every sample of the window
    (times, values) fitted to observations zeta at its strictly increasing
    samples idx, zeta_m = x(times[idx_m] + T), realized as realize_fitted
    realizes it from the window's middle sample; the Chebyshev coefficients
    c of its polynomial part, the fit span (times[idx[0]], times[idx[-1]])
    and the condition number of the fit.

    The constants add to phi, the prediction with etaP = 0, a polynomial of
    degree < d in t - t1, and so does moving t1, so the fit is of that
    polynomial, not of the constants: one pass for phi from the window's
    middle sample, where its levels grow like (2 omega_gap |t - t1|)^j / j!
    over half the window instead of all of it, and the polynomial through
    zeta - phi[idx] (in least squares for more than d samples) in the
    Chebyshev basis on the fit span.  At samples spread like Chebyshev
    extreme points its cond is about 1.5, where the constants' grows past
    1e16 by d = 24."""
    span = (float(times[idx[0]]), float(times[idx[-1]]))
    y, basis = _phi_and_basis(approx, times, values, len(times) // 2, span)
    c, _, _, sv = np.linalg.lstsq(basis[:, idx].T, zeta - y[idx], rcond=None)
    y += c @ basis
    return y, c, span, float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
