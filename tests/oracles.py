"""Reference oracles for the spectral integrals of gap_predict.signal,
the certified sup error of gap_predict.approx and the report files of
gap_predict.harness, and the spectrum and approximant writers the tests
build their inputs with.

Each bump integral is evaluated by scipy's adaptive QUADPACK at absolute
tolerance 1e-10, one point at a time, independently of the package's fixed
Gauss-Legendre bump rule.  Tones evaluate in closed form.  The certified sup
error of an approximant is recomputed on the full frequency grid in complex
arithmetic.
"""

import json
import math

import numpy as np
from numpy.polynomial.chebyshev import (cheb2poly, chebder, chebval,
                                        chebvander, poly2cheb)
from scipy.integrate import quad

from gap_predict.signal import _bump_profile
from gap_predict.taper import eval_taper

QUAD_ABS_TOL = 1e-10


def _quad(f, lo, hi, **kwargs):
    val, abserr = quad(f, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=0.0,
                       limit=10_000, **kwargs)
    assert abserr <= 10.0 * QUAD_ABS_TOL, f"quad reached only {abserr:.3e}"
    return val


def bump_density(spec, omega):
    """X(i*omega) of a bump spec: every bump's profile, summed."""
    om = np.abs(np.asarray(omega, dtype=float))
    return sum(b.amplitude * _bump_profile((om - b.center) / b.half_width)
               for b in spec.bumps)


def _support_quad(spec, f):
    # int_0^inf f(w) |X(i*w)| dw, split at every bump edge
    edges = sorted({b.center - b.half_width for b in spec.bumps}
                   | {b.center + b.half_width for b in spec.bumps})
    return _quad(lambda om: f(om) * abs(bump_density(spec, om)),
                 edges[0], edges[-1], points=edges)


def _per_bump_quad(spec, f, **kwargs):
    # sum over bumps of int f(w) X_b(i*w) dw over each bump's own support
    acc = 0.0
    for b in spec.bumps:
        acc += _quad(lambda om: f(om) * b.amplitude
                     * _bump_profile((om - b.center) / b.half_width),
                     b.center - b.half_width, b.center + b.half_width,
                     **kwargs)
    return acc


def sample(spec, t):
    """x(t): sum_j Re[c_j exp(i w_j t)] for tones, (1/pi) int X cos(w t) dw
    for bumps."""
    t = float(t)
    if spec.kind == "tones":
        acc = 0.0
        for tone in spec.tones:
            acc += (tone.amplitude.real * np.cos(tone.omega * t)
                    - tone.amplitude.imag * np.sin(tone.omega * t))
        return acc
    if not spec.bumps:
        return 0.0
    return _per_bump_quad(spec, lambda om: 1.0, weight="cos", wvar=t) / np.pi


def l1_budget(spec):
    """L1 mass of the spectrum over both signs of omega; 2 sum_j |c_j| for
    tones."""
    if spec.kind == "tones":
        return 2.0 * sum(abs(t.amplitude) for t in spec.tones)
    if not spec.bumps:
        return 0.0
    return 2.0 * _support_quad(spec, lambda om: 1.0)


def epsilon1(spec, taper):
    """2 int (1 - r_nu(w)) |X(i*w)| dw for a bump spec."""
    return 2.0 * _support_quad(
        spec, lambda om: 1.0 - float(eval_taper(taper, om)))


def exact_etaP(spec, omega_gap, j, t):
    """(1/pi) int X(i*w) Re[P_j(v) v e^{iwt}] dw for a bump spec, v = 1/(i*w):
    P_j(v) = i^-j T_j(s), s = omega_gap/w, so the integrand is
    w^-1 T_j(s) cos(w t - (j + 1) pi/2), one pure cos or sin branch."""
    k = j + 1
    if k % 2 == 0:
        weight, sign = "cos", (-1.0) ** (k // 2)
    else:
        weight, sign = "sin", (-1.0) ** ((k - 1) // 2)
    cheb = np.zeros(j + 1)
    cheb[j] = 1.0
    return sign * _per_bump_quad(
        spec, lambda om: chebval(omega_gap / om, cheb) / om, weight=weight,
        wvar=float(t)) / np.pi


def _parts(c):
    # c split into its even and odd Chebyshev series
    j = np.arange(len(c))
    return np.where(j % 2 == 0, c, 0.0), np.where(j % 2 == 1, c, 0.0)


def psi(c, omega_gap, omega):
    """psi(i*omega) for omega != 0: sum_{even j} c_j (T_j(s) - T_j(0)) +
    i sum_{odd j} c_j T_j(s), s = omega_gap/omega, by numpy's Chebyshev
    series in complex arithmetic."""
    even, odd = _parts(np.asarray(c, dtype=float))
    s = omega_gap / np.asarray(omega, dtype=float)
    return (chebval(s, even) - chebval(0.0, even)) + 1j * chebval(s, odd)


def psi_by_complex_recurrence(c, omega_gap, omega):
    """psi(i*omega) as sum_j sigma_j c_j (P_j(v) - P_j(0)) in complex
    arithmetic, v = 1/(i*omega), P_0 = 1, P_1 = omega_gap*v,
    P_{j+1} = 2*omega_gap*v*P_j + P_{j-1}."""
    v = 1.0 / (1j * np.asarray(omega, dtype=float))
    p_prev, p = np.ones_like(v), omega_gap * v
    p0_prev, p0 = 1.0, 0.0
    out = np.zeros_like(v)
    for j in range(1, len(c)):
        out += (-1.0) ** ((j + 1) // 2) * c[j] * (p - p0)
        p_prev, p = p, 2.0 * omega_gap * v * p + p_prev
        p0_prev, p0 = p0, p0_prev
    return out


def prediction(spec, c, omega_gap, t):
    """(1/pi) int X(i*w) Re[psi(i*w) e^{iwt}] dw for a bump spec, the exact
    output of psi = sum_{even j} c_j (T_j(s) - T_j(0)) +
    i sum_{odd j} c_j T_j(s), s = omega_gap/w, by numpy's Chebyshev
    series."""
    even, odd = _parts(np.asarray(c, dtype=float))
    t = float(t)
    re = _per_bump_quad(spec, lambda om: chebval(omega_gap / om, even)
                        - chebval(0.0, even), weight="cos", wvar=t)
    im = _per_bump_quad(spec, lambda om: chebval(omega_gap / om, odd),
                        weight="sin", wvar=t)
    return (re - im) / np.pi


def sign_symmetric_grid(omega_gap, n):
    """The frequencies w = 1/u, ascending, of the n Chebyshev (extreme)
    points u_k = cos(pi k/(n-1)) / omega_gap of [-1/omega_gap, 1/omega_gap],
    taken by the sine identity u_k = sin(pi/2 (n-1-2k)/(n-1)) / omega_gap
    so that the grid is symmetric in sign; the u = 0 node of an odd n is
    dropped."""
    m = np.arange(n - 1, -n, -2)
    u = np.sin(0.5 * np.pi * m[m != 0] / (n - 1)) / omega_gap
    return np.sort(1.0 / u)


def fit_nodes(d):
    """The node count of the fit grid at degree d, max(8d, 64): at least 4x
    oversampling of the largest basis function."""
    return max(8 * d, 64)


def least_squares_fit(T, taper, omega_gap, d, fit_nodes):
    """The c, c_0 = 0, that minimize sum |exp(i*w*T) r_nu(w) - psi(i*w)|^2
    over every node of sign_symmetric_grid(omega_gap, fit_nodes), psi =
    sum_{even j} c_j (T_j(s) - T_j(0)) + i sum_{odd j} c_j T_j(s),
    s = omega_gap/w: one real least-squares problem in the real and the
    imaginary parts, columns from numpy's Chebyshev Vandermonde matrix."""
    w = sign_symmetric_grid(omega_gap, fit_nodes)
    odd = np.arange(d + 1) % 2 == 1
    cheb = chebvander(omega_gap / w, d)
    re = np.where(odd, 0.0, cheb - chebvander(np.zeros(1), d))
    im = np.where(odd, cheb, 0.0)
    target = np.exp(1j * w * T) * eval_taper(taper, w)
    c = np.zeros(d + 1)
    c[1:] = np.linalg.lstsq(np.vstack((re, im))[:, 1:],
                            np.concatenate((target.real, target.imag)),
                            rcond=None)[0]
    return c


def certified_sup_error(T, omega_gap, taper, c, fit_nodes, dense_factor):
    """max |exp(i*w*T) r_nu(w) - psi(i*w)| over the whole sign-symmetric
    Chebyshev grid of dense_factor*(fit_nodes-1)+1 nodes, psi taken by
    numpy's Chebyshev series in complex arithmetic, or the far-tail term
    |psi'(0)| s + s^2 sum_j |c_j| j^2 / (1-s^2)^1.5 + r_nu(omega_gap/s) at
    the innermost node's s (2 sum_j |c_j| + r_nu where s = 1) where that is
    larger."""
    om = sign_symmetric_grid(omega_gap, dense_factor * (fit_nodes - 1) + 1)
    c = np.asarray(c, dtype=float)
    j = np.arange(len(c))
    odd = _parts(c)[1]
    err = np.abs(np.exp(1j * T * om) * eval_taper(taper, om)
                 - psi(c, omega_gap, om))
    w_max = np.abs(om).max()
    s_min = omega_gap / w_max
    tail = 2.0 * np.abs(c).sum()
    if s_min < 1.0:
        slope = abs(chebval(0.0, chebder(odd))) if len(c) > 1 else 0.0
        tail = min(tail, slope * s_min + s_min ** 2 * (np.abs(c) @ j ** 2)
                   / (1.0 - s_min ** 2) ** 1.5)
    return max(float(err.max()), float(tail + eval_taper(taper, w_max)))


def spectrum_to_dict(spec):
    """The JSON form gap_predict.signal.spectrum_from_dict reads."""
    out = {"omega_gap": spec.omega_gap, "kind": spec.kind}
    if spec.kind == "tones":
        out["tones"] = [{"omega": t.omega, "re": t.amplitude.real,
                         "im": t.amplitude.imag} for t in spec.tones]
    else:
        out["bumps"] = [{"center": b.center, "half_width": b.half_width,
                         "amplitude": b.amplitude} for b in spec.bumps]
    return out


def save_spectrum(spec, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spectrum_to_dict(spec), fh, indent=2)
        fh.write("\n")


def chebyshev_from_monomial(a, omega_gap):
    """The c, c_0 = 0, of psi = sum_k a_k (i*w)^-k: with s = omega_gap/w,
    (i*w)^-k = (-i s/omega_gap)^k, so psi = sum_k sigma_k p_k s^k,
    p_k = a_k / (sigma_k omega_gap^k), sigma_k = (-1)^ceil(k/2) being the
    real or imaginary unit's sign, and c is numpy's Chebyshev series of
    the polynomial sum_k p_k s^k."""
    k = np.arange(1, len(a) + 1)
    sigma = (-1.0) ** ((k + 1) // 2)
    c = poly2cheb(np.concatenate(([0.0], np.asarray(a, float)
                                  / (sigma * float(omega_gap) ** k))))
    # poly2cheb drops trailing zeros
    c = np.pad(c, (0, len(a) + 1 - len(c)))
    c[0] = 0.0
    return c


def monomial_from_chebyshev(c, omega_gap):
    """The a of psi = sum_k a_k (i*w)^-k, k = 1..d, from its Chebyshev
    coefficients c: with gamma = numpy's power series of sum_j c_j T_j(s),
    psi = sum_k gamma_k s^k times 1 (even k) or i (odd k), and
    s^k = (omega_gap/w)^k = i^k omega_gap^k (i*w)^-k, so
    a_k = sigma_k gamma_k omega_gap^k, sigma_k = (-1)^ceil(k/2).  The inverse
    of chebyshev_from_monomial."""
    c = np.asarray(c, dtype=float)
    k = np.arange(1, len(c))
    # cheb2poly drops trailing zeros
    gamma = np.pad(cheb2poly(c), (0, len(c)))[1:len(c)]
    return (-1.0) ** ((k + 1) // 2) * gamma * float(omega_gap) ** k


def monomial_kernel(a, t):
    """K(t) = sum_k a_k t^(k-1)/(k-1)!, t >= 0: the inverse Laplace
    transform of psi = sum_k a_k (i*w)^-k, the convolution's kernel."""
    t = np.asarray(t, dtype=float)
    return sum(a_k * t ** k / math.factorial(k) for k, a_k in enumerate(a))


def gregory_weights(n, h):
    """Gregory's rule on n >= 3 samples of step h: the trapezoid's weights
    with the textbook end corrections (Fornberg, SIAM Review 63, 2021).
    From 6 samples on they run to fifth differences, 95/288, 317/240,
    23/30, 793/720 and 157/160 in place of 1/2, 1, 1, 1 and 1 at each end;
    on 3 to 5 samples to third differences, 3/8, 7/6 and 23/24.  Where the
    two ends' corrections overlap they add."""
    ends = ([95 / 288, 317 / 240, 23 / 30, 793 / 720, 157 / 160] if n >= 6
            else [3 / 8, 7 / 6, 23 / 24])
    correction = np.array(ends) - np.array([0.5] + [1.0] * (len(ends) - 1))
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    w[:len(ends)] += correction
    w[-len(ends):] += correction[::-1]
    return h * w


def sample_index(times, t):
    """Index of the sample time nearest each t, asserted to lie within
    1e-9 * max(1, |t|) of it: where the tests read levels off a record."""
    times, t = np.asarray(times, dtype=float), np.asarray(t, dtype=float)
    hi = np.clip(np.searchsorted(times, t), 1, len(times) - 1)
    idx = np.where(np.abs(times[hi - 1] - t) <= np.abs(times[hi] - t),
                   hi - 1, hi)
    assert np.all(np.abs(times[idx] - t)
                  <= 1e-9 * np.maximum(1.0, np.abs(t))), "t off the samples"
    return idx


def _fmt(value):
    # one report.csv field: a bool as true/false, an integer in decimal,
    # anything else as '%.17g'
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def report_csv(rows):
    """report.csv of a sweep's rows, each field formatted on its own by _fmt
    and joined by commas."""
    lines = ["spec,d,nu,eps1,eps2,bound_paper,bound_tones,sup_err,pass"]
    for row in rows:
        lines.append(",".join([
            row.spec, _fmt(row.d), _fmt(row.nu), _fmt(row.eps1),
            _fmt(row.eps2), _fmt(row.bound_paper), _fmt(row.bound_tones),
            _fmt(row.sup_err), _fmt(row.passed)]))
    return "\n".join(lines) + "\n"


def report_json(rows, verdict):
    """report.json of a sweep's rows and convergence verdict, the whole
    document through json's indent=2 encoder with sorted keys."""
    doc = {"rows": [vars(row) for row in rows],
           "failing_rows": [i for i, row in enumerate(rows) if not row.passed],
           "all_pass": all(row.passed for row in rows),
           "quadrature_step": rows.quadrature_step,
           "reference_time": rows.reference_time,
           "convergence": verdict}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
