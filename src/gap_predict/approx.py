"""Rational-polynomial approximation of the tapered complex sinusoid.

Builds psi(i*w), a real polynomial in v = 1/(i*w) approximating
exp(i*w*T) * r_nu(w) uniformly on |w| >= omega_gap, and certifies its sup
error once, on a grid CERT_DENSITY times as dense as the fit grid.  psi is
stored as its Chebyshev coefficients c_0..c_d (c_0 = 0):

    psi = sum_j sigma_j c_j (P_j(v) - P_j(0)),   sigma_j = (-1)^ceil(j/2),

P_j(v) = i^-j T_j(i*omega_gap*v): P_0 = 1, P_1 = omega_gap*v and
P_{j+1} = 2*omega_gap*v*P_j + P_{j-1}.  With s = omega_gap/w, Re psi is
sum_{even j} c_j (T_j(s) - T_j(0)) and Im psi is sum_{odd j} c_j T_j(s),
and |T_j(s)| <= 1 on the spectrum, so nothing cancels.  The fit is a
parity-constrained least squares in those columns on the w > 0 half of a
sign-symmetric Chebyshev grid in u = 1/w: every CERT_DENSITY-th node of
the certificate's, whose target it reads there.  fit_approximants is the one
fit and certificate, for several tapers at one degree: the grid, the
columns, the target phase and the certificate's rows depend on d alone and
are built once, and each taper takes only its own target, solves and
products with the rows, so its fit is bit for bit the one it gets alone;
fit_approximant is its one-taper call.  The JSON file holds T, omega_gap,
taper, d, c, eps2 and, for its readers, a: the monomial coefficients of
v^k, a_k = sigma_k omega_gap^k (c @ M)_k for the monomial matrix M of the
T_j, which nothing in the package reads.  Their terms grow like 2^k, so a
loses digits past d ~ 40 where c does not.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .signal import _chebyshev, check_gap, grid_size
from .taper import TaperSpec, eval_taper, taper_from_dict, taper_to_dict

__all__ = ["Approximant", "CERT_DENSITY", "fit_approximant",
           "fit_approximants", "approximant_to_dict", "approximant_from_dict",
           "save_approximant", "load_approximant"]


@dataclass(frozen=True, eq=False)
class Approximant:
    """An immutable fitted approximant: the Chebyshev coefficients c_j,
    j = 0..d (module docstring), and eps2, its certified sup error."""

    T: float
    omega_gap: float
    taper: TaperSpec
    d: int
    c: np.ndarray
    eps2: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.T, self.eps2])):
            raise ValueError("T and eps2 must be finite")
        if self.T <= 0:
            raise ValueError("T must be positive")
        check_gap(self.omega_gap)
        if self.d < 2:
            # d = 1 leaves the even part with no basis function
            raise ValueError(f"degree d must be an integer >= 2, got {self.d}")
        c = np.asarray(self.c, dtype=float)
        object.__setattr__(self, "c", c)
        if c.shape != (self.d + 1,):
            raise ValueError(f"c must have length d + 1 = {self.d + 1}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients c must be finite")
        if self.eps2 < 0:
            raise ValueError("eps2 must be nonnegative")

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """sigma_j c_j, j = 0..d: the weights of the realization's levels,
        computed at the first access and kept, read-only, for every later
        one."""
        weights = _sigma(self.d) * self.c
        weights.flags.writeable = False
        return weights


# certification grid density, in multiples of the fit grid's node spacing
CERT_DENSITY = 16
# Chebyshev row entries the certificate builds at a time
_EVAL_BLOCK = 1 << 20


def _half_grid(omega_gap: float, n: int) -> np.ndarray:
    # w = 1/u, ascending, for the u > 0 half of the n Chebyshev (extreme)
    # points u of [-1/omega_gap, 1/omega_gap], by the sine identity; the
    # u = 0 node of an odd n is dropped
    check_gap(omega_gap)
    j = np.arange(n - 1, 0, -2)
    return 1.0 / (np.sin(0.5 * np.pi * j / (n - 1)) / omega_gap)


def _monomials(d: int) -> np.ndarray:
    # m[j, k] is the coefficient of s^k in T_j(s), so m[:, 0] holds T_j(0)
    m = np.zeros((d + 1, d + 1))
    m[0, 0] = m[1:2, 1:2] = 1.0  # T_0 = 1 and, when d >= 1, T_1 = s
    for j in range(1, d):
        m[j + 1, 1:] = 2.0 * m[j, :-1]
        m[j + 1] -= m[j - 1]
    return m


def _sigma(d: int) -> np.ndarray:
    # sigma_j = (-1)^ceil(j/2), j = 0..d
    return (-1.0) ** ((np.arange(d + 1) + 1) // 2)


def fit_approximants(T: float, omega_gap: float, tapers,
                     d: int) -> list:
    """fit_approximant for each taper of a list, at one degree d.

    The certification grid with exp(i*w*T), the fit's columns on its every
    CERT_DENSITY-th node, and each block of the certificate's rows are built
    once for all the tapers; each taper takes its own target, two
    least-squares solves and products with the rows, so its c and eps2 are
    bit for bit those of fitting it alone.  Every refusal depends on
    (T, omega_gap, d) alone and comes before any fit, so a list raises
    exactly when each of its tapers would alone.
    """
    n_fit = max(8 * d, 64)
    n_cert, rows = CERT_DENSITY * (n_fit - 1) + 1, n_fit // 2
    grid_size(n_cert, f"d={d}: the certification grid of {n_cert} nodes")
    grid_size(rows * (d + 1), f"d={d}: the fit matrix of {rows} x {d + 1} "
              "entries")
    # the certification half grid, the fit grid at every CERT_DENSITY-th
    # node; the error is even in w, so its w > 0 half is evaluated in reals
    w_cert = _half_grid(omega_gap, n_cert)
    if not np.isfinite(T):
        raise ValueError("T must be finite")
    w_max = float(w_cert[-1])
    if not np.isfinite(float(T) * w_max):  # a float product: no warning
        raise ValueError(f"T={T!r} is too large: the phase T*w overflows on "
                         f"the certification grid, whose largest w is "
                         f"{w_max!r}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got d={d}: a degree below 2 "
                         "leaves the even-parity target with no basis "
                         "function")
    if T <= 0:
        raise ValueError("T must be positive")
    phase = np.exp(1j * w_cert * T)
    targets = [phase * eval_taper(taper, w_cert) for taper in tapers]
    # the fit matches sum_m c_2m (T_2m(s) - T_2m(0)) to Re target and
    # sum_m c_2m+1 T_2m+1(s) to Im target, s = omega_gap/w.  Nodes at w and
    # -w have equal squared residuals in both systems, so the w > 0 half has
    # the sign-symmetric grid's minimizer.  T_2m(0) = (-1)^m and the odd T_j
    # vanish at 0, so only the even columns move
    s = omega_gap / w_cert
    cheb = _chebyshev(s[::CERT_DENSITY], d)
    cheb[::2] -= (-1.0) ** np.arange(d // 2 + 1)[:, None]
    cs = []
    for target in targets:
        c = np.zeros(d + 1)
        for j0, part in ((2, target.real), (1, target.imag)):
            c[j0::2] = np.linalg.lstsq(cheb[j0::2].T, part[::CERT_DENSITY],
                                       rcond=None)[0]
        cs.append(c)
    # psi in reals on s (module docstring), from the rows of at most
    # _EVAL_BLOCK / (d + 1) nodes at a time; blocks of a multiple of 64
    # nodes put their seams on the products' vector lanes, so the sums equal
    # one block's bit for bit
    at_zero = [c[0::2] @ (-1.0) ** np.arange(d // 2 + 1) for c in cs]
    err = np.zeros(len(cs))
    step = max(64, _EVAL_BLOCK // (d + 1) & -64)
    for i in range(0, s.size, step):
        rows = _chebyshev(s[i:i + step], d)
        psi = np.empty(rows.shape[1], dtype=complex)
        for k, (c, target) in enumerate(zip(cs, targets)):
            psi.real = c[0::2] @ rows[0::2] - at_zero[k]
            psi.imag = c[1::2] @ rows[1::2]
            err[k] = np.maximum(err[k],
                                np.abs(target[i:i + step] - psi).max())
    # beyond the innermost node, 0 < s <= s_min, r_nu(w_max) bounds the
    # target and |psi'(0)| s + s^2 sum_j |c_j| j^2 / (1-s^2)^1.5 bounds psi
    # (Taylor, psi(0) = 0, |T_j''(t)| <= j^2/(1-t^2) + |t|j/(1-t^2)^1.5),
    # with T_j'(0) = j (-1)^((j-1)/2) for odd j.  The grid has at least 1009
    # nodes, so s_min <= sin(pi/1008) and this stays below 2 sum_j |c_j|,
    # the bound on |psi| everywhere
    s_min, j = s[-1], np.arange(d + 1)
    slopes = j[1::2] * (-1.0) ** (j[1::2] // 2)
    fits = []
    for taper, c, grid_max in zip(tapers, cs, err):
        tail = (abs(float(c[1::2] @ slopes)) * s_min
                + s_min ** 2 * float(np.abs(c) @ j ** 2)
                / (1.0 - s_min ** 2) ** 1.5
                + float(eval_taper(taper, w_max)))
        fits.append(Approximant(T=T, omega_gap=omega_gap, taper=taper, d=d,
                                c=c, eps2=max(float(grid_max), tail)))
    return fits


def fit_approximant(T: float, omega_gap: float, taper: TaperSpec,
                    d: int) -> Approximant:
    """Fit and certify an approximant; pure function of its arguments.

    The fit grid follows d, so no approximant stores it: max(8*d, 64)
    nodes, at least 4x oversampling of the largest basis function.  eps2 is
    certified once, at CERT_DENSITY.  A certification grid or a fit matrix
    (half the nodes as half-grid rows x d + 1 Chebyshev columns) over
    grid_size's limit is refused, by name, before either is made, as is a T
    that is not positive or whose phase T*w overflows on the certification
    grid.
    """
    return fit_approximants(T, omega_gap, [taper], d)[0]


def approximant_to_dict(approx: Approximant) -> dict:
    """The JSON form: c, and a for monomial readers (module docstring)."""
    a = (_sigma(approx.d)[1:] * approx.omega_gap ** np.arange(1, approx.d + 1)
         * (approx.c @ _monomials(approx.d))[1:])
    return {
        "T": approx.T,
        "omega_gap": approx.omega_gap,
        "taper": taper_to_dict(approx.taper),
        "d": approx.d,
        "c": approx.c.tolist(),
        "a": a.tolist(),
        "eps2": approx.eps2,
    }


def approximant_from_dict(data: dict) -> Approximant:
    """Read the JSON form: c is the approximant; a and other keys go unread.
    A d that is not a whole number (8.5, not 8.0) is refused."""
    d = data["d"]
    if int(d) != d:
        raise ValueError(f"d must be a whole number, got {d!r}")
    return Approximant(
        T=float(data["T"]),
        omega_gap=float(data["omega_gap"]),
        taper=taper_from_dict(data["taper"]),
        d=int(d),
        c=np.asarray(data["c"], dtype=float),
        eps2=float(data["eps2"]),
    )


def save_approximant(approx: Approximant, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(approximant_to_dict(approx), fh, indent=2)
        fh.write("\n")


def load_approximant(path) -> Approximant:
    with open(path, "r", encoding="utf-8") as fh:
        return approximant_from_dict(json.load(fh))
