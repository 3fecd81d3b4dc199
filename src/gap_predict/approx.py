"""Rational-polynomial approximation of the tapered complex sinusoid.

Builds psi(i*w) = sum_k a_k (i*w)^(-k), a real-coefficient polynomial in
1/(i*w), approximating exp(i*w*T) * r_nu(w) uniformly on |w| >= omega_gap,
and certifies the achieved sup error once, on a grid CERT_DENSITY times as
dense as the fit grid.

The fit is a parity-constrained discrete least squares in Chebyshev
polynomials of s = omega_gap/w: the real part of the target (cos * r_nu,
even) is matched with T_2m(s) - T_2m(0), the imaginary part (sin * r_nu,
odd) with T_2m+1(s).  Expanded in powers of u = 1/w they give the parity
coefficients gamma_c (of cos, even k) and gamma_s (of sin, odd k); since
(i*w)^(-k) = i^(-k) w^(-k), a sign flip gives the real a_k, exactly:

    k = 2m:     a_k = (-1)^m * gamma_c_k
    k = 2m+1:   a_k = -(-1)^m * gamma_s_k
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .signal import grid_size
from .taper import TaperSpec, eval_taper, taper_from_dict, taper_to_dict

__all__ = ["Approximant", "CERT_DENSITY", "chebyshev_grid", "fit_parity_ls",
           "eval_psi", "certify_sup_error", "fit_approximant",
           "approximant_to_dict", "approximant_from_dict", "save_approximant",
           "load_approximant"]


@dataclass(frozen=True, eq=False)
class Approximant:
    """An immutable fitted approximant with its certified sup error.

    a[k-1] holds the coefficient of (i*w)^(-k).
    """

    T: float
    omega_gap: float
    taper: TaperSpec
    d: int
    a: np.ndarray
    eps2: float
    fit_nodes: int

    def __post_init__(self):
        if not np.all(np.isfinite([self.T, self.omega_gap, self.eps2])):
            raise ValueError("T, omega_gap and eps2 must be finite")
        if self.T <= 0 or self.omega_gap <= 0:
            raise ValueError("T and omega_gap must be positive")
        if self.d < 1:
            raise ValueError("degree d must be a positive integer")
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        if a.shape != (self.d,):
            raise ValueError(f"a must have length d={self.d}")
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficients a must be finite")
        if self.eps2 < 0:
            raise ValueError("eps2 must be nonnegative")


# certification grid density, in multiples of the fit grid's node spacing
CERT_DENSITY = 16


def _half_grid(omega_gap: float, n: int) -> np.ndarray:
    # the w > 0 half of chebyshev_grid(omega_gap, n), ascending, bit for bit
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if not omega_gap > 0:
        raise ValueError("omega_gap must be positive")
    j = np.arange(n - 1, 0, -2)
    return 1.0 / (np.sin(0.5 * np.pi * j / (n - 1)) / omega_gap)


def chebyshev_grid(omega_gap: float, n: int) -> np.ndarray:
    """Frequencies w_j = 1/u_j for the n Chebyshev (extreme) points u_j of
    [-1/omega_gap, 1/omega_gap], with the u = 0 node dropped when n is odd.

    The points are generated through a sine identity so the grid is exactly
    symmetric in sign; all returned frequencies satisfy |w| >= omega_gap.
    """
    w = _half_grid(omega_gap, n)
    return np.concatenate((-w[::-1], w))


def _chebyshev(s, d: int) -> np.ndarray:
    # T_0(s), ..., T_d(s) by the three-term recurrence, one row per degree
    t = np.empty((d + 1, len(s)))
    t[0], t[1] = 1.0, s
    two_s = 2.0 * s
    for j in range(1, d):
        np.multiply(two_s, t[j], out=t[j + 1])
        t[j + 1] -= t[j - 1]
    return t


def _monomials(d: int) -> np.ndarray:
    # m[j, k] is the coefficient of s^k in T_j(s), so m[:, 0] holds T_j(0)
    m = np.zeros((d + 1, d + 1))
    m[0, 0] = m[1, 1] = 1.0
    for j in range(1, d):
        m[j + 1, 1:] = 2.0 * m[j, :-1]
        m[j + 1] -= m[j - 1]
    return m


def fit_parity_ls(T: float, taper: TaperSpec, omega_gap: float, d: int,
                  grid: np.ndarray):
    """Parity-constrained least-squares fit on a frequency grid.

    Matches sum_m c_2m (T_2m(s) - T_2m(0)) to cos(T*w) * r_nu(w) and
    sum_m c_2m+1 T_2m+1(s) to sin(T*w) * r_nu(w), s = omega_gap/w, degrees
    up to d.  Nodes at w and -w have equal squared residuals in both
    systems, so each distinct |w| is one row weighted by sqrt(multiplicity),
    which keeps the grid's own minimizer.  Returns the length-d vector a.
    """
    if not np.isfinite(T):
        raise ValueError("T must be finite")
    if d < 2:
        raise ValueError("d must be >= 2: d=1 leaves the even-parity target "
                         "with no basis function")
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 4 * d:
        raise ValueError(f"grid has {len(grid)} nodes; need at least 4*d = {4 * d}")
    w, count = np.unique(np.abs(grid), return_counts=True)
    weight = np.sqrt(count)
    r = eval_taper(taper, w) * weight
    mono = _monomials(d)
    # T_j(s) - T_j(0): the odd T_j vanish at 0, so only the even columns move
    cheb = (_chebyshev(omega_gap / w, d) - mono[:, :1]) * weight
    c = np.zeros(d + 1)
    for j0, part in ((2, np.cos), (1, np.sin)):
        A = cheb[j0::2].T
        c[j0::2], _, rank, _ = np.linalg.lstsq(A, part(T * w) * r, rcond=None)
        if rank < A.shape[1]:
            raise ValueError(f"rank-deficient least-squares system (rank "
                             f"{rank} < {A.shape[1]}); the fit grid is degenerate")
    # the even columns' constants cancel, so the s^0 term is dropped
    k = np.arange(1, d + 1)
    return (-1.0) ** ((k + 1) // 2) * omega_gap ** k * (c @ mono)[1:]


def _psi_parts(a, u):
    # Re and Im of psi = sum_k a_k v^k with v = 1/(i*w) = -i*u, by Horner in
    # reals: (x, y) <- (y*u, -(x + a_k)*u) for k = d down to 1, in place
    x, y, neg_u = np.zeros_like(u), np.zeros_like(u), -u
    for coeff in a[::-1]:
        x += coeff
        x *= neg_u
        y *= u
        x, y = y, x
    return x, y


def eval_psi(a, omega):
    """Evaluate psi(i*omega) = sum_k a_k (i*omega)^(-k) by Horner recurrence
    in 1/(i*omega).  omega may be a scalar or an array; omega = 0 is rejected
    (it is a pole of every basis function).
    """
    om = np.asarray(omega, dtype=float)
    if np.any(om == 0.0):
        raise ValueError("psi has a pole at omega = 0")
    x, y = _psi_parts(np.asarray(a, dtype=float), 1.0 / om)
    return complex(x + 1j * y) if np.ndim(omega) == 0 else x + 1j * y


def certify_sup_error(T: float, omega_gap: float, taper: TaperSpec, a,
                      fit_nodes: int,
                      dense_factor: int = CERT_DENSITY) -> float:
    """Grid-certified sup of |exp(i*w*T) r_nu(w) - psi(i*w)| over |w| >= gap.

    The evaluation set is a Chebyshev grid in u = 1/w with
    dense_factor*(fit_nodes-1)+1 nodes, which contains the fit grid; the
    error is even in w, so its w > 0 half is evaluated, in real arithmetic.
    Beyond the innermost node (|u| <= u_min, i.e. the far frequency tail)
    the error is folded in through the monotone bound
    sum_k |a_k| u_min^k + r_nu(1/u_min); both target and psi vanish at u = 0.
    """
    a = np.asarray(a, dtype=float)
    if dense_factor < 1:
        raise ValueError("dense_factor must be >= 1")
    w = _half_grid(omega_gap, dense_factor * (fit_nodes - 1) + 1)
    r = eval_taper(taper, w)
    x, y = _psi_parts(a, 1.0 / w)
    err = np.hypot(np.cos(w * T) * r - x, np.sin(w * T) * r - y)
    u_min = 1.0 / w[-1]
    tail = float(np.sum(np.abs(a) * u_min ** np.arange(1, len(a) + 1)))
    tail += float(eval_taper(taper, 1.0 / u_min))
    return max(float(err.max()), tail)


def fit_approximant(T: float, omega_gap: float, taper: TaperSpec, d: int,
                    fit_nodes: int | None = None) -> Approximant:
    """Fit and certify an approximant; pure function of its arguments.

    fit_nodes defaults to max(8*d, 64), at least 4x oversampling of the
    largest basis function.  eps2 is certified once, at CERT_DENSITY.  A
    certification grid or a fit matrix (fit_nodes//2 half-grid rows x d + 1
    Chebyshev columns) over grid_size's limit is refused before either is
    made.
    """
    if fit_nodes is None:
        fit_nodes = max(8 * d, 64)
    grid_size(CERT_DENSITY * (fit_nodes - 1) + 1)
    grid_size(fit_nodes // 2 * (d + 1))
    grid = chebyshev_grid(omega_gap, fit_nodes)
    a = fit_parity_ls(T, taper, omega_gap, d, grid)
    eps2 = certify_sup_error(T, omega_gap, taper, a, fit_nodes, CERT_DENSITY)
    return Approximant(T=T, omega_gap=omega_gap, taper=taper, d=d, a=a,
                       eps2=eps2, fit_nodes=fit_nodes)


def approximant_to_dict(approx: Approximant) -> dict:
    return {
        "T": approx.T,
        "omega_gap": approx.omega_gap,
        "taper": taper_to_dict(approx.taper),
        "d": approx.d,
        "a": approx.a.tolist(),
        "eps2": approx.eps2,
        "fit_nodes": approx.fit_nodes,
    }


def approximant_from_dict(data: dict) -> Approximant:
    return Approximant(
        T=float(data["T"]),
        omega_gap=float(data["omega_gap"]),
        taper=taper_from_dict(data["taper"]),
        d=int(data["d"]),
        a=np.asarray(data["a"], dtype=float),
        eps2=float(data["eps2"]),
        fit_nodes=int(data["fit_nodes"]),
    )


def save_approximant(approx: Approximant, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(approximant_to_dict(approx), fh, indent=2)
        fh.write("\n")


def load_approximant(path) -> Approximant:
    with open(path, "r", encoding="utf-8") as fh:
        return approximant_from_dict(json.load(fh))
