"""Exact test signals whose Fourier transform vanishes on (-omega_gap, omega_gap).

Two spectrum kinds are supported.  Tones are spectral point masses with
closed-form time values; every downstream number is checkable by hand, but
tones fall outside the L1-spectrum class.  Bumps are smooth compactly
supported spectral densities X(i*w) = amp * exp(-1/(1-s^2)) for
s = (|w| - center)/half_width, mirrored to negative frequencies; they decay
faster than any polynomial in time and satisfy every integrability hypothesis
the polynomial-kernel predictor needs.

Tones are stored as positive-frequency representatives with complex
amplitudes; the conjugate partner is implicit, which makes conjugate symmetry
(and hence realness of all samples) unbreakable.  All specs are immutable and
every evaluation is pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len
from scipy.integrate import quad

from .taper import TaperSpec, eval_taper

__all__ = ["QuadratureError", "Tone", "Bump", "SpectrumSpec",
           "bump_density", "sample", "sample_grid", "l1_budget", "epsilon1",
           "select_nu", "exact_hk",
           "spectrum_to_dict", "spectrum_from_dict",
           "save_spectrum", "load_spectrum"]

# absolute tolerance of all spectral quadratures (deliberate overkill so
# signal error never pollutes predictor error measurements)
QUAD_ABS_TOL = 1e-10
QUAD_LIMIT = 10_000


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested absolute tolerance."""


@dataclass(frozen=True)
class Tone:
    """One spectral point mass at +omega (conjugate partner implicit)."""

    omega: float
    amplitude: complex


@dataclass(frozen=True)
class Bump:
    """One smooth spectral bump on [center - half_width, center + half_width],
    mirrored to negative frequencies."""

    center: float
    half_width: float
    amplitude: float


@dataclass(frozen=True)
class SpectrumSpec:
    """Exact description of a gap-spectrum test signal."""

    omega_gap: float
    kind: str
    tones: tuple = ()
    bumps: tuple = ()

    def __post_init__(self):
        if self.omega_gap <= 0:
            raise ValueError("omega_gap must be positive")
        if self.kind not in ("tones", "bump"):
            raise ValueError(f"kind must be 'tones' or 'bump', got {self.kind!r}")
        if self.kind == "tones" and self.bumps:
            raise ValueError("a tones spec cannot carry bumps")
        if self.kind == "bump" and self.tones:
            raise ValueError("a bump spec cannot carry tones")
        for tone in self.tones:
            if tone.omega < self.omega_gap:
                raise ValueError(
                    f"tone at omega={tone.omega} falls inside the spectral gap "
                    f"(-{self.omega_gap}, {self.omega_gap})")
        for bump in self.bumps:
            if bump.half_width <= 0:
                raise ValueError("bump half_width must be positive")
            if bump.center - bump.half_width < self.omega_gap:
                raise ValueError(
                    f"bump [{bump.center - bump.half_width}, "
                    f"{bump.center + bump.half_width}] reaches into the gap")

    @classmethod
    def from_tones(cls, omega_gap: float, tones) -> "SpectrumSpec":
        """Build a tones spec from (omega, amplitude) pairs.

        Negative frequencies are folded onto their positive representative
        (omega, c) -> (-omega, conj(c)) so x stays real by construction.
        """
        normalized = []
        for omega, amp in tones:
            omega = float(omega)
            amp = complex(amp)
            if omega < 0:
                omega, amp = -omega, amp.conjugate()
            normalized.append(Tone(omega=omega, amplitude=amp))
        return cls(omega_gap=omega_gap, kind="tones", tones=tuple(normalized))

    @classmethod
    def from_bumps(cls, omega_gap: float, bumps) -> "SpectrumSpec":
        """Build a bump spec from (center, half_width, amplitude) triples."""
        return cls(omega_gap=omega_gap, kind="bump",
                   bumps=tuple(Bump(float(c), float(h), float(a))
                               for c, h, a in bumps))


def _bump_profile(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - np.square(s[inside])))
    return out


def bump_density(spec: SpectrumSpec, omega):
    """X(i*omega) of a bump spec (real-valued, even in omega)."""
    if spec.kind != "bump":
        raise ValueError("bump_density is defined for bump specs only")
    om = np.abs(np.asarray(omega, dtype=float))
    out = np.zeros_like(om)
    for b in spec.bumps:
        out += b.amplitude * _bump_profile((om - b.center) / b.half_width)
    if np.ndim(omega) == 0:
        return float(out)
    return out


def _support(spec: SpectrumSpec):
    lo = min(b.center - b.half_width for b in spec.bumps)
    hi = max(b.center + b.half_width for b in spec.bumps)
    edges = sorted({b.center - b.half_width for b in spec.bumps}
                   | {b.center + b.half_width for b in spec.bumps})
    return lo, hi, edges


def _quad(f, lo, hi, **kwargs):
    val, abserr = quad(f, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=0.0,
                       limit=QUAD_LIMIT, **kwargs)
    if abserr > 10.0 * QUAD_ABS_TOL:
        raise QuadratureError(
            f"quadrature reached absolute tolerance {abserr:.3e} "
            f"(requested {QUAD_ABS_TOL:.1e})")
    return val


def sample(spec: SpectrumSpec, t: float) -> float:
    """x(t), exactly for tones, by adaptive oscillatory quadrature for bumps.

    Tones: x(t) = sum_j Re[c_j exp(i w_j t)], assembled in real arithmetic.
    Bumps: x(t) = (1/pi) * int_supp X(i*w) cos(w t) dw.
    """
    t = float(t)
    if spec.kind == "tones":
        acc = 0.0
        for tone in spec.tones:
            acc += (tone.amplitude.real * np.cos(tone.omega * t)
                    - tone.amplitude.imag * np.sin(tone.omega * t))
        return acc
    if not spec.bumps:
        return 0.0
    acc = 0.0
    for b in spec.bumps:
        f = lambda om: b.amplitude * _bump_profile((om - b.center) / b.half_width)
        acc += _quad(f, b.center - b.half_width, b.center + b.half_width,
                     weight="cos", wvar=t)
    return acc / np.pi


def _tone_grid(spec, times):
    out = np.zeros_like(times)
    for tone in spec.tones:
        out += (tone.amplitude.real * np.cos(tone.omega * times)
                - tone.amplitude.imag * np.sin(tone.omega * times))
    return out


def _bump_grid_gauss(spec, times):
    # fixed-order Gauss-Legendre panels, sized so each panel sees a bounded
    # oscillation phase at the largest |t| requested
    t_absmax = float(np.max(np.abs(times))) if len(times) else 0.0
    order = 48
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for b in spec.bumps:
        lo, hi = b.center - b.half_width, b.center + b.half_width
        n_panels = max(4, int(np.ceil((hi - lo) * max(t_absmax, 1.0) / 30.0)))
        edges = np.linspace(lo, hi, n_panels + 1)
        for i in range(n_panels):
            half = 0.5 * (edges[i + 1] - edges[i])
            mid = 0.5 * (edges[i] + edges[i + 1])
            nodes.append(half * gl_x + mid)
            weights.append(half * gl_w)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights) * bump_density(spec, nodes) / np.pi
    # chunk the time axis to bound the cos() workspace
    out = np.empty_like(times)
    chunk = max(1, int(4e6 // max(len(nodes), 1)))
    for i in range(0, len(times), chunk):
        out[i:i + chunk] = np.cos(np.outer(times[i:i + chunk], nodes)) @ weights
    return out


def _bump_grid_fft(spec, t0, dt, n):
    # periodized spectral sum: exact up to aliasing images at +-P, which the
    # decay margin pushes below 1e-13 of the peak
    min_hw = min(b.half_width for b in spec.bumps)
    span = (n - 1) * dt
    margin = 600.0 / min_hw + 0.05 * span + 10.0
    P = span + 2.0 * margin
    N = next_fast_len(int(np.ceil(P / dt)) + 1)
    if N > (1 << 27):
        raise ValueError(
            f"fft sampling would need {N} bins; use the 'gauss' strategy or a "
            "coarser dt")
    dw = 2.0 * np.pi / (N * dt)
    lo, hi, _ = _support(spec)
    q0 = max(int(np.floor(lo / dw)), 1)
    q1 = int(np.ceil(hi / dw))
    if q1 >= N // 2:
        raise ValueError(
            f"dt={dt} undersamples the spectral support (Nyquist limit "
            f"{np.pi / hi:.3g})")
    q = np.arange(q0, q1 + 1)
    wq = q * dw
    coeff = np.zeros(N, dtype=complex)
    coeff[q0:q1 + 1] = (dw / np.pi) * bump_density(spec, wq) * np.exp(1j * wq * t0)
    return (np.fft.ifft(coeff) * N)[:n].real


def sample_grid(spec: SpectrumSpec, t0: float, dt: float, n: int,
                strategy: str = "auto") -> np.ndarray:
    """x on the uniform grid t0 + i*dt, i = 0..n-1.

    Tones evaluate in closed form.  Bumps evaluate either by Gauss-Legendre
    panel quadrature vectorized over the grid ('gauss', best for short or
    coarse grids) or by an FFT of the periodized spectral sum ('fft', best for
    long fine grids); 'auto' picks by estimated cost.  Both strategies agree
    with :func:`sample` to near machine precision (tested), and output is
    deterministic for fixed inputs.
    """
    if n < 1:
        raise ValueError("need n >= 1 grid points")
    if dt <= 0:
        raise ValueError("dt must be positive")
    times = t0 + dt * np.arange(n)
    if spec.kind == "tones":
        return _tone_grid(spec, times)
    if not spec.bumps:
        return np.zeros(n)
    if strategy == "auto":
        width = sum(2.0 * b.half_width for b in spec.bumps)
        t_absmax = max(abs(times[0]), abs(times[-1]))
        est_nodes = 48 * max(4, int(np.ceil(width * max(t_absmax, 1.0) / 30.0)))
        strategy = "gauss" if n * est_nodes <= 4e7 else "fft"
    if strategy == "gauss":
        return _bump_grid_gauss(spec, times)
    if strategy == "fft":
        return _bump_grid_fft(spec, t0, dt, n)
    raise ValueError(f"unknown sampling strategy {strategy!r}")


def l1_budget(spec: SpectrumSpec) -> float:
    """L1 mass of the spectrum over both signs of omega.

    For tones this is the total-variation analog 2 * sum_j |c_j| (point
    masses), which the error budget uses as the tone bound weight.
    """
    if spec.kind == "tones":
        return 2.0 * sum(abs(t.amplitude) for t in spec.tones)
    if not spec.bumps:
        return 0.0
    lo, hi, edges = _support(spec)
    val = _quad(lambda om: abs(bump_density(spec, om)), lo, hi,
                points=edges)
    return 2.0 * val


def epsilon1(spec: SpectrumSpec, taper: TaperSpec) -> float:
    """Spectral mass lost to tapering: int_{|w|>=gap} (1 - r_nu)|X| dw, with
    the point-mass analog 2 * sum_j |c_j| (1 - r_nu(w_j)) for tones."""
    if spec.kind == "tones":
        return 2.0 * sum(abs(t.amplitude) * (1.0 - float(eval_taper(taper, t.omega)))
                         for t in spec.tones)
    if not spec.bumps:
        return 0.0
    lo, hi, edges = _support(spec)
    val = _quad(lambda om: (1.0 - float(eval_taper(taper, om)))
                * abs(bump_density(spec, om)), lo, hi, points=edges)
    return 2.0 * val


def select_nu(spec: SpectrumSpec, taper_family: str, eps1_target: float) -> float:
    """Largest nu on a geometric bisection lattice (relative tolerance 1e-3)
    with epsilon1(spec, r_nu) <= eps1_target; monotone in nu by taper
    monotonicity.  Clamps at nu = 1."""
    if eps1_target <= 0:
        raise ValueError("eps1_target must be positive")
    def loss(nu):
        return epsilon1(spec, TaperSpec(family=taper_family, nu=nu))
    if loss(1.0) <= eps1_target:
        return 1.0
    lo = 1e-12
    if loss(lo) > eps1_target:
        raise RuntimeError(
            "epsilon1 exceeds the target even at nu = 1e-12; the spectrum "
            "budget cannot meet the target (or quadrature failed)")
    hi = 1.0
    while hi / lo > 1.0 + 1e-3:
        mid = np.sqrt(lo * hi)
        if loss(mid) <= eps1_target:
            lo = mid
        else:
            hi = mid
    return float(lo)


def exact_hk(spec: SpectrumSpec, k: int, t: float) -> float:
    """The k-fold iterated antiderivative h_k(x)(t), evaluated in the
    frequency domain through the transfer function (i*w)^(-k).

    Well defined because the spectrum avoids w = 0.  Tones are closed form;
    bumps integrate X(i*w) w^(-k) cos(w t - k*pi/2) over the support.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    t = float(t)
    if spec.kind == "tones":
        acc = 0.0
        for tone in spec.tones:
            rot = tone.amplitude * (1j * tone.omega) ** (-k)
            acc += rot.real * np.cos(tone.omega * t) - rot.imag * np.sin(tone.omega * t)
        return acc
    if not spec.bumps:
        return 0.0
    # cos(w t - k pi/2) splits into a pure cos or sin branch for integer k
    if k % 2 == 0:
        weight, sign = "cos", (-1.0) ** (k // 2)
    else:
        weight, sign = "sin", (-1.0) ** ((k - 1) // 2)
    acc = 0.0
    for b in spec.bumps:
        f = lambda om: (b.amplitude * _bump_profile((om - b.center) / b.half_width)
                        * om ** (-k))
        acc += _quad(f, b.center - b.half_width, b.center + b.half_width,
                     weight=weight, wvar=t)
    return sign * acc / np.pi


def spectrum_to_dict(spec: SpectrumSpec) -> dict:
    out = {"omega_gap": spec.omega_gap, "kind": spec.kind}
    if spec.kind == "tones":
        out["tones"] = [{"omega": t.omega, "re": t.amplitude.real,
                         "im": t.amplitude.imag} for t in spec.tones]
    else:
        out["bumps"] = [{"center": b.center, "half_width": b.half_width,
                         "amplitude": b.amplitude} for b in spec.bumps]
    return out


def spectrum_from_dict(data: dict) -> SpectrumSpec:
    kind = data["kind"]
    gap = float(data["omega_gap"])
    if kind == "tones":
        return SpectrumSpec.from_tones(
            gap, [(t["omega"], complex(t.get("re", 0.0), t.get("im", 0.0)))
                  for t in data.get("tones", [])])
    if kind == "bump":
        return SpectrumSpec.from_bumps(
            gap, [(b["center"], b["half_width"], b["amplitude"])
                  for b in data.get("bumps", [])])
    raise ValueError(f"unknown spectrum kind {kind!r}")


def save_spectrum(spec: SpectrumSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spectrum_to_dict(spec), fh, indent=2)
        fh.write("\n")


def load_spectrum(path) -> SpectrumSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spectrum_from_dict(json.load(fh))
