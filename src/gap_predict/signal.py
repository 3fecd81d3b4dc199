"""Exact test signals whose Fourier transform vanishes on (-omega_gap, omega_gap).

Two spectrum kinds are supported.  Tones are spectral point masses with
closed-form time values; every downstream number is checkable by hand, but
tones fall outside the L1-spectrum class.  Bumps are smooth compactly
supported spectral densities X(i*w) = amp * exp(-1/(1-s^2)) for
s = (|w| - center)/half_width, mirrored to negative frequencies; they decay
faster than any polynomial in time and satisfy every integrability hypothesis
the polynomial-kernel predictor needs.  Every bump integral (grid samples,
eps1, the iterated antiderivatives h_k) goes through one fixed-order
Gauss-Legendre panel rule over the bump supports.  A grid of
more than 2^25 samples, or one too long or too far from t = 0 for the bump
sampler's workspace, is refused before any array is made.

Tones are stored as positive-frequency representatives with complex
amplitudes; the conjugate partner is implicit, which makes conjugate symmetry
(and hence realness of all samples) unbreakable.  All specs are immutable and
every evaluation is pure.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields

import numpy as np

from .taper import TaperSpec, eval_taper

__all__ = ["Tone", "Bump", "SpectrumSpec", "grid_size", "sample_grid",
           "epsilon1", "select_nu", "exact_hk", "spectrum_to_dict",
           "spectrum_from_dict", "save_spectrum", "load_spectrum"]

# Gauss-Legendre nodes per panel of the bump quadrature rule
_GL_ORDER = 48
# samples a grid may hold, and complex entries (512 MB) a bump grid's
# sampling workspace may take
_MAX_WORKSPACE = 1 << 25


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
        if not np.isfinite(self.omega_gap):
            raise ValueError(f"omega_gap must be finite, got {self.omega_gap}")
        for part in (*self.tones, *self.bumps):
            for f in fields(part):
                value = getattr(part, f.name)
                if not np.isfinite(value):
                    raise ValueError(f"{type(part).__name__.lower()} {f.name} "
                                     f"must be finite, got {value}")
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


@functools.cache
def _gl_nodes():
    # built on first use: numpy.polynomial is not loaded by `import numpy`
    return np.polynomial.legendre.leggauss(_GL_ORDER)


def _n_panels(bump, t_absmax):
    # enough panels that each sees a bounded oscillation phase cos(w t) at
    # |t| <= t_absmax
    lo, hi = bump.center - bump.half_width, bump.center + bump.half_width
    return max(4, int(np.ceil((hi - lo) * max(t_absmax, 1.0) / 30.0)))


def _bump_rule(spec, t_absmax=0.0):
    """Nodes w and weights W with sum W f(w) ~ int_0^inf X(i*w) f(w) dw for a
    bump spec and any f smooth on the support that oscillates no faster than
    cos(w t) with |t| <= t_absmax.

    Each bump contributes fixed-order Gauss-Legendre panels over its own
    support, weighted by its own density, so overlapping bumps are each
    counted once.  The rule depends on t_absmax only through the panel
    counts, so it is built once per spectrum and panel counts and shared,
    read-only, by every caller.
    """
    return _panel_rule(spec, tuple(_n_panels(b, t_absmax) for b in spec.bumps))


@functools.lru_cache(maxsize=8)
def _panel_rule(spec, panels):
    gl_x, gl_w = _gl_nodes()
    nodes, weights = [], []
    for b, n_panels in zip(spec.bumps, panels):
        lo, hi = b.center - b.half_width, b.center + b.half_width
        edges = np.linspace(lo, hi, n_panels + 1)
        half = 0.5 * np.diff(edges)[:, None]
        om = (half * gl_x + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
        nodes.append(om)
        weights.append((half * gl_w).ravel() * (
            b.amplitude * _bump_profile((om - b.center) / b.half_width)))
    rule = np.concatenate(nodes), np.concatenate(weights)
    for part in rule:
        part.flags.writeable = False
    return rule


def _tone_grid(spec, times):
    out = np.zeros_like(times)
    for tone in spec.tones:
        out += (tone.amplitude.real * np.cos(tone.omega * times)
                - tone.amplitude.imag * np.sin(tone.omega * times))
    return out


def grid_size(n) -> int:
    """The sample count n of a grid about to be made, as an int.  A count
    over 2^25, infinite or NaN is refused with a ValueError that names it
    and the limit, so that no caller allocates the grid."""
    if not n <= _MAX_WORKSPACE:
        raise ValueError(f"a grid of {float(n):.15g} samples is over the "
                         f"limit of 2^25 = {_MAX_WORKSPACE}")
    return int(n)


def sample_grid(spec: SpectrumSpec, t0: float, dt: float,
                n: int) -> np.ndarray:
    """x on the uniform grid t0 + i*dt, i = 0..n-1.

    Tones evaluate in closed form.  Bumps evaluate with the bump rule built
    for the grid's largest |t|, their phases split into block starts and
    in-block offsets: in blocks of B = ceil(sqrt(n)) samples, sample B*i + j
    is Re[e^{iw(t0 + B*i*dt)} @ (W e^{iw*j*dt})] / pi, so each rule node
    takes ceil(n/B) + B complex exponentials and one complex matrix product
    joins them.  That workspace, (ceil(n/B) + B) * (rule nodes) complex
    entries, may not exceed 2^25 (512 MB): the node count grows with the
    largest |t|, and a grid that needs more is refused with a ValueError
    before the rule is built, as is any grid of more than 2^25 samples.  The
    sampler agrees with adaptive quadrature to near machine precision
    (tested), and output is deterministic for fixed inputs.
    """
    if n < 1:
        raise ValueError("need n >= 1 grid points")
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid_size(n)
    if spec.kind == "tones":
        return _tone_grid(spec, t0 + dt * np.arange(n))
    if not spec.bumps:
        return np.zeros(n)
    t_absmax = max(abs(t0), abs(t0 + dt * (n - 1)))
    n_nodes = _GL_ORDER * sum(_n_panels(b, t_absmax) for b in spec.bumps)
    B = int(np.ceil(np.sqrt(n)))
    blocks = -(-n // B)
    if (blocks + B) * n_nodes > _MAX_WORKSPACE:
        raise ValueError(
            f"sampling n={n} points out to |t|={t_absmax:g} needs "
            f"{n_nodes} bump rule nodes, a workspace of "
            f"{(blocks + B) * n_nodes} complex entries (limit 2^25); use a "
            "shorter grid or one nearer t = 0")
    nodes, weights = _bump_rule(spec, t_absmax)
    om = 1j * nodes
    starts = np.exp(np.outer(t0 + (B * dt) * np.arange(blocks), om))
    offsets = np.exp(np.outer(om, dt * np.arange(B))) * weights[:, None]
    return (starts @ offsets).real.ravel()[:n] / np.pi


def epsilon1(spec: SpectrumSpec, taper: TaperSpec) -> float:
    """Spectral mass lost to tapering: int_{|w|>=gap} (1 - r_nu)|X| dw, with
    the point-mass analog 2 * sum_j |c_j| (1 - r_nu(w_j)) for tones.

    Bumps integrate with the bump rule, each bump's mass taken in absolute
    value.  That is int (1 - r_nu)|X| dw exactly when overlapping bumps share
    a sign, and an upper bound on it otherwise, so eps1 stays a valid budget
    term.
    """
    if spec.kind == "tones":
        return 2.0 * sum(
            abs(t.amplitude) * (1.0 - float(eval_taper(taper, t.omega)))
            for t in spec.tones)
    if not spec.bumps:
        return 0.0
    om, w = _bump_rule(spec)
    return 2.0 * float(np.abs(w) @ (1.0 - eval_taper(taper, om)))


def select_nu(spec: SpectrumSpec, taper_family: str, eps1_target: float) -> float:
    """Largest nu on a geometric bisection lattice (relative tolerance 1e-3)
    with epsilon1(spec, r_nu) <= eps1_target; monotone in nu by taper
    monotonicity.  Clamps at nu = 1.  The bisection shares one bump rule."""
    if not eps1_target > 0:
        raise ValueError(f"eps1_target must be positive, got {eps1_target}")
    def loss(nu):
        return epsilon1(spec, TaperSpec(family=taper_family, nu=nu))
    if loss(1.0) <= eps1_target:
        return 1.0
    lo = 1e-12
    if loss(lo) > eps1_target:
        raise RuntimeError(
            "epsilon1 exceeds the target even at nu = 1e-12; the spectrum "
            "budget cannot meet the target")
    hi = 1.0
    while hi / lo > 1.0 + 1e-3:
        mid = np.sqrt(lo * hi)
        if loss(mid) <= eps1_target:
            lo = mid
        else:
            hi = mid
    return float(lo)


def exact_hk(spec: SpectrumSpec, k, t: float):
    """The k-fold iterated antiderivative h_k(x)(t), evaluated in the
    frequency domain through the transfer function (i*w)^(-k).

    Well defined because the spectrum avoids w = 0.  Tones are closed form;
    bumps integrate X(i*w) w^(-k) cos(w t - k*pi/2) with the bump rule.  For
    an array of orders k the result has k's shape and shares one rule.
    """
    ks = np.asarray(k)
    if np.any(ks < 1):
        raise ValueError("k must be a positive integer")
    t = float(t)
    out = np.zeros(ks.shape)
    if spec.kind == "tones":
        for idx, j in np.ndenumerate(ks):
            for tone in spec.tones:
                rot = tone.amplitude * (1j * tone.omega) ** -int(j)
                out[idx] += (rot.real * np.cos(tone.omega * t)
                             - rot.imag * np.sin(tone.omega * t))
    elif spec.bumps:
        om, w = _bump_rule(spec, abs(t))
        j = ks[..., None]
        out = (om ** -j * np.cos(om * t - j * np.pi / 2)) @ w / np.pi
    return float(out) if out.ndim == 0 else out


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
