"""Experiment driver: (d, nu) sweeps, error measurement, budget checks.

For every combination of spectrum file, degree and taper scale the sweep fits
an approximant, on the grid fit_approximants ties to its degree, computes the
two error budgets (the L1-spectrum form bound_paper = (eps1 + M eps2) / 2pi,
M the spectrum's L1 mass, and for tones the point-mass form bound_tones =
eps1 + M eps2, that is sum_j 2|A_j| (1 - r_nu(w_j) + eps2); 0.0 for bumps),
runs the recurrence in time with the exact constants etaP_j(t_start) on a
measurement grid, and records the sup error against the exact future values.
A row passes when the measured sup error is at most the bound matching its
spectrum kind, bound_tones for tones and bound_paper for bumps, up to 1e-15
of round-off.
eps2 is the approximant's own certificate, computed once at
approx.CERT_DENSITY.  The conv and fit-eta realizations are not swept; the
command line keeps them, and a config's optional modes key must be
["eta"].

The realization is the one path predict --mode eta also runs
(iterated_integrals, eta_sum), on a record whose step h divides dt, so that
the measurement grid, t_start + k dt, is a stride of its samples.  h is
dt / k, k the fewest whole steps that bring it to at most 5e-3*T and
0.05 / omega_max, omega_max the highest frequency of the config's spectra
(Gregory's rule is of order 6; the second term keeps a fast spectrum as
well resolved as a slow one), and report.json records h as
quadrature_step.  run_sweep loads every spectrum before it sets h, takes
every spectrum's nu list (nu_list or select_nu) and every spectrum's
truth: its future values, record and constants, sampled on its own, and
the levels z_0..z_D (D = max(d_list)) of all the records, realized in one
stacked iterated_integrals pass (which needs the one record step h that
all spectra share) and kept at that stride, which do not depend on the
approximant.  It is then three loops.  Per spectrum, and per degree, where the spectrum lacks a fit, it fits in one
fit_approximants call every nu of this spectrum and the later ones that
the sweep has not fitted yet, so a sweep whose fits all succeed makes one
call per degree; the (d, nu) fits are shared across spectra, and a call
that raises stores nothing, so the next spectrum tries again.  Once the
truth is taken it computes eps1 per (spectrum, nu) and the spectrum's L1
mass M (the row's mass) per spectrum, and per row the two bounds and
eta_sum on the first d + 1 levels.  A failing step errors exactly the rows
it serves: select_nu one row per d with nu = nan, a fit its degree's rows,
the truth every row whose fit succeeded (a stacked pass that raises is run
record by record, so a realization's error is its own spectrum's too), an
eps1 its nu's rows and M its spectrum's rows whose fit succeeded.  The
stacked level array is refused over 2^25 entries before it is made, as a
single record's is, and the records are then realized one by one; it is
freed once every spectrum's grid levels are copied from it, and those and
the future values are held through the sweep, and nothing outlives the call.

Rows are computed serially in a fixed order and all output formatting is
fixed-width, so identical configs produce byte-identical reports.
write_reports writes report.csv and report.json (with convergence_verdict's
verdict); the shipped configs/fixtures_<name>.json are the report.json of
configs/<name>.json.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .approx import fit_approximants
from .predictor import eta_sum, iterated_integrals
from .signal import (SpectrumSpec, check_gap, epsilon1, exact_etaP, grid_size,
                     load_spectrum, sample_grid, select_nu, spectral_mass,
                     window_size)
from .taper import TaperSpec

__all__ = ["ExperimentConfig", "ErrorRow", "Sweep", "run_sweep",
           "write_reports", "convergence_verdict"]

CSV_COLUMNS = ("spec", "d", "nu", "eps1", "eps2", "bound_paper",
               "bound_tones", "sup_err", "pass")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: which signals, which (d, nu) combinations, and the
    measurement grid.  It runs the eta realization only; from_json reads a
    config file's "modes": ["eta"] and drops it."""

    spec_files: tuple
    T: float
    omega_gap: float
    taper_family: str
    d_list: tuple
    t_start: float
    t_end: float
    dt: float
    nu_list: Optional[tuple] = None
    eps1_target: Optional[float] = None

    def __post_init__(self):
        for name in ("T", "omega_gap", "t_start", "t_end", "dt",
                     "eps1_target"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.T <= 0:
            raise ValueError("T must be positive")
        check_gap(self.omega_gap)
        if not self.spec_files:
            raise ValueError("spec_files must be nonempty")
        if not self.d_list:
            raise ValueError("d_list must be nonempty")
        if self.nu_list is not None and not self.nu_list:
            raise ValueError("nu_list must be nonempty")
        for d in self.d_list:
            if (isinstance(d, bool) or not isinstance(d, numbers.Integral)
                    or d < 2):
                raise ValueError(f"d_list entry {d!r} is not an integer >= 2")
        for nu in self.nu_list or ():
            # written so that NaN fails: every comparison with NaN is false
            if (isinstance(nu, bool) or not isinstance(nu, numbers.Real)
                    or not 0.0 < nu <= 1.0):
                raise ValueError(
                    f"nu_list entry {nu!r} is not a finite number in (0, 1]")
        for key in ("d_list", "nu_list"):
            entries = getattr(self, key) or ()
            for i, value in enumerate(entries):
                if value in entries[:i]:
                    raise ValueError(f"{key} entry {value!r} is repeated")
        if list(self.d_list) != sorted(self.d_list):
            raise ValueError("d_list must be sorted ascending")
        if (self.nu_list is None) == (self.eps1_target is None):
            raise ValueError("exactly one of nu_list / eps1_target is required")
        if self.eps1_target is not None and not self.eps1_target > 0:
            raise ValueError(
                f"eps1_target must be positive, got {self.eps1_target}")
        TaperSpec(self.taper_family, 1.0)  # refuses an unknown family
        if not (self.t_end > self.t_start and self.dt > 0):
            raise ValueError("need t_end > t_start and dt > 0")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        base = os.path.dirname(os.path.abspath(path))
        for key in ("spec_files", "d_list", "nu_list", "modes"):
            # a string would be swept character by character; only nu_list
            # may be null, which leaves it unset
            if key in data and not isinstance(data[key], list) and not (
                    key == "nu_list" and data[key] is None):
                raise ValueError(
                    f"{key} must be a JSON list, got {data[key]!r}")
        if data.get("modes", ["eta"]) != ["eta"]:
            raise ValueError(
                f"modes must be [\"eta\"], got {data['modes']!r}: eval "
                "sweeps only the eta realization; run gap-predict predict "
                "--mode conv or gap-predict fit-eta for the others")
        specs = tuple(p if os.path.isabs(p) else os.path.join(base, p)
                      for p in data["spec_files"])
        kwargs = {k: data[k] for k in data if k not in ("spec_files", "modes")}
        for key in ("d_list", "nu_list"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        return cls(spec_files=specs, **kwargs)


class Sweep(list):
    """run_sweep's rows, in order, and the record step quadrature_step that
    their sup_err was measured on."""

    def __init__(self, rows, quadrature_step: float):
        super().__init__(rows)
        self.quadrature_step = quadrature_step


@dataclass
class ErrorRow:
    spec: str
    d: int
    nu: float
    eps1: float = math.nan
    eps2: float = math.nan
    mass: float = math.nan
    bound_paper: float = math.nan
    bound_tones: float = math.nan
    sup_err: float = math.nan
    passed: bool = False
    error: Optional[str] = None


def _grids(config: ExperimentConfig, h: float):
    # the measurement count, whole dt steps within [t_start, t_end], and the
    # record's sample times, steps of h from t_start that reach t_end; a
    # grid too long to make is refused by name before the record is made
    span = config.t_end - config.t_start
    n_grid = window_size(span, config.dt, "the measurement grid")
    n_record = np.ceil(span / h - 1e-9) + 1
    n_record = grid_size(n_record, f"the record of {n_record:.15g} samples "
                         f"at the quadrature step {h:.15g}")
    return n_grid, config.t_start + h * np.arange(n_record)


def _sample(config: ExperimentConfig, spec: SpectrumSpec, h: float,
            times: np.ndarray, n_grid: int):
    # x(t + T) at the n_grid measurement times t_start + k dt, the record
    # on times and its constants etaP_0..etaP_{D-1}(t_start), D = max(d_list)
    t1 = config.t_start
    future = sample_grid(spec, t1 + config.T, config.dt, n_grid)
    values = sample_grid(spec, t1, h, len(times))
    return future, values, exact_etaP(spec, config.omega_gap,
                                      max(config.d_list), t1)


def _realize(config: ExperimentConfig, h: float, times: np.ndarray,
             n_grid: int, sampled: list) -> list:
    # per (future, values, etaP) of sampled, (future, levels), levels the
    # record's z_0..z_D at the measurement times, every (dt/h)-th sample,
    # from one stacked pass, or the exception it raised: a stack that
    # raises is realized record by record, so each error is its own
    # record's.  Each record's levels are taken by one fancy index, a fresh
    # array laid out as a one-record call's [:, stride] lays it out, since
    # eta_sum's gemv sums a view into the stack in another order and so
    # changes its last bit
    try:
        z = iterated_integrals(
            times, np.stack([values for _, values, _ in sampled]),
            max(config.d_list), config.omega_gap,
            np.stack([etaP for _, _, etaP in sampled]))
    except Exception as exc:  # noqa: BLE001 - recorded per row
        if len(sampled) == 1:
            return [exc]
        return [truth for one in sampled
                for truth in _realize(config, h, times, n_grid, [one])]
    stride = round(config.dt / h) * np.arange(n_grid)
    return [(future, z[:, s, stride])
            for s, (future, _, _) in enumerate(sampled)]


def _truths(config: ExperimentConfig, specs: list, h: float,
            times: np.ndarray, n_grid: int) -> list:
    # per spectrum of specs, (future values, levels) as _realize gives
    # them, or the exception that its sampling or realization raised; None
    # for a spectrum given as None.  Each spectrum is sampled on its own,
    # and those that sampled are realized in one stacked pass
    sampled = [None if spec is None else
               _attempt(_sample, config, spec, h, times, n_grid)
               for spec in specs]
    usable = [one for one in sampled if isinstance(one, tuple)]
    realized = iter(_realize(config, h, times, n_grid, usable) if usable
                    else ())
    return [next(realized) if isinstance(one, tuple) else one
            for one in sampled]


def _row(spec_name: str, spec: SpectrumSpec, approx, eps1: float,
         mass: float, future: np.ndarray, levels: np.ndarray) -> ErrorRow:
    # the two bounds and the measured error of approx's (d, nu), given the
    # spectrum's eps1 at that nu and its mass
    taper, eps2 = approx.taper, approx.eps2
    # the paper's error (1/2pi) int |e^{iwT} - psi(iw)| |X| dw: eps1 covers
    # the taper's share and eps2 bounds |r_nu - psi| against each unit of
    # the spectrum's L1 mass M; tones, point masses, take it without 1/2pi
    bound = eps1 + mass * eps2
    bound_paper = bound / (2.0 * np.pi)
    bound_tones = bound if spec.kind == "tones" else 0.0
    sup_err = float(np.abs(future - eta_sum(approx, levels)).max())
    applicable = bound_tones if spec.kind == "tones" else bound_paper
    return ErrorRow(spec=spec_name, d=approx.d, nu=taper.nu, eps1=eps1,
                    eps2=eps2, mass=mass, bound_paper=bound_paper,
                    bound_tones=bound_tones, sup_err=sup_err,
                    passed=bool(sup_err <= applicable + 1e-15))


def _nu_list(config: ExperimentConfig, spec: SpectrumSpec):
    # the spectrum's nu list, nu_list or select_nu's one nu, or the
    # exception select_nu raised
    if config.nu_list is not None:
        return list(config.nu_list)
    try:
        return [select_nu(spec, config.taper_family, config.eps1_target)]
    except Exception as exc:  # noqa: BLE001 - recorded per row
        return exc


def _spectrum_rows(config: ExperimentConfig, name: str, spec: SpectrumSpec,
                   nus, wanted: list, truth, approximants: dict) -> list:
    # one spectrum's rows, d by d and nu by nu, for its _nu_list nus and
    # its _truths truth; approximants maps (d, nu) to the sweep's fits, and
    # a degree with one of nus unfitted gains, in one call, every nu of
    # wanted, those of this spectrum and the later ones, that it lacks
    def failed(d, nu, exc):
        return ErrorRow(spec=name, d=d, nu=nu,
                        error=f"{type(exc).__name__}: {exc}")

    if isinstance(nus, Exception):
        return [failed(d, math.nan, nus) for d in config.d_list]
    truth_error = truth if isinstance(truth, Exception) else None
    if truth_error is None:
        future, levels = truth
        # eps1 per nu and the mass, or the exception each raised, which
        # errors the rows whose truth and fit succeeded, eps1's first
        eps1 = {nu: _attempt(epsilon1, spec,
                             TaperSpec(config.taper_family, nu))
                for nu in nus}
        mass = _attempt(spectral_mass, spec)
    rows = []
    for d in config.d_list:
        error = truth_error
        if any((d, nu) not in approximants for nu in nus):
            lacking = [nu for nu in wanted if (d, nu) not in approximants]
            try:
                fits = fit_approximants(config.T, config.omega_gap, [
                    TaperSpec(config.taper_family, nu) for nu in lacking], d)
                approximants.update(zip([(d, nu) for nu in lacking], fits))
            except Exception as exc:  # noqa: BLE001 - recorded per row
                error = exc
        for nu in nus:
            cause = error or next((value for value in (eps1[nu], mass)
                                   if isinstance(value, Exception)), None)
            if cause is not None:
                rows.append(failed(d, nu, cause))
                continue
            try:
                rows.append(_row(name, spec, approximants[(d, nu)], eps1[nu],
                                 mass, future, levels))
            except Exception as exc:  # noqa: BLE001 - recorded per row
                rows.append(failed(d, nu, exc))
    return rows


def _attempt(fn, *args):
    # fn(*args), or the exception it raised
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - recorded per row
        return exc


def _quadrature_step(config: ExperimentConfig, specs) -> float:
    # dt / k, k the smallest whole number with dt / k <= 5e-3*T and
    # <= 0.05 / w for every frequency w of specs (a tone's omega, a bump's
    # centre plus half-width) to a relative 1e-9, so every measurement time
    # is a sample time and Gregory's order-6 rule resolves every oscillation
    top = [w for spec in specs for w in (
        *(tone.omega for tone in spec.tones),
        *(bump.center + bump.half_width for bump in spec.bumps))]
    r = config.dt / min([5e-3 * config.T] + [0.05 / w for w in top])
    k = np.floor(r) if r - np.floor(r) <= 1e-9 * r else np.ceil(r)
    return config.dt / max(1.0, k)


def _load_spectra(config: ExperimentConfig) -> list:
    # (name, spec) per spectrum file, named by its basename, which rows and
    # the convergence check key on, and checked against the sweep's gap; the
    # error of a file that does not load, fit that gap or own its name names
    # its path
    spectra, paths = [], {}
    for path in config.spec_files:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in paths:
            raise ValueError(f"{paths[name]} and {path} both name the "
                             f"spectrum {name!r}; rename one of them")
        paths[name] = path
        try:
            spec = replace(load_spectrum(path), omega_gap=config.omega_gap)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
        spectra.append((name, spec))
    return spectra


def run_sweep(config: ExperimentConfig) -> list:
    """Run the full sweep.  Every spectrum file is loaded before the first
    row, and one that does not load, whose spectrum reaches into the
    config's gap or whose basename another file has, raises ValueError
    naming the file, as does a measurement grid or sample record over
    grid_size's limit; after that, per-row failures are
    recorded and the run continues.  The rows come as a Sweep, which also
    holds the record step they were measured on."""
    spectra = _load_spectra(config)
    h = _quadrature_step(config, [spec for _, spec in spectra])
    n_grid, times = _grids(config, h)
    nu_lists = [_nu_list(config, spec) for _, spec in spectra]
    truths = _truths(config, [
        None if isinstance(nus, Exception) else spec
        for (_, spec), nus in zip(spectra, nu_lists)], h, times, n_grid)
    approximants: dict = {}
    rows = []
    for i, truth in enumerate(truths):
        # the nu of this spectrum and the later ones, each once, in order
        wanted = list(dict.fromkeys(
            nu for nus in nu_lists[i:] if not isinstance(nus, Exception)
            for nu in nus))
        rows += _spectrum_rows(config, *spectra[i], nu_lists[i], wanted,
                               truth, approximants)
    return Sweep(rows, h)


# a report.csv row: spec, d, the six floats as '%.17g' writes them, pass
_CSV_ROW = "%s,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s"
# a report.json row, whose fields are all scalars, in indent=2's layout at
# depth 2 between its braces; without indent json runs its C encoder
_ROW_ENCODER = json.JSONEncoder(sort_keys=True,
                                separators=(",\n      ", ": "))


def write_reports(rows, out_dir) -> dict:
    """Write report.csv and report.json of the Sweep rows into out_dir; the
    same rows give byte-identical files.  The CSV columns are fixed, each
    row formatted by one template.  The JSON holds every row's fields, the
    failing row indices, the record's quadrature_step and the convergence
    verdict, which is returned; it reads as json.dumps(indent=2,
    sort_keys=True) writes it, byte for byte, but each row's flat object is
    encoded by json's C encoder, with the separators that give indent=2's
    layout, and spliced in after the other keys, which sort before "rows".
    Each file is written under a temporary name in out_dir and renamed into
    place once all are written; a write that fails removes what it wrote,
    so out_dir keeps no new report file and no temporary file."""
    if not rows:
        raise ValueError("refusing to write an empty report")
    os.makedirs(out_dir, exist_ok=True)
    verdict = convergence_verdict(rows)
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(_CSV_ROW % (
            row.spec, row.d, row.nu, row.eps1, row.eps2, row.bound_paper,
            row.bound_tones, row.sup_err, "true" if row.passed else "false"))
    # the other keys, which all sort before "rows", in indent=2's layout;
    # the rows go in before its closing "\n}"
    head = json.dumps({
        "failing_rows": [i for i, row in enumerate(rows) if not row.passed],
        "all_pass": all(row.passed for row in rows),
        "quadrature_step": rows.quadrature_step,
        "convergence": verdict}, indent=2, sort_keys=True)
    encoded = ["{\n      " + _ROW_ENCODER.encode(vars(row))[1:-1] + "\n    }"
               for row in rows]
    files = {"report.csv": "\n".join(lines) + "\n",
             "report.json": head[:-2] + ',\n  "rows": [\n    '
             + ",\n    ".join(encoded) + "\n  ]\n}\n"}
    temps = {name: os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
             for name in files}
    placed = []
    try:
        for name, temp in temps.items():
            with open(temp, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(files[name])
        for name, temp in temps.items():
            os.replace(temp, os.path.join(out_dir, name))
            placed.append(os.path.join(out_dir, name))
    except BaseException:
        for path in [*temps.values(), *placed]:
            if os.path.isfile(path):
                os.remove(path)
        raise
    return verdict


def _coverage_gap(by_spec):
    # the first spectrum with fewer than 3 nu values, or nu with fewer than
    # 3 degrees, in row order; None when every one has enough
    if not by_spec:
        return "no usable rows"
    for spec_name, by_nu in by_spec.items():
        if len(by_nu) < 3:
            return f"spec {spec_name} has {len(by_nu)} nu values, need >= 3"
        for nu, by_d in by_nu.items():
            if len(by_d) < 3:
                return (f"spec {spec_name}, nu={nu} has {len(by_d)} degrees, "
                        "need >= 3")


def convergence_verdict(rows) -> dict:
    """The sweep's convergence shape as report.json records it.

    {"passed": bool, "failures": [...]}: the sup error must not increase
    (within 10% of its own value) along each ascending-d sweep at fixed nu,
    and the minimum achieved error must strictly decrease as nu decreases
    with d re-optimized.  Both tests forgive errors at the 1e-15 round-off
    floor, so an exact sweep passes; each failure names its transition.
    {"passed": None, "skipped": reason} when the usable rows give some
    spectrum fewer than 3 nu values, or some nu fewer than 3 degrees."""
    by_spec: dict = {}
    for row in rows:
        if row.error is None:
            by_spec.setdefault(row.spec, {}).setdefault(
                row.nu, {})[row.d] = row.sup_err
    short = _coverage_gap(by_spec)
    if short is not None:
        return {"passed": None,
                "skipped": f"insufficient sweep coverage: {short}"}
    failures = []
    for spec_name, by_nu in by_spec.items():
        for nu, by_d in by_nu.items():
            ds = sorted(by_d)
            for d_prev, d_next in zip(ds, ds[1:]):
                if not by_d[d_next] <= by_d[d_prev] * 1.1 + 1e-15:
                    failures.append(
                        f"spec {spec_name}, nu={nu}: sup error rose from "
                        f"{by_d[d_prev]:.6g} (d={d_prev}) to "
                        f"{by_d[d_next]:.6g} (d={d_next})")
        nus_desc = sorted(by_nu, reverse=True)
        mins = [min(by_nu[nu].values()) for nu in nus_desc]
        for i in range(len(mins) - 1):
            if mins[i] > 1e-15 and not mins[i + 1] < mins[i]:
                failures.append(
                    f"spec {spec_name}: min error did not decrease from "
                    f"nu={nus_desc[i]} ({mins[i]:.6g}) to "
                    f"nu={nus_desc[i + 1]} ({mins[i + 1]:.6g})")
    return {"passed": not failures, "failures": failures}
