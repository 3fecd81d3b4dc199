"""Experiment driver: (d, nu) sweeps, error measurement, budget checks.

For every combination of spectrum file, degree and taper scale the sweep fits
an approximant, computes the two error budgets (the L1-spectrum form
(eps1 + eps2) / 2pi and the tone point-mass form
sum_j 2|c_j| (|1 - r_nu(w_j)| + eps2)), runs the eta realization with
the exact constants h_k(t_start) on a measurement grid, and records the sup
error against the exact future values.  A row passes when the measured sup
error is at most the bound matching its spectrum kind, bound_tones for tones
and bound_paper for bumps, up to 1e-15 of round-off.  eps2 is the
approximant's own certificate, computed once at approx.CERT_DENSITY.  The
conv and fit-eta realizations are not swept; the command line keeps them.

The eta realization is the one path predict --mode eta also runs:
iterated_integrals, the record stage (eta_levels, eta_weights) and the
approximant stage (eta_sum).  Work that several rows share is computed once
within one run_sweep call:

* once per sweep: the measurement grid, the record's sample times and the
  eta weights on the grid to D = max(d_list), and per (d, nu) each
  approximant;
* once per spectrum: the future values x(t + T), the constants
  h_1..h_D(t_start), taken in one exact_hk call, the sample record from
  t_start and its iterated integrals to D at the measurement grid (the eta
  record stage); rows of degree d use the first d of each;
* once per row: eps1 (signal caches each bump spectrum's rule, so a row
  builds none), the bounds and the row's prediction (eta_sum).

Each value is computed when a row first needs it, and one whose computation
raises is not stored, so a failure errors the same rows with the same
message as computing every row from scratch.  A spectrum's values are
dropped before the next spectrum's rows run, and nothing outlives the call.

Rows are computed serially in a fixed order and all output formatting is
fixed-width, so identical configs produce byte-identical reports.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, asdict, replace
from typing import Optional

import numpy as np

from .approx import CERT_DENSITY, fit_approximant
from .predictor import eta_levels, eta_sum, eta_weights, iterated_integrals
from .signal import (SpectrumSpec, epsilon1, exact_hk, grid_size,
                     load_spectrum, sample_grid, select_nu)
from .taper import TaperSpec, eval_taper

__all__ = ["ExperimentConfig", "ErrorRow", "run_sweep", "emit_report",
           "write_reports", "ConvergenceVerdict", "convergence_check",
           "convergence_verdict"]

CSV_COLUMNS = ("spec", "d", "nu", "eps1", "eps2", "bound_paper",
               "bound_tones", "sup_err", "pass")

_MODES = ("eta",)

# realizations eval does not sweep, with the command that still runs each
_CLI_ONLY_MODES = {"conv": "gap-predict predict --mode conv",
                   "fit-eta": "gap-predict fit-eta"}


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: which signals, which (d, nu) combinations, and the
    measurement grid.  modes names the realizations swept; only "eta" is, and
    the key stays because config files set it."""

    spec_files: tuple
    T: float
    omega_gap: float
    taper_family: str
    d_list: tuple
    t_start: float
    t_end: float
    dt: float
    modes: tuple = ("eta",)
    nu_list: Optional[tuple] = None
    eps1_target: Optional[float] = None
    fit_node_factor: Optional[int] = None

    def __post_init__(self):
        for name in ("T", "omega_gap", "t_start", "t_end", "dt",
                     "eps1_target"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.T <= 0 or self.omega_gap <= 0:
            raise ValueError("T and omega_gap must be positive")
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
        factor = self.fit_node_factor
        if factor is not None and (isinstance(factor, bool)
                                   or not isinstance(factor, numbers.Integral)
                                   or factor < 4):
            # the fit needs at least 4 nodes per degree
            raise ValueError(
                f"fit_node_factor {factor!r} is not an integer >= 4")
        if list(self.d_list) != sorted(self.d_list):
            raise ValueError("d_list must be sorted ascending")
        if (self.nu_list is None) == (self.eps1_target is None):
            raise ValueError("exactly one of nu_list / eps1_target is required")
        if not (self.t_end > self.t_start and self.dt > 0):
            raise ValueError("need t_end > t_start and dt > 0")
        for mode, command in _CLI_ONLY_MODES.items():
            if mode in self.modes:
                raise ValueError(
                    f"mode {mode!r} is not swept by eval, which checks only "
                    f"the eta realization; run {command} instead")
        bad = [m for m in self.modes if m not in _MODES]
        if bad or not self.modes:
            raise ValueError(f"modes must be a nonempty subset of {_MODES}")

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
        specs = tuple(p if os.path.isabs(p) else os.path.join(base, p)
                      for p in data["spec_files"])
        kwargs = {k: data[k] for k in data if k != "spec_files"}
        for key in ("d_list", "nu_list", "modes"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        return cls(spec_files=specs, **kwargs)


@dataclass
class ErrorRow:
    spec: str
    d: int
    nu: float
    eps1: float = math.nan
    eps2: float = math.nan
    bound_paper: float = math.nan
    bound_tones: float = math.nan
    sup_err: float = math.nan
    passed: bool = False
    error: Optional[str] = None


def _grids(config: ExperimentConfig, h: float):
    # the measurement grid, whole dt steps within [t_start, t_end], and the
    # record's sample times, steps of h from t_start that reach t_end; a
    # grid too long to make is refused before either is made
    span = config.t_end - config.t_start
    n_grid = grid_size(np.floor(span / config.dt + 1e-9) + 1)
    n_record = grid_size(np.ceil(span / h - 1e-9) + 1)
    return (config.t_start + config.dt * np.arange(n_grid),
            config.t_start + h * np.arange(n_record))


def _future_values(spec, t_grid, T):
    # x(t + T) on the evenly spaced t_grid
    step = t_grid[1] - t_grid[0] if len(t_grid) > 1 else 1.0
    return sample_grid(spec, t_grid[0] + T, step, len(t_grid))


def _cached(memo, key, compute, *args):
    # memo[key], computed on first use; a call that raises stores nothing, so
    # every row that needs the value raises the same error
    if key not in memo:
        memo[key] = compute(*args)
    return memo[key]


def _fit(config: ExperimentConfig, taper: TaperSpec, d: int):
    nodes = (None if config.fit_node_factor is None
             else config.fit_node_factor * d)
    return fit_approximant(config.T, config.omega_gap, taper, d,
                           fit_nodes=nodes)


def _run_row(config: ExperimentConfig, spec_name: str, spec: SpectrumSpec,
             d: int, nu: float, h: float, times: np.ndarray,
             t_grid: np.ndarray, weights: np.ndarray, approximants: dict,
             shared: dict) -> ErrorRow:
    # approximants maps (d, nu) to the sweep's fits; shared holds this
    # spectrum's record values on the sample times, their iterated integrals
    # at t_grid (the sweep's measurement grid, whose eta weights are
    # weights), future values and h_k(t1)
    taper = TaperSpec(family=config.taper_family, nu=nu)
    approx = _cached(approximants, (d, nu), _fit, config, taper, d)

    eps1 = epsilon1(spec, taper)
    eps2 = approx.eps2
    bound_paper = (eps1 + eps2) / (2.0 * np.pi)
    bound_tones = sum(2.0 * abs(t.amplitude)
                      * (abs(1.0 - float(eval_taper(taper, t.omega))) + eps2)
                      for t in spec.tones)

    fut = _cached(shared, "future", _future_values, spec, t_grid, config.T)

    t1 = config.t_start
    values = _cached(shared, "record", sample_grid, spec, t1, h, len(times))
    # h_k and f_k do not depend on d, so the rows of one spectrum share them
    # to the largest degree; a row of degree d uses the first d
    d_max = max(config.d_list)
    hk = _cached(shared, "hk", exact_hk, spec, np.arange(1, d_max + 1), t1)
    levels = _cached(shared, "levels", lambda: eta_levels(
        times, values, iterated_integrals(times, values, d_max), t_grid))
    y = eta_sum(approx.a, hk[:d], levels, weights)
    sup_err = float(np.abs(fut - y).max())

    applicable = bound_tones if spec.kind == "tones" else bound_paper
    return ErrorRow(spec=spec_name, d=d, nu=nu, eps1=eps1, eps2=eps2,
                    bound_paper=bound_paper, bound_tones=bound_tones,
                    sup_err=sup_err,
                    passed=bool(sup_err <= applicable + 1e-15))


def _quadrature_step(config: ExperimentConfig, pin: bool) -> float:
    # --pin halves the step to produce fixture values
    return 1e-3 * config.T * (0.5 if pin else 1.0)


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


def run_sweep(config: ExperimentConfig, pin: bool = False) -> list:
    """Run the full sweep.  Every spectrum file is loaded before the first
    row, and one that does not load, whose spectrum reaches into the
    config's gap or whose basename another file has, raises ValueError
    naming the file, as does a measurement grid, sample record or eta
    weight array over grid_size's limit; after that, per-row failures are
    recorded and the run continues.  With pin=True the quadrature step is
    halved to produce fixture values."""
    h = _quadrature_step(config, pin)
    t_grid, times = _grids(config, h)
    weights = eta_weights(max(config.d_list), t_grid - config.t_start)
    approximants: dict = {}
    rows = []
    for name, spec in _load_spectra(config):
        try:
            if config.nu_list is not None:
                nus = list(config.nu_list)
            else:
                nus = [select_nu(spec, config.taper_family, config.eps1_target)]
        except Exception as exc:  # noqa: BLE001 - recorded per row
            rows.extend(ErrorRow(spec=name, d=d, nu=math.nan,
                                 error=f"{type(exc).__name__}: {exc}")
                        for d in config.d_list)
            continue
        shared: dict = {}
        for d in config.d_list:
            for nu in nus:
                try:
                    rows.append(_run_row(config, name, spec, d, nu, h,
                                         times, t_grid, weights,
                                         approximants, shared))
                except Exception as exc:  # noqa: BLE001 - recorded per row
                    rows.append(ErrorRow(spec=name, d=d, nu=nu,
                                         error=f"{type(exc).__name__}: {exc}"))
    return rows


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def emit_report(rows, fmt: str, path, convergence=None) -> None:
    """Write the sweep table; same table and format give byte-identical
    files.  CSV columns are fixed; JSON mirrors the fields and lists failing
    row indices in its exit metadata, and the convergence verdict (a
    convergence_verdict dict) when one is given."""
    if not rows:
        raise ValueError("refusing to emit an empty report")
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in rows:
            lines.append(",".join([
                row.spec, _fmt(row.d), _fmt(row.nu), _fmt(row.eps1),
                _fmt(row.eps2), _fmt(row.bound_paper), _fmt(row.bound_tones),
                _fmt(row.sup_err), _fmt(row.passed)]))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        return
    if fmt == "json":
        payload = {
            "rows": [asdict(row) for row in rows],
            "failing_rows": [i for i, row in enumerate(rows) if not row.passed],
            "all_pass": all(row.passed for row in rows),
        }
        if convergence is not None:
            payload["convergence"] = convergence
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    raise ValueError(f"unknown report format {fmt!r}")


def write_reports(rows, out_dir, config: ExperimentConfig,
                  pin: bool = False) -> dict:
    """Write report.csv, report.json (with the convergence verdict) and, when
    pinned, fixtures.json into out_dir; return the verdict."""
    os.makedirs(out_dir, exist_ok=True)
    verdict = convergence_verdict(rows)
    emit_report(rows, "csv", os.path.join(out_dir, "report.csv"))
    emit_report(rows, "json", os.path.join(out_dir, "report.json"),
                convergence=verdict)
    if pin:
        payload = {
            "settings": {
                "dense_factor": CERT_DENSITY,
                "quadrature_step": _quadrature_step(config, pin),
                "pinned": True,
            },
            "rows": [asdict(row) for row in rows],
        }
        with open(os.path.join(out_dir, "fixtures.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return verdict


@dataclass
class ConvergenceVerdict:
    passed: bool
    failures: list


def convergence_check(rows) -> ConvergenceVerdict:
    """Assert the sweep exhibits the expected convergence shape: sup error
    non-increasing (within 10% of its own value) along each ascending-d sweep
    at fixed nu, and the minimum achieved error strictly decreasing as nu
    decreases with d re-optimized.  Both tests forgive errors at the 1e-15
    round-off floor, so an exact sweep passes.  Failures identify the
    offending transition."""
    clean = [r for r in rows if r.error is None]
    by_spec: dict = {}
    for row in clean:
        by_spec.setdefault(row.spec, {}).setdefault(row.nu, {})[row.d] = row.sup_err
    if not by_spec:
        raise ValueError("insufficient sweep coverage: no usable rows")
    failures = []
    for spec_name, by_nu in by_spec.items():
        if len(by_nu) < 3:
            raise ValueError(
                f"insufficient sweep coverage: spec {spec_name} has "
                f"{len(by_nu)} nu values, need >= 3")
        for nu, by_d in by_nu.items():
            if len(by_d) < 3:
                raise ValueError(
                    f"insufficient sweep coverage: spec {spec_name}, nu={nu} "
                    f"has {len(by_d)} degrees, need >= 3")
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
    return ConvergenceVerdict(passed=not failures, failures=failures)


def convergence_verdict(rows) -> dict:
    """convergence_check's verdict as report.json records it, or
    {"passed": None, "skipped": reason} when coverage is too small."""
    try:
        return asdict(convergence_check(rows))
    except ValueError as exc:
        return {"passed": None, "skipped": str(exc)}
