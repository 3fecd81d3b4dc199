"""Experiment driver: (d, nu) sweeps, error measurement, budget checks.

For every combination of spectrum file, degree and taper scale the sweep fits
an approximant, computes the two error budgets (the L1-spectrum form
(eps1 + eps2) / 2pi and the tone point-mass form
sum_j 2|c_j| (|1 - r_nu(w_j)| + eps2)), runs the eta-state realization with
the exact constants h_k(t_start) on a measurement grid, and records the sup
error against the exact future values together with an itemized numerical
slack.  A row passes when the measured sup error stays below the bound
matching its spectrum kind plus the slack.  eps2 is the approximant's own
certificate, computed once at approx.CERT_DENSITY; the slack items cover the
quadrature of the truth and of the realization, not the certification.
The conv and fit-eta realizations, whose rows passed only on slack or always
failed, are not swept; the command line keeps them.

Work that several rows share is computed once within one run_sweep call:

* once per sweep: the measurement grid, and per (d, nu) each approximant
  and the kernel factor of its eta-trap slack, shared by every spectrum;
* once per spectrum: the second moment, the future values x(t + T), the
  constants h_k(t_start) up to the largest degree, the sample record from
  t_start and its iterated integrals to max(d_list), whose first d serve
  the rows of degree d (they do not depend on d);
* once per row: eps1, the bounds, the row's prediction on the measurement
  grid (predictor.predict_eta_grid on its degree-d eta state, the entry
  point the command line uses) and the slack.

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
from dataclasses import dataclass, field, asdict, replace
from typing import Optional

import numpy as np

from .approx import CERT_DENSITY, fit_approximant
from .predictor import (EtaState, iterated_integrals, kernel_eval,
                        predict_eta_grid)
from .signal import (SpectrumSpec, epsilon1, exact_hk, load_spectrum,
                     sample_grid, second_moment, select_nu)
from .taper import TaperSpec, eval_taper

__all__ = ["ExperimentConfig", "ErrorRow", "run_sweep", "emit_report",
           "write_reports", "ConvergenceVerdict", "convergence_check"]

CSV_COLUMNS = ("spec", "d", "nu", "eps1", "eps2", "bound_paper",
               "bound_tones", "sup_err", "slack", "pass")

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
    out_dir: Optional[str] = None

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
    slack: float = math.nan
    passed: bool = False
    slack_items: dict = field(default_factory=dict)
    mode_sup: dict = field(default_factory=dict)
    error: Optional[str] = None


def _measurement_grid(config: ExperimentConfig) -> np.ndarray:
    # whole dt steps that stay within [t_start, t_end]
    n = int(np.floor((config.t_end - config.t_start) / config.dt + 1e-9)) + 1
    return config.t_start + config.dt * np.arange(n)


def _record(spec, t0, t_end, h):
    # uniform samples from t0 that reach t_end
    n = int(np.ceil((t_end - t0) / h - 1e-9)) + 1
    return t0 + h * np.arange(n), sample_grid(spec, t0, h, n)


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
    # the approximant and the kernel of |a| over the record, K_|a|(t_end -
    # t_start), which scales its eta-trap slack
    nodes = (None if config.fit_node_factor is None
             else config.fit_node_factor * d)
    approx = fit_approximant(config.T, config.omega_gap, taper, d,
                             fit_nodes=nodes)
    return approx, kernel_eval(np.abs(approx.a),
                               config.t_end - config.t_start)


def _reference_constants(spec, t1, d, hk):
    # h_1..h_d(t1), extending the list hk of those already computed
    while len(hk) < d:
        hk.append(exact_hk(spec, len(hk) + 1, t1))
    return np.array(hk[:d])


def _run_row(config: ExperimentConfig, spec_name: str, spec: SpectrumSpec,
             d: int, nu: float, h: float, t_grid: np.ndarray,
             approximants: dict, shared: dict) -> ErrorRow:
    # approximants maps (d, nu) to the sweep's fits and their eta-trap kernel
    # factors; shared holds this spectrum's record, its iterated integrals,
    # future values, h_k(t1) and second moment; t_grid is the sweep's
    # measurement grid
    taper = TaperSpec(family=config.taper_family, nu=nu)
    approx, trap_kernel = _cached(approximants, (d, nu), _fit, config, taper,
                                  d)

    eps1 = epsilon1(spec, taper)
    eps2 = approx.eps2
    bound_paper = (eps1 + eps2) / (2.0 * np.pi)
    bound_tones = sum(2.0 * abs(t.amplitude)
                      * (abs(1.0 - float(eval_taper(taper, t.omega))) + eps2)
                      for t in spec.tones)

    fut = _cached(shared, "future", _future_values, spec, t_grid, config.T)

    slack_items: dict = {}
    if spec.kind == "bump":
        # bounds the tested agreement of the bump quadrature rule with
        # adaptive QUADPACK at absolute tolerance 1e-10
        slack_items["quad_abs"] = 2e-10
    m2 = _cached(shared, "m2", second_moment, spec)

    t1 = config.t_start
    times, values = _cached(shared, "record", _record, spec, t1, config.t_end,
                            h)
    eta = _reference_constants(spec, t1, d, shared.setdefault("hk", []))
    # f_k integrates only f_{k-1}, so the rows of one spectrum share the
    # integrals of the largest degree; a row of degree d uses the first d
    f = _cached(shared, "integrals", iterated_integrals, times, values,
                max(config.d_list))
    y = predict_eta_grid(EtaState(eta=eta, times=times, values=values,
                                  f=f[:d], a=approx.a), t_grid)
    sup_err = float(np.abs(fut - y).max())
    slack_items["eta_trap"] = ((h ** 2 / 12.0) * m2
                               * (config.t_end - t1) * trap_kernel)

    slack = float(sum(slack_items.values()))
    applicable = bound_tones if spec.kind == "tones" else bound_paper
    passed = bool(sup_err <= applicable + slack + 1e-15)
    return ErrorRow(spec=spec_name, d=d, nu=nu, eps1=eps1, eps2=eps2,
                    bound_paper=bound_paper, bound_tones=bound_tones,
                    sup_err=sup_err, slack=slack, passed=passed,
                    slack_items=slack_items, mode_sup={"eta": sup_err})


def _quadrature_step(config: ExperimentConfig, pin: bool) -> float:
    # --pin halves the step to produce fixture values
    return 1e-3 * config.T * (0.5 if pin else 1.0)


def _load_spectra(config: ExperimentConfig) -> list:
    # (name, spec) per spectrum file, each checked against the sweep's gap;
    # the error of one that does not load or fit that gap names its path
    spectra = []
    for path in config.spec_files:
        try:
            spec = replace(load_spectrum(path), omega_gap=config.omega_gap)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
        spectra.append((os.path.splitext(os.path.basename(path))[0], spec))
    return spectra


def run_sweep(config: ExperimentConfig, pin: bool = False) -> list:
    """Run the full sweep.  Every spectrum file is loaded before the first
    row, and one that does not load, or whose spectrum reaches into the
    config's gap, raises ValueError naming the file; after
    that, per-row failures are recorded and the run continues.  With
    pin=True the quadrature step is halved to produce fixture values."""
    h = _quadrature_step(config, pin)
    t_grid = _measurement_grid(config)
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
                                         t_grid, approximants, shared))
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


def emit_report(rows, fmt: str, path) -> None:
    """Write the sweep table; same table and format give byte-identical
    files.  CSV columns are fixed; JSON mirrors the fields and lists failing
    row indices in its exit metadata."""
    if not rows:
        raise ValueError("refusing to emit an empty report")
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for row in rows:
            lines.append(",".join([
                row.spec, _fmt(row.d), _fmt(row.nu), _fmt(row.eps1),
                _fmt(row.eps2), _fmt(row.bound_paper), _fmt(row.bound_tones),
                _fmt(row.sup_err), _fmt(row.slack), _fmt(row.passed)]))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        return
    if fmt == "json":
        payload = {
            "rows": [asdict(row) for row in rows],
            "failing_rows": [i for i, row in enumerate(rows) if not row.passed],
            "all_pass": all(row.passed for row in rows),
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    raise ValueError(f"unknown report format {fmt!r}")


def write_reports(rows, out_dir, config: ExperimentConfig,
                  pin: bool = False) -> None:
    os.makedirs(out_dir, exist_ok=True)
    emit_report(rows, "csv", os.path.join(out_dir, "report.csv"))
    emit_report(rows, "json", os.path.join(out_dir, "report.json"))
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


@dataclass
class ConvergenceVerdict:
    passed: bool
    failures: list


def convergence_check(rows) -> ConvergenceVerdict:
    """Assert the sweep exhibits the expected convergence shape: sup error
    non-increasing (within 10% of its own value) along each ascending-d sweep
    at fixed nu, and the minimum achieved error strictly decreasing as nu
    decreases with d re-optimized.  Failures identify the offending
    transition."""
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
            if not mins[i + 1] < mins[i]:
                failures.append(
                    f"spec {spec_name}: min error did not decrease from "
                    f"nu={nus_desc[i]} ({mins[i]:.6g}) to "
                    f"nu={nus_desc[i + 1]} ({mins[i + 1]:.6g})")
    return ConvergenceVerdict(passed=not failures, failures=failures)
