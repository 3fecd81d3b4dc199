"""Seeded inputs and output oracles for the gap-predict benchmark.

Every workload is generated from ``--seed`` alone and written to files; the
program only ever sees those files (spectrum specs, an experiment config, an
approximant and a sample CSV).  The oracles below use the benchmark's own
numerics (closed-form tone sums, Gauss-Legendre bump quadrature, its own
Simpson sum and trapezoid integrals), never the library's, so a change to a
library routine cannot also change the number it is checked against.

Seeds perturb every input, so no result can be reused across seeds, but the
draws are kept narrow: the outputs checked here (largest prediction error,
work per job) must not move by more than their bounds from seed to seed.
Wider draws are not stable because the truncated-convolution error follows
the phase ``centre * L`` of the bump's time-domain tail, and the fitted-eta
realization amplifies round-off by its condition number.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

T = 1.0
OMEGA_GAP = 1.0
TAPER = "gaussian"
GL_NODES = 400
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_NODES)
_PROFILE = np.exp(-1.0 / (1.0 - _GL_X ** 2))
BUMP_I0 = float(_GL_W @ _PROFILE)  # int_{-1}^{1} exp(-1/(1-s^2)) ds

WORKLOADS = ("sweep_tone", "sweep_bump", "predict_conv", "predict_eta")


@dataclass
class Check:
    """Outcome of one full oracle pass over a job's outputs."""

    items: int
    failed: int
    max_err: float
    notes: dict


@dataclass
class Workload:
    """One generated `gap-predict` invocation and its oracle."""

    name: str
    argv: list            # arguments after the program name
    items: int            # sweep rows or predictions per invocation
    outputs: list         # files the command writes; compared byte for byte
    check: Callable[[], Check]
    predicted_top: tuple  # modules expected to hold the largest self time


# ---------------------------------------------------------------- generators

def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def _draw_tones(rng, count):
    """Tones at omega in [2.0, 2.2] with real amplitudes, unit spectral budget
    2 * sum |c| = 1 (the tone analog of an L1 budget)."""
    while True:
        omega = rng.uniform(2.0, 2.2, count)
        if np.all(omega > OMEGA_GAP):    # reject any draw inside the gap
            break
    mag = rng.uniform(0.5, 1.0, count)
    mag /= 2.0 * mag.sum()
    return [(float(w), float(c)) for w, c in zip(omega, mag)]


def _draw_bump(rng, centre_spread, width_spread):
    """A unit-L1 bump around centre 2.1, half width 0.45."""
    while True:
        centre = 2.1 + rng.uniform(-centre_spread, centre_spread)
        half = 0.45 + rng.uniform(-width_spread, width_spread)
        if centre - half > OMEGA_GAP:    # reject any draw reaching the gap
            break
    return float(centre), float(half), 1.0 / (2.0 * half * BUMP_I0)


def _bump_nodes(bump):
    centre, half, amp = bump
    return centre + half * _GL_X, half * _GL_W * amp * _PROFILE


def bump_signal(bump, times):
    """x(t) = (1/pi) int X(w) cos(w t) dw by Gauss-Legendre on the support."""
    om, w = _bump_nodes(bump)
    times = np.asarray(times, dtype=float)
    out = np.empty_like(times)
    for i in range(0, len(times), 2000):
        out[i:i + 2000] = np.cos(np.outer(times[i:i + 2000], om)) @ w
    return out / math.pi


def bump_eps1(bump, nu):
    """Spectral mass lost to the gaussian taper, 2 int (1 - r(nu w)) X dw."""
    om, w = _bump_nodes(bump)
    return 2.0 * float(w @ (1.0 - np.exp(-np.square(nu * om))))


def _window(dt, span):
    """(t_start, t_end, dt) spanning a whole number of dt steps, dt itself a
    whole number of the harness's 1e-3*T quadrature steps; otherwise the
    measurement grid overshoots t_end and eta rows error."""
    steps = int(round(span / dt))
    return 0.0, float(f"{steps * dt:.12g}"), dt


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _tone_spec(tones):
    return {"omega_gap": OMEGA_GAP, "kind": "tones",
            "tones": [{"omega": w, "re": c, "im": 0.0} for w, c in tones]}


def _bump_spec(bump):
    centre, half, amp = bump
    return {"omega_gap": OMEGA_GAP, "kind": "bump",
            "bumps": [{"center": centre, "half_width": half, "amplitude": amp}]}


# ------------------------------------------------------------------- sweeps

def _read_report(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _sweep(name, workdir, kinds, d_list, extra, row_check, predicted):
    files = []
    for j, spec in enumerate(kinds):
        path = os.path.join(workdir, f"spec{j}.json")
        _write_json(path, spec)
        files.append(path)
    cfg = {"spec_files": files, "T": T, "omega_gap": OMEGA_GAP,
           "taper_family": TAPER, "d_list": list(d_list), "modes": ["eta"]}
    cfg.update(extra)
    cfg_path = os.path.join(workdir, "config.json")
    _write_json(cfg_path, cfg)
    out_dir = os.path.join(workdir, "out")
    nus = cfg.get("nu_list") or [None]
    expected = [(f"spec{j}", d, nu) for j in range(len(files))
                for d in d_list for nu in nus]

    def check():
        try:
            rows = _read_report(os.path.join(out_dir, "report.csv"))
        except OSError:
            rows = []
        failed, worst = 0, 0.0
        for i, (spec, d, nu) in enumerate(expected):
            row = rows[i] if i < len(rows) else None
            ok = (row is not None and row["spec"] == spec
                  and int(row["d"]) == d and row["pass"] == "true"
                  and (nu is None or float(row["nu"]) == nu))
            if ok:
                vals = {k: float(row[k]) for k in
                        ("nu", "eps1", "eps2", "bound_paper", "bound_tones",
                         "sup_err")}
                ok = (all(math.isfinite(v) for v in vals.values())
                      and _close(vals["bound_paper"],
                                 (vals["eps1"] + vals["eps2"]) / (2 * math.pi),
                                 1e-12)
                      and row_check(int(spec[4:]), vals))
                worst = max(worst, vals["sup_err"])
            failed += not ok
        failed += max(0, len(rows) - len(expected))
        return Check(items=len(expected), failed=failed, max_err=worst,
                     notes={})

    argv = ["eval", "--config", cfg_path, "--out", out_dir]
    return Workload(name=name, argv=argv, items=len(expected),
                    outputs=[os.path.join(out_dir, "report.csv"),
                             os.path.join(out_dir, "report.json")],
                    check=check, predicted_top=predicted)


def sweep_tone(seed, workdir):
    """Tone spectra: closed-form truth, so the sweep is fit, certification
    and the eta predictor, with no quadrature."""
    rng = _rng(seed, "sweep_tone")
    tones = [_draw_tones(rng, 2) for _ in range(3)]
    t0, t1, dt = _window(0.01, 2.0 * math.pi / OMEGA_GAP)

    def row_check(j, v):
        # closed-form point-mass eps1 and tone bound for this row's nu, eps2
        loss = [1.0 - math.exp(-(v["nu"] * w) ** 2) for w, _ in tones[j]]
        eps1 = 2.0 * sum(c * l for (_, c), l in zip(tones[j], loss))
        bound = sum(2.0 * c * (l + v["eps2"])
                    for (_, c), l in zip(tones[j], loss))
        return (_close(v["eps1"], eps1, 1e-12)
                and _close(v["bound_tones"], bound, 1e-12))

    return _sweep("sweep_tone", workdir, [_tone_spec(t) for t in tones],
                  (8, 16, 24, 32),
                  {"nu_list": [0.5, 0.4, 0.3], "t_start": t0, "t_end": t1,
                   "dt": dt}, row_check, ("predictor", "approx"))


EPS1_TARGET = 0.05


def sweep_bump(seed, workdir):
    """Bump spectra with an eps1 target: select_nu bisection, then truth by
    adaptive quadrature at every measurement time of every row."""
    rng = _rng(seed, "sweep_bump")
    bumps = [_draw_bump(rng, 0.02, 0.01) for _ in range(2)]
    t0, t1, dt = _window(0.1, 0.8)

    def row_check(j, v):
        # select_nu returns the largest lattice nu (relative step 1e-3) with
        # eps1 <= target, so eps1 sits just below the target
        return (EPS1_TARGET * 0.99 <= v["eps1"] <= EPS1_TARGET
                and _close(v["eps1"], bump_eps1(bumps[j], v["nu"]), 1e-7)
                and v["bound_tones"] == 0.0)

    return _sweep("sweep_bump", workdir, [_bump_spec(b) for b in bumps],
                  (4, 8, 16),
                  {"eps1_target": EPS1_TARGET, "t_start": t0, "t_end": t1,
                   "dt": dt}, row_check, ("signal",))


# -------------------------------------------------------------- predictions

RECORD_T0 = -10.0
RECORD_DT = 1e-3
RECORD_N = 12001      # t in [-10, 2]; conv predicts on its last 2 time units
NU = 0.3


def _record(seed, workdir, name, d, fit_approximant, save_approximant,
            taper_spec):
    rng = _rng(seed, name)
    bump = _draw_bump(rng, 0.005, 0.005)
    lead = int(round(T / RECORD_DT))
    times = RECORD_T0 + RECORD_DT * np.arange(RECORD_N + lead)
    x = bump_signal(bump, times)      # extends T past the record for truth
    samples = os.path.join(workdir, "samples.csv")
    with open(samples, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,x\n")
        for t, v in zip(times[:RECORD_N], x[:RECORD_N]):
            fh.write(f"{t:.17g},{v:.17g}\n")
    approx = fit_approximant(T, OMEGA_GAP, taper_spec(TAPER, NU), d)
    ap_path = os.path.join(workdir, "approx.json")
    save_approximant(approx, ap_path)
    with open(ap_path, encoding="utf-8") as fh:
        a = np.asarray(json.load(fh)["a"], dtype=float)
    # truth and budget come from the benchmark's own synthesis and eps1
    bound = (bump_eps1(bump, NU) + approx.eps2) / (2.0 * math.pi)
    return times, x, samples, a, bound, lead


def _load_pred(path, rows):
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError):
        return None
    if data.shape != (rows, 3):
        return None
    return data


def _kernel(a, lags):
    acc = np.full_like(lags, a[0])
    term = np.ones_like(lags)
    for k in range(2, len(a) + 1):
        term = term * lags / (k - 1)
        acc = acc + a[k - 1] * term
    return acc


def predict_conv(seed, workdir, lib):
    """Truncated polynomial-kernel convolution, d = 4, L = 10 T."""
    times, x, samples, a, bound, lead = _record(seed, workdir, "predict_conv",
                                                 4, *lib)
    n_lag = int(round(10.0 * T / RECORD_DT))
    items = RECORD_N - n_lag
    out = os.path.join(workdir, "pred.csv")
    simpson_w = np.ones(n_lag + 1)
    simpson_w[1:-1:2], simpson_w[2:-1:2] = 4.0, 2.0
    simpson_w *= RECORD_DT / 3.0
    kern = _kernel(a, RECORD_DT * np.arange(n_lag, -1, -1))

    def check():
        data = _load_pred(out, items)
        if data is None:
            return Check(items, items, math.inf, {})
        idx = np.arange(n_lag, RECORD_N)
        y, tail = data[:, 1], data[:, 2]
        err = np.abs(y - x[idx + lead])
        bad = ~np.isfinite(data).all(axis=1)
        bad |= np.abs(data[:, 0] - times[idx]) > 1e-9
        # the harness's conv budget: paper bound plus the largest truncation
        # indicator of the run (the indicator is not a pointwise bound)
        bad |= err > bound + tail.max() + 1e-6
        # an independent composite Simpson sum at nine output times
        worst = 0.0
        for j in np.linspace(0, items - 1, 9).astype(int):
            i = n_lag + j
            window = x[i - n_lag:i + 1]
            ref = float(simpson_w @ (kern * window))
            ref_tail = abs(kern[0] * window[0]) * 10.0 * T
            scale = float(simpson_w @ np.abs(kern * window))
            worst = max(worst, abs(ref - y[j]) / scale,
                        abs(ref_tail - tail[j]) / max(ref_tail, 1e-300))
        failed = items if worst > 1e-9 else int(bad.sum())
        return Check(items, failed, float(err.max()),
                     {"simpson_rel_diff": worst, "tail_max": float(tail.max())})

    return Workload("predict_conv", ["predict", "--approx", os.path.join(
        workdir, "approx.json"), "--samples", samples, "--mode", "conv",
        "--out", out], items, [out], check, ("predictor",))


def predict_eta(seed, workdir, lib):
    """Eta-state prediction, d = 16, eta constants fitted inside the CLI."""
    times, x, samples, a, bound, lead = _record(seed, workdir, "predict_eta",
                                                 16, *lib)
    items = RECORD_N
    out = os.path.join(workdir, "pred.csv")
    d = len(a)
    # the benchmark's own iterated trapezoid integrals of the record
    f_sum = np.zeros(RECORD_N)
    cur = x[:RECORD_N]
    for k in range(d):
        cur = np.concatenate(
            ([0.0], np.cumsum(0.5 * RECORD_DT * (cur[1:] + cur[:-1]))))
        f_sum += a[k] * cur
    u = np.linspace(-1.0, 1.0, RECORD_N)
    in_record = np.arange(RECORD_N) + lead < RECORD_N

    def check():
        data = _load_pred(out, items)
        if data is None:
            return Check(items, items, math.inf, {})
        y = data[:, 1]
        bad = ~np.isfinite(data).all(axis=1)
        bad |= np.abs(data[:, 0] - times[:RECORD_N]) > 1e-9
        bad |= data[:, 2] != 0.0
        # whatever the fitted constants, y - sum_k a_k f_k is a polynomial of
        # degree < d in t - t1; a wrong realization leaves a residual
        r = y - f_sum
        resid = r - np.polynomial.chebyshev.chebval(
            u, np.polynomial.chebyshev.chebfit(u, r, d - 1))
        poly_rel = float(np.abs(resid).max() / max(np.abs(r).max(), 1e-300))
        err = np.abs(y - x[lead:lead + RECORD_N])
        failed = items if poly_rel > 1e-11 else int(bad.sum())
        # max_err covers predictions whose truth x(t+T) lies in the record;
        # the last T is a forecast past the fitted span and is reported apart
        return Check(items, failed, float(err[in_record].max()),
                     {"poly_rel_resid": poly_rel, "paper_bound": bound,
                      "forecast_err": float(err[~in_record].max())})

    return Workload("predict_eta", ["predict", "--approx", os.path.join(
        workdir, "approx.json"), "--samples", samples, "--mode", "eta",
        "--out", out], items, [out], check, ("cli",))


def make(name, seed, workdir, lib):
    """Generate workload `name` for `seed` into `workdir`.  `lib` supplies
    (fit_approximant, save_approximant, TaperSpec) for the approximant file
    the predict workloads hand to the program."""
    if name == "sweep_tone":
        return sweep_tone(seed, workdir)
    if name == "sweep_bump":
        return sweep_bump(seed, workdir)
    if name == "predict_conv":
        return predict_conv(seed, workdir, lib)
    return predict_eta(seed, workdir, lib)
