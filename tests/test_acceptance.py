"""Acceptance criteria, one test per criterion.

Each test prints a single pass line with its measured quantities (visible
with `pytest -s` or on failure) and enforces the stated tolerance and
runtime budget.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from gap_predict.approx import CERT_DENSITY, fit_approximant
from gap_predict.predictor import (eta_sum, iterated_integrals,
                                   predict_convolution, predict_fitted)
from gap_predict.signal import (SpectrumSpec, epsilon1, exact_etaP,
                                sample_grid, select_nu)
from gap_predict.taper import TaperSpec, eval_taper

from oracles import (l1_budget, psi, psi_by_complex_recurrence, sample,
                     sample_index)

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
CONFIG_DIR = os.path.join(ROOT, "configs")
GAUSS03 = TaperSpec("gaussian", 0.3)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, \
                f"{self.name} took {self.elapsed:.2f}s (budget {self.seconds}s)"


def report(name, detail, budget):
    print(f"[acceptance] {name} PASS ({budget.elapsed:.2f}s): {detail}")


def predict_eta(approx, etaP, times, values, t_eval):
    """The recurrence of approx with constants etaP on the sampled window
    (times, values) from t1 = times[0], at the sample times t_eval: the
    window's levels there, weighted by sigma_j c_j."""
    z = iterated_integrals(times, values, approx.d, approx.omega_gap, etaP)
    return eta_sum(approx, z[:, sample_index(times, t_eval)])


def conv_at(approx, times, values, idx, L):
    """The convolution's (y_hat, tail_diag) at the sample indices idx: its
    outputs start at the first sample with a full window of L."""
    y, tail = predict_convolution(approx, times, values, history_length=L)
    at = np.asarray(idx) - (len(times) - len(y))
    assert at.min() >= 0
    return y[at], tail[at]


def test_criterion_1_parity_mapping_identity():
    with Budget("criterion 1", 1.0) as budget:
        rng = np.random.default_rng(2024)
        omegas = rng.uniform(1.0, 10.0, 100)
        worst_decomp = 0.0
        worst_conj = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 13))
            j = np.arange(d + 1)
            even = np.where(j % 2 == 0, rng.uniform(-1, 1, d + 1), 0.0)
            odd = np.where(j % 2 == 1, rng.uniform(-1, 1, d + 1), 0.0)
            even[0] = 0.0
            c = even + odd
            # Re psi is the even Chebyshev series in s = omega_gap / omega
            # less its value at 0, Im psi the odd one: sum_j sigma_j c_j
            # (P_j(v) - P_j(0)) by its complex recurrence in v = 1/(i omega)
            vals = psi(c, 1.0, omegas)
            ref = psi_by_complex_recurrence(c, 1.0, omegas)
            worst_decomp = max(worst_decomp,
                               float(np.abs(vals.real - ref.real).max()),
                               float(np.abs(vals.imag - ref.imag).max()))
            conj_gap = np.abs(psi(c, 1.0, -omegas) - np.conj(vals))
            worst_conj = max(worst_conj, float(conj_gap.max()))
        assert worst_decomp < 1e-12
        assert worst_conj <= 1e-14
    report("criterion 1 (parity/mapping identity)",
           f"decomposition gap {worst_decomp:.2e} < 1e-12, "
           f"conjugate gap {worst_conj:.2e} <= 1e-14", budget)


def test_criterion_2_approximation_decay():
    with Budget("criterion 2", 5.0) as budget:
        eps2 = {}
        for d in (4, 8, 12, 16, 20):
            eps2[d] = fit_approximant(1.0, 1.0, GAUSS03, d).eps2
        degrees = sorted(eps2)
        for lo, hi in zip(degrees, degrees[1:]):
            assert eps2[hi] < eps2[lo], \
                f"eps2 failed to decrease strictly from d={lo} to d={hi}"
        with open(os.path.join(CONFIG_DIR, "fixtures_decay.json"),
                  encoding="utf-8") as fh:
            fixtures = json.load(fh)
        assert CERT_DENSITY == 16
        pinned = {row["d"]: row["eps2"] for row in fixtures["rows"]}
        assert eps2[20] < pinned[20] * 1.01
    report("criterion 2 (approximation decay)",
           "eps2 strictly decreasing over d=4..20: "
           + " > ".join(f"{eps2[d]:.4e}" for d in degrees)
           + f"; eps2(20) < fixture {pinned[20]:.4e} * 1.01", budget)


def test_criterion_3_frequency_response_law():
    with Budget("criterion 3", 10.0) as budget:
        T, omega0 = 1.0, 2.0
        approx = fit_approximant(T, 1.0, GAUSS03, 2)
        E = complex(np.exp(1j * omega0 * T) - psi(approx.c, 1.0, omega0))
        abs_E = abs(E)

        # eta mode on the tone itself, exact-eta seeded, on a 4-period grid
        # whose lattice contains the phase peak of the error signal
        tone = SpectrumSpec.from_tones(1.0, [(omega0, 1.0)])
        phase = np.angle(E)
        t_peak = (4.0 * math.pi - phase) / omega0   # a |cos| = 1 time, > 2pi
        dt = math.pi / 200.0
        h = dt / 157.0
        t1 = t_peak - dt * round(2.0 * math.pi / dt)   # 4 periods below peak
        n = int(round((t_peak + 2.0 * math.pi - t1) / h)) + 1
        times = t1 + h * np.arange(n)
        values = sample_grid(tone, t1, h, n)
        etaP = exact_etaP(tone, 1.0, 2, t1)
        t_grid = times[::157]                            # step dt, hits t_peak
        y = predict_eta(approx, etaP, times, values, t_grid)
        truth = sample_grid(tone, t_grid[0] + T, dt, len(t_grid))
        sup_eta = float(np.abs(truth - y).max())
        assert abs(sup_eta - abs_E) <= 1e-6

        # conv mode on the matched bump surrogate (same center frequency,
        # peak amplitude normalized to the tone's)
        hw = 0.15
        unit = SpectrumSpec.from_bumps(1.0, [(omega0, hw, 1.0)])
        surrogate = SpectrumSpec.from_bumps(
            1.0, [(omega0, hw, 1.0 / sample(unit, 0.0))])
        L, hc = 700.0, 1e-3
        t_peak0 = t_peak - 2.0 * math.pi   # the |cos| peak nearest t = 0
        t_lo = t_peak0 - math.pi - L
        n = int(round((t_peak0 + math.pi - t_lo) / hc)) + 1
        xs = sample_grid(surrogate, t_lo, hc, n)
        times = t_lo + hc * np.arange(n)
        idx = [int(round((t - t_lo) / hc)) for t in
               np.arange(t_peak0 - math.pi, t_peak0 + math.pi + 1e-9, 0.0628)]
        y_conv, tail = conv_at(approx, times, xs, idx, L)
        truth = np.array([sample(surrogate, times[i] + T) for i in idx])
        sup_conv = float(np.abs(truth - y_conv).max())
        tail_max = float(tail.max())
        assert abs(sup_conv - abs_E) <= 1e-6 + tail_max
        assert abs(sup_conv - abs_E) < 0.01   # the law is visibly at work
    report("criterion 3 (frequency-response law)",
           f"|E|={abs_E:.6f}; eta sup gap {abs(sup_eta - abs_E):.2e} <= 1e-6; "
           f"conv sup gap {abs(sup_conv - abs_E):.2e} <= 1e-6 + "
           f"tail {tail_max:.2e}", budget)


def test_criterion_4_error_budget_bump():
    with Budget("criterion 4", 60.0) as budget:
        T, gap, d = 1.0, 1.0, 16
        center, hw = 2.0, 0.45
        unit = SpectrumSpec.from_bumps(gap, [(center, hw, 1.0)])
        spec = SpectrumSpec.from_bumps(
            gap, [(center, hw, 1.0 / l1_budget(unit))])
        assert l1_budget(spec) == pytest.approx(1.0, abs=1e-9)

        nu = select_nu(spec, "gaussian", 0.05)
        taper = TaperSpec("gaussian", nu)
        approx = fit_approximant(T, gap, taper, d)
        eps1 = epsilon1(spec, taper)
        assert eps1 <= 0.05
        bound = (eps1 + approx.eps2) / (2.0 * math.pi)

        t1, h = -2.0, 1e-4
        n = int(round(4.0 / h)) + 1
        times = t1 + h * np.arange(n)
        values = sample_grid(spec, t1, h, n)
        etaP = exact_etaP(spec, gap, d, t1)
        t_grid = t1 + 0.01 * np.arange(401)
        y = predict_eta(approx, etaP, times, values, t_grid)
        truth = np.array([sample(spec, t + T) for t in t_grid])
        measured = float(np.abs(truth - y).max())

        assert measured <= bound
    report("criterion 4 (error budget, bump with unit budget)",
           f"nu={nu:.4f}, eps1={eps1:.4f}, eps2={approx.eps2:.4f}; measured "
           f"sup {measured:.6f} <= bound {bound:.6f}", budget)


def test_criterion_5_representation_equivalence():
    with Budget("criterion 5", 30.0) as budget:
        T, d = 1.0, 4
        spec = SpectrumSpec.from_bumps(1.0, [(2.0, 0.9, 1.0)])
        approx = fit_approximant(T, 1.0, GAUSS03, d)

        t1 = 2.0
        L, hc = 800.0, 5e-4
        t_lo = t1 - L
        n = int(round((t1 + 5.0 - t_lo) / hc)) + 1
        xs = sample_grid(spec, t_lo, hc, n)
        ctimes = t_lo + hc * np.arange(n)

        he = 1e-4
        ne = int(round(5.0 / he)) + 1
        etimes = t1 + he * np.arange(ne)
        evalues = sample_grid(spec, t1, he, ne)
        etaP = exact_etaP(spec, 1.0, d, t1)

        idx = [int(round((t1 + s - t_lo) / hc))
               for s in np.linspace(0.0, 5.0, 50)]
        t_eval = ctimes[idx]
        y_eta = predict_eta(approx, etaP, etimes, evalues, t_eval)
        y_conv, tail = conv_at(approx, ctimes, xs, idx, L)
        worst = float(np.abs(y_conv - y_eta).max())
        tail_max = float(tail.max())
        assert worst <= max(1e-6, tail_max)

        # collapse at the reference time is exact: every integral is 0, so
        # z_1 = omega_gap etaP_0 and z_{j+1} = 2 omega_gap etaP_j + z_{j-1}
        y_t1 = predict_eta(approx, etaP, etimes, evalues, [t1])[0]
        z = [0.0, etaP[0]]
        for j in range(1, d):
            z.append(etaP[j] * 2.0 + z[j - 1])
        assert y_t1 == approx.weights @ np.array(z)
    report("criterion 5 (conv/eta representation equivalence)",
           f"max |conv - eta| = {worst:.2e} <= max(1e-6, tail {tail_max:.2e}); "
           f"collapse at t1 exact", budget)


def test_criterion_6_fit_eta_round_trip():
    with Budget("criterion 6", 30.0) as budget:
        d = 6
        spec = SpectrumSpec.from_tones(1.0, [(2.0, 1.0)])
        approx = fit_approximant(1.0, 1.0, GAUSS03, d)
        h = 1e-4
        n = int(round(8.0 / h)) + 1
        times = h * np.arange(n)
        values = sample_grid(spec, 0.0, h, n)

        # observations of phi, the prediction with etaP = 0 from the middle
        # sample, plus a known polynomial in the Chebyshev basis on the fit
        # span: the samples at 0.5, 1.7, ..., 6.5
        rng = np.random.default_rng(7)
        c_true = rng.standard_normal(d)
        idx = np.arange(5000, 65001, 12000)
        phi = eta_sum(approx, iterated_integrals(times, values, d, 1.0,
                                                 np.zeros(d), n // 2))
        u = (2.0 * times[idx] - (0.5 + 6.5)) / (6.5 - 0.5)
        zeta = phi[idx] + np.polynomial.chebyshev.chebval(u, c_true)
        y, c, span, cond = predict_fitted(approx, times, values, idx, zeta)
        rel = float(np.max(np.abs(c - c_true)) / np.max(np.abs(c_true)))
        resid_rel = float(np.max(np.abs(y[idx] - zeta))
                          / np.linalg.norm(zeta))
        assert span == (0.5, 6.5) and cond < 10
        assert rel <= 1e-10
        assert resid_rel <= 1e-10

        # overdetermined fit against true future observations of the tone,
        # at 12 evenly spread samples
        idx12 = np.rint(np.linspace(5000, 65000, 12)).astype(int)
        zeta12 = np.array([sample(spec, tm + 1.0) for tm in times[idx12]])
        y12, _, _, _ = predict_fitted(approx, times, values, idx12, zeta12)
        r_tone = float(eval_taper(GAUSS03, 2.0))
        bound_tones = 2.0 * 1.0 * (abs(1.0 - r_tone) + approx.eps2)
        max_resid12 = float(np.max(np.abs(y12[idx12] - zeta12)))
        assert max_resid12 <= bound_tones
    report("criterion 6 (eta fit round trip)",
           f"polynomial recovery rel err {rel:.2e} <= 1e-10 (cond "
           f"{cond:.3f}), residual {resid_rel:.2e}||zeta|| <= "
           f"1e-10||zeta||; overdetermined residual {max_resid12:.3e} <= "
           f"tone bound {bound_tones:.3e}", budget)


def test_criterion_7_epsilon1_machinery():
    with Budget("criterion 7", 30.0) as budget:
        rng = np.random.default_rng(99)
        worst_violation = 0.0
        for _ in range(10):
            n_tones = int(rng.integers(1, 4))
            spec = SpectrumSpec.from_tones(
                1.0, [(float(rng.uniform(1.0, 8.0)),
                       complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                      for _ in range(n_tones)])
            nus = np.sort(rng.uniform(1e-3, 1.0, 4))
            vals = [epsilon1(spec, TaperSpec("gaussian", nu)) for nu in nus]
            for lo, hi in zip(vals, vals[1:]):
                worst_violation = max(worst_violation, lo - hi)
        assert worst_violation <= 1e-15

        spec = SpectrumSpec.from_tones(1.0, [(2.0, 1.0)])
        closed = 2.0 * (1.0 - math.exp(-1.0))
        assert epsilon1(spec, TaperSpec("gaussian", 0.5)) == \
            pytest.approx(closed, abs=1e-12)
        nu = select_nu(spec, "gaussian", closed)
        assert abs(nu - 0.5) <= 1e-3 * 0.5 + 1e-12
    report("criterion 7 (epsilon1 machinery)",
           f"monotone in nu (worst violation {worst_violation:.1e}); closed "
           f"form 2(1-1/e) to 1e-12; select_nu -> {nu:.6f} (target 0.5, "
           "1e-3 relative)", budget)


def test_criterion_8_determinism(tmp_path):
    with Budget("criterion 8", 60.0) as budget:
        config = os.path.join(CONFIG_DIR, "demo.json")
        # the child imports the package from this checkout's src/
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.join(ROOT, "src"),
                          os.environ.get("PYTHONPATH")])))
        outs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "gap_predict.cli", "eval",
                 "--config", config, "--out", str(out)],
                capture_output=True, text=True, cwd=ROOT, env=env)
            assert proc.returncode == 0, proc.stderr + proc.stdout
            outs.append((out / "report.csv").read_bytes())
        assert outs[0] == outs[1]
        n_rows = len(outs[0].splitlines()) - 1
    report("criterion 8 (determinism)",
           f"two `gap-predict eval` runs of the shipped demo config produced "
           f"byte-identical report.csv ({n_rows} rows)", budget)
