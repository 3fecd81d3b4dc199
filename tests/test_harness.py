import functools
import json
import math
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from gap_predict import approx, harness, signal
from gap_predict.harness import (ErrorRow, ExperimentConfig, Sweep,
                                 convergence_verdict, run_sweep,
                                 write_reports)
from gap_predict.predictor import eta_sum, iterated_integrals
from gap_predict.signal import SpectrumSpec, exact_etaP, sample_grid
from gap_predict.taper import TaperSpec

import oracles
from oracles import sample_index, save_spectrum

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def demo_config():
    return ExperimentConfig.from_json(os.path.join(CONFIG_DIR, "demo.json"))


def small_config(spec_path, **overrides):
    kwargs = dict(spec_files=(str(spec_path),), T=1.0, omega_gap=1.0,
                  taper_family="gaussian", nu_list=(0.5, 0.4, 0.3),
                  d_list=(2, 3, 4), t_start=0.0, t_end=1.5708, dt=0.05)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestConfig:
    def test_demo_config_loads(self):
        config = demo_config()
        assert config.d_list == (8, 16, 24)
        assert os.path.exists(config.spec_files[0])

    def test_validation(self, tmp_path):
        spec_path = tmp_path / "s.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 1.0)]), spec_path)
        with pytest.raises(ValueError):  # unsorted d_list
            small_config(spec_path, d_list=(4, 2))
        with pytest.raises(ValueError):  # both nu_list and eps1_target
            small_config(spec_path, eps1_target=0.1)
        with pytest.raises(ValueError):  # neither
            small_config(spec_path, nu_list=None)
        with pytest.raises(ValueError):
            small_config(spec_path, t_end=-1.0)
        with pytest.raises(ValueError, match="d_list must be nonempty"):
            small_config(spec_path, d_list=())
        with pytest.raises(ValueError, match="nu_list must be nonempty"):
            small_config(spec_path, nu_list=())

    @pytest.mark.parametrize("modes, mode, command", [
        (("conv",), "conv", "gap-predict predict --mode conv"),
        (("eta", "fit-eta"), "fit-eta", "gap-predict fit-eta")])
    def test_rejects_modes_eval_does_not_sweep(self, tmp_path, modes, mode,
                                               command):
        # a config file's modes key other than ["eta"] (demo.json's) is one
        # refusal that names the commands of both other realizations
        spec_path = tmp_path / "s.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 1.0)]), spec_path)
        with open(os.path.join(CONFIG_DIR, "demo.json")) as fh:
            data = dict(json.load(fh), spec_files=[str(spec_path)])
        config_path = tmp_path / "cfg.json"
        for value in (list(modes), ["warp"], []):
            config_path.write_text(json.dumps(dict(data, modes=value)))
            with pytest.raises(ValueError) as info:
                ExperimentConfig.from_json(config_path)
            assert str(info.value) == (
                f'modes must be ["eta"], got {value!r}: eval sweeps only the '
                "eta realization; run gap-predict predict --mode conv or "
                "gap-predict fit-eta for the others")
        assert command in str(info.value)

    @pytest.mark.parametrize("entries, shown", [
        ((8, 8.5, 16), "8.5"), ((True, 8), "True"), (("8",), "'8'"),
        ((1, 8), "1"), ((0, 8), "0"), ((-4, 8), "-4")])
    def test_rejects_degrees_it_cannot_run(self, tmp_path, entries, shown):
        spec_path = tmp_path / "s.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 1.0)]), spec_path)
        with pytest.raises(ValueError) as info:
            small_config(spec_path, d_list=entries)
        assert str(info.value) == f"d_list entry {shown} is not an integer >= 2"

    @pytest.mark.parametrize("entries, shown", [
        ((2.0, 0.4), "2.0"), ((0.5, 0.0), "0.0"), ((-0.3,), "-0.3"),
        ((math.nan,), "nan"), ((math.inf,), "inf"), ((True,), "True"),
        (("0.3",), "'0.3'")])
    def test_rejects_scales_it_cannot_run(self, tmp_path, entries, shown):
        spec_path = tmp_path / "s.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 1.0)]), spec_path)
        with pytest.raises(ValueError) as info:
            small_config(spec_path, nu_list=entries)
        assert str(info.value) == \
            f"nu_list entry {shown} is not a finite number in (0, 1]"

    @pytest.mark.parametrize("key, entries, shown", [
        ("d_list", (8, 8), "8"), ("d_list", (2, 4, 4, 8), "4"),
        ("nu_list", (0.5, 0.5, 0.3), "0.5"), ("nu_list", (0.3, 0.5, 0.3),
                                               "0.3")])
    def test_rejects_repeated_entries(self, tmp_path, key, entries, shown):
        # a repeated entry would sweep, and fit, the same rows twice
        spec_path = tmp_path / "s.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 1.0)]), spec_path)
        with pytest.raises(ValueError) as info:
            small_config(spec_path, **{key: entries})
        assert str(info.value) == f"{key} entry {shown} is repeated"

    @pytest.mark.parametrize("gap", [1e-320, 0.0, -1.0])
    def test_rejects_gaps_the_fit_grid_cannot_place(self, tmp_path, gap):
        # the fit grid's own check: a gap whose reciprocal overflows is a
        # configuration error, not an error on every row
        spec_path = tmp_path / "s.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 1.0)]), spec_path)
        with pytest.raises(ValueError) as info:
            small_config(spec_path, omega_gap=gap)
        assert str(info.value) == (
            f"omega_gap must be finite and positive with a finite "
            f"reciprocal, got {gap!r}")

    def test_accepts_numpy_degrees_and_unit_scale(self, tmp_path):
        spec_path = tmp_path / "s.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 1.0)]), spec_path)
        config = small_config(spec_path, d_list=(np.int64(2), 4),
                              nu_list=(1.0, np.float64(0.5)))
        assert config.d_list == (2, 4)

    @pytest.mark.parametrize("name", ["T", "omega_gap", "t_start", "t_end",
                                      "dt"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, tmp_path, name, value):
        spec_path = tmp_path / "s.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 1.0)]), spec_path)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            small_config(spec_path, **{name: value})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_eps1_target(self, tmp_path, value):
        spec_path = tmp_path / "s.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 1.0)]), spec_path)
        with pytest.raises(ValueError, match="eps1_target must be finite"):
            small_config(spec_path, nu_list=None, eps1_target=value)


class TestRunSweep:
    def test_zero_signal_passes_everywhere(self, tmp_path):
        spec_path = tmp_path / "zero.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, []), spec_path)
        rows = run_sweep(small_config(spec_path))
        assert len(rows) == 9
        for row in rows:
            assert row.error is None
            assert row.sup_err == 0.0
            assert row.passed

    @pytest.mark.parametrize("name", ["demo", "decay"])
    def test_half_step_rows_match_the_fixtures(self, name, monkeypatch):
        # the sweep at half its quadrature step against the shipped rows:
        # sup_err is a fact of the predictor, not of the record's step; the
        # sixth-order realization moves it by at most 4.8e-15 (demo) and
        # 5.7e-15 (decay) between the two steps, and the tolerance is over
        # 50 times that
        step = harness._quadrature_step
        monkeypatch.setattr(harness, "_quadrature_step",
                            lambda config, specs: step(config, specs) / 2)
        rows = run_sweep(ExperimentConfig.from_json(
            os.path.join(CONFIG_DIR, f"{name}.json")))
        with open(os.path.join(CONFIG_DIR, f"fixtures_{name}.json"),
                  encoding="utf-8") as fh:
            fixture_rows = json.load(fh)["rows"]
        assert len(rows) == len(fixture_rows)
        for row, fixed in zip(rows, fixture_rows):
            assert (row.spec, row.d, row.nu) == \
                (fixed["spec"], fixed["d"], fixed["nu"])
            assert row.eps1 == pytest.approx(fixed["eps1"], rel=1e-10)
            assert row.eps2 == pytest.approx(fixed["eps2"], rel=1e-12)
            assert row.sup_err == pytest.approx(fixed["sup_err"], abs=3e-13)
            assert row.passed and fixed["passed"]
        # the halved step reached the realization
        assert any(row.sup_err != fixed["sup_err"]
                   for row, fixed in zip(rows, fixture_rows))

    @pytest.mark.parametrize("name", ["demo", "decay"])
    def test_pinned_sweep_reproduces_the_shipped_fixtures(self, name):
        # a fresh sweep against configs/fixtures_<name>.json, the
        # report.json of configs/<name>.json, every float to 1e-14
        # relative, so drift below the looser tolerances of the other
        # fixture tests still shows
        config = ExperimentConfig.from_json(
            os.path.join(CONFIG_DIR, f"{name}.json"))
        with open(os.path.join(CONFIG_DIR, f"fixtures_{name}.json"),
                  encoding="utf-8") as fh:
            pinned = json.load(fh)["rows"]
        rows = [asdict(row) for row in run_sweep(config)]
        assert [sorted(row) for row in rows] == [sorted(row) for row in pinned]
        for row, fixed in zip(rows, pinned):
            for key, value in fixed.items():
                if isinstance(value, float):
                    assert row[key] == pytest.approx(value, rel=1e-14, abs=0), \
                        (row["d"], row["nu"], key)
                else:
                    assert row[key] == value, (row["d"], row["nu"], key)

    @pytest.mark.parametrize("omega, limit", [(2.0, 1e-5), (40.0, 1e-3)])
    def test_realization_error_on_one_tone(self, tmp_path, monkeypatch,
                                           omega, limit):
        # the sweep's levels through eta_sum against the exact output of
        # psi, Re(A psi(i w) e^{iwt}), over [0, 2pi] at d = 32, nu = 0.3 and
        # dt = 0.01: 4.3e-6 at w = 2 on the step 5e-3*T, and 9.4e-5 at
        # w = 40, where the step 0.05 / w sets it (an order-4 rule at the
        # step 1e-3*T read 1.3e-4 and 0.139)
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(omega, 0.5)]), spec_path)
        calls = []

        def recording(approx, levels):
            calls.append((approx, eta_sum(approx, levels)))
            return calls[-1][1]

        monkeypatch.setattr(harness, "eta_sum", recording)
        (row,) = run_sweep(small_config(spec_path, d_list=(32,),
                                        nu_list=(0.3,), t_end=2 * math.pi,
                                        dt=0.01))
        assert row.error is None
        ((approx, y),) = calls
        t = 0.01 * np.arange(len(y))
        assert t[-1] <= 2 * math.pi < t[-1] + 0.01
        exact = np.real(0.5 * oracles.psi(approx.c, 1.0, omega)
                        * np.exp(1j * omega * t))
        assert np.abs(y - exact).max() < limit

    @pytest.mark.parametrize("dt", [None, 0.01])
    def test_long_window_demo_passes_without_slack(self, dt):
        # the demo tone over [0, 2pi] at d = 16, 24, 32, with the shipped
        # dt = 2pi/628 and with 0.01: every row is within its bound (at
        # d = 32, nu = 0.3, sup_err 0.153 against 0.326), and the sweep
        # converges
        config = ExperimentConfig.from_json(
            os.path.join(CONFIG_DIR, "demo_long.json"))
        if dt is not None:
            config = replace(config, dt=dt)
        rows = run_sweep(config)
        assert [(row.d, row.nu) for row in rows] == [
            (d, nu) for d in (16, 24, 32) for nu in (0.5, 0.4, 0.3)]
        for row in rows:
            assert row.error is None
            assert row.sup_err <= row.bound_tones
        assert convergence_verdict(rows)["passed"]

    @pytest.mark.parametrize("spec_file, d, nu, sup_err", [
        ("demo_tone.json", 96, 0.16, 0.0492),
        ("demo_tone.json", 128, 0.15, 0.0429),
        ("demo_bump.json", 96, 0.16, 0.0165),
        ("demo_bump.json", 128, 0.15, 0.0146)])
    def test_high_degree_rows_pass_on_their_bounds(self, spec_file, d, nu,
                                                    sup_err):
        # the demo window (dt 0.01, h = 1e-3) at degrees where the monomial
        # expansion of c had lost every digit (its sup_err was 2.26 / 4.0e6
        # for the tone and 4.35e3 / 1.6e11 for the bump): the recurrence
        # realizes c itself, and eps2 is certified from c
        config = replace(demo_config(), spec_files=(
            os.path.join(CONFIG_DIR, spec_file),), d_list=(d,),
            nu_list=(nu,))
        (row,) = run_sweep(config)
        assert row.error is None
        bound = row.bound_tones if spec_file == "demo_tone.json" \
            else row.bound_paper
        assert row.sup_err == pytest.approx(sup_err, abs=1e-3)
        assert row.sup_err <= bound and row.passed

    def test_eps1_target_drives_nu_selection(self, tmp_path):
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 1.0)]), spec_path)
        target = 2.0 * (1.0 - math.exp(-1.0))
        rows = run_sweep(small_config(spec_path, nu_list=None,
                                      eps1_target=target, d_list=(4,)))
        assert len(rows) == 1
        assert rows[0].error is None
        assert abs(rows[0].nu - 0.5) < 1e-3
        assert rows[0].eps1 <= target

    def test_row_errors_are_recorded_not_raised(self, tmp_path, monkeypatch):
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 1.0)]), spec_path)

        def failing_fit(*args, **kwargs):
            raise ValueError("fit failed")

        # a fit that raises stands for any failure inside a row: the one
        # fit_approximants call of the degree's three nu fails, and each of
        # the three rows records its message
        monkeypatch.setattr(harness, "fit_approximants", failing_fit)
        rows = run_sweep(small_config(spec_path, d_list=(4,)))
        assert len(rows) == 3
        for row in rows:
            assert row.error == "ValueError: fit failed"
            assert not row.passed

    def test_bump_row_checks_spectrum_budget_bound(self, tmp_path):
        spec_path = tmp_path / "bump.json"
        unit = SpectrumSpec.from_bumps(1.0, [(2.0, 0.45, 1.0)])
        save_spectrum(unit, spec_path)
        rows = run_sweep(small_config(spec_path, d_list=(6,), nu_list=None,
                                      eps1_target=0.05, t_end=0.3, dt=0.05))
        row = rows[0]
        assert row.error is None
        assert row.bound_tones == 0.0  # no tones: the L1 form applies
        assert row.sup_err <= row.bound_paper
        assert row.passed

    @pytest.mark.parametrize("scale", [10.0, 0.1])
    def test_bump_bound_scales_eps2_by_the_spectral_mass(self, tmp_path,
                                                         scale):
        # demo_bump with its mass M times 10 and 0.1 on the demo window:
        # sup_err and eps1 scale with the spectrum, eps2 does not, so the
        # bound weighs eps2 by M.  Unweighted, the x10 row at d = 4,
        # nu = 0.1075 (sup_err 0.683) would exceed its bound of 0.254
        unit = signal.load_spectrum(os.path.join(CONFIG_DIR, "demo_bump.json"))
        (bump,) = unit.bumps
        spec_path = tmp_path / "bump.json"
        save_spectrum(SpectrumSpec.from_bumps(1.0, [
            (bump.center, bump.half_width, scale * bump.amplitude)]),
            spec_path)
        rows = run_sweep(replace(
            demo_config(), spec_files=(str(spec_path),),
            nu_list=(0.3, 0.2, 0.1075), d_list=(4, 8, 16)))
        assert [row.error for row in rows] == [None] * 9
        for row in rows:
            assert row.bound_paper == pytest.approx(
                (row.eps1 + scale * row.eps2) / (2.0 * math.pi), rel=1e-12)
            assert row.passed, row

    @pytest.mark.parametrize("name, tones", [
        ("demo", None), ("bump", None), ("demo", [(2.0, 0.2), (2.2, 0.3)])],
        ids=["demo", "bump", "two_tones"])
    def test_tone_bound_is_the_l1_form_times_two_pi(self, tmp_path, name,
                                                     tones):
        # every row records the spectrum's L1 mass M as its mass;
        # bound_tones is eps1 + M eps2 on tone rows, 2pi bound_paper, and
        # the per-tone sum of 2|A_j| (1 - r_nu(w_j) + eps2) up to round-off;
        # bump rows carry a float 0.0, which report.json writes as 0.0
        config = ExperimentConfig.from_json(
            os.path.join(CONFIG_DIR, f"{name}.json"))
        if tones is not None:
            spec_path = tmp_path / "two_tones.json"
            save_spectrum(SpectrumSpec.from_tones(1.0, tones), spec_path)
            config = replace(config, spec_files=(str(spec_path),))
        (path,) = config.spec_files
        spec = signal.load_spectrum(path)
        rows = run_sweep(config)
        assert rows and [row.error for row in rows] == [None] * len(rows)
        for row in rows:
            assert row.mass == signal.spectral_mass(spec)
            if spec.kind == "bump":
                assert type(row.bound_tones) is float
                assert row.bound_tones == 0.0
                continue
            bound = row.eps1 + row.mass * row.eps2
            assert row.bound_tones == bound
            assert row.bound_paper == row.bound_tones / (2.0 * math.pi)
            per_tone = sum(2.0 * abs(t.amplitude) * (
                1.0 - math.exp(-(row.nu * t.omega) ** 2) + row.eps2)
                for t in spec.tones)
            assert row.bound_tones == pytest.approx(per_tone, rel=1e-15,
                                                    abs=0)
        write_reports(rows, tmp_path / "out")
        text = (tmp_path / "out" / "report.json").read_text()
        zero = '"bound_tones": 0.0,' in text
        assert zero == (spec.kind == "bump")

    def test_refuses_a_fit_too_large_to_make(self, tmp_path, monkeypatch):
        # d = 2896 is 23168 fit nodes and a fit matrix of 11584 half-grid
        # rows x 2897 Chebyshev columns, over the limit: the row records
        # grid_size's refusal and no grid is built
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]), spec_path)

        def no_grid(omega_gap, n):
            raise AssertionError(f"built a grid of {n} nodes")

        monkeypatch.setattr(approx, "_half_grid", no_grid)
        rows = run_sweep(small_config(spec_path, d_list=(2896,),
                                      nu_list=(0.5,)))
        assert [row.error for row in rows] == [
            "ValueError: d=2896: the fit matrix of 11584 x 2897 entries is "
            "over the limit of 2^25 = 33554432"]
        assert not rows[0].passed

    def test_refuses_a_record_too_long_to_make(self, tmp_path, monkeypatch):
        # t_end = 1e9 at dt = 1e8 is an 11-point measurement grid, but the
        # record at the quadrature step 5e-3 would hold 2e11 samples; it is
        # refused before any row samples it
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]), spec_path)

        def no_sampling(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(harness, "sample_grid", no_sampling)
        with pytest.raises(ValueError, match=r"^the record of 200000000001 "
                           r"samples at the quadrature step 0\.005 is over the "
                           r"limit of 2\^25 = 33554432$"):
            run_sweep(small_config(spec_path, t_end=1e9, dt=1e8))

    def test_refuses_a_measurement_grid_too_long_to_make(self, tmp_path,
                                                          monkeypatch):
        # dt = 1e-12 over [0, 1.5] measures at 1.5e12 + 1 times; the grid is
        # named and refused before any row samples it
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]), spec_path)

        def no_sampling(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(harness, "sample_grid", no_sampling)
        with pytest.raises(ValueError, match=r"^the measurement grid of "
                           r"1500000000001 samples is over the limit of "
                           r"2\^25 = 33554432$"):
            run_sweep(small_config(spec_path, t_end=1.5, dt=1e-12))

    @pytest.mark.parametrize("T, dt, tops, step", [
        (1.0, 0.01, [2.0], 0.01 / 2), (1.0, 0.1, [2.0], 0.1 / 20),
        (1.0, 0.0015, [2.0], 0.0015),
        (1.0, 2 * math.pi / 628, [2.0], 2 * math.pi / 628 / 3),
        (1.0, 1e-4, [2.0], 1e-4), (0.3, 0.003, [2.0], 0.003 / 2),
        (1.0, 0.01, [], 0.01 / 2),
        # the frequency term sets the step: 0.05 / 40, 0.05 / (19.5 + 0.5)
        # and 0.05 / (11 + 1.5)
        (1.0, 0.01, [2.0, 40.0], 0.01 / 8),
        (1.0, 0.01, [(19.5, 0.5)], 0.01 / 4),
        (1.0, 0.3, [2.0, (11.0, 1.5)], 0.3 / 75)])
    def test_quadrature_step_divides_dt(self, tmp_path, T, dt, tops, step):
        # the fewest whole steps per dt that bring the record's step to
        # 5e-3*T and 0.05 / w at most, w the highest tone or bump top of
        # any spectrum, to a relative 1e-9 (0.003 / (5e-3 * 0.3) rounds to
        # 2.0000000000000004), so every measurement time is a sample time;
        # a spectrum with neither sets no frequency term
        specs = [SpectrumSpec.from_bumps(1.0, [(*top, 1.0)])
                 if isinstance(top, tuple) else
                 SpectrumSpec.from_tones(1.0, [(top, 0.5)]) for top in tops]
        specs.append(SpectrumSpec.from_tones(1.0, []))
        config = small_config(tmp_path / "s.json", T=T, dt=dt)
        h = harness._quadrature_step(config, specs)
        assert h == step
        n_grid, times = harness._grids(config, h)
        t_grid = config.t_start + dt * np.arange(n_grid)
        assert np.array_equal(sample_index(times, t_grid),
                              round(dt / h) * np.arange(n_grid))

    @pytest.mark.parametrize("t_end, dt", [(1.0, 0.6),
                                           (2 * math.pi, 2 * math.pi / 628)])
    def test_dt_not_dividing_the_window(self, tmp_path, t_end, dt):
        # the measurement grid stops at the last whole dt step inside
        # [t_start, t_end]; the sample windows still reach t_end
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]), spec_path)
        rows = run_sweep(small_config(spec_path, d_list=(4,), nu_list=(0.4,),
                                      t_end=t_end, dt=dt))
        assert rows[0].error is None
        assert rows[0].passed


def two_tone_files(tmp_path):
    # two spectra that differ in every tone, so a value one of them leaks
    # into the other's rows changes those rows
    paths = []
    for j, tones in enumerate(([(2.0, 0.5)], [(1.5, 0.3 - 0.2j), (3.0, 0.1)])):
        path = tmp_path / f"spec{j}.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, tones), path)
        paths.append(str(path))
    return paths


class TestSharedWork:
    """run_sweep fits each approximant once per (d, nu), every nu of a
    degree in one call, computes each spectrum's record and truth once and
    the integrals of every spectrum in one stacked pass, within one
    call."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = {"fit": [], "sample_grid": [], "integrals": [], "etaP": [],
                 "eps1": [], "mass": []}

        def counting(key, fn, record):
            def wrapper(*args, **kwargs):
                calls[key].append(record(*args, **kwargs))
                return fn(*args, **kwargs)
            monkeypatch.setattr(harness, fn.__name__, wrapper)

        counting("fit", harness.fit_approximants,
                 lambda T, gap, tapers, d: (d, [t.nu for t in tapers]))
        counting("sample_grid", harness.sample_grid,
                 lambda spec, t0, dt, n: spec)
        counting("integrals", harness.iterated_integrals,
                 lambda times, values, d, gap, etaP: d)
        counting("etaP", harness.exact_etaP,
                 lambda spec, gap, d, t: (spec, d, t))
        counting("eps1", harness.epsilon1, lambda spec, taper: (spec, taper))
        counting("mass", harness.spectral_mass, lambda spec: spec)
        return calls

    def test_each_shared_value_is_computed_once_per_call(self, tmp_path,
                                                         monkeypatch):
        paths = two_tone_files(tmp_path)
        config = small_config(paths[0], spec_files=tuple(paths),
                              d_list=(3, 4), nu_list=(0.5, 0.4), t_end=0.5,
                              dt=0.1)
        specs = [spec for _, spec in harness._load_spectra(config)]
        calls = self.count_calls(monkeypatch)
        for _ in range(2):  # nothing is cached across calls
            for values in calls.values():
                values.clear()
            rows = run_sweep(config)
            assert [row.error for row in rows] == [None] * 8
            # one call per degree, at the first spectrum's first row of
            # it, holding both nu; the second spectrum reuses them
            assert calls["fit"] == [(3, [0.5, 0.4]), (4, [0.5, 0.4])]
            # the record and the future values, per spectrum
            assert calls["sample_grid"] == [specs[0]] * 2 + [specs[1]] * 2
            # both records' levels to max(d_list), in one stacked pass
            assert calls["integrals"] == [4]
            # etaP_0..etaP_3(t_start) in one call, per spectrum
            assert calls["etaP"] == [(spec, 4, 0.0) for spec in specs]
            # eps1 per (spectrum, nu) and the mass per spectrum, not per row
            assert calls["eps1"] == [(spec, TaperSpec("gaussian", nu))
                                     for spec in specs for nu in (0.5, 0.4)]
            assert calls["mass"] == specs

    def test_selected_nu_share_one_fit_call_per_degree(self, tmp_path,
                                                       monkeypatch):
        # with eps1_target each spectrum selects its own nu, and each degree
        # fits both in one call, at the first spectrum's rows; every row is
        # the one of its spectrum swept alone
        paths = two_tone_files(tmp_path)
        config = small_config(paths[0], spec_files=tuple(paths), d_list=(3, 4),
                              nu_list=None, eps1_target=0.05, t_end=0.5,
                              dt=0.1)
        nus = [signal.select_nu(spec, "gaussian", 0.05)
               for _, spec in harness._load_spectra(config)]
        assert nus[0] != nus[1]
        alone = [asdict(row) for path in paths
                 for row in run_sweep(replace(config, spec_files=(path,)))]
        calls = self.count_calls(monkeypatch)
        rows = run_sweep(config)
        assert calls["fit"] == [(3, nus), (4, nus)]
        assert [asdict(row) for row in rows] == alone
        assert all(row["error"] is None for row in alone)

    def test_a_failing_degree_is_fitted_once_per_spectrum(self, tmp_path,
                                                          monkeypatch):
        # a degree whose fit raises errors its rows and is tried again by
        # the next spectrum only, not by each of its remaining rows
        paths = two_tone_files(tmp_path)
        config = small_config(paths[0], spec_files=tuple(paths), d_list=(4,),
                              t_end=0.5, dt=0.1)
        calls = []

        def failing_fit(T, gap, tapers, d):
            calls.append((d, [t.nu for t in tapers]))
            raise ValueError("fit failed")

        monkeypatch.setattr(harness, "fit_approximants", failing_fit)
        rows = run_sweep(config)
        assert [row.error for row in rows] == ["ValueError: fit failed"] * 6
        assert calls == [(4, [0.5, 0.4, 0.3])] * 2

    def test_each_failing_step_errors_the_rows_it_serves(self, tmp_path):
        # real refusals: select_nu at an eps1_target the exponential taper
        # misses even at nu = 1e-12 errors one row per d with nu = nan; the truth of a bump sampled at t = 1e7
        # (its workspace is over the limit) errors every row whose fit
        # succeeded; a fit too large to make errors its degree's rows
        paths = []
        for j, center in enumerate((2.1, 2.4)):
            path = tmp_path / f"bump{j}.json"
            save_spectrum(SpectrumSpec.from_bumps(1.0, [(center, 0.45, 1.0)]),
                          path)
            paths.append(str(path))
        specs = [spec for _, spec in harness._load_spectra(
            small_config(paths[0], spec_files=tuple(paths)))]
        config = small_config(paths[0], nu_list=None, eps1_target=1e-30,
                              taper_family="exponential", d_list=(2, 3))
        with pytest.raises(RuntimeError) as info:
            signal.select_nu(specs[0], "exponential", 1e-30)
        rows = run_sweep(config)
        assert [(row.d, row.error) for row in rows] == [
            (d, f"RuntimeError: {info.value}") for d in (2, 3)]
        assert all(math.isnan(row.nu) for row in rows)

        config = small_config(paths[0], spec_files=tuple(paths),
                              d_list=(8, 4000), nu_list=(0.5, 0.4),
                              t_start=1e7, t_end=1e7 + 0.1, dt=0.05)
        h = harness._quadrature_step(config, specs)
        n_grid, _ = harness._grids(config, h)
        with pytest.raises(ValueError) as info:
            sample_grid(specs[0], config.t_start + 1.0, config.dt, n_grid)
        truth = f"ValueError: {info.value}"
        assert truth.startswith("ValueError: sampling n=")
        with pytest.raises(ValueError) as info:
            approx.fit_approximant(1.0, 1.0, TaperSpec("gaussian", 0.5), 4000)
        fit = f"ValueError: {info.value}"
        rows = run_sweep(config)
        assert [(row.spec, row.d, row.nu, row.error) for row in rows] == [
            (f"bump{j}", d, nu, truth if d == 8 else fit)
            for j in (0, 1) for d in (8, 4000) for nu in (0.5, 0.4)]

    @pytest.mark.parametrize("small, large", [
        ({"d_list": (3,), "nu_list": (0.5,)},
         {"d_list": (2, 3, 4), "nu_list": (0.5, 0.4, 0.3)}),
        ({"d_list": (3,), "nu_list": None, "eps1_target": 0.05},
         {"d_list": (2, 3, 4), "nu_list": None, "eps1_target": 0.05}),
    ], ids=["nu_list", "eps1_target"])
    def test_bump_rules_per_spectrum_do_not_grow_with_rows(
            self, tmp_path, monkeypatch, small, large):
        # a bump spectrum's rules (eps1, etaP, record, future values, and
        # select_nu's bisection) are built per spectrum, not per row: every
        # row's eps1 reaches the cached rule
        paths = []
        for j, center in enumerate((2.1, 2.4)):
            path = tmp_path / f"bump{j}.json"
            save_spectrum(SpectrumSpec.from_bumps(1.0, [(center, 0.45, 1.0)]),
                          path)
            paths.append(str(path))
        build = signal._panel_rule.__wrapped__
        built = []

        def counting(spec, panels):
            built.append(spec)
            return build(spec, panels)

        rule = functools.lru_cache(maxsize=8)(counting)
        monkeypatch.setattr(signal, "_panel_rule", rule)
        counts = []
        for overrides in (small, large):
            built.clear()
            rule.cache_clear()
            config = small_config(paths[0], spec_files=tuple(paths),
                                  t_end=0.5, dt=0.1, **overrides)
            rows = run_sweep(config)
            assert len(rows) == 2 * len(config.d_list) * len(
                config.nu_list or (None,))
            assert [row.error for row in rows] == [None] * len(rows)
            counts.append([built.count(spec) for _, spec
                           in harness._load_spectra(config)])
        assert counts[0] == counts[1]
        assert counts[0][0] == counts[0][1] > 0

    @pytest.mark.parametrize("overrides", [
        {"nu_list": (0.5, 0.4)}, {"nu_list": None, "eps1_target": 0.05}],
        ids=["nu_list", "eps1_target"])
    def test_one_bump_rule_per_spectrum_and_panel_count(
            self, tmp_path, monkeypatch, overrides):
        # on a window with |t| < 1.5 every user of a spectrum's rule
        # (select_nu, eps1, etaP, record, future values) asks
        # for 4 panels, so the sweep builds one rule per spectrum
        paths = []
        for j, center in enumerate((2.1, 2.4)):
            path = tmp_path / f"bump{j}.json"
            save_spectrum(SpectrumSpec.from_bumps(1.0, [(center, 0.45, 1.0)]),
                          path)
            paths.append(str(path))
        build = signal._panel_rule.__wrapped__
        built = []

        def counting(spec, panels):
            built.append((spec, panels))
            return build(spec, panels)

        monkeypatch.setattr(signal, "_panel_rule",
                            functools.lru_cache(maxsize=8)(counting))
        config = small_config(paths[0], spec_files=tuple(paths), t_end=0.5,
                              dt=0.1, d_list=(2, 3, 4), **overrides)
        rows = run_sweep(config)
        assert [row.error for row in rows] == [None] * len(rows)
        assert built == [(spec, (4,)) for _, spec
                         in harness._load_spectra(config)]

    @pytest.mark.parametrize("dt", [0.05, 2.0 * math.pi / 628])
    def test_rows_match_rows_predicted_one_at_a_time(self, tmp_path,
                                                     monkeypatch, dt):
        # each row's prediction, from the spectrum's levels at max(d_list),
        # is the recurrence's on the row's own record run to degree d only,
        # bit for bit
        paths = two_tone_files(tmp_path)
        config = small_config(paths[0], spec_files=tuple(paths),
                              d_list=(2, 3, 4, 8), nu_list=(0.4, 0.3),
                              t_end=0.5, dt=dt)
        calls = []

        def recording(approx, levels):
            y = eta_sum(approx, levels)
            calls.append((approx, y))
            return y

        monkeypatch.setattr(harness, "eta_sum", recording)
        rows = run_sweep(config)
        assert all(row.error is None for row in rows)
        assert len(calls) == len(rows) == 16
        specs = [spec for _, spec in harness._load_spectra(config)]
        h = harness._quadrature_step(config, specs)
        n_grid, times = harness._grids(config, h)
        t_grid = config.t_start + config.dt * np.arange(n_grid)
        for i, (approx, y) in enumerate(calls):
            spec = specs[i // 8]
            values = sample_grid(spec, config.t_start, h, len(times))
            etaP = exact_etaP(spec, 1.0, 8, config.t_start)[:approx.d]
            levels = iterated_integrals(times, values, approx.d, 1.0,
                                        etaP)[:, sample_index(times, t_grid)]
            assert levels.shape == (approx.d + 1, n_grid)
            assert np.array_equal(y, eta_sum(approx, levels))

    def test_spectra_swept_together_match_each_swept_alone(self, tmp_path):
        paths = two_tone_files(tmp_path)
        config = small_config(paths[0], spec_files=tuple(paths),
                              d_list=(3, 4), nu_list=(0.4, 0.3),
                              t_end=0.5, dt=0.1)
        together = [asdict(row) for row in run_sweep(config)]
        alone = [asdict(row) for path in paths
                 for row in run_sweep(replace(config, spec_files=(path,)))]
        assert all(row["error"] is None for row in together)
        assert together == alone

    def test_a_failed_fit_is_not_cached(self, tmp_path, monkeypatch):
        # the first fit of (3, 0.4) fails; the next spectrum fits it again
        paths = two_tone_files(tmp_path)
        config = small_config(paths[0], spec_files=tuple(paths), d_list=(3,),
                              nu_list=(0.4,), t_end=0.5, dt=0.1)
        fit = harness.fit_approximants
        failed = []

        def fit_failing_once(*args, **kwargs):
            if not failed:
                failed.append(True)
                raise ValueError("transient")
            return fit(*args, **kwargs)

        monkeypatch.setattr(harness, "fit_approximants", fit_failing_once)
        rows = run_sweep(config)
        assert [row.error for row in rows] == ["ValueError: transient", None]
        assert rows[1] == run_sweep(replace(config,
                                            spec_files=(paths[1],)))[0]

    def test_a_degree_too_large_errors_only_its_own_rows(self):
        # the demo tone at d = 4000: each of its rows records
        # fit_approximant's own refusal, and the d = 8 rows are those of a
        # sweep without it
        config = replace(demo_config(), d_list=(8, 4000), t_end=0.5, dt=0.1)
        message = ("d=4000: the fit matrix of 16000 x 4001 entries is over "
                   "the limit of 2^25 = 33554432")
        with pytest.raises(ValueError) as info:
            approx.fit_approximant(1.0, 1.0, TaperSpec("gaussian", 0.5), 4000)
        assert str(info.value) == message
        rows = run_sweep(config)
        assert [(row.d, row.error) for row in rows] == \
            [(8, None)] * 3 + [(4000, f"ValueError: {message}")] * 3
        assert rows[:3] == run_sweep(replace(config, d_list=(8,)))


def three_tone_files(tmp_path):
    # the two spectra of two_tone_files and a third between them in the
    # sweep's order
    first, last = two_tone_files(tmp_path)
    middle = tmp_path / "middle.json"
    save_spectrum(SpectrumSpec.from_tones(1.0, [(2.5, -0.2 + 0.4j)]), middle)
    return [first, str(middle), last]


class TestStackedRealization:
    """run_sweep samples each spectrum on its own and realizes all of them
    in one stacked iterated_integrals pass; every row is the one of its
    spectrum swept alone."""

    @staticmethod
    def config(tmp_path):
        paths = three_tone_files(tmp_path)
        return paths, small_config(paths[0], spec_files=tuple(paths),
                                   d_list=(3, 4), nu_list=(0.4, 0.3),
                                   t_end=0.5, dt=0.1)

    @staticmethod
    def alone(config, paths):
        return [asdict(row) for path in paths
                for row in run_sweep(replace(config, spec_files=(path,)))]

    def test_a_spectrum_whose_sampling_raises_errors_only_its_rows(
            self, tmp_path, monkeypatch):
        paths, config = self.config(tmp_path)
        alone = self.alone(config, paths)
        sample = harness.sample_grid

        def failing_for_middle(spec, *args):
            if spec.tones[0].omega == 2.5:
                raise ValueError("no samples")
            return sample(spec, *args)

        monkeypatch.setattr(harness, "sample_grid", failing_for_middle)
        rows = [asdict(row) for row in run_sweep(config)]
        assert [row["error"] for row in rows[4:8]] == \
            ["ValueError: no samples"] * 4
        assert rows[:4] + rows[8:] == alone[:4] + alone[8:]
        assert all(row["error"] is None for row in alone)

    def test_a_stack_that_raises_is_realized_record_by_record(
            self, tmp_path, monkeypatch):
        # constants that are not finite refuse the stacked pass; the pass
        # of each record on its own errors only the middle spectrum's rows
        paths, config = self.config(tmp_path)
        alone = self.alone(config, paths)
        etaP = harness.exact_etaP

        def nan_for_middle(spec, *args):
            value = etaP(spec, *args)
            return value * np.nan if spec.tones[0].omega == 2.5 else value

        monkeypatch.setattr(harness, "exact_etaP", nan_for_middle)
        rows = [asdict(row) for row in run_sweep(config)]
        assert [row["error"] for row in rows[4:8]] == \
            ["ValueError: etaP must be finite"] * 4
        assert rows[:4] + rows[8:] == alone[:4] + alone[8:]

    def test_a_stack_over_the_limit_is_realized_record_by_record(
            self, tmp_path, monkeypatch):
        # a limit of two spectra's level arrays refuses the stack of three
        # before it is made; each record's own pass gives the rows of the
        # one stacked pass
        paths, config = self.config(tmp_path)
        passes, integrals = [], harness.iterated_integrals

        def counting(times, values, *args):
            passes.append(len(values))
            return integrals(times, values, *args)

        monkeypatch.setattr(harness, "iterated_integrals", counting)
        together = [asdict(row) for row in run_sweep(config)]
        assert passes == [3]
        _, times = harness._grids(config, harness._quadrature_step(
            config, [spec for _, spec in harness._load_spectra(config)]))
        passes.clear()
        monkeypatch.setattr(signal, "_MAX_WORKSPACE", 2 * 5 * len(times))
        assert [asdict(row) for row in run_sweep(config)] == together
        assert passes == [3, 1, 1, 1]
        assert together == self.alone(config, paths)

    def test_a_level_array_over_the_limit_errors_its_rows_by_its_sizes(
            self, tmp_path):
        # each record of 520,001 samples (h = 0.005 from 0 to 2600) has a
        # level array of 65 x 520,001 entries to d = 64, over 2^25; every
        # row names that array as a sweep of one spectrum does, not the
        # stack
        paths = two_tone_files(tmp_path)
        config = small_config(paths[0], spec_files=tuple(paths),
                              d_list=(3, 64), nu_list=(0.4,), t_end=2600.0,
                              dt=1.0)
        assert [row.error for row in run_sweep(config)] == [
            "ValueError: the recurrence's level array of 65 x 520001 "
            "entries is over the limit of 2^25 = 33554432"] * 4


class TestEmitReport:
    """report.csv and report.json as write_reports writes them."""

    def rows(self):
        return Sweep([
            ErrorRow(spec="s", d=4, nu=0.5, eps1=0.1, eps2=0.2, mass=1.0,
                     bound_paper=0.3, bound_tones=0.4, sup_err=0.05,
                     passed=True),
            ErrorRow(spec="s", d=8, nu=0.5, eps1=0.1, eps2=0.1, mass=1.0,
                     bound_paper=0.2, bound_tones=0.3, sup_err=0.5,
                     passed=False),
        ], 0.005)

    def write(self, out_dir, name):
        write_reports(self.rows(), out_dir)
        return out_dir / name

    def test_csv_layout_and_determinism(self, tmp_path):
        p1 = self.write(tmp_path / "a", "report.csv")
        p2 = self.write(tmp_path / "b", "report.csv")
        text = p1.read_text()
        assert text.splitlines()[0] == \
            "spec,d,nu,eps1,eps2,bound_paper,bound_tones,sup_err,pass"
        assert len(text.splitlines()) == 3
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_lists_failing_rows(self, tmp_path):
        data = json.loads(self.write(tmp_path, "report.json").read_text())
        assert data["failing_rows"] == [1]
        assert data["all_pass"] is False
        assert len(data["rows"]) == 2

    def test_json_layout(self, tmp_path):
        # json.dump's layout at indent 2 with sorted keys and a final
        # newline, each row as its fields
        text = self.write(tmp_path, "report.json").read_text()
        data = json.loads(text)
        assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert data["rows"] == [asdict(row) for row in self.rows()]
        assert data["quadrature_step"] == 0.005
        assert data["convergence"] == convergence_verdict(self.rows())

    def test_rejects_empty_table(self, tmp_path):
        with pytest.raises(ValueError, match="empty report"):
            write_reports(Sweep([], 0.005), tmp_path / "out")

    @pytest.mark.parametrize("blocked", ["report.csv", "report.json"])
    def test_a_refused_write_leaves_no_new_file(self, tmp_path, blocked):
        # one report name held by a directory: the files written before it
        # are taken back, and no temporary file stays
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            write_reports(self.rows(), out)
        assert os.listdir(out) == [blocked]
        (out / blocked).rmdir()
        write_reports(self.rows(), out)
        assert sorted(os.listdir(out)) == ["report.csv", "report.json"]


class TestReportBytes:
    """write_reports' bytes against the references: report.csv field by
    field, report.json through json's indent=2 encoder, on rows that a
    splice or a template could get wrong."""

    @staticmethod
    def adversarial_rows():
        # two error rows, whose floats are NaN, then three nu with three
        # degrees each of a spectrum with a non-ASCII, quoted name, whose
        # sup error rises with d: a failing verdict that names it
        rows = [ErrorRow(spec="s", d=2, nu=0.5,
                         error='ValueError: a "quoted" \\ name,\nsplit, '
                               'then more'),
                ErrorRow(spec="s", d=3, nu=math.nan,
                         error="RuntimeError: no nu, none at all")]
        name = 't\u00f6n\u00e9 \u20ac\U0001d70f "q\\'
        values = [math.inf, -0.0, 1.0 / 3.0, 5e-324, 1e300, -math.inf,
                  123456789012345678.0, 1e-300, 0.1]
        for i, (nu, d) in enumerate((nu, d) for nu in (0.5, 0.4, 0.3)
                                    for d in (8, 16, 24)):
            v = values[i:] + values[:i]
            rows.append(ErrorRow(spec=name, d=d, nu=nu, eps1=v[0], eps2=v[1],
                                 mass=v[2], bound_paper=v[3], bound_tones=v[4],
                                 sup_err=0.1 * d * nu, passed=i % 2 == 0))
        return rows

    @pytest.mark.parametrize("verdict", ["failed", "skipped"])
    def test_reports_equal_the_references(self, tmp_path, verdict):
        rows = self.adversarial_rows()
        rows = Sweep(rows if verdict == "failed" else rows[:5], 1.0 / 3.0)
        written = write_reports(rows, tmp_path)
        assert written == convergence_verdict(rows)
        assert written["passed"] is (False if verdict == "failed" else None)
        assert (tmp_path / "report.json").read_bytes() == \
            oracles.report_json(rows, written).encode("utf-8")
        assert (tmp_path / "report.csv").read_bytes() == \
            oracles.report_csv(rows).encode("utf-8")


class TestConvergenceCheck:
    @staticmethod
    def synthetic_rows(sups):
        rows = []
        for (d, nu), sup in sups.items():
            rows.append(ErrorRow(spec="s", d=d, nu=nu, sup_err=sup,
                                 passed=True))
        return rows

    def good_sups(self):
        sups = {}
        for nu, base in ((0.5, 0.30), (0.4, 0.20), (0.3, 0.10)):
            for i, d in enumerate((4, 8, 12)):
                sups[(d, nu)] = base * (1.0 - 0.05 * i)
        return sups

    def test_monotone_report_passes(self):
        verdict = convergence_verdict(self.synthetic_rows(self.good_sups()))
        assert verdict == {"passed": True, "failures": []}

    def test_demo_sweep_passes(self):
        rows = run_sweep(demo_config())
        verdict = convergence_verdict(rows)
        assert verdict["passed"], verdict

    def test_shuffled_report_identifies_transition(self):
        sups = self.good_sups()
        sups[(8, 0.4)], sups[(12, 0.4)] = sups[(12, 0.4)], 2.0 * sups[(4, 0.4)]
        verdict = convergence_verdict(self.synthetic_rows(sups))
        assert verdict["passed"] is False
        assert any("nu=0.4" in f and "d=12" in f for f in verdict["failures"])

    def test_errors_at_the_round_off_floor_pass(self):
        # an exact sweep, or one at the 1e-15 floor, need not decrease
        for floor in (0.0, 1e-16, 1e-15):
            sups = {(d, nu): floor for nu in (0.5, 0.4, 0.3)
                    for d in (4, 8, 12)}
            verdict = convergence_verdict(self.synthetic_rows(sups))
            assert verdict["passed"], verdict
        sups = {(d, nu): 2e-15 for nu in (0.5, 0.4, 0.3) for d in (4, 8, 12)}
        verdict = convergence_verdict(self.synthetic_rows(sups))
        assert len(verdict["failures"]) == 2

    def test_insufficient_coverage(self):
        # too few nu values or degrees skip the check, naming the first
        # spectrum (and nu) short of them; a failure elsewhere is not listed
        sups = {(4, nu): 0.1 for nu in (0.5, 0.4, 0.3)}
        assert convergence_verdict(self.synthetic_rows(sups)) == {
            "passed": None, "skipped": "insufficient sweep coverage: spec s, "
                                       "nu=0.5 has 1 degrees, need >= 3"}
        sups = {(d, 0.5): 0.1 for d in (4, 8, 12)}
        assert convergence_verdict(self.synthetic_rows(sups)) == {
            "passed": None, "skipped": "insufficient sweep coverage: spec s "
                                       "has 1 nu values, need >= 3"}
        rows = self.synthetic_rows(self.good_sups())
        rows[0].sup_err = 9.0
        rows.append(ErrorRow(spec="t", d=4, nu=0.5, sup_err=0.1))
        assert convergence_verdict(rows)["skipped"] == (
            "insufficient sweep coverage: spec t has 1 nu values, need >= 3")
        assert convergence_verdict([ErrorRow(spec="s", d=4, nu=0.5,
                                             error="ValueError: x")]) == {
            "passed": None,
            "skipped": "insufficient sweep coverage: no usable rows"}
