import functools
import json
import math
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from gap_predict import approx, harness, signal
from gap_predict.harness import (ConvergenceVerdict, ErrorRow,
                                 ExperimentConfig, convergence_check,
                                 emit_report, run_sweep, write_reports)
from gap_predict.predictor import (eta_levels, eta_sum, eta_weights,
                                   iterated_integrals)
from gap_predict.signal import SpectrumSpec, sample_grid, save_spectrum

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def demo_config():
    return ExperimentConfig.from_json(os.path.join(CONFIG_DIR, "demo.json"))


def small_config(spec_path, **overrides):
    kwargs = dict(spec_files=(str(spec_path),), T=1.0, omega_gap=1.0,
                  taper_family="gaussian", nu_list=(0.5, 0.4, 0.3),
                  d_list=(2, 3, 4), t_start=0.0, t_end=1.5708, dt=0.05,
                  modes=("eta",))
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
            small_config(spec_path, modes=("warp",))
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
        spec_path = tmp_path / "s.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 1.0)]), spec_path)
        with pytest.raises(ValueError) as info:
            small_config(spec_path, modes=modes)
        assert str(info.value) == (
            f"mode '{mode}' is not swept by eval, which checks only the eta "
            f"realization; run {command} instead")

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

    @pytest.mark.parametrize("factor", ["2", 2.5, True, 0, 3, 4.0])
    def test_rejects_node_factors_it_cannot_run(self, tmp_path, factor):
        spec_path = tmp_path / "s.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 1.0)]), spec_path)
        with pytest.raises(ValueError) as info:
            small_config(spec_path, fit_node_factor=factor)
        assert str(info.value) == \
            f"fit_node_factor {factor!r} is not an integer >= 4"

    def test_accepts_numpy_degrees_and_unit_scale(self, tmp_path):
        spec_path = tmp_path / "s.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 1.0)]), spec_path)
        config = small_config(spec_path, d_list=(np.int64(2), 4),
                              nu_list=(1.0, np.float64(0.5)),
                              fit_node_factor=np.int64(4))
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

    def test_demo_rows_match_pinned_fixtures(self):
        rows = run_sweep(demo_config())
        with open(os.path.join(CONFIG_DIR, "fixtures_demo.json"),
                  encoding="utf-8") as fh:
            fixture_rows = json.load(fh)["rows"]
        assert len(rows) == len(fixture_rows)
        for row, pinned in zip(rows, fixture_rows):
            assert (row.spec, row.d, row.nu) == \
                (pinned["spec"], pinned["d"], pinned["nu"])
            assert row.eps1 == pytest.approx(pinned["eps1"], rel=1e-10)
            assert row.eps2 == pytest.approx(pinned["eps2"], rel=1e-12)
            # pinned sup uses half the quadrature step; the fourth-order
            # realization moves sup_err by 5.9e-13 at most between the two
            # steps on this sweep, and the tolerance is 17 times that
            assert row.sup_err == pytest.approx(pinned["sup_err"], abs=1e-11)
            assert row.passed and pinned["passed"]

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
        assert convergence_check(rows).passed

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

        # a fit that raises stands for any failure inside a row
        monkeypatch.setattr(harness, "fit_approximant", failing_fit)
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

    def test_refuses_a_fit_too_large_to_make(self, tmp_path, monkeypatch):
        # fit_node_factor 262145 at d = 8 is 2097160 fit nodes and a
        # certification grid of 33554545 nodes, over the limit: the row
        # records grid_size's refusal and no grid is built
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]), spec_path)

        def no_grid(omega_gap, n):
            raise AssertionError(f"built a grid of {n} nodes")

        monkeypatch.setattr(approx, "chebyshev_grid", no_grid)
        rows = run_sweep(small_config(spec_path, d_list=(8,),
                                      nu_list=(0.5,), fit_node_factor=262145))
        assert [row.error for row in rows] == [
            "ValueError: a grid of 33554545 samples is over the limit of "
            "2^25 = 33554432"]
        assert not rows[0].passed

    def test_refuses_a_record_too_long_to_make(self, tmp_path, monkeypatch):
        # t_end = 1e9 at dt = 1e8 is an 11-point measurement grid, but the
        # record at the quadrature step 1e-3 would hold 1e12 samples; it is
        # refused before any row samples it
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]), spec_path)

        def no_sampling(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(harness, "sample_grid", no_sampling)
        with pytest.raises(ValueError, match=r"^a grid of 1000000000001 "
                           r"samples is over the limit of 2\^25 = 33554432$"):
            run_sweep(small_config(spec_path, t_end=1e9, dt=1e8))

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
    """run_sweep fits each approximant once per (d, nu) and computes each
    spectrum's record, truth and integrals once, within one call."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = {"fit": [], "sample_grid": [], "integrals": [], "hk": [],
                 "cached": []}

        def counting(key, fn, record):
            def wrapper(*args, **kwargs):
                calls[key].append(record(*args, **kwargs))
                return fn(*args, **kwargs)
            monkeypatch.setattr(harness, fn.__name__, wrapper)

        counting("fit", harness.fit_approximant,
                 lambda T, gap, taper, d, **kw: (d, taper.nu))
        counting("sample_grid", harness.sample_grid,
                 lambda spec, t0, dt, n: spec)
        counting("integrals", harness.iterated_integrals,
                 lambda times, values, d: d)
        counting("hk", harness.exact_hk,
                 lambda spec, k, t: (spec, np.asarray(k).tolist(), t))
        counting("cached", harness._cached,
                 lambda memo, key, compute, *args: key)
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
            assert sorted(calls["fit"]) == [(3, 0.4), (3, 0.5), (4, 0.4),
                                            (4, 0.5)]
            # the record and the future values, per spectrum
            assert calls["sample_grid"] == [specs[0]] * 2 + [specs[1]] * 2
            # the record's integrals at max(d_list), per spectrum
            assert calls["integrals"] == [4, 4]
            # h_1..h_4(t_start) in one call, per spectrum
            assert calls["hk"] == [(spec, [1, 2, 3, 4], 0.0) for spec in specs]
            # the spectrum-scoped values: the record's integrals live only
            # as their levels at the measurement grid
            assert {key for key in calls["cached"] if isinstance(key, str)} \
                == {"future", "record", "hk", "levels"}

    @pytest.mark.parametrize("small, large", [
        ({"d_list": (3,), "nu_list": (0.5,)},
         {"d_list": (2, 3, 4), "nu_list": (0.5, 0.4, 0.3)}),
        ({"d_list": (3,), "nu_list": None, "eps1_target": 0.05},
         {"d_list": (2, 3, 4), "nu_list": None, "eps1_target": 0.05}),
    ], ids=["nu_list", "eps1_target"])
    def test_bump_rules_per_spectrum_do_not_grow_with_rows(
            self, tmp_path, monkeypatch, small, large):
        # a bump spectrum's rules (eps1, h_k, record, future values, and
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
        # (select_nu, eps1, h_k, record, future values) asks
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
        # each row's prediction, from the spectrum's levels at max(d_list)
        # and the sweep's weights, is the eta path's on the row's own record
        # integrated to degree d only, bit for bit
        paths = two_tone_files(tmp_path)
        config = small_config(paths[0], spec_files=tuple(paths),
                              d_list=(2, 3, 4, 8), nu_list=(0.4, 0.3),
                              t_end=0.5, dt=dt)
        calls = []

        def recording(a, eta, levels, weights):
            y = eta_sum(a, eta, levels, weights)
            calls.append((a, eta, y))
            return y

        monkeypatch.setattr(harness, "eta_sum", recording)
        rows = run_sweep(config)
        assert all(row.error is None for row in rows)
        assert len(calls) == len(rows) == 16
        h = harness._quadrature_step(config, False)
        t_grid, times = harness._grids(config, h)
        specs = [spec for _, spec in harness._load_spectra(config)]
        for i, (a, eta, y) in enumerate(calls):
            values = sample_grid(specs[i // 8], config.t_start, h, len(times))
            levels = eta_levels(times, values,
                                iterated_integrals(times, values, len(a)),
                                t_grid)
            weights = eta_weights(len(a), t_grid - times[0])
            assert np.array_equal(y, eta_sum(a, eta, levels, weights))

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
        fit = harness.fit_approximant
        failed = []

        def fit_failing_once(*args, **kwargs):
            if not failed:
                failed.append(True)
                raise ValueError("transient")
            return fit(*args, **kwargs)

        monkeypatch.setattr(harness, "fit_approximant", fit_failing_once)
        rows = run_sweep(config)
        assert [row.error for row in rows] == ["ValueError: transient", None]
        assert rows[1] == run_sweep(replace(config,
                                            spec_files=(paths[1],)))[0]


class TestEmitReport:
    def rows(self):
        return [
            ErrorRow(spec="s", d=4, nu=0.5, eps1=0.1, eps2=0.2,
                     bound_paper=0.3, bound_tones=0.4, sup_err=0.05,
                     passed=True),
            ErrorRow(spec="s", d=8, nu=0.5, eps1=0.1, eps2=0.1,
                     bound_paper=0.2, bound_tones=0.3, sup_err=0.5,
                     passed=False),
        ]

    def test_csv_layout_and_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(self.rows(), "csv", p1)
        emit_report(self.rows(), "csv", p2)
        text = p1.read_text()
        assert text.splitlines()[0] == \
            "spec,d,nu,eps1,eps2,bound_paper,bound_tones,sup_err,pass"
        assert len(text.splitlines()) == 3
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_lists_failing_rows(self, tmp_path):
        path = tmp_path / "r.json"
        emit_report(self.rows(), "json", path)
        data = json.loads(path.read_text())
        assert data["failing_rows"] == [1]
        assert data["all_pass"] is False
        assert len(data["rows"]) == 2

    def test_rejects_empty_table_and_bad_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "csv", tmp_path / "x.csv")
        with pytest.raises(ValueError):
            emit_report(self.rows(), "yaml", tmp_path / "x.yaml")

    def test_write_reports_pin_mode(self, tmp_path):
        config = demo_config()
        write_reports(self.rows(), tmp_path / "out", config, pin=True)
        fix = json.loads((tmp_path / "out" / "fixtures.json").read_text())
        assert fix["settings"]["pinned"] is True
        assert fix["settings"]["dense_factor"] == 16


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
        verdict = convergence_check(self.synthetic_rows(self.good_sups()))
        assert verdict.passed and not verdict.failures

    def test_demo_sweep_passes(self):
        rows = run_sweep(demo_config())
        verdict = convergence_check(rows)
        assert verdict.passed, verdict.failures

    def test_shuffled_report_identifies_transition(self):
        sups = self.good_sups()
        sups[(8, 0.4)], sups[(12, 0.4)] = sups[(12, 0.4)], 2.0 * sups[(4, 0.4)]
        verdict = convergence_check(self.synthetic_rows(sups))
        assert not verdict.passed
        assert any("nu=0.4" in f and "d=12" in f for f in verdict.failures)

    def test_errors_at_the_round_off_floor_pass(self):
        # an exact sweep, or one at the 1e-15 floor, need not decrease
        for floor in (0.0, 1e-16, 1e-15):
            sups = {(d, nu): floor for nu in (0.5, 0.4, 0.3)
                    for d in (4, 8, 12)}
            verdict = convergence_check(self.synthetic_rows(sups))
            assert verdict.passed, verdict.failures
        sups = {(d, nu): 2e-15 for nu in (0.5, 0.4, 0.3) for d in (4, 8, 12)}
        verdict = convergence_check(self.synthetic_rows(sups))
        assert len(verdict.failures) == 2

    def test_insufficient_coverage(self):
        sups = {(4, nu): 0.1 for nu in (0.5, 0.4, 0.3)}
        with pytest.raises(ValueError):
            convergence_check(self.synthetic_rows(sups))
        sups = {(d, 0.5): 0.1 for d in (4, 8, 12)}
        with pytest.raises(ValueError):
            convergence_check(self.synthetic_rows(sups))
