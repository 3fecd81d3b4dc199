import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from gap_predict import approx, cli, harness, predictor, signal, taper
from gap_predict.cli import _CSV_BLOCK_ROWS, _write_csv, main
from gap_predict.signal import SpectrumSpec, load_spectrum

from oracles import sample, save_spectrum, spectrum_to_dict

CONFIG_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "configs"))
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

# Runs each argv list through cli.main in one fresh interpreter, then prints
# the modules that process has loaded from the given packages.
_CHILD = """
import json, sys
import gap_predict.cli as cli
for argv in json.loads(sys.argv[1]):
    cli.main(argv, standalone_mode=False)
roots = json.loads(sys.argv[2])
print(json.dumps(sorted(m for m in sys.modules
                        if any((m + ".").startswith(r + ".") for r in roots))))
"""


def modules_after(commands, roots):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(commands),
                           json.dumps(roots)],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_modules_after(commands):
    return modules_after(commands, ["scipy"])


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


class TestApproxCommand:
    def test_stdout_json(self, runner):
        result = invoke(runner, ["approx", "--T", "1.0", "--omega", "1.0",
                                 "--taper", "gaussian", "--nu", "0.3",
                                 "--d", "4"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["d"] == 4 and len(data["a"]) == 4 and len(data["c"]) == 5
        assert data["taper"] == {"family": "gaussian", "nu": 0.3}

    def test_file_output_and_validation(self, runner, tmp_path):
        out = tmp_path / "ap.json"
        result = invoke(runner, ["approx", "--T", "1.0", "--omega", "1.0",
                                 "--taper", "gaussian", "--nu", "0.3",
                                 "--d", "6", "--out", str(out)])
        assert result.exit_code == 0 and out.exists()
        # the fit grid follows d, so the file holds no node count
        assert set(json.loads(out.read_text())) == {
            "T", "omega_gap", "taper", "d", "c", "a", "eps2"}
        result = invoke(runner, ["approx", "--T", "1.0", "--omega", "1.0",
                                 "--taper", "gaussian", "--nu", "1.7",
                                 "--d", "6"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("degree, what", [
        # the 8d = 23168 fit nodes give a fit matrix of 11584 half-grid rows
        # x 2897 Chebyshev columns, 33558848 entries
        ("2896", "d=2896: the fit matrix of 11584 x 2897 entries"),
        # a certification grid of 16 * (8d - 1) + 1 nodes
        ("262145", "d=262145: the certification grid of 33554545 nodes")])
    def test_refuses_a_fit_too_large_to_make(self, runner, monkeypatch,
                                             degree, what):
        def no_grid(omega_gap, n):
            raise AssertionError(f"built a grid of {n} nodes")

        monkeypatch.setattr(approx, "_half_grid", no_grid)
        result = invoke(runner, ["approx", "--T", "1.0", "--omega", "1.0",
                                 "--taper", "gaussian", "--nu", "0.3",
                                 "--d", degree])
        assert result.exit_code == 1
        assert (f"Error: {what} is over the limit of 2^25 = 33554432"
                in result.output)

    def test_refuses_a_phase_that_overflows(self, runner, tmp_path):
        # T*w overflows on d = 8's certification grid: refused by name
        # before any fit, with no warning on the way
        out = tmp_path / "ap.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = invoke(runner, ["approx", "--T", "1e308", "--omega",
                                     "1.0", "--taper", "gaussian", "--nu",
                                     "0.3", "--d", "8", "--out", str(out)])
        assert result.exit_code == 1
        assert ("Error: T=1e+308 is too large: the phase T*w overflows on "
                "the certification grid, whose largest w is 320.8568847170794"
                in result.output)
        assert not out.exists()

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    def test_refuses_a_non_positive_horizon_before_any_fit(
            self, runner, monkeypatch, tmp_path, horizon):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted")

        monkeypatch.setattr(np.linalg, "lstsq", no_fit)
        out = tmp_path / "ap.json"
        result = invoke(runner, ["approx", "--T", horizon, "--omega", "1.0",
                                 "--taper", "gaussian", "--nu", "0.3",
                                 "--d", "1500", "--out", str(out)])
        assert result.exit_code == 1
        assert "Error: T must be positive" in result.output
        assert not out.exists()

    def test_help_lists_the_taper_families_in_order(self, runner):
        result = invoke(runner, ["approx", "--help"])
        assert result.exit_code == 0
        assert taper.FAMILIES == ("gaussian", "exponential", "lorentzian")
        assert "--taper [gaussian|exponential|lorentzian]" in result.output

    @pytest.mark.parametrize("degree", ["0", "1", "-3"])
    def test_degree_refusal_names_the_degree(self, runner, degree):
        result = invoke(runner, ["approx", "--T", "1.0", "--omega", "1.0",
                                 "--taper", "gaussian", "--nu", "0.3",
                                 "--d", degree])
        assert result.exit_code == 1
        assert f"Error: d must be >= 2, got d={degree}:" in result.output

    def test_has_no_nodes_option(self, runner):
        # the fit grid follows d
        result = invoke(runner, ["approx", "--T", "1.0", "--omega", "1.0",
                                 "--taper", "gaussian", "--nu", "0.3",
                                 "--d", "8", "--nodes", "96"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--nodes" in result.output

    @pytest.mark.parametrize("omega", ["inf", "1e-320", "nan", "0", "-1"])
    def test_refuses_a_gap_it_cannot_place(self, runner, tmp_path, omega):
        # no fit grid can be placed for these gaps
        out = tmp_path / "ap.json"
        result = invoke(runner, ["approx", "--T", "1.0", "--omega", omega,
                                 "--taper", "gaussian", "--nu", "0.3",
                                 "--d", "8", "--out", str(out)])
        assert result.exit_code == 1
        assert ("Error: omega_gap must be finite and positive with a finite "
                f"reciprocal, got {float(omega)!r}") in result.output
        assert "Traceback" not in result.output
        assert not out.exists()


class TestStartsWithoutScipy:
    """No command loads scipy: it is a test-only dependency."""

    def test_import(self):
        assert scipy_modules_after([]) == []

    @pytest.mark.parametrize("mode", ["eta", "conv"])
    def test_predict(self, runner, tmp_path, mode):
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]), spec_path)
        approx_path = tmp_path / "ap.json"
        samples_path = tmp_path / "x.csv"
        invoke(runner, ["approx", "--T", "1.0", "--omega", "1.0",
                        "--taper", "gaussian", "--nu", "0.3", "--d", "4",
                        "--out", str(approx_path)])
        invoke(runner, ["synth", "--spec", str(spec_path), "--t0", "-12.0",
                        "--t1", "2.0", "--dt", "0.01",
                        "--out", str(samples_path)])
        out = tmp_path / "pred.csv"
        assert scipy_modules_after([[
            "predict", "--approx", str(approx_path), "--samples",
            str(samples_path), "--mode", mode, "--out", str(out)]]) == []
        assert len(out.read_text().splitlines()) > 1

    def test_eval_demo(self, tmp_path):
        assert scipy_modules_after([[
            "eval", "--config", os.path.join(CONFIG_DIR, "demo.json"),
            "--out", str(tmp_path / "out")]]) == []
        assert (tmp_path / "out" / "report.csv").exists()

    def test_eval_bump(self, tmp_path):
        # eps1_target drives select_nu; exact_etaP seeds the eta rows; the
        # command exits 0 only if every row passes
        assert scipy_modules_after([[
            "eval", "--config", os.path.join(CONFIG_DIR, "bump.json"),
            "--out", str(tmp_path / "out")]]) == []
        assert (tmp_path / "out" / "report.csv").exists()

    def test_synth_bump_long_grid(self, tmp_path):
        # 80001 samples out to |t| = 400, the long grid CI synthesizes
        out = tmp_path / "x.csv"
        assert scipy_modules_after([[
            "synth", "--spec", os.path.join(CONFIG_DIR, "demo_bump.json"),
            "--t0", "-400", "--t1", "0", "--dt", "0.005",
            "--out", str(out)]]) == []
        t, x = map(float, out.read_text().splitlines()[-1].split(","))
        assert t == 0.0 and x == pytest.approx(
            sample(load_spectrum(os.path.join(CONFIG_DIR, "demo_bump.json")),
                   0.0), abs=1e-9)


def test_csv_writer_loads_no_exact_arithmetic_modules(tmp_path):
    # the writer's powers of ten come from integer arithmetic, and the
    # extrapolation factor from cosh and arccosh
    samples, out = tmp_path / "x.csv", tmp_path / "pred.csv"
    approx_path = tmp_path / "ap.json"
    assert modules_after([
        ["approx", "--T", "1.0", "--omega", "1.0", "--taper", "gaussian",
         "--nu", "0.3", "--d", "4", "--out", str(approx_path)],
        ["synth", "--spec", os.path.join(CONFIG_DIR, "demo_tone.json"),
         "--t0", "-12", "--t1", "2", "--dt", "0.01", "--out", str(samples)],
        ["predict", "--approx", str(approx_path), "--samples", str(samples),
         "--mode", "eta", "--out", str(out)]],
        ["fractions", "decimal", "numpy.polynomial"]) == []
    assert len(out.read_text().splitlines()) == 1402


class TestSynthCommand:
    def test_writes_csv(self, runner, tmp_path):
        spec_path = tmp_path / "tone.json"
        spec = SpectrumSpec.from_tones(1.0, [(2.0, 0.5)])
        save_spectrum(spec, spec_path)
        out = tmp_path / "x.csv"
        result = invoke(runner, ["synth", "--spec", str(spec_path),
                                 "--t0", "0.0", "--t1", "1.0", "--dt", "0.25",
                                 "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x"
        assert len(lines) == 6
        t, x = map(float, lines[3].split(","))
        assert x == pytest.approx(sample(spec, t), abs=1e-15)

    def test_refuses_a_gap_with_an_infinite_reciprocal(self, runner,
                                                        tmp_path):
        # the gap rule of the fit: finite and positive is not enough
        spec_path = tmp_path / "tiny_gap.json"
        spec_path.write_text(json.dumps({
            "omega_gap": 1e-320, "kind": "tones",
            "tones": [{"omega": 2.0, "re": 0.5, "im": 0.0}]}))
        out = tmp_path / "x.csv"
        result = invoke(runner, ["synth", "--spec", str(spec_path),
                                 "--t0", "0.0", "--t1", "1.0", "--dt", "0.25",
                                 "--out", str(out)])
        assert result.exit_code == 1
        assert (f"Error: {spec_path} is not a spectrum file (ValueError: "
                "omega_gap must be finite and positive with a finite "
                "reciprocal, got 1e-320)") in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("bad", [("--t1", "inf"), ("--dt", "inf"),
                                     ("--t0", "-inf"), ("--t0", "nan")])
    def test_rejects_non_finite(self, runner, tmp_path, bad):
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]), spec_path)
        args = {"--t0": "0.0", "--t1": "1.0", "--dt": "0.25"}
        args[bad[0]] = bad[1]
        out = tmp_path / "x.csv"
        result = invoke(runner, ["synth", "--spec", str(spec_path),
                                 *[v for kv in args.items() for v in kv],
                                 "--out", str(out)])
        assert result.exit_code == 1
        assert "t0, t1 and dt must be finite" in result.output
        assert not out.exists()

    def test_refuses_a_bump_grid_over_the_workspace_cap(self, runner,
                                                        tmp_path,
                                                        monkeypatch):
        # refused before the rule is built; a 2.9e9-entry workspace could
        # not be allocated
        def no_rule(*args):
            raise AssertionError("bump rule built")

        monkeypatch.setattr(signal, "_bump_rule", no_rule)
        out = tmp_path / "x.csv"
        result = invoke(runner, [
            "synth", "--spec", os.path.join(CONFIG_DIR, "demo_bump.json"),
            "--t0", "-1e6", "--t1", "0", "--dt", "1", "--out", str(out)])
        assert result.exit_code == 1
        assert "sampling n=1000001 points out to |t|=1e+06 needs" in \
            result.output
        assert "use a shorter grid or one nearer t = 0" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("t0, t1, dt, count", [
        ("0", "1e15", "1e-3", "1e+18"), ("-1e308", "1e308", "1", "inf")])
    def test_refuses_a_grid_too_long_to_make(self, runner, tmp_path, t0, t1,
                                             dt, count):
        out = tmp_path / "x.csv"
        result = invoke(runner, [
            "synth", "--spec", os.path.join(CONFIG_DIR, "demo_tone.json"),
            "--t0", t0, "--t1", t1, "--dt", dt, "--out", str(out)])
        assert result.exit_code == 1
        assert (f"Error: a grid of {count} samples is over the limit of "
                "2^25 = 33554432") in result.output
        assert not out.exists()

    @pytest.mark.parametrize("kind,key,field", [
        ("tones", "omega_gap", "omega_gap"), ("tones", "omega", "tone omega"),
        ("tones", "im", "tone amplitude"), ("bump", "center", "bump center"),
        ("bump", "half_width", "bump half_width"),
        ("bump", "amplitude", "bump amplitude")],
        ids=["omega_gap", "omega", "im", "center", "half_width", "amplitude"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rejects_non_finite_spectrum(self, runner, tmp_path, kind, key,
                                         field, value):
        if kind == "tones":
            data = spectrum_to_dict(SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]))
            part = data["tones"][0]
        else:
            data = spectrum_to_dict(
                SpectrumSpec.from_bumps(1.0, [(2.1, 0.45, 1.0)]))
            part = data["bumps"][0]
        (data if key == "omega_gap" else part)[key] = float(value)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(data))  # writes NaN or Infinity
        out = tmp_path / "x.csv"
        result = invoke(runner, ["synth", "--spec", str(spec_path),
                                 "--t0", "0.0", "--t1", "1.0", "--dt", "0.25",
                                 "--out", str(out)])
        assert result.exit_code == 1
        assert f"{field} must be finite" in result.output
        assert not out.exists()


class TestPredictPipeline:
    @pytest.fixture
    def workspace(self, runner, tmp_path):
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]), spec_path)
        approx_path = tmp_path / "ap.json"
        invoke(runner, ["approx", "--T", "1.0", "--omega", "1.0",
                        "--taper", "gaussian", "--nu", "0.3", "--d", "4",
                        "--out", str(approx_path)])
        samples_path = tmp_path / "x.csv"
        invoke(runner, ["synth", "--spec", str(spec_path), "--t0", "-12.0",
                        "--t1", "8.0", "--dt", "0.001",
                        "--out", str(samples_path)])
        return tmp_path, approx_path, samples_path

    def test_conv_mode(self, runner, workspace):
        tmp_path, approx_path, samples_path = workspace
        out = tmp_path / "pred_conv.csv"
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--mode", "conv", "--out", str(out)])
        assert result.exit_code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape[1] == 3
        # predictions start once a full 10*T window is available
        assert data[0, 0] == pytest.approx(-2.0, abs=1e-9)
        assert np.all(data[:, 2] > 0)  # tones do not decay: tail flagged

    @pytest.mark.parametrize("mode", ["conv", "eta"])
    def test_a_file_with_a_node_count_predicts_the_same(self, runner,
                                                        workspace, mode):
        # files written before the node count was left to d carry fit_nodes
        # and dense_factor; neither is read, so the predictions are those
        # of the file without them, byte for byte
        tmp_path, approx_path, samples_path = workspace
        old_path = tmp_path / "ap_old.json"
        old_path.write_text(json.dumps(dict(
            json.loads(approx_path.read_text()), fit_nodes=64,
            dense_factor=16), indent=2))
        outs = []
        for path in (approx_path, old_path):
            outs.append(tmp_path / f"pred_{path.stem}.csv")
            result = invoke(runner, ["predict", "--approx", str(path),
                                     "--samples", str(samples_path),
                                     "--mode", mode, "--out", str(outs[-1])])
            assert result.exit_code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_a_whole_float_degree_predicts_the_same(self, runner, workspace):
        # "d": 4.0 is the whole number 4: the same approximant, byte for byte
        tmp_path, approx_path, samples_path = workspace
        float_path = tmp_path / "ap_float.json"
        float_path.write_text(json.dumps(dict(
            json.loads(approx_path.read_text()), d=4.0)))
        outs = []
        for path in (approx_path, float_path):
            outs.append(tmp_path / f"pred_{path.stem}.csv")
            result = invoke(runner, ["predict", "--approx", str(path),
                                     "--samples", str(samples_path),
                                     "--mode", "eta", "--out", str(outs[-1])])
            assert result.exit_code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_eta_mode_writes_the_bytes_of_a_zero_tail_column(self, runner,
                                                             workspace):
        # eta mode hands the writer its diag_tail as the scalar 0.0: the
        # file is byte for byte the one a column of zeros writes, over the
        # 8001 rows' four blocks
        tmp_path, approx_path, samples_path = workspace
        out = tmp_path / "pred_eta.csv"
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--mode", "eta", "--t1", "0.0",
                                 "--out", str(out)])
        assert result.exit_code == 0
        t, y, tail = np.loadtxt(out, delimiter=",", skiprows=1).T
        assert t.size == 8001 and not np.any(tail)
        reference = tmp_path / "reference.csv"
        _write_csv(reference, "t,y_hat,diag_tail", t, y, np.zeros_like(y))
        assert out.read_bytes() == reference.read_bytes()

    def test_eta_mode_square_fit_hits_observations(self, runner, workspace):
        tmp_path, approx_path, samples_path = workspace
        out = tmp_path / "pred_eta.csv"
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--mode", "eta", "--t1", "0.0",
                                 "--out", str(out)])
        assert result.exit_code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        t, y = data[:, 0], data[:, 1]
        assert t[0] == pytest.approx(0.0, abs=1e-9)
        # the square fit reproduces the observed future values at its fit
        # points t_m, the Chebyshev extreme points of [t1 + T/10, theta - T]
        # = [0.1, 7]: 0.1, 1.825, 5.275 and 7, each a sample time here
        T = 1.0
        for tm in 0.1 + 6.9 * (1.0 - np.cos(np.pi * np.arange(4) / 3)) / 2:
            y_at = np.interp(tm, t, y)
            truth = 0.5 * np.cos(2.0 * (tm + T))
            assert y_at == pytest.approx(truth, abs=1e-5)

    def test_fit_eta_and_reuse(self, runner, workspace):
        tmp_path, approx_path, samples_path = workspace
        eta_path = tmp_path / "eta.json"
        result = invoke(runner, ["fit-eta", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--t1", "0.0", "--theta", "8.0",
                                 "--dbar", "8", "--out", str(eta_path)])
        assert result.exit_code == 0
        payload = json.loads(eta_path.read_text())
        assert len(payload["etaP"]) == 4 and "eta" not in payload
        assert len(payload["residual"]) == 8
        assert payload["cond"] > 0
        out = tmp_path / "pred_reuse.csv"
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--mode", "eta", "--eta", str(eta_path),
                                 "--out", str(out)])
        assert result.exit_code == 0
        assert out.exists()

        # a square fit up to the record's last sample, reused through --eta,
        # gives the prediction that predict's internal fit builds
        square_path = tmp_path / "eta_square.json"
        reused = tmp_path / "pred_square_reuse.csv"
        internal = tmp_path / "pred_internal.csv"
        lines = []
        for args in (
                ["fit-eta", "--t1", "0", "--theta", "8", "--dbar", "4",
                 "--out", str(square_path)],
                ["predict", "--mode", "eta", "--eta", str(square_path),
                 "--out", str(reused)],
                ["predict", "--mode", "eta", "--t1", "0",
                 "--out", str(internal)]):
            result = invoke(runner, [args[0], "--approx", str(approx_path),
                                     "--samples", str(samples_path),
                                     *args[1:]])
            assert result.exit_code == 0
            lines.append(result.output.strip())
        # the same in exact arithmetic, but the internal fit fits the
        # polynomial the constants add, not the constants, so the two share
        # no arithmetic: they differ by at most 2.8e-13 here
        a, b = (np.loadtxt(path, delimiter=",", skiprows=1)
                for path in (reused, internal))
        assert np.array_equal(a[:, [0, 2]], b[:, [0, 2]])
        assert np.abs(a[:, 1] - b[:, 1]).max() <= 5e-12
        # the internal fit reports the condition number of its own system,
        # near 1.5 where the constants' is 62, and fit-eta's extrapolation
        # factor
        cond, factor = lines[0].split(", cond=")[1].rstrip(")").split(
            ", extrapolation=")
        assert float(cond) > 0 and float(factor) >= 1
        assert lines[1] == (f"wrote {reused}  (8001 predictions, mode=eta, "
                            "forecast=1000)")
        head, note = lines[2].split(", cond=")
        assert head == (f"wrote {internal}  (8001 predictions, mode=eta, "
                        "forecast=1000")
        own_cond, own_factor = note.rstrip(")").split(", extrapolation=")
        assert 1.0 <= float(own_cond) < 2.0 and own_factor == factor

    def test_fit_eta_refuses_theta_past_the_record(self, runner, workspace):
        # observations past the last sample (t = 8) would be the last
        # sample held, not the signal
        tmp_path, approx_path, samples_path = workspace
        out = tmp_path / "eta.json"
        result = invoke(runner, ["fit-eta", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--t1", "0.0", "--theta", "8.9",
                                 "--dbar", "8", "--out", str(out)])
        assert result.exit_code == 1
        assert "theta=8.9 is past the last sample time 8" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["predict", "--mode", "conv"], ["predict", "--mode", "eta"],
        ["fit-eta", "--t1", "8.0", "--theta", "8.0", "--dbar", "8"]],
        ids=["conv", "eta", "fit-eta"])
    def test_descending_record_is_refused_by_name(self, runner, workspace,
                                                  args):
        # the record from 8 down to -12: each command names the order, not
        # a symptom of it (uniform steps, a t1 off the grid, a late theta)
        tmp_path, approx_path, samples_path = workspace
        header, *lines = samples_path.read_text().splitlines()
        reversed_path = tmp_path / "reversed.csv"
        reversed_path.write_text("\n".join([header, *lines[::-1]]) + "\n")
        out = tmp_path / "out"
        result = invoke(runner, [args[0], "--approx", str(approx_path),
                                 "--samples", str(reversed_path), *args[1:],
                                 "--out", str(out)])
        assert result.exit_code == 1
        assert f"{reversed_path}: sample times must increase" in result.output
        assert not out.exists()

    # the record runs from -12 to 8 in steps of 0.001
    T1_MESSAGES = {
        "-20": "t=-20.0 lies outside the sample grid, which runs from -12 "
               "to 8",
        "0.0004": "t=0.0004 does not lie on the sample grid: the nearest "
                  "sample is 0 and the step is 0.001",
    }

    @pytest.mark.parametrize("t1", sorted(T1_MESSAGES))
    def test_fit_eta_names_the_record_for_a_t1_off_it(self, runner,
                                                      workspace, t1):
        tmp_path, approx_path, samples_path = workspace
        out = tmp_path / "eta.json"
        result = invoke(runner, ["fit-eta", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--t1", t1, "--theta", "8.0",
                                 "--dbar", "8", "--out", str(out)])
        assert result.exit_code == 1
        assert self.T1_MESSAGES[t1] in result.output
        assert not out.exists()

    @pytest.mark.parametrize("t1", sorted(T1_MESSAGES))
    def test_predict_eta_names_the_record_for_a_t1_off_it(self, runner,
                                                          workspace, t1):
        tmp_path, approx_path, samples_path = workspace
        out = tmp_path / "pred.csv"
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--mode", "eta", "--t1", t1,
                                 "--out", str(out)])
        assert result.exit_code == 1
        assert self.T1_MESSAGES[t1] in result.output
        assert not out.exists()

    @pytest.mark.parametrize("t1", [8, 7.999])
    @pytest.mark.parametrize("route", ["eta-file", "internal-fit"])
    def test_predict_eta_refuses_a_t1_on_the_last_two_samples(
            self, runner, workspace, t1, route):
        # a window from t1 = 8 or 7.999 holds 1 or 2 samples of the record
        tmp_path, approx_path, samples_path = workspace
        eta_path = tmp_path / "eta.json"
        eta_path.write_text(json.dumps({"t1": t1, "etaP": [0.0] * 4}))
        out = tmp_path / "pred.csv"
        extra = (["--eta", str(eta_path)] if route == "eta-file"
                 else ["--t1", str(t1)])
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--mode", "eta", *extra, "--out", str(out)])
        assert result.exit_code == 1
        assert (f"t1={float(t1)} leaves fewer than 3 samples up to the last "
                "sample time 8; an eta window needs at least 3 samples"
                in result.output)
        assert not out.exists()

    @pytest.mark.parametrize("t_end, dt, message", [
        # [0.1, 1] holds the samples 0.5 and 1, and d = 4 needs 4
        ("2", "0.5", "the internal eta fit needs d=4 fit samples in "
                     "[t1 + T/10, last sample - T] = [0.1, 1] and the record "
                     "has 2; use a longer or finer record, an earlier --t1, "
                     "a lower d or --eta"),
        # the last fit time, 1 - T = 0, lies before t1 + T/10
        ("1", "0.001", "the record is too short for the internal eta fit: "
                       "from t1=0 it must run past t1 + 1.1 T = 1.1 and it "
                       "ends at 1; use a longer record, an earlier --t1 or "
                       "--eta"),
    ], ids=["few-samples", "short-span"])
    def test_predict_eta_refuses_a_record_in_its_own_terms(
            self, runner, workspace, t_end, dt, message):
        # predict's internal fit takes d times and the record's end; its
        # refusal names neither fit-eta's --dbar nor its theta
        tmp_path, approx_path, _ = workspace
        spec_path, samples_path = tmp_path / "tone.json", tmp_path / "s.csv"
        invoke(runner, ["synth", "--spec", str(spec_path), "--t0", "0",
                        "--t1", t_end, "--dt", dt, "--out", str(samples_path)])
        out = tmp_path / "pred.csv"
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--mode", "eta", "--out", str(out)])
        assert result.exit_code == 1
        assert message in result.output
        assert "--dbar" not in result.output
        assert "theta" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("payload, message", [
        ({"t1": 0.0, "etaP": [0.0] * 8}, "etaP must have one entry per level "
         "above y_0 (d = 4), not the 8 of a fit at d = 8"),
        ({"t1": 0.0, "etaP": [0.0, float("nan"), 0.0, 0.0]},
         "etaP must be finite"),
        ({"t1": 3.00005, "etaP": [0.0] * 4}, "t=3.00005 does not lie on the "
         "sample grid: the nearest sample is 3 and the step is 0.001"),
    ], ids=["another-degree", "nan", "off-lattice-t1"])
    def test_predict_names_a_refused_eta_file(self, runner, workspace,
                                              payload, message):
        tmp_path, approx_path, samples_path = workspace
        eta_path = tmp_path / "e.json"
        eta_path.write_text(json.dumps(payload))  # writes NaN
        out = tmp_path / "pred.csv"
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--mode", "eta", "--eta", str(eta_path),
                                 "--out", str(out)])
        assert result.exit_code == 1
        assert f"{eta_path}: {message}" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("mode,extra,option", [
        ("conv", ["--t1", "0"], "--t1"),
        ("conv", ["--eta", "ETA"], "--eta"),
        ("eta", ["--history-length", "20"], "--history-length"),
        ("eta", ["--eta", "ETA", "--t1", "0"], "--t1"),
    ], ids=["conv-t1", "conv-eta", "eta-history-length", "eta-file-t1"])
    def test_refuses_options_the_mode_ignores(self, runner, workspace, mode,
                                              extra, option):
        tmp_path, approx_path, samples_path = workspace
        eta_path = tmp_path / "eta.json"
        eta_path.write_text(json.dumps({"t1": 0.0, "etaP": [0.0] * 4}))
        out = tmp_path / "pred.csv"
        result = invoke(runner, [
            "predict", "--approx", str(approx_path), "--samples",
            str(samples_path), "--mode", mode,
            *[str(eta_path) if v == "ETA" else v for v in extra],
            "--out", str(out)])
        assert result.exit_code == 1
        assert f"Error: {option} does not apply" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["eta", "conv"])
    def test_refuses_dbar(self, runner, workspace, mode):
        # the internal eta fit is square; fit-eta --dbar fits more points
        tmp_path, approx_path, samples_path = workspace
        out = tmp_path / "pred.csv"
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--mode", mode, "--dbar", "8",
                                 "--out", str(out)])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--dbar" in result.output
        assert not out.exists()

    def test_eta_mode_rejects_short_record(self, runner, workspace):
        tmp_path, approx_path, _ = workspace
        short = tmp_path / "short.csv"
        with open(short, "w") as fh:
            fh.write("t,x\n")
            for i in range(50):
                fh.write(f"{i * 0.01},0.0\n")
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(short), "--mode", "eta",
                                 "--out", str(tmp_path / "nope.csv")])
        assert result.exit_code != 0

    @pytest.mark.parametrize("content", ["t,x\n", ""],
                             ids=["header-only", "empty"])
    @pytest.mark.parametrize("command", ["predict", "fit-eta"])
    def test_refuses_a_samples_file_without_samples(self, runner, workspace,
                                                    content, command):
        tmp_path, approx_path, _ = workspace
        empty = tmp_path / "empty.csv"
        empty.write_text(content)
        out = tmp_path / "out"
        extra = (["--mode", "eta"] if command == "predict" else
                 ["--t1", "0", "--theta", "8", "--dbar", "4"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = invoke(runner, [command, "--approx", str(approx_path),
                                     "--samples", str(empty), *extra,
                                     "--out", str(out)])
        assert result.exit_code == 1
        assert f"Error: {empty} holds no samples" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("dbar", [10 ** 15, 2 ** 25 + 1, 2 ** 23 + 1])
    def test_fit_eta_refuses_a_dbar_over_the_grid_limit(self, runner,
                                                        workspace, dbar):
        # refused before the fit times are made: 2^23 + 1 fit times are
        # within the limit, but their dbar x d matrix (d = 4) is not
        tmp_path, approx_path, samples_path = workspace
        out = tmp_path / "eta.json"
        result = invoke(runner, ["fit-eta", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--t1", "0", "--theta", "8",
                                 "--dbar", str(dbar), "--out", str(out)])
        assert result.exit_code == 1
        assert (f"--dbar {dbar} at d=4: the {dbar} x 4 fit matrix is over "
                f"the limit of 2^25 = 33554432") in result.output
        assert not out.exists()

    @pytest.mark.parametrize("dbar", [-3, 0, 3])
    def test_fit_eta_refuses_a_dbar_below_d(self, runner, workspace, dbar):
        # fewer fit times than constants, a negative count among them
        tmp_path, approx_path, samples_path = workspace
        out = tmp_path / "eta.json"
        result = invoke(runner, ["fit-eta", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--t1", "0", "--theta", "8",
                                 "--dbar", str(dbar), "--out", str(out)])
        assert result.exit_code == 1
        assert (f"Error: need at least d=4 fit times, got {dbar}"
                in result.output)
        assert not out.exists()

    @pytest.mark.parametrize("layout", ["missing_key", "list", "wrong_type"])
    @pytest.mark.parametrize("command", ["predict", "fit-eta", "synth"])
    def test_refuses_a_malformed_input_file(self, runner, workspace, command,
                                            layout):
        # an approximant (predict, fit-eta) or spectrum (synth) file that
        # lacks a key, holds a list or holds a value of the wrong type is
        # refused by its name, and no output is written
        tmp_path, approx_path, samples_path = workspace
        source = tmp_path / "tone.json" if command == "synth" else approx_path
        data = json.loads(source.read_text())
        if layout == "missing_key":
            del data["kind" if command == "synth" else "T"]
        elif layout == "list":
            data = list(data.values())
        elif command == "synth":
            data["tones"][0]["re"] = "x"
        else:
            data["taper"] = "gaussian"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "out"
        samples = ["--samples", str(samples_path)]
        args = {"predict": ["--approx", str(bad), *samples, "--mode", "eta"],
                "fit-eta": ["--approx", str(bad), *samples, "--t1", "0",
                            "--theta", "8", "--dbar", "4"],
                "synth": ["--spec", str(bad), "--t0", "0", "--t1", "1",
                          "--dt", "0.25"]}[command]
        result = invoke(runner, [command, *args, "--out", str(out)])
        assert result.exit_code == 1
        what = ("a spectrum file" if command == "synth"
                else "an approximant file")
        assert f"Error: {bad} is not {what} (" in result.output
        assert result.output.count(str(bad)) == 1
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("layout", ["without_c", "degree_1",
                                        "gap_1e-320", "degree_4.5"])
    @pytest.mark.parametrize("command", ["predict", "fit-eta"])
    def test_refuses_an_approximant_it_cannot_realize(self, runner, workspace,
                                                      command, layout):
        # a file that holds a alone (c is the approximant, a only its
        # monomial view), one of degree 1, whose fit-eta wrote an
        # extrapolation of NaN, or one whose gap has an infinite reciprocal,
        # which conv realized as ~1e-321 predictions, is refused by its name
        # in every mode, with no warning, as is one whose d is not a whole
        # number, which int() would have truncated to 4
        tmp_path, approx_path, samples_path = workspace
        data = json.loads(approx_path.read_text())
        if layout == "without_c":
            del data["c"]
        elif layout == "degree_1":
            data.update(d=1, c=data["c"][:2], a=data["a"][:1])
        elif layout == "degree_4.5":
            data["d"] = 4.5
        else:
            data["omega_gap"] = 1e-320
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "out"
        samples = ["--samples", str(samples_path)]
        runs = {"predict": [["--mode", "eta"], ["--mode", "conv"]],
                "fit-eta": [["--t1", "0", "--theta", "8", "--dbar", "1"]]}
        for args in runs[command]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = invoke(runner, [command, "--approx", str(bad),
                                         *samples, *args, "--out", str(out)])
            assert result.exit_code == 1
            assert f"Error: {bad} is not an approximant file (" \
                in result.output
            assert {"without_c": "KeyError: 'c'",
                    "degree_1": "degree d must be an integer >= 2, got 1",
                    "degree_4.5": "ValueError: d must be a whole number, "
                                  "got 4.5",
                    "gap_1e-320": "omega_gap must be finite and positive "
                                  "with a finite reciprocal, got 1e-320"
                    }[layout] in result.output
            assert "Traceback" not in result.output
            assert not out.exists()

    @pytest.mark.parametrize("dbar", [7000, 6902])
    def test_fit_eta_refuses_a_dbar_over_the_fit_span(self, runner,
                                                      workspace, dbar):
        # the fit times are samples of the record in [t1 + T/10, theta - T],
        # of which there are 6901 from 0.1 to 7; 6901 fit times are accepted
        tmp_path, approx_path, samples_path = workspace
        out = tmp_path / "eta.json"
        args = ["fit-eta", "--approx", str(approx_path), "--samples",
                str(samples_path), "--t1", "0", "--theta", "8", "--out",
                str(out)]
        result = invoke(runner, [*args, "--dbar", str(dbar)])
        assert result.exit_code == 1
        assert (f"Error: --dbar {dbar} exceeds the 6901 samples in the fit "
                "span [0.1, 7]") in result.output
        assert not out.exists()
        result = invoke(runner, [*args, "--dbar", "6901"])
        assert result.exit_code == 0
        assert len(json.loads(out.read_text())["residual"]) == 6901

    @pytest.mark.parametrize("theta, hi", [(5.0, 4.0), (5.0004, 4.0)])
    def test_extrapolation_factor(self, runner, workspace, theta, hi):
        # |T_{d-1}| at theta, the fitted span mapped onto [-1, 1]: its first
        # and last fit times, the first and last samples in
        # [t1 + T/10, theta - T]; d = 4, T = 1, t1 = 0
        tmp_path, approx_path, samples_path = workspace
        eta_path = tmp_path / "eta.json"

        def factor(theta, hi):
            lo = 0.1
            x = (2.0 * theta - lo - hi) / (hi - lo)
            return float(np.polynomial.chebyshev.chebval(x, [0, 0, 0, 1]))

        result = invoke(runner, ["fit-eta", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--t1", "0", "--theta", str(theta),
                                 "--dbar", "8", "--out", str(eta_path)])
        assert result.exit_code == 0
        value = json.loads(eta_path.read_text())["extrapolation"]
        assert value == pytest.approx(factor(theta, hi), rel=1e-12)
        assert result.output.strip().endswith(f", extrapolation={value:.3e})")
        # predict's internal fit ends at the last sample, t = 8
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--mode", "eta", "--t1", "0",
                                 "--out", str(tmp_path / "pred.csv")])
        assert result.exit_code == 0
        assert result.output.strip().endswith(
            f", extrapolation={factor(8.0, 7.0):.3e})")

    @pytest.mark.parametrize("t1", ["0", "-5"])
    def test_forecast_counts_the_rows_past_the_last_fit_time(
            self, runner, workspace, t1):
        # the record runs to t = 8 at step 1e-3 and T = 1, so the last fit
        # time is 7 and the rows of t in (7, 8] are forecasts, whatever t1
        tmp_path, approx_path, samples_path = workspace
        out = tmp_path / "pred.csv"
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--mode", "eta", "--t1", t1,
                                 "--out", str(out)])
        assert result.exit_code == 0
        forecast = int(result.output.split(", forecast=")[1].split(",")[0])
        t = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
        assert forecast == np.count_nonzero(t > 7.0 + 1e-9) == 1000
        # fit-eta records its last fit time, 7 with theta = 8, and predict
        # --eta counts the same rows from it
        eta_path = tmp_path / "eta.json"
        result = invoke(runner, ["fit-eta", "--approx", str(approx_path),
                                 "--samples", str(samples_path), "--t1", t1,
                                 "--theta", "8", "--dbar", "4",
                                 "--out", str(eta_path)])
        assert result.exit_code == 0
        payload = json.loads(eta_path.read_text())
        assert payload["last_fit_time"] == pytest.approx(7.0, abs=1e-9)
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path), "--mode",
                                 "eta", "--eta", str(eta_path),
                                 "--out", str(out)])
        assert result.exit_code == 0
        assert result.output.strip().endswith(", forecast=1000)")
        # a file written before fit-eta recorded the time prints no forecast
        del payload["last_fit_time"]
        eta_path.write_text(json.dumps(payload))
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path), "--mode",
                                 "eta", "--eta", str(eta_path),
                                 "--out", str(out)])
        assert result.exit_code == 0
        assert result.output.strip().endswith(" predictions, mode=eta)")
        # and a time that is not finite is refused, naming the file
        eta_path.write_text(json.dumps({**payload,
                                        "last_fit_time": float("inf")}))
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path), "--mode",
                                 "eta", "--eta", str(eta_path),
                                 "--out", str(out)])
        assert result.exit_code == 1
        assert (f"{eta_path} is not a fit-eta output (ValueError: "
                "last_fit_time must be finite, got inf)") in result.output

    def test_conv_mode_rejects_too_few_samples(self, runner, workspace):
        tmp_path, approx_path, _ = workspace
        one = tmp_path / "one.csv"
        one.write_text("t,x\n0.0,1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = invoke(runner, ["predict", "--approx", str(approx_path),
                                     "--samples", str(one), "--mode", "conv",
                                     "--out", str(tmp_path / "nope.csv")])
        assert result.exit_code == 1
        assert "need at least 3 samples" in result.output


class TestEtaFitSamples:
    """The eta fit's samples: dbar of the fit span's, spread by index like
    Chebyshev extreme points."""

    @staticmethod
    def fit_indices(monkeypatch, times, theta, dbar):
        # the indices _fit_eta_from_samples hands fit_eta on a tone record
        # from its first sample, at d = 4 and T = 1
        seen, fit_eta = [], cli.fit_eta

        def recording(approx, times, values, idx, zeta):
            seen.append(np.array(idx))
            return fit_eta(approx, times, values, idx, zeta)

        monkeypatch.setattr(cli, "fit_eta", recording)
        ap = approx.fit_approximant(1.0, 1.0, taper.TaperSpec("gaussian", 0.3),
                                    4)
        values = np.cos(2.0 * times)
        with warnings.catch_warnings():
            # the rule, not the fit's conditioning, is under test here
            warnings.simplefilter("ignore", RuntimeWarning)
            cli._fit_eta_from_samples(ap, times, values, float(times[0]),
                                      theta, dbar)
        return seen[0]

    @pytest.mark.parametrize("dbar", [4, 5, 17, 60, 90, 91])
    def test_rule_keeps_the_span_ends_and_rises(self, monkeypatch, dbar):
        # [0, 2] at 0.01 with theta = 2: the span [0.1, 1] holds the 91
        # samples 10..100, and dbar = 91 takes every one of them
        times = 0.01 * np.arange(201)
        idx = self.fit_indices(monkeypatch, times, 2.0, dbar)
        assert len(idx) == dbar
        assert idx[0] == 10 and idx[-1] == 100
        assert np.all(np.diff(idx) >= 1)
        if dbar == 91:
            assert np.array_equal(idx, np.arange(10, 101))

    @pytest.mark.parametrize("dbar", [4, 9, 33])
    def test_rule_follows_the_chebyshev_points(self, monkeypatch, dbar):
        # on a fine record each fit time is the Chebyshev extreme point of
        # the span [0.1, 7] to within the steps the rule adds one by one
        times = 1e-3 * np.arange(8001)
        idx = self.fit_indices(monkeypatch, times, 8.0, dbar)
        k = np.arange(dbar)
        cheb = 0.1 + 6.9 * (1.0 - np.cos(np.pi * k / (dbar - 1))) / 2.0
        assert np.abs(times[idx] - cheb).max() <= 1e-3 * dbar

    N, LEAD = 12001, 1000

    @classmethod
    def bump_record(cls, tmp_path, d):
        # (samples file, approximant file, x): a unit-L1 bump record on
        # [-10, 2] at 1e-3, x running T = LEAD samples past it, and the
        # approximant of degree d at nu = 0.3
        unit = SpectrumSpec.from_bumps(1.0, [(2.1, 0.45, 1.0)])
        spec = SpectrumSpec.from_bumps(
            1.0, [(2.1, 0.45, 2.0 / signal.spectral_mass(unit))])
        x = signal.sample_grid(spec, -10.0, 1e-3, cls.N + cls.LEAD)
        samples_path = tmp_path / "x.csv"
        _write_csv(samples_path, "t,x", -10.0 + 1e-3 * np.arange(cls.N),
                   x[:cls.N])
        approx_path = tmp_path / "ap.json"
        approx.save_approximant(approx.fit_approximant(
            1.0, 1.0, taper.TaperSpec("gaussian", 0.3), d), approx_path)
        return samples_path, approx_path, x

    def test_square_fit_on_a_bump_record(self, runner, tmp_path):
        # a unit-L1 bump record on [-10, 2] at 1e-3, predicted at d = 16
        # from predict's internal square fit: well conditioned (the even
        # spread had cond 1.2e13 and an error of 0.16), no warning, and
        # within 0.01 of x(t + T) wherever that lies in the record
        samples_path, approx_path, x = self.bump_record(tmp_path, 16)
        n, lead = self.N, self.LEAD
        out = tmp_path / "pred.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = invoke(runner, ["predict", "--approx", str(approx_path),
                                     "--samples", str(samples_path),
                                     "--mode", "eta", "--out", str(out)])
        assert result.exit_code == 0
        cond = float(result.output.split("cond=")[1].split(",")[0])
        assert cond < 1e12
        y = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        assert np.abs(y[:n - lead] - x[lead:n]).max() < 0.01

    @pytest.mark.parametrize("d, before", [(24, 2.38e-3), (32, 1.22e-3)])
    def test_square_fit_at_high_degree(self, runner, tmp_path, d, before):
        # the same record at d = 24 and 32: no warning, the fit's cond below
        # 10, and an error at least 10x below the `before` of solving for
        # the constants, whose system had cond 3.5e17 and 1.7e16 (4.7e-6
        # and 1.1e-6 measured)
        samples_path, approx_path, x = self.bump_record(tmp_path, d)
        n, lead = self.N, self.LEAD
        out = tmp_path / "pred.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = invoke(runner, ["predict", "--approx", str(approx_path),
                                     "--samples", str(samples_path),
                                     "--mode", "eta", "--out", str(out)])
        assert result.exit_code == 0
        cond = float(result.output.split("cond=")[1].split(",")[0])
        assert cond < 10
        y = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        assert np.abs(y[:n - lead] - x[lead:n]).max() < before / 10

    @pytest.mark.parametrize("d", [8, 16])
    def test_prediction_is_phi_plus_the_interpolating_polynomial(
            self, runner, tmp_path, monkeypatch, d):
        # y - phi, phi the prediction with etaP = 0 from the first sample,
        # is the polynomial of degree d - 1 that numpy's Chebyshev fit puts
        # through zeta - phi at the fit times, to 1e-12 of its size
        samples_path, approx_path, _ = self.bump_record(tmp_path, d)
        seen, fitted = [], cli.predict_fitted

        def recording(approx, times, values, idx, zeta):
            seen.append((times[idx], zeta))
            return fitted(approx, times, values, idx, zeta)

        monkeypatch.setattr(cli, "predict_fitted", recording)
        out = tmp_path / "pred.csv"
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--mode", "eta", "--out", str(out)])
        assert result.exit_code == 0
        (fit_times, zeta), = seen
        t, y = np.loadtxt(out, delimiter=",", skiprows=1)[:, :2].T
        x = np.loadtxt(samples_path, delimiter=",", skiprows=1)[:, 1]
        ap = approx.load_approximant(approx_path)
        phi = predictor.eta_sum(ap, predictor.iterated_integrals(
            t, x, d, ap.omega_gap, np.zeros(d)))
        poly = np.polynomial.Chebyshev.fit(
            fit_times, zeta - np.interp(fit_times, t, phi), d - 1)
        assert np.abs(y - phi - poly(t)).max() <= 1e-12 * np.abs(y - phi).max()

    def test_one_pass_and_no_constants(self, runner, tmp_path, monkeypatch):
        # predict without --eta runs the recurrence once and fits no
        # constants
        samples_path, approx_path, _ = self.bump_record(tmp_path, 8)
        passes, integrals = [], predictor.iterated_integrals

        def counting(*args, **kwargs):
            passes.append(args[2])
            return integrals(*args, **kwargs)

        def no_constants(*args, **kwargs):
            raise AssertionError("fit_eta called")

        for module in (cli, predictor):
            monkeypatch.setattr(module, "iterated_integrals", counting)
            monkeypatch.setattr(module, "fit_eta", no_constants)
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--mode", "eta",
                                 "--out", str(tmp_path / "pred.csv")])
        assert result.exit_code == 0
        assert passes == [8]


def test_write_csv_matches_per_value_format(tmp_path):
    # the one-template writer against the per-value f-string it replaced
    first = [-0.0, 5e-324, 1e308, 7, 2 ** 60, np.float64(1.2e8),
             np.int64(-3), np.float32(0.1), float("nan"), float("-inf")]
    second = np.linspace(-1.0, 1.0, len(first)) / 3.0
    path = tmp_path / "x.csv"
    _write_csv(path, "a,b", first, second)
    expected = "a,b\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                 for row in zip(first, second))
    assert path.read_bytes() == expected.encode()


def template_csv(header, *columns):
    # the reference writer: one '%.17g' template per row
    template = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return (header + "\n" + "".join(template % row for row in rows)).encode()


def near_ties():
    # doubles a whose scaled value a * 10^(16 - e), e = floor(log10 a), lies
    # within 1/(2 * 5^q) or 2^-40 of a half-integer, closer than a
    # double-double product can resolve, without being a tie
    out = []
    # a = M * 2^E >= 1e17: the fraction of a / 10^q is
    # (M * 2^(E - q) mod 5^q) / 5^q, made (5^q -+ 1) / 2 over 5^q
    for q in range(21, 31):
        m = 5 ** q
        for E in range(q, q + 120):
            for r in ((m - 1) // 2, (m + 1) // 2):
                M = r * pow(2 ** (E - q), -1, m) % m
                M += -(-(2 ** 52 - M) // m) * m if M < 2 ** 52 else 0
                if M < 2 ** 53 and 10 ** (16 + q) <= M * 2 ** E < 10 ** (17 + q):
                    out.append(float(M) * 2.0 ** E)
    # a = M * 2^-(L + p) < 1e-6: the fraction of a * 10^p is
    # (M * 5^p mod 2^L) / 2^L, made 1/2 -+ 2^-L
    for p in range(23, 60):
        for L in range(40, 53):
            mod = 2 ** L
            for r in (mod // 2 - 1, mod // 2 + 1):
                M = r * pow(5 ** p, -1, mod) % mod
                M += -(-(2 ** 52 - M) // mod) * mod if M < 2 ** 52 else 0
                scaled = M * 10 ** p
                if M < 2 ** 53 and (10 ** 16 << (L + p)) <= scaled < (
                        10 ** 17 << (L + p)):
                    out.append(M / 2 ** (L + p))
    return np.array(out)


def adversarial_values():
    rng = np.random.default_rng(20261018)
    powers = 10.0 ** np.arange(-320, 309)
    edges = np.array([1e-5, 1e-4, 1e16, 1e17, float(1e-248)])
    ints = 2.0 ** 53 + np.arange(-1000.0, 1001.0)
    carries = np.array([np.nextafter(1e23, 0), 1e23, 9.9999999999999999e22,
                        0.99999999999999999, 9.9999999999999995e-5,
                        99999999999999999.0, 9999999999999999.0])
    m = np.arange(1, 80)
    dyadic = (rng.integers(1, 2 ** 40, (40, m.size)) / 2.0 ** m).ravel()
    finite = np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf), ints,
        2.0 ** 54 + np.arange(-64.0, 65.0), carries, dyadic,
        2.0 ** -np.arange(1075.0), near_ties(),
        [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]])
    bits = rng.integers(0, 2 ** 64, 400_000, dtype=np.uint64).view(float)
    return np.concatenate([finite, -finite, bits,
                           [np.nan, np.inf, -np.inf, -0.0]])


def fast_path_verdicts(values):
    """+1 where the vectorized writer must compute a value's '%.17g' digits
    itself, -1 where it must fall back to the template and 0 in between,
    decided in exact integer arithmetic.  With e = floor(log10|v|) as the
    writer takes it and q = |v| 10^(16 - e), a value falls back for |v|
    outside [1e-250, 1e250] (NaN and infinities among them), for q below
    10^16 or at or above 10^17 - 1/2 (a decade that e misses, or digits
    that carry into the next one) or within 1e-10 of a half-integer (a
    possible tie), and is taken where q is more than 2e-9 from each bound."""
    a = np.abs(np.asarray(values, dtype=float))
    inside = (a >= 1e-250) & (a <= 1e250)
    with np.errstate(all="ignore"):
        powers = 16 - np.floor(np.log10(a[inside])).astype(int)
    out = []
    for x, p in zip(a[inside].tolist(), powers.tolist()):
        num, den = x.as_integer_ratio()
        num, den = (num * 10 ** p, den) if p >= 0 else (num, den * 10 ** -p)
        # q - 10^16, 10^17 - 1/2 - q and the distance from q to a
        # half-integer, each times 2 den
        low, high, tie = (2 * (num - 10 ** 16 * den),
                          (2 * 10 ** 17 - 1) * den - 2 * num,
                          abs(2 * (num % den) - den))
        if low < 0 or high <= 0 or tie * 10 ** 10 < 2 * den:
            out.append(-1)
        else:
            out.append(1 if min(low, high, tie) * 10 ** 9 > 4 * den else 0)
    verdicts = np.full(a.shape, -1)
    verdicts[inside] = out
    return verdicts


def write_csv_fallbacks(path, header, *columns):
    """_write_csv, and for each block whether a value of it went to '%.17g'
    alone: whether _decimal17 left a value of it uncertified."""
    fell_back = []
    certify = cli._decimal17

    def recording(v):
        ok, D, e = certify(v)
        fell_back.append(not ok.all())
        return ok, D, e

    with mock.patch.object(cli, "_decimal17", recording):
        _write_csv(path, header, *columns)
    return fell_back


class TestWriteCsv:
    """_write_csv writes exactly the bytes of the '%.17g' template, formats
    every value its vectorized path must take without '%.17g', and formats
    alone each value that path refuses."""

    @staticmethod
    def check(path, values, cols):
        # all values; those the fast path must take alone, in blocks where
        # no value falls back; and each one it must refuse, with one of each
        # kind outside [1e-250, 1e250], among 4 rows of 0.5 in a block of
        # its own, where it falls back to '%.17g' alone
        verdicts = fast_path_verdicts(values)
        a = np.abs(values)
        lone = np.concatenate([
            values[(verdicts < 0) & (a >= 1e-250) & (a <= 1e250)],
            [np.nan, -np.inf, 5e-324, 2.2250738585072009e-308,
             np.nextafter(1e-250, 0), np.nextafter(1e250, np.inf),
             1.7976931348623157e308]])
        blocks = np.full((lone.size, 4 * cols), 0.5)
        blocks[:, 0] = lone
        for part, rows, fall_back in (
                (values, _CSV_BLOCK_ROWS, None),
                (values[verdicts > 0], _CSV_BLOCK_ROWS, False),
                (blocks.ravel(), 4, True)):
            part = part[:part.size // cols * cols]
            columns = [part[j::cols] for j in range(cols)]
            with mock.patch.object(cli, "_CSV_BLOCK_ROWS", rows):
                fell_back = write_csv_fallbacks(path, "h", *columns)
            assert path.read_bytes() == template_csv("h", *columns)
            if fall_back is not None:
                assert fell_back == [fall_back] * len(fell_back)
        return verdicts

    @given(st.integers(1, 3).flatmap(lambda cols: st.lists(
        st.tuples(*[st.floats()] * cols), min_size=1, max_size=40)))
    def test_matches_template_on_any_floats(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        cols = len(rows[0])
        self.check(path, np.array(rows, dtype=float).ravel(), cols)

    def test_matches_template_on_adversarial_values(self, tmp_path):
        values = adversarial_values()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = self.check(tmp_path / "x.csv", values, 2)
        # the fast path's share, about 81%: the in-range random bit patterns
        # and dyadics less their ties, the integers near 2^53 and 2^54, and
        # the upper neighbours of the powers of ten, among others; and the
        # lone values it refuses: decade misses, carries and ties
        assert np.count_nonzero(verdicts > 0) > 0.8 * values.size
        assert np.count_nonzero((verdicts < 0) & np.isfinite(values)
                                & (np.abs(values) >= 1e-250)
                                & (np.abs(values) <= 1e250)) > 1000

    def test_refuses_a_decade_that_log10_reads_low(self, tmp_path):
        # where log10 reads one ulp low, an exact power of ten takes the
        # decade below its own, in which its 17 digits round to 10^17; each
        # such value, one to a block, falls back to '%.17g'
        log10 = np.log10
        powers = 10.0 ** np.arange(0, 23)
        path = tmp_path / "x.csv"
        with mock.patch.object(np, "log10",
                               lambda a: np.nextafter(log10(a), -np.inf)), \
                mock.patch.object(cli, "_CSV_BLOCK_ROWS", 1):
            fell_back = write_csv_fallbacks(path, "a", powers)
        assert path.read_bytes() == template_csv("a", powers)
        assert fell_back == [True] * powers.size

    def test_block_seams(self, tmp_path):
        # one value that '%.17g' formats alone on each side of the first
        # seam between row blocks (NaN, a tie); the third block has none
        n = 2 * _CSV_BLOCK_ROWS + 3
        first = np.linspace(-3.0, 7.0, n)
        second = 1.0 / np.arange(1.0, n + 1)
        first[_CSV_BLOCK_ROWS - 1] = np.nan
        second[_CSV_BLOCK_ROWS] = 2.0 ** -25
        path = tmp_path / "x.csv"
        assert write_csv_fallbacks(path, "a,b", first, second) == [
            True, True, False]
        assert path.read_bytes() == template_csv("a,b", first, second)

    def test_formats_only_the_refused_values_alone(self, tmp_path):
        # a NaN, a subnormal and a decimal tie in one block of the shipped
        # size: the template's bytes, and exactly those three values reach
        # '%.17g'
        n = _CSV_BLOCK_ROWS
        first = np.linspace(-3.0, 7.0, n)
        second = 1.0 / np.arange(1.0, n + 1)
        first[5] = np.nan
        second[n // 2] = 5e-324
        first[n - 1] = 2.0 ** -25
        formatted = []
        format_value = cli._format_value

        def recording(x):
            formatted.append(x)
            return format_value(x)

        path = tmp_path / "x.csv"
        with mock.patch.object(cli, "_format_value", recording):
            assert write_csv_fallbacks(path, "a,b", first, second) == [True]
        assert path.read_bytes() == template_csv("a,b", first, second)
        assert [repr(x) for x in formatted] == [
            "nan", "5e-324", repr(2.0 ** -25)]

    # row counts inside one block (1, 2^11 - 1, 2^11, 2^11 + 1, 2^12 + 1)
    # and on each side of the block seams
    @pytest.mark.parametrize("rows", [1, (1 << 11) - 1, 1 << 11,
                                      (1 << 11) + 1, (1 << 12) + 1,
                                      _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                      _CSV_BLOCK_ROWS + 1,
                                      2 * _CSV_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("constant", [0.0, -0.0, 1.0 / 3.0, 1e300])
    @pytest.mark.parametrize("nan_last", [False, True])
    def test_scalar_last_column(self, tmp_path, rows, constant, nan_last):
        # a scalar last column is formatted once and written on every row:
        # the template's bytes with that value as a full column, on blocks
        # the fast path takes whole and on a last block where a NaN in
        # another column falls back alone
        first = np.linspace(-3.0, 7.0, rows)
        second = 1.0 / np.arange(1.0, rows + 1)
        if nan_last:
            second[-1] = np.nan
        path = tmp_path / "x.csv"
        fell_back = write_csv_fallbacks(path, "a,b,c", first, second,
                                        constant)
        assert fell_back == [False] * (len(fell_back) - 1) + [nan_last]
        assert path.read_bytes() == template_csv(
            "a,b,c", first, second, np.full(rows, constant))

    def test_scalar_last_column_beside_a_subnormal(self, tmp_path):
        # one column and the literal; the subnormal falls back alone
        first = np.full(5, 0.25)
        first[2] = 5e-324
        path = tmp_path / "x.csv"
        assert write_csv_fallbacks(path, "a,b", first, -0.0) == [True]
        assert path.read_bytes() == template_csv("a,b", first,
                                                 np.full(5, -0.0))

    @pytest.mark.parametrize("columns", [
        (0.0, np.ones(3)), (np.ones(3), 0.0, np.ones(3)), (0.0,),
        (np.ones(3), np.ones(2)), (np.ones(2), np.ones(3), 0.0)])
    def test_refuses_columns_that_are_not_one_table(self, tmp_path, columns):
        # only the last column may be a scalar, and the arrays must share
        # their length: a shorter one would cut the table without a word
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="CSV columns"):
            _write_csv(path, "h", *columns)
        assert not path.exists()


def traced_peak(call, *args):
    # (the tracemalloc peak of call(*args) in bytes, its result)
    tracemalloc.start()
    try:
        result = call(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_csv_memory_is_flat_in_the_row_count(tmp_path):
    # the codec works in blocks so that its memory does not grow with the
    # record: on records of n and 4n rows, n two writer blocks and at least
    # two reader blocks, the writer's peak stays put and the reader's grows
    # by no more than the array it returns
    peaks = []
    for n in (2 * _CSV_BLOCK_ROWS, 8 * _CSV_BLOCK_ROWS):
        t = -3.0 + 1e-3 * np.arange(n)
        path = tmp_path / f"{n}.csv"
        write_peak, _ = traced_peak(_write_csv, path, "t,x", t,
                                    np.sin(7.3 * t))
        assert path.stat().st_size >= 2 * cli._CSV_READ_BYTES
        read_peak, data = traced_peak(cli._read_table, path)
        assert data.shape == (n, 2)
        peaks.append((write_peak, read_peak, data.nbytes))
    (write_n, read_n, _), (write_4n, read_4n, result_4n) = peaks
    assert write_4n <= 1.1 * write_n
    assert read_4n - read_n <= result_4n


def midpoint_decimals():
    # 16- to 18-digit decimals next to the midpoint between a double and its
    # upper neighbour, and the quarter-ulp midpoint below powers of two,
    # where the reader's rounding must be certified or handed to float()
    from decimal import Decimal
    rng = np.random.default_rng(20261019)
    x = np.abs(rng.integers(0, 2 ** 64, 3000, dtype=np.uint64).view(float))
    x = x[np.isfinite(x) & (x > 0)][:1000]
    twos = 2.0 ** np.arange(-1000, 1000, 7)
    mids = [Decimal(v) + (Decimal(np.nextafter(v, np.inf)) - Decimal(v)) / 2
            for v in x.tolist()]
    mids += [Decimal(v) - (Decimal(v) - Decimal(np.nextafter(v, 0))) / 2
             for v in twos.tolist()]
    return [f"{m:.{digits - 1}e}".replace("E", "e") for m in mids
            for digits in (16, 17, 18)]


def read_outcome(path):
    # what the samples reader parses from a file, before _read_samples
    # checks it: the table's shape and every value's bits, or the refusal
    try:
        data = cli._read_table(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return data.shape, data.view(np.int64).tolist()


def loadtxt_outcome(path):
    # the same with every file read by np.loadtxt alone
    with mock.patch.object(cli, "_read_csv", lambda fh: None):
        return read_outcome(path)


def fast_path_reads(path):
    with open(path, "rb") as fh:
        return cli._read_csv(fh) is not None


_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"-?[0-9]{1,25}(\.[0-9]{1,25})?(e[+-]?[0-9]{1,3})?",
                  fullmatch=True),
    st.sampled_from(["-0.0", "-0", "0e-999", "5e-324", "2.4703282292062328e-324",
                     "1.7976931348623157e308", "-1.7976931348623157e308",
                     "1e+05", "18446744073709551621", "-9223372036854775809",
                     "1234567890123456789012345", "1e340", "1e-340"]))


class TestReadSamples:
    """_read_table returns np.loadtxt's values, bit for bit, and refuses a
    file with loadtxt's message wherever its fast path does not apply."""

    @given(st.integers(1, 3).flatmap(lambda cols: st.lists(
        st.lists(_FIELDS, min_size=cols, max_size=cols), min_size=1,
        max_size=30)), st.booleans())
    def test_matches_loadtxt(self, tmp_path_factory, rows, final_newline):
        path = tmp_path_factory.mktemp("read") / "x.csv"
        text = "t,x\n" + "\n".join(",".join(row) for row in rows)
        path.write_text(text + "\n" * final_newline)
        assert fast_path_reads(path)
        assert read_outcome(path) == loadtxt_outcome(path)

    def test_matches_loadtxt_on_adversarial_values(self, tmp_path):
        # the edge values and the first of the random bit patterns
        values = adversarial_values()
        values = values[np.isfinite(values)][:60_000]
        fields = (["%.17g" % v for v in values.tolist()]
                  + [repr(v) for v in values.tolist()] + midpoint_decimals())
        fields = fields[:len(fields) // 2 * 2]
        path = tmp_path / "x.csv"
        path.write_text("t,x\n" + "".join(
            f"{a},{b}\n" for a, b in zip(fields[0::2], fields[1::2])))
        assert fast_path_reads(path)
        assert read_outcome(path) == loadtxt_outcome(path)

    @pytest.mark.parametrize("block_bytes", [1, 7, 64])
    def test_block_seams(self, tmp_path, monkeypatch, block_bytes):
        # rows parsed in blocks of a few bytes each, a row of another length
        # in a later block
        monkeypatch.setattr(cli, "_CSV_READ_BYTES", block_bytes)
        path = tmp_path / "x.csv"
        rows = ["%.17g,%.17g" % (t, np.sin(t)) for t in np.linspace(-3, 3, 40)]
        path.write_text("t,x\n" + "\n".join(rows))
        assert fast_path_reads(path)
        assert read_outcome(path) == loadtxt_outcome(path)
        path.write_text("t,x\n" + "\n".join(rows[:30] + ["1,2,3"] + rows[30:]))
        assert not fast_path_reads(path)
        assert read_outcome(path) == loadtxt_outcome(path)

    @pytest.mark.parametrize("text", [
        "t,x\n1.2.3,4\n", "t,x\n1e,4\n", "t,x\ne5,4\n", "t,x\n--1,4\n",
        "t,x\n1-2,4\n", "t,x\n1,,2\n", "t,x\n1,2\n3,4,5\n", "t,x\n1\n2\n",
        "t,x\r\n1,2\r\n3,4\r\n", "t,x\n 1, 2\n", "t,x\n# note\n1,2\n",
        "t,x\n1,2\n\n3,4\n", "t,x\nnan,1\n", "t,x\n1e400,1\n",
        "t,x\n1234567890123456789012345,1\n", "t,x\n", "",
        "t,x\n1E5,2\n", "t,x\n+1,2\n", "t,x\n1.,.5\n", "t,x\n1e5e5,2\n",
        "t,x\n1e5.5,2\n", "t,x\n1e-+5,2\n", "t,x\n-,2\n", "t,x\n1,2\n3,4",
        "\n1,2\n", "t,\xe9\n1,2\n",
    ])
    def test_malformed_files_as_loadtxt(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode("latin-1"))
        assert read_outcome(path) == loadtxt_outcome(path)

    def test_integer_parse_warning_is_a_fallback(self, tmp_path,
                                                 monkeypatch):
        # numpy before 2.3 warns where a sign is out of place, and returns
        # what it read up to there
        def parse(*args, **kwargs):
            warnings.warn("string or file could not be read to its end",
                          DeprecationWarning)
            return np.array([7, 7])

        monkeypatch.setattr(np, "fromstring", parse)
        path = tmp_path / "x.csv"
        path.write_text("t,x\n1,2\n")
        assert not fast_path_reads(path)
        assert read_outcome(path) == loadtxt_outcome(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"),
                        reason="no /dev/fd paths for a pipe")
    def test_pipe_is_read_by_loadtxt(self):
        # a path that cannot be read twice: CRLF rows, which the fast path
        # hands to np.loadtxt
        read, write = os.pipe()
        os.write(write, b"t,x\r\n1,2\r\n3,4\r\n")
        os.close(write)
        try:
            t, x = cli._read_samples(f"/dev/fd/{read}")
        finally:
            os.close(read)
        assert t.tolist() == [1.0, 3.0] and x.tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("text, message", [
        ("t,x\n1\n2\n", "must have columns t,x"),
        ("t,x\n0,1\n0.5,1\n0.5,2\n", "sample times must increase"),
        ("t,x\n0.5,1\n0,1\n", "sample times must increase")])
    def test_refuses_a_parsed_table_by_name(self, tmp_path, text, message):
        # one column, a repeated time, times that fall
        path = tmp_path / "x.csv"
        path.write_text(text)
        with pytest.raises(click.ClickException) as info:
            cli._read_samples(path)
        assert info.value.message.endswith(message)
        assert str(path) in info.value.message

    def test_saturated_mantissas(self, tmp_path):
        # np.fromstring saturates a mantissa past 2^63 instead of raising,
        # so |D| >= 10^18 must go to float(); 2^64 + 5 would wrap to 5
        path = tmp_path / "x.csv"
        path.write_text("t,x\n18446744073709551621,-18446744073709551621\n"
                        "9223372036854775808,99999999999999999999e-5\n"
                        "1000000000000000000,-0.0000000000000000000001\n")
        assert fast_path_reads(path)
        assert read_outcome(path) == loadtxt_outcome(path)
        data = cli._read_table(path)
        assert data[0, 0] == 18446744073709551621.0
        assert data[0, 1] == -data[0, 0]

    def test_fast_path_reads_a_synth_record(self, runner, tmp_path,
                                            monkeypatch):
        path = tmp_path / "x.csv"
        invoke(runner, ["synth", "--spec",
                        os.path.join(CONFIG_DIR, "demo_bump.json"), "--t0",
                        "-5", "--t1", "5", "--dt", "0.01", "--out", str(path)])
        expected = np.loadtxt(path, delimiter=",", skiprows=1)

        def refuse(*args, **kwargs):
            raise AssertionError("the fast path fell back to np.loadtxt")

        monkeypatch.setattr(np, "loadtxt", refuse)
        t, x = cli._read_samples(path)
        assert np.array_equal(t.view(np.int64), expected[:, 0].view(np.int64))
        assert np.array_equal(x.view(np.int64), expected[:, 1].view(np.int64))


class TestRejectsNonFinite:
    """Non-finite input stops with a message before it reaches the fit or a
    predictor."""

    @pytest.fixture
    def files(self, runner, tmp_path):
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]), spec_path)
        approx_path = tmp_path / "ap.json"
        invoke(runner, ["approx", "--T", "1.0", "--omega", "1.0",
                        "--taper", "gaussian", "--nu", "0.3", "--d", "4",
                        "--out", str(approx_path)])
        samples_path = tmp_path / "x.csv"
        invoke(runner, ["synth", "--spec", str(spec_path), "--t0", "-12.0",
                        "--t1", "8.0", "--dt", "0.01",
                        "--out", str(samples_path)])
        return tmp_path, approx_path, samples_path

    @staticmethod
    def predict(runner, approx_path, samples_path, mode, *extra):
        out = approx_path.parent / "pred.csv"
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--mode", mode, *extra, "--out", str(out)])
        assert result.exit_code == 1
        assert not out.exists()
        return result.output

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_approx_horizon(self, runner, tmp_path, value):
        out = tmp_path / "ap.json"
        result = invoke(runner, ["approx", "--T", value, "--omega", "1.0",
                                 "--taper", "gaussian", "--nu", "0.3",
                                 "--d", "4", "--out", str(out)])
        assert result.exit_code == 1
        assert "must be finite" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("field", ["T", "c"])
    def test_predict_approximant_file(self, runner, files, field):
        _, approx_path, samples_path = files
        data = json.loads(approx_path.read_text())
        if field == "T":
            data["T"] = float("nan")
        else:
            data[field][2] = float("nan")
        approx_path.write_text(json.dumps(data))  # writes NaN
        output = self.predict(runner, approx_path, samples_path, "eta")
        assert "must be finite" in output

    @pytest.mark.parametrize("mode", ["eta", "conv"])
    @pytest.mark.parametrize("column", ["t", "x"])
    def test_predict_samples(self, runner, files, mode, column):
        tmp_path, approx_path, samples_path = files
        lines = samples_path.read_text().splitlines()
        t, x = lines[1500].split(",")
        lines[1500] = f"nan,{x}" if column == "t" else f"{t},nan"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        output = self.predict(runner, approx_path, bad, mode)
        assert f"{bad} holds a non-finite t or x value" in output

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_predict_t1(self, runner, files, value):
        # the window rule refuses a t1 that is not a finite sample time, in
        # predict's terms: predict has no theta
        _, approx_path, samples_path = files
        output = self.predict(runner, approx_path, samples_path, "eta",
                              "--t1", value)
        assert (f"t={value} lies outside the sample grid, which runs from -12 "
                "to 8" in output)
        assert "theta" not in output

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_predict_eta_file(self, runner, files, value):
        tmp_path, approx_path, samples_path = files
        eta_path = tmp_path / "eta.json"
        eta_path.write_text(json.dumps(
            {"t1": 0.0, "etaP": [0.1, float(value), 0.2, 0.3]}))
        output = self.predict(runner, approx_path, samples_path, "eta",
                              "--eta", str(eta_path))
        assert "etaP must be finite" in output

    @pytest.mark.parametrize("eta", [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3, 0.4,
                                                   0.5]], ids=["d-1", "d+1"])
    def test_predict_eta_file_of_another_length(self, runner, files, eta):
        tmp_path, approx_path, samples_path = files
        eta_path = tmp_path / "eta.json"
        eta_path.write_text(json.dumps({"t1": 0.0, "etaP": eta}))
        output = self.predict(runner, approx_path, samples_path, "eta",
                              "--eta", str(eta_path))
        assert "etaP must have one entry per level above y_0 (d = 4)" in output
        assert "Traceback" not in output

    @pytest.mark.parametrize("payload", [
        {"etaP": [0.1, 0.2, 0.3, 0.4]},
        {"t1": 0.0},
        [0.0, [0.1, 0.2, 0.3, 0.4]],
        {"t1": 0.0, "eta": [0.1, 0.2, 0.3, 0.4]},
    ], ids=["missing_t1", "missing_eta", "list", "monomial_constants"])
    def test_predict_eta_file_layout(self, runner, files, payload):
        # "monomial_constants": a fit-eta file written before the recurrence,
        # whose constants under "eta" belong to the monomial form
        tmp_path, approx_path, samples_path = files
        eta_path = tmp_path / "eta.json"
        eta_path.write_text(json.dumps(payload))
        output = self.predict(runner, approx_path, samples_path, "eta",
                              "--eta", str(eta_path))
        assert f"{eta_path} is not a fit-eta output" in output

    @pytest.mark.parametrize("value, message", [
        ("nan", "history_length must be finite"),
        ("inf", "history_length must be finite"),
        # L / h overflows to inf lags
        ("1e308", "record too short for history_length=1e+308"),
    ], ids=["nan", "inf", "1e308"])
    def test_predict_history_length(self, runner, files, value, message):
        _, approx_path, samples_path = files
        output = self.predict(runner, approx_path, samples_path, "conv",
                              "--history-length", value)
        assert message in output
        assert "Traceback" not in output

    @pytest.mark.parametrize("option", ["--t1", "--theta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_fit_eta_times(self, runner, files, option, value):
        tmp_path, approx_path, samples_path = files
        args = {"--t1": "0.0", "--theta": "8.0"}
        args[option] = value
        out = tmp_path / "eta.json"
        result = invoke(runner, ["fit-eta", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 *[v for kv in args.items() for v in kv],
                                 "--dbar", "8", "--out", str(out)])
        assert result.exit_code == 1
        assert (f"theta must be finite, got theta={value}" if option ==
                "--theta" else f"t={value} lies outside the sample grid"
                ) in result.output
        assert not out.exists()


# each subcommand that writes --out, with its other arguments
_WRITING_COMMANDS = {
    "approx": ["approx", "--T", "1.0", "--omega", "1.0", "--taper",
               "gaussian", "--nu", "0.3", "--d", "4"],
    "synth": ["synth", "--spec", "{spec}", "--t0", "0", "--t1", "1",
              "--dt", "0.1"],
    "predict-conv": ["predict", "--approx", "{approx}", "--samples",
                     "{samples}", "--mode", "conv"],
    "predict-eta": ["predict", "--approx", "{approx}", "--samples",
                    "{samples}", "--mode", "eta"],
    "fit-eta": ["fit-eta", "--approx", "{approx}", "--samples",
                "{samples}", "--t1", "0", "--theta", "8", "--dbar", "4"],
    "eval": ["eval", "--config", "{config}"],
}


class TestUnwritableOut:
    """An --out path that cannot be written is refused by name, without a
    traceback or an output file: exit 1, and 2 for eval, whose 1 means a
    failing row."""

    @pytest.fixture
    def files(self, runner, tmp_path):
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]), spec_path)
        approx_path = tmp_path / "ap.json"
        invoke(runner, ["approx", "--T", "1.0", "--omega", "1.0",
                        "--taper", "gaussian", "--nu", "0.3", "--d", "4",
                        "--out", str(approx_path)])
        samples_path = tmp_path / "x.csv"
        invoke(runner, ["synth", "--spec", str(spec_path), "--t0", "-12.0",
                        "--t1", "8.0", "--dt", "0.01",
                        "--out", str(samples_path)])
        with open(os.path.join(CONFIG_DIR, "demo.json")) as fh:
            config = json.load(fh)
        config.update(spec_files=[str(spec_path)], d_list=[8],
                      nu_list=[0.5], t_end=0.5, dt=0.1)
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        (tmp_path / "file").write_text("")
        return {"spec": spec_path, "approx": approx_path,
                "samples": samples_path, "config": config_path}

    @pytest.mark.parametrize("command, place, error", [
        (command, place, error) for command in _WRITING_COMMANDS
        for place, error in (("file/out", "NotADirectoryError"),
                             ("missing/out", "FileNotFoundError"))
        # eval makes its --out directory and the directory's parents
        if command != "eval" or place == "file/out"])
    def test_is_refused_by_name(self, runner, tmp_path, files, command,
                                place, error):
        out = tmp_path / place
        args = [arg.format(**files) for arg in _WRITING_COMMANDS[command]]
        result = invoke(runner, [*args, "--out", str(out)])
        assert result.exit_code == (2 if command == "eval" else 1)
        assert f"Error: cannot write {out} ({error}: " in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_eval_makes_a_missing_directory(self, runner, tmp_path, files):
        out = tmp_path / "missing" / "out"
        args = [arg.format(**files) for arg in _WRITING_COMMANDS["eval"]]
        result = invoke(runner, [*args, "--out", str(out)])
        assert result.exit_code == 0
        assert (out / "report.csv").exists()

    def test_eval_leaves_no_partial_report(self, runner, tmp_path, files):
        # report.json an existing directory: report.csv could be written,
        # but it does not stay behind without its report.json
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        args = [arg.format(**files) for arg in _WRITING_COMMANDS["eval"]]
        result = invoke(runner, [*args, "--out", str(out)])
        assert result.exit_code == 2
        assert (f"Error: cannot write {out} (IsADirectoryError: "
                in result.output)
        assert "Traceback" not in result.output
        assert os.listdir(out) == ["report.json"]


class TestEvalCommand:
    def test_demo_passes_and_is_deterministic(self, runner, tmp_path):
        config = os.path.join(CONFIG_DIR, "demo.json")
        r1 = invoke(runner, ["eval", "--config", config,
                             "--out", str(tmp_path / "a")])
        r2 = invoke(runner, ["eval", "--config", config,
                             "--out", str(tmp_path / "b")])
        assert r1.exit_code == 0 and r2.exit_code == 0
        csv_a = (tmp_path / "a" / "report.csv").read_bytes()
        csv_b = (tmp_path / "b" / "report.csv").read_bytes()
        assert csv_a == csv_b
        assert sorted(os.listdir(tmp_path / "a")) == ["report.csv",
                                                      "report.json"]

    def test_pin_is_a_usage_error(self, runner, tmp_path):
        # the fixtures are plain reports; no flag writes a third file
        config = os.path.join(CONFIG_DIR, "decay.json")
        result = invoke(runner, ["eval", "--config", config, "--pin",
                                 "--out", str(tmp_path / "pin")])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--pin" in result.output
        assert not (tmp_path / "pin").exists()

    def test_single_nu_reports_skipped_convergence(self, runner, tmp_path):
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]), spec_path)
        config = {
            "spec_files": [str(spec_path)],
            "T": 1.0, "omega_gap": 1.0, "taper_family": "gaussian",
            "nu_list": [0.3], "d_list": [4, 6, 8],
            "t_start": 0.0, "t_end": 0.5, "dt": 0.1, "modes": ["eta"],
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 0
        assert ("convergence: skipped (insufficient sweep coverage: spec tone "
                "has 1 nu values, need >= 3)") in result.output

    def test_convergence_verdict_is_recorded(self, runner, tmp_path):
        config = os.path.join(CONFIG_DIR, "demo.json")
        result = invoke(runner, ["eval", "--config", config,
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 0
        assert "convergence: pass" in result.output
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["convergence"] == {"passed": True, "failures": []}
        # dt = 0.01 split into two record steps of 5e-3*T
        assert report["quadrature_step"] == 0.005
        assert {row["mass"] for row in report["rows"]} == {1.0}

    def test_skipped_convergence_is_recorded(self, runner, tmp_path):
        config = os.path.join(CONFIG_DIR, "decay.json")
        result = invoke(runner, ["eval", "--config", config,
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["convergence"] == {
            "passed": None,
            "skipped": "insufficient sweep coverage: spec demo_tone has 1 "
                       "nu values, need >= 3"}

    def test_exact_sweep_passes_convergence(self, runner, tmp_path):
        # a zero signal is predicted exactly: every row has sup error 0, and
        # the round-off floor forgives the minimum error not falling with nu
        spec_path = tmp_path / "zero.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, []), spec_path)
        config = {
            "spec_files": [str(spec_path)],
            "T": 1.0, "omega_gap": 1.0, "taper_family": "gaussian",
            "nu_list": [0.5, 0.4, 0.3], "d_list": [4, 6, 8],
            "t_start": 0.0, "t_end": 0.5, "dt": 0.1, "modes": ["eta"],
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert {row["sup_err"] for row in report["rows"]} == {0.0}
        assert report["convergence"] == {"passed": True, "failures": []}

    def test_failing_convergence_exits_1(self, runner, tmp_path,
                                         monkeypatch):
        # every row passes, but the minimum error rises from nu=0.5 to 0.4
        sups = {0.5: 0.2, 0.4: 0.3, 0.3: 0.1}
        rows = [harness.ErrorRow(spec="tone", d=d, nu=nu, sup_err=sup,
                                 passed=True)
                for nu, sup in sups.items() for d in (4, 6, 8)]
        monkeypatch.setattr(cli, "run_sweep",
                            lambda config: harness.Sweep(rows, 0.005))
        result = invoke(runner, ["eval", "--config",
                                 os.path.join(CONFIG_DIR, "demo.json"),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["all_pass"] is True
        failures = ["spec tone: min error did not decrease from nu=0.5 (0.2) "
                    "to nu=0.4 (0.3)"]
        assert report["convergence"] == {"passed": False,
                                         "failures": failures}
        assert "convergence: " + failures[0] in result.output

    def test_row_over_its_bound_exits_1(self, runner, tmp_path, monkeypatch):
        # the long-window demo at d = 32, nu = 0.3 with the truth shifted by
        # 1.0: sup_err about 1.15 against a bound of 0.326 fails the row
        with open(os.path.join(CONFIG_DIR, "demo_long.json")) as fh:
            config = json.load(fh)
        config["spec_files"] = [os.path.join(CONFIG_DIR, "demo_tone.json")]
        config["d_list"], config["nu_list"] = [32], [0.3]
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        sample = harness._sample

        def shifted(*args):
            future, values, etaP = sample(*args)
            return future + 1.0, values, etaP

        monkeypatch.setattr(harness, "_sample", shifted)
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "demo_tone d=32 nu=0.3: sup=1.15301 [FAIL]" in result.output
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["failing_rows"] == [0]
        [row] = report["rows"]
        assert row["error"] is None
        assert row["bound_tones"] == pytest.approx(0.326, abs=1e-3)

    def test_long_demo_past_d34_passes(self, runner, tmp_path):
        # the monomial fit failed every row at d >= 36 with a rank error
        with open(os.path.join(CONFIG_DIR, "demo_long.json")) as fh:
            config = json.load(fh)
        config["spec_files"] = [os.path.join(CONFIG_DIR, "demo_tone.json")]
        config["d_list"] = [32, 36, 40, 48]
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["rows"]) == 12
        assert all(row["error"] is None and row["passed"]
                   for row in report["rows"])
        assert report["convergence"] == {"passed": True, "failures": []}

    def test_grid_too_long_to_make_exits_2(self, runner, tmp_path):
        # t_end = 1e9 at dt = 0.01 is a 1e11-sample measurement grid,
        # refused before any array is made
        with open(os.path.join(CONFIG_DIR, "demo.json")) as fh:
            config = json.load(fh)
        config["spec_files"] = [os.path.join(CONFIG_DIR, "demo_tone.json")]
        config["t_end"] = 1e9
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert ("configuration error: the measurement grid of 100000000001 "
                "samples is over the limit of 2^25 = 33554432") in result.output
        assert not (tmp_path / "out").exists()

    def test_config_error_exits_2(self, runner, tmp_path):
        result = invoke(runner, ["eval", "--config",
                                 str(tmp_path / "missing.json")])
        assert result.exit_code == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"T": 1.0}))
        result = invoke(runner, ["eval", "--config", str(bad)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("key, entries, shown", [
        ("nu_list", [0.5, 0.5, 0.3], "0.5"), ("d_list", [8, 8], "8")])
    def test_repeated_sweep_entry_exits_2(self, runner, tmp_path, key,
                                          entries, shown):
        with open(os.path.join(CONFIG_DIR, "demo.json")) as fh:
            config = json.load(fh)
        config["spec_files"] = [os.path.join(CONFIG_DIR, "demo_tone.json")]
        config[key] = entries
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert (f"configuration error: {key} entry {shown} is repeated"
                in result.output)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["T", "t_end"])
    def test_non_finite_config_exits_2(self, runner, tmp_path, key):
        with open(os.path.join(CONFIG_DIR, "demo.json")) as fh:
            config = json.load(fh)
        config["spec_files"] = [os.path.join(CONFIG_DIR, "demo_tone.json")]
        config[key] = float("inf")
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))  # writes Infinity
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert f"{key} must be finite" in result.output

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_eps1_target_exits_2(self, runner, tmp_path, value):
        with open(os.path.join(CONFIG_DIR, "bump.json")) as fh:
            config = json.load(fh)
        config["spec_files"] = [os.path.join(CONFIG_DIR, "demo_bump.json")]
        config["eps1_target"] = float(value)
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))  # writes NaN or Infinity
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "configuration error: eps1_target must be finite" in \
            result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [-0.05, 0.0])
    def test_non_positive_eps1_target_exits_2(self, runner, tmp_path, value):
        # refused before any row, with select_nu's words
        with open(os.path.join(CONFIG_DIR, "bump.json")) as fh:
            config = json.load(fh)
        config["spec_files"] = [os.path.join(CONFIG_DIR, "demo_bump.json")]
        config["eps1_target"] = value
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert (f"configuration error: eps1_target must be positive, got "
                f"{value}" in result.output)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bump,reason", [
        ({"center": 1.2, "half_width": 0.45, "amplitude": 1.0},
         "reaches into the gap"),
        ({"center": float("nan"), "half_width": 0.45, "amplitude": 1.0},
         "bump center must be finite"),
        (None, "No such file or directory"),
        # outside the file's own gap 0.5, inside the sweep's gap 1.0
        ("tone", "tone at omega=0.7 falls inside the spectral gap (-1.0, 1.0)"),
    ])
    def test_bad_spectrum_file_exits_2(self, runner, tmp_path, bump, reason):
        # the second file is bad: no row runs before the whole set loads
        spec_path = tmp_path / "bad_spec.json"
        if bump == "tone":
            save_spectrum(SpectrumSpec.from_tones(0.5, [(0.7, 1.0)]),
                          spec_path)
        elif bump is not None:
            spec_path.write_text(json.dumps(
                {"omega_gap": 1.0, "kind": "bump", "bumps": [bump]}))
        with open(os.path.join(CONFIG_DIR, "bump.json")) as fh:
            config = json.load(fh)
        config["spec_files"] = [os.path.join(CONFIG_DIR, "demo_bump.json"),
                                str(spec_path)]
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert f"configuration error: {spec_path}: " in result.output
        assert reason in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "out").exists()

    def test_spectrum_gap_with_an_infinite_reciprocal_exits_2(self, runner,
                                                              tmp_path):
        spec_path = tmp_path / "tiny_gap.json"
        spec_path.write_text(json.dumps({
            "omega_gap": 1e-320, "kind": "tones",
            "tones": [{"omega": 2.0, "re": 0.5, "im": 0.0}]}))
        with open(os.path.join(CONFIG_DIR, "demo.json")) as fh:
            config = json.load(fh)
        config["spec_files"] = [str(spec_path)]
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert (f"configuration error: {spec_path}: omega_gap must be finite "
                "and positive with a finite reciprocal, got 1e-320"
                in result.output)
        assert not (tmp_path / "out").exists()

    def test_spectra_with_one_name_exit_2(self, runner, tmp_path):
        # rows and the convergence check key on the file's basename, so two
        # files named tone.json are refused before any row runs
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "tone.json")
            shutil.copy(os.path.join(CONFIG_DIR, "demo_tone.json"), paths[-1])
        with open(os.path.join(CONFIG_DIR, "demo.json")) as fh:
            config = json.load(fh)
        config["spec_files"] = [str(p) for p in paths]
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert (f"configuration error: {paths[0]} and {paths[1]} both name "
                "the spectrum 'tone'") in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "out").exists()

    def test_spectrum_with_narrower_gap_runs(self, runner, tmp_path):
        # a file declaring gap 0.5 whose tone at 2.0 clears the sweep's gap
        # 1.0 runs, and reports what the same tone declared with gap 1.0 does
        reports = []
        for gap in (0.5, 1.0):
            spec_path = tmp_path / f"gap{gap}" / "tone.json"
            spec_path.parent.mkdir()
            save_spectrum(SpectrumSpec.from_tones(gap, [(2.0, 0.5)]),
                          spec_path)
            config = {
                "spec_files": [str(spec_path)],
                "T": 1.0, "omega_gap": 1.0, "taper_family": "gaussian",
                "nu_list": [0.3], "d_list": [4, 6],
                "t_start": 0.0, "t_end": 0.5, "dt": 0.1, "modes": ["eta"],
            }
            config_path = spec_path.parent / "cfg.json"
            config_path.write_text(json.dumps(config))
            out = spec_path.parent / "out"
            result = invoke(runner, ["eval", "--config", str(config_path),
                                     "--out", str(out)])
            assert result.exit_code == 0
            reports.append((out / "report.csv").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("key", ["d_list", "nu_list"])
    def test_empty_sweep_list_exits_2(self, runner, tmp_path, key):
        with open(os.path.join(CONFIG_DIR, "demo.json")) as fh:
            config = json.load(fh)
        config["spec_files"] = [os.path.join(CONFIG_DIR, "demo_tone.json")]
        config[key] = []
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert f"configuration error: {key} must be nonempty" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("d_list", [8, 8.5, 16], "d_list entry 8.5 is not an integer >= 2"),
        ("d_list", [True, 8], "d_list entry True is not an integer >= 2"),
        ("d_list", ["8"], "d_list entry '8' is not an integer >= 2"),
        ("nu_list", [2.0, 0.4, 0.3],
         "nu_list entry 2.0 is not a finite number in (0, 1]"),
        ("nu_list", [0.5, float("nan")],
         "nu_list entry nan is not a finite number in (0, 1]"),
        ("spec_files", "/abs/x.json",
         "spec_files must be a JSON list, got '/abs/x.json'"),
        ("d_list", "8", "d_list must be a JSON list, got '8'"),
        ("nu_list", 0.3, "nu_list must be a JSON list, got 0.3"),
        ("modes", "eta", "modes must be a JSON list, got 'eta'"),
        ("omega_gap", 1e-320, "omega_gap must be finite and positive with a "
         "finite reciprocal, got 1e-320"),
        ("taper_family", "gausian", "unknown taper family 'gausian'; choose "
         "one of ['exponential', 'gaussian', 'lorentzian']"),
        ("taper_family", ["gaussian"], "unknown taper family ['gaussian']; "
         "choose one of ['exponential', 'gaussian', 'lorentzian']")])
    def test_unrunnable_sweep_entry_exits_2(self, runner, tmp_path, key,
                                            value, message):
        with open(os.path.join(CONFIG_DIR, "demo.json")) as fh:
            config = json.load(fh)
        config["spec_files"] = [os.path.join(CONFIG_DIR, "demo_tone.json")]
        config[key] = value
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))  # writes NaN
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert f"configuration error: {message}" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("fit_nodes", 64), ("fit_node_factor", 8), ("dense_factor", 8),
        ("history_length", 10.0),
        ("quadrature_step", 1e-3), ("fit_dbar_factor", 2),
        ("out_dir", "reports")])
    def test_removed_setting_exits_2(self, runner, tmp_path, key, value):
        # these settings are constants now; a config that sets one is refused
        with open(os.path.join(CONFIG_DIR, "demo.json")) as fh:
            config = json.load(fh)
        config["spec_files"] = [os.path.join(CONFIG_DIR, "demo_tone.json")]
        config[key] = value
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "configuration error" in result.output
        assert key in result.output

    @pytest.mark.parametrize("mode,command", [
        ("conv", "gap-predict predict --mode conv"),
        ("fit-eta", "gap-predict fit-eta")])
    def test_mode_eval_does_not_sweep_exits_2(self, runner, tmp_path, mode,
                                             command):
        # only the eta realization is swept; the others stay on the
        # command line, and one refusal names both commands
        with open(os.path.join(CONFIG_DIR, "demo.json")) as fh:
            config = json.load(fh)
        config["spec_files"] = [os.path.join(CONFIG_DIR, "demo_tone.json")]
        config["modes"] = ["eta", mode]
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert (f"configuration error: modes must be [\"eta\"], got "
                f"['eta', '{mode}']: eval sweeps only the eta realization"
                in result.output)
        assert command in result.output
        assert not (tmp_path / "out").exists()

    def test_failing_row_exits_1(self, runner, tmp_path, monkeypatch):
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]), spec_path)

        def failing_fit(*args, **kwargs):
            raise ValueError("fit failed")

        # a fit that raises stands for any failure inside a row
        monkeypatch.setattr(harness, "fit_approximants", failing_fit)
        config = {
            "spec_files": [str(spec_path)],
            "T": 1.0, "omega_gap": 1.0, "taper_family": "gaussian",
            "nu_list": [0.3], "d_list": [4],
            "t_start": 0.0, "t_end": 0.5, "dt": 0.1, "modes": ["eta"],
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "ERROR ValueError: fit failed" in result.output
