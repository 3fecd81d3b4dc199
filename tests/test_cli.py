import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from gap_predict import approx, cli, harness, signal
from gap_predict.cli import _CSV_BLOCK_ROWS, _write_csv, main
from gap_predict.signal import (SpectrumSpec, load_spectrum, save_spectrum,
                                spectrum_to_dict)

from oracles import sample

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
        assert data["d"] == 4 and len(data["a"]) == 4
        assert data["taper"] == {"family": "gaussian", "nu": 0.3}

    def test_file_output_and_validation(self, runner, tmp_path):
        out = tmp_path / "ap.json"
        result = invoke(runner, ["approx", "--T", "1.0", "--omega", "1.0",
                                 "--taper", "gaussian", "--nu", "0.3",
                                 "--d", "6", "--nodes", "96",
                                 "--out", str(out)])
        assert result.exit_code == 0 and out.exists()
        assert json.loads(out.read_text())["fit_nodes"] == 96
        result = invoke(runner, ["approx", "--T", "1.0", "--omega", "1.0",
                                 "--taper", "gaussian", "--nu", "1.7",
                                 "--d", "6"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("nodes, degree, size", [
        # a certification grid of 16 * 2097152 + 1 = 2^25 + 1 nodes
        ("2097153", "8", 33554433),
        # the default 8d = 23176 nodes and a fit matrix of 11588 half-grid
        # rows x 2898 Chebyshev columns
        (None, "2897", 33582024)])
    def test_refuses_a_fit_too_large_to_make(self, runner, monkeypatch,
                                             nodes, degree, size):
        def no_grid(omega_gap, n):
            raise AssertionError(f"built a grid of {n} nodes")

        monkeypatch.setattr(approx, "chebyshev_grid", no_grid)
        args = ["approx", "--T", "1.0", "--omega", "1.0", "--taper",
                "gaussian", "--nu", "0.3", "--d", degree]
        result = invoke(runner, args + (["--nodes", nodes] if nodes else []))
        assert result.exit_code == 1
        assert (f"Error: a grid of {size} samples is over the limit of "
                "2^25 = 33554432") in result.output


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
        # eps1_target drives select_nu; exact_hk seeds the eta rows; the
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
        # points t_m in [t1 + T/10, theta - T]
        T = 1.0
        for tm in np.linspace(0.0 + T / 10.0, 8.0 - T, 4):
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
        assert len(payload["eta"]) == 4
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
        # gives the state that predict's internal fit builds
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
        assert reused.read_bytes() == internal.read_bytes()
        # the internal fit reports the condition number and extrapolation
        # factor fit-eta reports
        note = lines[0].split("dbar=4")[1].rstrip(")")
        cond, factor = note.split(", cond=")[1].split(", extrapolation=")
        assert float(cond) > 0 and float(factor) >= 1
        assert lines[1] == f"wrote {reused}  (8001 predictions, mode=eta)"
        assert lines[2] == (f"wrote {internal}  (8001 predictions, "
                            f"mode=eta{note})")

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
        eta_path.write_text(json.dumps({"t1": t1, "eta": [0.0] * 4}))
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
        eta_path.write_text(json.dumps({"t1": 0.0, "eta": [0.0] * 4}))
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
        assert (f"--dbar {dbar} at d=4 needs a {dbar} x 4 fit matrix: a grid "
                f"of {float(4 * dbar):.15g} samples is over the limit of "
                f"2^25 = 33554432") in result.output
        assert not out.exists()

    def test_extrapolation_factor(self, runner, workspace):
        # |T_{d-1}| at theta, the fit span [t1 + T/10, theta - T] mapped
        # onto [-1, 1]; d = 4, T = 1, t1 = 0
        tmp_path, approx_path, samples_path = workspace
        eta_path = tmp_path / "eta.json"

        def factor(theta):
            lo, hi = 0.1, theta - 1.0
            x = (2.0 * theta - lo - hi) / (hi - lo)
            return float(np.polynomial.chebyshev.chebval(x, [0, 0, 0, 1]))

        result = invoke(runner, ["fit-eta", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--t1", "0", "--theta", "5", "--dbar", "8",
                                 "--out", str(eta_path)])
        assert result.exit_code == 0
        value = json.loads(eta_path.read_text())["extrapolation"]
        assert value == pytest.approx(factor(5.0), rel=1e-12)
        assert result.output.strip().endswith(f", extrapolation={value:.3e})")
        # predict's internal fit ends at the last sample, t = 8
        result = invoke(runner, ["predict", "--approx", str(approx_path),
                                 "--samples", str(samples_path),
                                 "--mode", "eta", "--t1", "0",
                                 "--out", str(tmp_path / "pred.csv")])
        assert result.exit_code == 0
        assert result.output.strip().endswith(
            f", extrapolation={factor(8.0):.3e})")

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


class TestWriteCsv:
    """_write_csv writes exactly the bytes of the '%.17g' template."""

    @given(st.integers(1, 3).flatmap(lambda cols: st.lists(
        st.tuples(*[st.floats()] * cols), min_size=1, max_size=40)))
    def test_matches_template_on_any_floats(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        columns = list(zip(*rows))
        _write_csv(path, "h", *columns)
        assert path.read_bytes() == template_csv("h", *columns)

    def test_matches_template_on_adversarial_values(self, tmp_path):
        values = adversarial_values()
        values = values[:values.size // 2 * 2]
        path = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _write_csv(path, "a,b", values[0::2], values[1::2])
        assert path.read_bytes() == template_csv("a,b", values[0::2],
                                                 values[1::2])

    def test_block_seams(self, tmp_path):
        # rows that the template formats (NaN, a tie) on both sides of each
        # seam between row blocks
        n = 2 * _CSV_BLOCK_ROWS + 3
        first = np.linspace(-3.0, 7.0, n)
        second = 1.0 / np.arange(1.0, n + 1)
        for seam in (_CSV_BLOCK_ROWS, 2 * _CSV_BLOCK_ROWS):
            first[seam - 1] = np.nan
            second[seam] = 2.0 ** -25
        path = tmp_path / "x.csv"
        _write_csv(path, "a,b", first, second)
        assert path.read_bytes() == template_csv("a,b", first, second)


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

    @pytest.mark.parametrize("field", ["T", "a"])
    def test_predict_approximant_file(self, runner, files, field):
        _, approx_path, samples_path = files
        data = json.loads(approx_path.read_text())
        if field == "T":
            data["T"] = float("nan")
        else:
            data["a"][2] = float("nan")
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
        _, approx_path, samples_path = files
        output = self.predict(runner, approx_path, samples_path, "eta",
                              "--t1", value)
        assert "t1 and theta must be finite" in output

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_predict_eta_file(self, runner, files, value):
        tmp_path, approx_path, samples_path = files
        eta_path = tmp_path / "eta.json"
        eta_path.write_text(json.dumps(
            {"t1": 0.0, "eta": [0.1, float(value), 0.2, 0.3]}))
        output = self.predict(runner, approx_path, samples_path, "eta",
                              "--eta", str(eta_path))
        assert "eta must be finite" in output

    @pytest.mark.parametrize("eta", [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3, 0.4,
                                                   0.5]], ids=["d-1", "d+1"])
    def test_predict_eta_file_of_another_length(self, runner, files, eta):
        tmp_path, approx_path, samples_path = files
        eta_path = tmp_path / "eta.json"
        eta_path.write_text(json.dumps({"t1": 0.0, "eta": eta}))
        output = self.predict(runner, approx_path, samples_path, "eta",
                              "--eta", str(eta_path))
        assert "eta must have one entry per coefficient" in output
        assert "Traceback" not in output

    @pytest.mark.parametrize("payload", [
        {"eta": [0.1, 0.2, 0.3, 0.4]},
        {"t1": 0.0},
        [0.0, [0.1, 0.2, 0.3, 0.4]],
    ], ids=["missing_t1", "missing_eta", "list"])
    def test_predict_eta_file_layout(self, runner, files, payload):
        tmp_path, approx_path, samples_path = files
        eta_path = tmp_path / "eta.json"
        eta_path.write_text(json.dumps(payload))
        output = self.predict(runner, approx_path, samples_path, "eta",
                              "--eta", str(eta_path))
        assert f"{eta_path} is not a fit-eta output" in output

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_predict_history_length(self, runner, files, value):
        _, approx_path, samples_path = files
        output = self.predict(runner, approx_path, samples_path, "conv",
                              "--history-length", value)
        assert "history_length must be finite" in output

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
        assert "t1 and theta must be finite" in result.output
        assert not out.exists()


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
        assert (tmp_path / "a" / "report.json").exists()

    def test_pin_writes_fixtures(self, runner, tmp_path):
        config = os.path.join(CONFIG_DIR, "decay.json")
        result = invoke(runner, ["eval", "--config", config, "--pin",
                                 "--out", str(tmp_path / "pin")])
        assert result.exit_code == 0
        fix = json.loads((tmp_path / "pin" / "fixtures.json").read_text())
        assert fix["settings"]["dense_factor"] == 16

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
        monkeypatch.setattr(cli, "run_sweep", lambda config, pin: rows)
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
        future = harness._future_values
        monkeypatch.setattr(harness, "_future_values",
                            lambda *args: future(*args) + 1.0)
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
        assert ("configuration error: a grid of 100000000001 samples is over "
                "the limit of 2^25 = 33554432") in result.output
        assert not (tmp_path / "out").exists()

    def test_config_error_exits_2(self, runner, tmp_path):
        result = invoke(runner, ["eval", "--config",
                                 str(tmp_path / "missing.json")])
        assert result.exit_code == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"T": 1.0}))
        result = invoke(runner, ["eval", "--config", str(bad)])
        assert result.exit_code == 2

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
        ("fit_node_factor", "2", "fit_node_factor '2' is not an integer >= 4"),
        ("fit_node_factor", 2.5, "fit_node_factor 2.5 is not an integer >= 4"),
        ("fit_node_factor", True,
         "fit_node_factor True is not an integer >= 4"),
        ("fit_node_factor", 0, "fit_node_factor 0 is not an integer >= 4"),
        ("fit_node_factor", 3, "fit_node_factor 3 is not an integer >= 4"),
        ("spec_files", "/abs/x.json",
         "spec_files must be a JSON list, got '/abs/x.json'"),
        ("d_list", "8", "d_list must be a JSON list, got '8'"),
        ("nu_list", 0.3, "nu_list must be a JSON list, got 0.3"),
        ("modes", "eta", "modes must be a JSON list, got 'eta'")])
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
        ("fit_nodes", 64), ("dense_factor", 8), ("history_length", 10.0),
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
        # command line
        with open(os.path.join(CONFIG_DIR, "demo.json")) as fh:
            config = json.load(fh)
        config["spec_files"] = [os.path.join(CONFIG_DIR, "demo_tone.json")]
        config["modes"] = ["eta", mode]
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert (f"configuration error: mode '{mode}' is not swept by eval"
                in result.output)
        assert f"run {command} instead" in result.output
        assert not (tmp_path / "out").exists()

    def test_failing_row_exits_1(self, runner, tmp_path, monkeypatch):
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]), spec_path)

        def failing_fit(*args, **kwargs):
            raise ValueError("fit failed")

        # a fit that raises stands for any failure inside a row
        monkeypatch.setattr(harness, "fit_approximant", failing_fit)
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
