import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from gap_predict.cli import main
from gap_predict.signal import SpectrumSpec, sample, save_spectrum

CONFIG_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "configs"))


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

    def test_config_error_exits_2(self, runner, tmp_path):
        result = invoke(runner, ["eval", "--config",
                                 str(tmp_path / "missing.json")])
        assert result.exit_code == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"T": 1.0}))
        result = invoke(runner, ["eval", "--config", str(bad)])
        assert result.exit_code == 2

    def test_failing_row_exits_1(self, runner, tmp_path):
        spec_path = tmp_path / "tone.json"
        save_spectrum(SpectrumSpec.from_tones(1.0, [(2.0, 0.5)]), spec_path)
        config = {
            "spec_files": [str(spec_path)],
            "T": 1.0, "omega_gap": 1.0, "taper_family": "gaussian",
            "nu_list": [0.3], "d_list": [4], "fit_node_factor": 2,
            "t_start": 0.0, "t_end": 0.5, "dt": 0.1, "modes": ["eta"],
        }
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        result = invoke(runner, ["eval", "--config", str(config_path),
                                 "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "ERROR" in result.output
