"""gap-predict command line interface.

Subcommands cover the full pipeline: fit an approximant (approx), synthesize
oracle signals (synth), run the predictors over sampled data (predict,
fit-eta), and drive reproducible sweep experiments (eval).
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from .approx import (approximant_to_dict, fit_approximant, load_approximant,
                     save_approximant)
from .harness import (ExperimentConfig, convergence_check, run_sweep,
                      write_reports)
from .predictor import (EtaState, fit_eta, predict_convolution,
                        predict_eta_grid, _sample_index, _uniform_step)
from .signal import load_spectrum, sample_grid
from .taper import TaperSpec

_TAPER_CHOICES = ("gaussian", "exponential", "lorentzian")


def _write_csv(path, header, *columns):
    # '%.17g' % float formats exactly as f"{v:.17g}" does for any real v
    template = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(template % row for row in rows)


def _read_samples(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] < 2:
        raise click.ClickException(f"{path} must have columns t,x")
    if not np.all(np.isfinite(data[:, :2])):
        raise click.ClickException(f"{path} holds a non-finite t or x value")
    return data[:, 0], data[:, 1]


@click.group()
def main():
    """Linear integral predictors for spectral-gap signals."""


@main.command("approx")
@click.option("--T", "horizon", type=float, required=True, help="Prediction horizon T > 0.")
@click.option("--omega", type=float, required=True, help="Spectral gap half-width.")
@click.option("--taper", type=click.Choice(_TAPER_CHOICES), required=True)
@click.option("--nu", type=float, required=True, help="Taper scale in (0, 1].")
@click.option("--d", "degree", type=int, required=True, help="Degree of the 1/z polynomial.")
@click.option("--nodes", type=int, default=None, help="Fit nodes (default max(8d, 64)).")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output JSON path (default: print to stdout).")
def approx_cmd(horizon, omega, taper, nu, degree, nodes, out):
    """Fit psi_d to exp(iwT) r_nu(w) and certify its sup error."""
    try:
        spec = TaperSpec(family=taper, nu=nu)
        approx = fit_approximant(horizon, omega, spec, degree, fit_nodes=nodes)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    if out is None:
        click.echo(json.dumps(approximant_to_dict(approx), indent=2))
    else:
        save_approximant(approx, out)
        click.echo(f"wrote {out}  d={approx.d} eps2={approx.eps2:.6e}")


@main.command("synth")
@click.option("--spec", "spec_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="SpectrumSpec JSON file.")
@click.option("--t0", type=float, required=True, help="First sample time.")
@click.option("--t1", type=float, required=True, help="Last sample time.")
@click.option("--dt", type=float, required=True, help="Sample step.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def synth_cmd(spec_path, t0, t1, dt, out):
    """Sample an oracle signal on a uniform grid to CSV (t,x)."""
    try:
        spec = load_spectrum(spec_path)
        if not np.all(np.isfinite([t0, t1, dt])):
            raise ValueError("t0, t1 and dt must be finite")
        if not t1 > t0 or dt <= 0:
            raise ValueError("need t1 > t0 and dt > 0")
        n = int(np.floor((t1 - t0) / dt + 1e-9)) + 1
        xs = sample_grid(spec, t0, dt, n)
    except (ValueError, KeyError) as exc:
        raise click.ClickException(str(exc)) from exc
    times = t0 + dt * np.arange(n)
    _write_csv(out, "t,x", times, xs)
    click.echo(f"wrote {out}  ({n} samples)")


def _window_from(times, values, t1):
    # an eta state starts at its window's first sample, so snap t1 onto the
    # sample lattice; its integrals need 3 samples from there on
    i0 = int(_sample_index(times, t1))
    if len(times) - i0 < 3:
        raise ValueError(
            f"t1={t1} leaves fewer than 3 samples up to the last sample "
            f"time {times[-1]:g}; an eta window needs at least 3 samples")
    return times[i0:], values[i0:]


def _fit_eta_from_samples(approx, times, values, t1, theta, dbar):
    if not np.all(np.isfinite([t1, theta])):
        raise ValueError(f"t1 and theta must be finite, got t1={t1}, "
                         f"theta={theta}")
    if theta > times[-1]:
        # np.interp would hold the last sample for the observations past it
        raise ValueError(f"theta={theta} is past the last sample time "
                         f"{times[-1]:g}")
    T = approx.T
    tw, vw = _window_from(times, values, t1)
    t1 = float(tw[0])
    if theta - T <= t1 + T / 10.0:
        raise ValueError(
            "observation window too short: need theta - T > t1 + T/10")
    fit_times = np.linspace(t1 + T / 10.0, theta - T, dbar)
    zeta = np.interp(fit_times + T, times, values)
    return fit_eta(approx.a, tw, vw, fit_times, zeta)


def _read_eta(path):
    # (t1, eta) from a fit-eta output; EtaState checks the numbers
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return float(data["t1"]), np.asarray(data["eta"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise click.ClickException(
            f"{path} is not a fit-eta output ({type(exc).__name__}: {exc})"
        ) from exc


@main.command("predict")
@click.option("--approx", "approx_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Approximant JSON from `gap-predict approx`.")
@click.option("--samples", "samples_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Input CSV with columns t,x.")
@click.option("--mode", type=click.Choice(["conv", "eta"]), required=True)
@click.option("--t1", type=float, default=None,
              help="Reference time for eta mode (default: first sample).")
@click.option("--history-length", type=float, default=None,
              help="Convolution window length L (default 10*T).")
@click.option("--eta", "eta_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Reuse constants from a fit-eta output.")
@click.option("--dbar", type=int, default=None,
              help="Fit points for the internal eta fit (default d).")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def predict_cmd(approx_path, samples_path, mode, t1, history_length, eta_path,
                dbar, out):
    """Predict x(t+T) from sampled history; output CSV t,y_hat,diag_tail."""
    unused = ({"--history-length": history_length} if mode == "eta" else
              {"--t1": t1, "--eta": eta_path, "--dbar": dbar})
    for name, value in unused.items():
        if value is not None:
            raise click.ClickException(f"{name} does not apply to --mode {mode}")
    if eta_path is not None:
        for name, value in (("--t1", t1), ("--dbar", dbar)):
            if value is not None:
                raise click.ClickException(
                    f"{name} does not apply with --eta, whose file fixes t1 "
                    "and the constants")
    note = ""
    try:
        approx = load_approximant(approx_path)
        times, values = _read_samples(samples_path)
        if mode == "conv":
            L = history_length if history_length is not None else 10.0 * approx.T
            if not np.isfinite(L):
                raise ValueError(f"history_length must be finite, got {L}")
            n_lag = int(round(L / _uniform_step(times)))
            if n_lag + 1 > len(times):
                raise ValueError(f"record too short for history_length={L}")
            t_out = times[n_lag:]
            y, tail = predict_convolution(approx, times, values, t_out,
                                          history_length=L)
        else:
            if eta_path is not None:
                eta_t1, eta = _read_eta(eta_path)
                state = EtaState.from_window(
                    approx.a, *_window_from(times, values, eta_t1), eta)
            else:
                fit = _fit_eta_from_samples(
                    approx, times, values,
                    float(times[0]) if t1 is None else t1, float(times[-1]),
                    dbar if dbar is not None else approx.d)
                state = fit.state
                note = f", cond={fit.cond:.3e}"
            t_out = state.times
            y = predict_eta_grid(state, t_out)
            tail = np.zeros_like(y)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    _write_csv(out, "t,y_hat,diag_tail", t_out, y, tail)
    click.echo(f"wrote {out}  ({len(y)} predictions, mode={mode}{note})")


@main.command("fit-eta")
@click.option("--approx", "approx_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--samples", "samples_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--t1", type=float, required=True, help="Reference time.")
@click.option("--theta", type=float, required=True,
              help="Decision time: observations at t <= theta are used.")
@click.option("--dbar", type=int, required=True,
              help="Number of fit points (>= d; > d is least squares).")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def fit_eta_cmd(approx_path, samples_path, t1, theta, dbar, out):
    """Estimate the eta constants from observations on [t1, theta]."""
    try:
        approx = load_approximant(approx_path)
        times, values = _read_samples(samples_path)
        fit = _fit_eta_from_samples(approx, times, values, t1, theta, dbar)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    payload = {"t1": fit.state.t1, "eta": fit.state.eta.tolist(),
               "residual": fit.residual.tolist(), "cond": fit.cond}
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    click.echo(f"wrote {out}  (dbar={dbar}, cond={fit.cond:.3e})")


@main.command("eval")
@click.option("--config", "config_path", type=click.Path(dir_okay=False),
              required=True, help="ExperimentConfig JSON.")
@click.option("--pin", is_flag=True, default=False,
              help="Halve the quadrature step and write fixtures.json.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Output directory (default: config out_dir or ./reports).")
def eval_cmd(config_path, pin, out_dir):
    """Run a sweep; exit 0 = all rows pass, 1 = any fail, 2 = config error."""
    try:
        config = ExperimentConfig.from_json(config_path)
        rows = run_sweep(config, pin=pin)  # raises only for a spectrum file
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(2)
    dest = out_dir or config.out_dir or "reports"
    write_reports(rows, dest, config, pin=pin)
    for row in rows:
        status = "ERROR " + row.error if row.error else \
            ("pass" if row.passed else "FAIL")
        click.echo(f"{row.spec} d={row.d} nu={row.nu:g}: sup={row.sup_err:.6g} "
                   f"[{status}]")
    try:
        verdict = convergence_check(rows)
        click.echo("convergence: " + ("pass" if verdict.passed else
                                      "; ".join(verdict.failures)))
    except ValueError as exc:
        click.echo(f"convergence: skipped ({exc})")
    click.echo(f"reports written to {dest}")
    if any(row.error for row in rows) or not all(row.passed for row in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
