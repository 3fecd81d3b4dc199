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
from .predictor import (EtaState, fit_eta, iterated_integrals,
                        predict_convolution, predict_eta_grid, _sample_index)
from .signal import load_spectrum, sample_grid
from .taper import TaperSpec

_TAPER_CHOICES = ("gaussian", "exponential", "lorentzian")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _read_samples(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] < 2:
        raise click.ClickException(f"{path} must have columns t,x")
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
@click.option("--dense-factor", type=int, default=8, show_default=True,
              help="Certification grid density multiplier.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output JSON path (default: print to stdout).")
def approx_cmd(horizon, omega, taper, nu, degree, nodes, dense_factor, out):
    """Fit psi_d to exp(iwT) r_nu(w) and certify its sup error."""
    try:
        spec = TaperSpec(family=taper, nu=nu)
        approx = fit_approximant(horizon, omega, spec, degree,
                                 fit_nodes=nodes, dense_factor=dense_factor)
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
        if not t1 > t0 or dt <= 0:
            raise ValueError("need t1 > t0 and dt > 0")
        n = int(np.floor((t1 - t0) / dt + 1e-9)) + 1
        xs = sample_grid(spec, t0, dt, n)
    except (ValueError, KeyError) as exc:
        raise click.ClickException(str(exc)) from exc
    times = t0 + dt * np.arange(n)
    _write_csv(out, "t,x", zip(times, xs))
    click.echo(f"wrote {out}  ({n} samples)")


def _window_from(times, values, t1):
    # the iterated integrals must start exactly at t1, so snap it onto the
    # sample lattice
    i0 = int(_sample_index(times, t1))
    return float(times[i0]), times[i0:], values[i0:]


def _fit_eta_from_samples(approx, times, values, t1, theta, dbar):
    T = approx.T
    d = approx.d
    t1, tw, vw = _window_from(times, values, t1)
    if theta - T <= t1 + T / 10.0:
        raise ValueError(
            "observation window too short: need theta - T > t1 + T/10")
    fit_times = np.linspace(t1 + T / 10.0, theta - T, dbar)
    zeta = np.interp(fit_times + T, times, values)
    f = iterated_integrals(tw, vw, d)
    fitres = fit_eta(approx.a, t1, fit_times, zeta, tw, f)
    return fitres, tw, vw, f


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
    try:
        approx = load_approximant(approx_path)
        times, values = _read_samples(samples_path)
        if mode == "conv":
            L = history_length if history_length is not None else 10.0 * approx.T
            n_lag = int(round(L / np.mean(np.diff(times))))
            if n_lag + 1 > len(times):
                raise ValueError(f"record too short for history_length={L}")
            y, tail = predict_convolution(approx, times, values, times[n_lag:],
                                          history_length=L)
            rows = list(zip(times[n_lag:], y, tail))
        else:
            if t1 is None:
                t1 = float(times[0])
            if eta_path is not None:
                with open(eta_path, "r", encoding="utf-8") as fh:
                    eta_data = json.load(fh)
                t1, tw, vw = _window_from(times, values, float(eta_data["t1"]))
                eta_vec = np.asarray(eta_data["eta"], dtype=float)
                state = EtaState.from_window(approx.a, tw, vw, eta_vec)
            else:
                fitres, tw, vw, f = _fit_eta_from_samples(
                    approx, times, values, t1, float(times[-1]),
                    dbar if dbar is not None else approx.d)
                state = EtaState(t1=float(tw[0]), eta=fitres.eta, times=tw,
                                 values=vw, f=f, a=approx.a)
            y = predict_eta_grid(state, state.times)
            rows = [(t, yv, 0.0) for t, yv in zip(state.times, y)]
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    _write_csv(out, "t,y_hat,diag_tail", rows)
    click.echo(f"wrote {out}  ({len(rows)} predictions, mode={mode})")


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
        fitres, tw, _, _ = _fit_eta_from_samples(approx, times, values, t1,
                                                 theta, dbar)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    payload = {"t1": float(tw[0]), "eta": fitres.eta.tolist(),
               "residual": fitres.residual.tolist(), "cond": fitres.cond}
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    click.echo(f"wrote {out}  (dbar={dbar}, cond={fitres.cond:.3e})")


@main.command("eval")
@click.option("--config", "config_path", type=click.Path(dir_okay=False),
              required=True, help="ExperimentConfig JSON.")
@click.option("--pin", is_flag=True, default=False,
              help="Run oracles at doubled precision and write fixtures.json.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Output directory (default: config out_dir or ./reports).")
def eval_cmd(config_path, pin, out_dir):
    """Run a sweep; exit 0 = all rows pass, 1 = any fail, 2 = config error."""
    try:
        config = ExperimentConfig.from_json(config_path)
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(2)
    rows = run_sweep(config, pin=pin)
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
