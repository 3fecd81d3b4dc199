"""gap-predict command line interface.

Subcommands cover the full pipeline: fit an approximant (approx), synthesize
oracle signals (synth), run the predictors over sampled data (predict,
fit-eta), and drive reproducible sweep experiments (eval).

CSV output writes every value as '%.17g' does, byte for byte, but formats
whole arrays at a time: digits from a double-double product, the %g layout
as a byte matrix, rows in fixed-size blocks.  A row with a value that path
cannot certify (NaN, infinities, subnormals, magnitudes outside
[1e-250, 1e250], possible decimal ties) is formatted by '%.17g' itself.
"""

from __future__ import annotations

import functools
import json
import sys
import warnings

import click
import numpy as np

from .approx import (approximant_to_dict, fit_approximant, load_approximant,
                     save_approximant)
from .harness import ExperimentConfig, run_sweep, write_reports
from .predictor import (eta_sum, eta_weights, fit_eta, iterated_integrals,
                        predict_convolution, _sample_index)
from .signal import grid_size, load_spectrum, sample_grid
from .taper import TaperSpec

_TAPER_CHOICES = ("gaussian", "exponential", "lorentzian")

# rows the CSV writer formats at a time, so its memory is flat in the row count
_CSV_BLOCK_ROWS = 1 << 11
# |x| range whose 17 digits _decimal17 computes: 10^(16 - e) and every
# Dekker partial product stay normal doubles
_FAST_RANGE = (1e-250, 1e250)
# a rounding fraction this close to 1/2 may be a decimal tie, which '%.17g'
# breaks on the exact binary value; the double-double error is below 1e-13
_TIE_MARGIN = 1e-9
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
# character slots of one value: sign, "0.000" (fixed, e < 0), 17 digits with
# a point among them, exponent "e+123", separator
_SLOTS = 30
_DIGIT0, _EXP0 = 6, 24


@functools.cache
def _pow10(p):
    # 10^p as a double-double hi + lo, from exact integer arithmetic
    if p >= 0:
        hi = float(10 ** p)
        return hi, float(10 ** p - int(hi))
    den = 10 ** -p
    hi = 1 / den  # int / int is correctly rounded
    num, two = hi.as_integer_ratio()
    return hi, (two - num * den) / (two * den)


def _scaled(a, p):
    # a * 10^p as a normalized double-double s + t: Dekker's exact product of
    # a with hi, plus a * lo
    ps = np.arange(p.min(), p.max() + 1)
    hi, lo = np.array([_pow10(int(q)) for q in ps]).T
    hi, lo = hi[p - ps[0]], lo[p - ps[0]]
    s = a * hi
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * hi
    bh = c - (c - hi)
    bl = hi - bh
    t = ((ah * bh - s) + ah * bl + al * bh) + al * bl + a * lo
    r = s + t
    return r, t - (r - s)


def _decade_step(s, t):
    # +1 where s + t >= 10^17, -1 where s + t < 10^16, else 0
    return (((s > 1e17) | ((s == 1e17) & (t >= 0))).astype(np.int64)
            - ((s < 1e16) | ((s == 1e16) & (t < 0))))


def _decimal17(v):
    """(ok, D, e) for a float64 array: |v| rounds to D * 10^(e - 16) with
    10^16 <= D < 10^17 (D = e = 0 for a zero), exactly as '%.17g' rounds it,
    wherever ok; elsewhere (NaN, inf, subnormal, |v| outside _FAST_RANGE, a
    possible tie) the caller falls back to '%.17g'."""
    a = np.abs(v)
    ok = (a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1])
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    s, t = _scaled(a, 16 - e)
    # the decade is decided on the unrounded product: a value just below a
    # power of ten must not take the exponent of its rounded digits
    step = _decade_step(s, t)
    moved = np.flatnonzero(step)
    if moved.size:
        e[moved] += step[moved]
        s[moved], t[moved] = _scaled(a[moved], 16 - e[moved])
        ok &= _decade_step(s, t) == 0
    k = np.rint(t)
    ok &= np.abs(np.abs(t - k) - 0.5) > _TIE_MARGIN
    D = s.astype(np.int64) + k.astype(np.int64)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    e += carry
    zero = v == 0
    D[zero] = e[zero] = 0
    return ok | zero, D, e


def _format_rows(block):
    """The bytes '%.17g' writes for each row of a 2-D float64 block, values
    separated by commas and rows ended by newlines, computed on whole
    arrays; a row with a value _decimal17 cannot certify goes through the
    '%.17g' template itself."""
    rows, cols = block.shape
    v = block.ravel()
    with np.errstate(all="ignore"):
        ok, D, e = _decimal17(v)
    # digit k of D in row k + 1, between rows of zeros
    digits = np.zeros((19, v.size), dtype=np.uint8)
    # D in halves below 10^9, so the divisions run on uint32
    ten = np.uint32(10)
    for q, places in zip(np.divmod(D, 10 ** 9),
                         (range(8, 0, -1), range(17, 8, -1))):
        q = q.astype(np.uint32)
        for k in places:
            r = q // ten
            digits[k] = q - r * ten
            q = r
    # significant digits once trailing zeros go; a zero keeps one
    sig = np.maximum(((digits[1:18] != 0)
                      * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0),
                     1)
    fixed = (e >= -4) & (e < 17)
    point = fixed & (e >= 0)
    small = fixed & (e < 0)
    # fixed notation shows every integer digit; a point follows digit `dot`,
    # none where dot is 17
    shown = np.where(point, np.maximum(sig, e + 1), sig)
    dot = np.where(point, e, np.where(fixed, 17, 0))
    dot[sig <= dot + 1] = 17
    digits[1:18] += ord("0")
    digits[1:18] *= np.arange(17)[:, None] < shown

    # one row per character slot, one column per value; a slot that the
    # value does not print holds 0
    chars = np.empty((_SLOTS, v.size), dtype=np.uint8)
    chars[0] = np.signbit(v) * np.uint8(ord("-"))
    chars[1:_DIGIT0] = (small & (np.arange(-1, 4)[:, None] < -e)
                        ) * np.frombuffer(b"0.000", np.uint8)[:, None]
    # slot j holds digit j up to the point, the point, then digit j - 1;
    # blended in wrapping uint8 arithmetic, which runs without branches
    j, body = np.arange(18)[:, None], chars[_DIGIT0:_EXP0]
    np.subtract(digits[:18], digits[1:], out=body)
    body *= j > dot
    body += digits[1:]
    body += (j == dot + 1) * (np.uint8(ord(".")) - body)
    exp, ae = chars[_EXP0:_EXP0 + 5], np.abs(e)
    exp[0] = ord("e")
    exp[1] = np.where(e < 0, ord("-"), ord("+"))
    exp[2], exp[3], exp[4] = ae // 100, ae // 10 % 10, ae % 10
    exp[2:] += ord("0")
    exp *= ~fixed
    exp[2] *= ae >= 100
    chars[-1] = ord(",")
    chars[-1, cols - 1::cols] = ord("\n")

    # value-major, each row of the block in one row of slots
    chars = np.ascontiguousarray(chars.T).reshape(rows, cols * _SLOTS)
    flat = chars.ravel()
    bad = np.flatnonzero(~ok.reshape(rows, cols).all(axis=1))
    if not bad.size:
        return flat[flat != 0].tobytes()
    # the other rows' text, each templated row spliced in at its offset
    chars[bad] = 0
    starts = np.cumsum(np.count_nonzero(chars, axis=1))[bad]
    text = flat[flat != 0].tobytes()
    template = ",".join(["%.17g"] * cols) + "\n"
    pieces, prev = [], 0
    for i, start in zip(bad.tolist(), starts.tolist()):
        pieces += [text[prev:start],
                   (template % tuple(block[i].tolist())).encode()]
        prev = start
    pieces.append(text[prev:])
    return b"".join(pieces)


def _write_csv(path, header, *columns):
    # every row reads as ",".join(["%.17g"] * len(columns)) % row would
    # write it, byte for byte
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = min(len(c) for c in columns)
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for i in range(0, n, _CSV_BLOCK_ROWS):
            stop = min(i + _CSV_BLOCK_ROWS, n)
            fh.write(_format_rows(np.stack([c[i:stop] for c in columns],
                                           axis=1)))


def _read_samples(path):
    with warnings.catch_warnings():
        # loadtxt's UserWarning for a file without data rows; such a file is
        # refused below
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        raise click.ClickException(f"{path} holds no samples")
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
        n = grid_size(np.floor((t1 - t0) / dt + 1e-9) + 1)
        xs = sample_grid(spec, t0, dt, n)
    except (ValueError, KeyError) as exc:
        raise click.ClickException(str(exc)) from exc
    times = t0 + dt * np.arange(n)
    _write_csv(out, "t,x", times, xs)
    click.echo(f"wrote {out}  ({n} samples)")


def _window_from(times, values, t1):
    # the eta form starts at its window's first sample, so snap t1 onto the
    # sample lattice; its integrals need 3 samples from there on
    i0 = int(_sample_index(times, t1))
    if len(times) - i0 < 3:
        raise ValueError(
            f"t1={t1} leaves fewer than 3 samples up to the last sample "
            f"time {times[-1]:g}; an eta window needs at least 3 samples")
    return times[i0:], values[i0:]


def _fit_eta_from_samples(approx, times, values, t1, theta, dbar):
    # (window times, window integrals to degree d, fit, extrapolation)
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
    lo, hi = t1 + T / 10.0, theta - T
    try:  # the dbar x d fit matrix has at least as many entries as fit times
        grid_size(dbar * approx.d)
    except ValueError as exc:
        raise ValueError(f"--dbar {dbar} at d={approx.d} needs a {dbar} x "
                         f"{approx.d} fit matrix: {exc}") from exc
    fit_times = np.linspace(lo, hi, dbar)
    zeta = np.interp(fit_times + T, times, values)
    # |T_{d-1}| at theta, the fit span mapped onto [-1, 1]: about the factor
    # by which carrying the fitted polynomial part to theta amplifies the
    # fit's residual
    x = (2.0 * theta - lo - hi) / (hi - lo)
    with np.errstate(over="ignore"):
        extrapolation = float(np.cosh((approx.d - 1) * np.arccosh(x)))
    f = iterated_integrals(tw, vw, approx.d)
    return tw, f, fit_eta(approx.a, tw, vw, f, fit_times, zeta), extrapolation


def _read_eta(path):
    # (t1, eta) from a fit-eta output; eta_sum checks the numbers
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
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def predict_cmd(approx_path, samples_path, mode, t1, history_length, eta_path,
                out):
    """Predict x(t+T) from sampled history; output CSV t,y_hat,diag_tail."""
    unused = ({"--history-length": history_length} if mode == "eta" else
              {"--t1": t1, "--eta": eta_path})
    for name, value in unused.items():
        if value is not None:
            raise click.ClickException(f"{name} does not apply to --mode {mode}")
    if eta_path is not None and t1 is not None:
        raise click.ClickException(
            "--t1 does not apply with --eta, whose file fixes t1 and the "
            "constants")
    note = ""
    try:
        approx = load_approximant(approx_path)
        times, values = _read_samples(samples_path)
        if mode == "conv":
            y, tail = predict_convolution(approx, times, values,
                                          history_length=history_length)
            t_out = times[len(times) - len(y):]
        else:
            if eta_path is not None:
                eta_t1, eta = _read_eta(eta_path)
                t_out, vw = _window_from(times, values, eta_t1)
                f = iterated_integrals(t_out, vw, approx.d)
            else:
                t_out, f, fit, extrapolation = _fit_eta_from_samples(
                    approx, times, values,
                    float(times[0]) if t1 is None else t1, float(times[-1]),
                    approx.d)
                eta = fit.eta
                note = (f", cond={fit.cond:.3e}, "
                        f"extrapolation={extrapolation:.3e}")
            # on the window's own samples the levels are f itself
            y = eta_sum(approx.a, eta, f,
                        eta_weights(approx.d, t_out - t_out[0]))
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
        tw, _, fit, extrapolation = _fit_eta_from_samples(
            approx, times, values, t1, theta, dbar)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    payload = {"t1": float(tw[0]), "eta": fit.eta.tolist(),
               "residual": fit.residual.tolist(), "cond": fit.cond,
               "extrapolation": extrapolation}
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    click.echo(f"wrote {out}  (dbar={dbar}, cond={fit.cond:.3e}, "
               f"extrapolation={extrapolation:.3e})")


@main.command("eval")
@click.option("--config", "config_path", type=click.Path(dir_okay=False),
              required=True, help="ExperimentConfig JSON.")
@click.option("--pin", is_flag=True, default=False,
              help="Halve the quadrature step and write fixtures.json.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Output directory (default: ./reports).")
def eval_cmd(config_path, pin, out_dir):
    """Run a sweep; exit 0 = all rows and the convergence check pass (or it
    is skipped), 1 = a row or the convergence check fails, 2 = config error."""
    try:
        config = ExperimentConfig.from_json(config_path)
        rows = run_sweep(config, pin=pin)  # raises only for a spectrum file
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(2)
    dest = out_dir or "reports"
    verdict = write_reports(rows, dest, config, pin=pin)
    for row in rows:
        status = "ERROR " + row.error if row.error else \
            ("pass" if row.passed else "FAIL")
        click.echo(f"{row.spec} d={row.d} nu={row.nu:g}: sup={row.sup_err:.6g} "
                   f"[{status}]")
    click.echo("convergence: " + (
        f"skipped ({verdict['skipped']})" if verdict["passed"] is None
        else "; ".join(verdict["failures"]) or "pass"))
    click.echo(f"reports written to {dest}")
    if (any(row.error for row in rows) or not all(row.passed for row in rows)
            or verdict["passed"] is False):
        sys.exit(1)


if __name__ == "__main__":
    main()
