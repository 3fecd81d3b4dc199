"""gap-predict command line interface.

Subcommands cover the full pipeline: fit an approximant (approx), synthesize
oracle signals (synth), run the predictors over sampled data (predict,
fit-eta), and drive reproducible sweep experiments (eval).

CSV output writes every value as '%.17g' does, byte for byte, but formats
whole arrays at a time: digits from a double-double product, the %g layout
as a byte matrix whose empty slots one bytes.translate drops, rows in
blocks of 16k rows, large enough that numpy's per-call cost is spread
thin and small enough that memory stays flat in the row count.  A value
that path cannot certify (NaN, infinities, subnormals, magnitudes outside
[1e-250, 1e250], possible decimal ties, a decade that floor(log10) misses,
17 digits that carry to 10^17) is formatted by '%.17g' itself, alone, and
its bytes take its slots in the byte matrix; the rest of its block keeps
the fast path.  A last column given as a scalar, such as eta mode's
all-zero diag_tail, is formatted once and written before each row's
newline.

CSV input is its inverse: sample files read as np.loadtxt reads them, bit
for bit, parsed on whole arrays in blocks of about 512 KiB of whole rows.
The fields' integer mantissas and exponents come from one integer parse,
and each value from a double-double product rounded where it is certain.
A value that path cannot certify (a possible rounding tie, 19 or more
significant digits, magnitudes outside [1e-250, 1e250]) goes through
float(), and a file outside its grammar (plain decimals with a lowercase
'e', commas and newlines) through np.loadtxt itself, so every refusal is
loadtxt's.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import warnings

import click
import numpy as np

from .approx import (approximant_to_dict, fit_approximant, load_approximant,
                     save_approximant)
from .harness import ExperimentConfig, run_sweep, write_reports
from .predictor import predict_convolution, predict_fitted, realize_fitted
from .signal import grid_size, load_spectrum, sample_grid, window_size
from .taper import FAMILIES, TaperSpec

# rows the CSV writer formats at a time: enough to spread numpy's per-call
# cost over many values, few enough that memory is flat in the row count
_CSV_BLOCK_ROWS = 1 << 14
# bytes the CSV reader parses at a time, to the end of a row, chosen alike
_CSV_READ_BYTES = 1 << 19
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

# the CSV reader's fast path: the bytes a header line may hold, and the
# reader's integer text, with points deleted and exponent marks and
# separators made spaces
_HEADER_BYTES = bytes(range(0x20, 0x7f)) + b"\t"
_TO_INTEGERS = bytes.maketrans(b"e,\n", b"   ")
# the 10^p it scales by: a mantissa below 10^18 times 10^p in _FAST_RANGE
_READ_POWERS = (-268, 250)
# kinds of the bytes it parses, a sign after an exponent mark its own kind;
# 0 for any other byte
_COMMA, _NEWLINE, _DOT, _EXP, _MINUS, _PLUS, _EXP_SIGN = range(1, 8)
_BYTE_KIND = bytes(b",\n.e-+".find(bytes([i])) + 1 for i in range(256))
# the neighbouring non-digit bytes a field [-]digits[.digits][e[+-]digits]
# and its separator hold, as kind << 4 | next kind, | 8 where digits come
# between: a sign right after a separator or an exponent mark; after digits,
# a separator, a point after a separator or a sign, and an exponent mark
# after those or a point
_SEPARATORS = (_COMMA, _NEWLINE)
_CSV_PAIRS = bytes(
    [a << 4 | _MINUS for a in _SEPARATORS] + [_EXP << 4 | _EXP_SIGN]
    + [a << 4 | 8 | b for b in _SEPARATORS
       for a in (*_SEPARATORS, _DOT, _EXP, _MINUS, _EXP_SIGN)]
    + [a << 4 | 8 | _DOT for a in (*_SEPARATORS, _MINUS)]
    + [a << 4 | 8 | _EXP for a in (*_SEPARATORS, _DOT, _MINUS)])


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


def _scaled(a, p, a_lo=None):
    # (a + a_lo) * 10^p as a normalized double-double s + t, for a_lo far
    # below a: Dekker's exact product of a with hi, plus a * lo + a_lo * hi;
    # in place where it can be, so that a long array makes few temporaries
    ps = np.arange(p.min(), p.max() + 1)
    hi, lo = np.array([_pow10(int(q)) for q in ps]).T
    hi, lo = hi.take(p - ps[0]), lo.take(p - ps[0])
    s = a * hi
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    bh = _SPLIT * hi
    bh -= bh - hi
    bl = hi - bh
    # t = ((ah*bh - s) + ah*bl + al*bh) + al*bl + a*lo, in that order
    t = ah * bh
    t -= s
    ah *= bl
    t += ah
    bh *= al
    t += bh
    al *= bl
    t += al
    lo *= a
    t += lo
    if a_lo is not None:
        hi *= a_lo
        t += hi
    r = s + t
    s -= r  # t - (r - s) is t + (s - r), exactly
    s += t
    return r, s


def _decimal17(v):
    """(ok, D, e) for a float64 array: |v| rounds to D * 10^(e - 16) with
    10^16 <= D < 10^17 (D = e = 0 for a zero), exactly as '%.17g' rounds it,
    wherever ok; elsewhere (NaN, inf, subnormal, |v| outside _FAST_RANGE, a
    possible tie, a decade that floor(log10|v|) misses, digits that carry to
    10^17) the caller falls back to '%.17g'."""
    a = np.abs(v)
    ok = (a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1])
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    s, t = _scaled(a, 16 - e)
    k = np.rint(t)
    D = s.astype(np.int64) + k.astype(np.int64)
    # the decade is e where the unrounded product is at least 10^16 and its
    # rounded digits stay below 10^17
    ok &= ((np.abs(np.abs(t - k) - 0.5) > _TIE_MARGIN) & (D < 10 ** 17)
           & ((s > 1e16) | ((s == 1e16) & (t >= 0))))
    zero = v == 0
    D[zero] = e[zero] = 0
    return ok | zero, D, e


def _format_value(x):
    # the bytes '%.17g' writes for one float: the CSV writer's only
    # per-value formatting, for a scalar last column and each value
    # _decimal17 cannot certify
    return b"%.17g" % x


def _format_rows(block):
    """The bytes '%.17g' writes for each row of a 2-D float64 block, values
    separated by commas and rows ended by newlines, computed on whole
    arrays; each value _decimal17 cannot certify is formatted alone by
    _format_value, its bytes in its own slots."""
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
    # an uncertified value's slots before its separator hold its '%.17g'
    # bytes, at most 24, and zeros after them
    lone = np.flatnonzero(~ok)
    if lone.size:
        text = np.array([_format_value(x) for x in v.take(lone).tolist()],
                        dtype=f"S{_SLOTS - 1}")
        chars[:-1, lone] = text.view(np.uint8).reshape(lone.size, -1).T

    # value-major: each value's slots in turn, so the block's rows in order,
    # less the empty slots; no printed byte is NUL
    return chars.T.tobytes().translate(None, b"\0")


def _write_csv(path, header, *columns):
    # every row reads as ",".join(["%.17g"] * len(columns)) % row would
    # write it, byte for byte; a last column given as a scalar holds that
    # value on every row, formatted once and put before each newline, which
    # only ever ends a row
    *columns, last = [np.asarray(c, dtype=float) for c in columns]
    end = b"\n"
    if last.ndim == 0:
        end = b",%s\n" % _format_value(float(last))
    else:
        columns.append(last)
    if not columns or any(c.ndim != 1 for c in columns):
        raise ValueError("CSV columns must be 1-D arrays, and only the last "
                         "may be a scalar")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError(f"CSV columns must have one length, got "
                         f"{[len(c) for c in columns]}")
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for i in range(0, n, _CSV_BLOCK_ROWS):
            stop = min(i + _CSV_BLOCK_ROWS, n)
            rows = _format_rows(np.stack([c[i:stop] for c in columns],
                                         axis=1))
            fh.write(rows.replace(b"\n", end) if end != b"\n" else rows)


def _csv_layout(rows):
    """(cols, ends, p, exps) for CSV rows in bytes that end in a newline:
    the fields per row, the offset of each field's separator, minus the
    digits after each field's point, and the fields with an exponent; None
    for rows outside the fast grammar (see _read_csv)."""
    b = np.frombuffer(rows, np.uint8)
    nondigit = b - np.uint8(ord("0"))
    at = np.flatnonzero(np.greater(nondigit, 9, out=nondigit.view(bool)))
    kind = np.frombuffer(bytearray(b.take(at)).translate(_BYTE_KIND),
                         np.uint8)
    # whether the next non-digit byte follows with no digit between
    near = b[1:].take(at[:-1]) - np.uint8(ord("0")) > 9
    kind[1:][near & (kind[:-1] == _EXP) & (kind[1:] >= _MINUS)] = _EXP_SIGN
    # each pair of neighbouring non-digit bytes, from the newline before the
    # rows, must be one _CSV_PAIRS lists
    pair = np.empty(kind.size, np.uint8)
    pair[0] = _NEWLINE << 4 | kind[0] | (at[0] > 0) << 3
    pair[1:] = kind[:-1] << 4
    pair[1:] |= kind[1:]
    pair[1:] |= (~near).view(np.uint8) << 3
    if pair.tobytes().translate(None, _CSV_PAIRS):
        return None
    # each field ends at a separator, the same number of them on every row
    seps = np.flatnonzero(kind <= _NEWLINE)
    newline = kind.take(seps) == _NEWLINE
    cols = int(np.argmax(newline)) + 1
    if (seps.size % cols or not newline[cols - 1::cols].all()
            or np.count_nonzero(newline) != seps.size // cols):
        return None
    # a field's non-digit bytes are [-][.][e[+-]] before its separator;
    # end is the one after its mantissa
    end = seps - 1
    end -= kind.take(end) == _EXP_SIGN
    exps = kind.take(end) == _EXP
    np.copyto(end, seps, where=~exps)
    point = end - 1
    p = at.take(point)
    p -= at.take(end)
    p += 1
    p *= kind.take(point) == _DOT
    return cols, at.take(seps), p, np.flatnonzero(exps)


def _parse_rows(rows):
    """The CSV rows in bytes that end in a newline as a 2-D float64 array,
    bit for bit what np.loadtxt reads; None for rows outside the fast
    grammar (see _read_csv)."""
    layout = _csv_layout(rows)
    if layout is None:
        return None
    cols, ends, p, exps = layout
    # integers first: each field's mantissa D without its point, then its
    # exponent where it has one
    try:
        tok = np.fromstring(rows.translate(_TO_INTEGERS, b"."),
                            dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        # numpy before 2.3 warns where a sign is out of place, later ones
        # raise; the grammar leaves neither to happen
        return None
    if tok.size != ends.size + exps.size:
        return None
    exp_tok = exps + np.arange(1, exps.size + 1)
    mantissa = np.ones(tok.size, bool)
    mantissa[exp_tok] = False
    D = tok[mantissa]
    # |E| clipped so that p stays exact
    p[exps] += np.clip(tok[exp_tok], -2 ** 40, 2 ** 40)

    # |D| 10^p as a double-double, rounded where the rounding is certain;
    # strtoll, and so np.fromstring, saturates a mantissa past 2^63
    ok = ((D < 10 ** 18) & (D > -10 ** 18)
          & (p >= _READ_POWERS[0]) & (p <= _READ_POWERS[1]))
    a = np.abs(D)
    a[~ok] = 1
    p[~ok] = 0
    hi = a.astype(float)
    a -= hi.astype(np.int64)
    x, res = _scaled(hi, p, a.astype(float))
    # res in units of x's ulp: a midpoint is at +-1/2, and at -1/4 below a
    # power of two, whose lower neighbour is half as far
    m, e = np.frexp(x)
    res = np.ldexp(res, 53 - e)
    ok &= ((np.abs(res) < 0.5 - _TIE_MARGIN)
           & ((m != 0.5) | (res > _TIE_MARGIN - 0.25))
           & (x >= _FAST_RANGE[0]) & (x <= _FAST_RANGE[1]))
    np.copysign(x, D, out=x)
    zero = np.flatnonzero(D == 0)
    # a zero takes its sign from its field's first byte
    starts = np.where(zero > 0, ends.take(zero - 1) + 1, 0)
    x[zero] = np.where(np.frombuffer(rows, np.uint8).take(starts) == ord("-"),
                       -0.0, 0.0)
    for i in np.flatnonzero(~ok & (D != 0)).tolist():
        # float() rounds correctly, as loadtxt does
        x[i] = float(rows[ends[i - 1] + 1 if i else 0:ends[i]])
    return x.reshape(-1, cols)


def _read_csv(fh):
    """The rows after the header line of a CSV file open for binary reading
    as a 2-D float64 array, bit for bit what np.loadtxt(delimiter=",",
    skiprows=1, ndmin=2) reads, parsed on whole arrays in blocks of rows, so
    that memory stays flat in the file size; None for a file outside the
    fast grammar: a printable-ASCII header line, then rows of the same
    number of fields [-]digits[.digits][e[+-]digits], each ended by a
    newline (the last one may lack it), and no other byte: no blank line,
    space, CR, comment, 'E', nan or inf."""
    header = fh.readline()
    if (not header.endswith(b"\n")
            or header[:-1].translate(None, _HEADER_BYTES)):
        return None
    blocks = []
    with warnings.catch_warnings():
        # np.fromstring's warning becomes the fallback (see _parse_rows)
        warnings.simplefilter("error", DeprecationWarning)
        while rows := fh.read(_CSV_READ_BYTES) + fh.readline():
            if not rows.endswith(b"\n"):
                rows += b"\n"
            block = _parse_rows(rows)
            if block is None or (blocks and
                                 block.shape[1] != blocks[0].shape[1]):
                return None
            blocks.append(block)
    return np.concatenate(blocks) if blocks else None


def _read_table(path):
    # the rows after path's header line as a 2-D float64 array: _read_csv's
    # where its grammar applies, else np.loadtxt's, which raises ValueError
    # for a malformed file
    with open(path, "rb") as fh:
        # np.loadtxt opens the path again, so a pipe is left to it whole
        data = _read_csv(fh) if fh.seekable() else None
    if data is None:
        with warnings.catch_warnings():
            # loadtxt's UserWarning for a file without data rows; such a
            # file is refused by _read_samples
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data


def _read_samples(path):
    data = _read_table(path)
    if data.size == 0:
        raise click.ClickException(f"{path} holds no samples")
    if data.shape[1] < 2:
        raise click.ClickException(f"{path} must have columns t,x")
    if not np.all(np.isfinite(data[:, :2])):
        raise click.ClickException(f"{path} holds a non-finite t or x value")
    if np.any(np.diff(data[:, 0]) <= 0):
        raise click.ClickException(f"{path}: sample times must increase")
    return data[:, 0], data[:, 1]


@click.group()
def main():
    """Linear integral predictors for spectral-gap signals."""


@main.command("approx")
@click.option("--T", "horizon", type=float, required=True, help="Prediction horizon T > 0.")
@click.option("--omega", type=float, required=True, help="Spectral gap half-width.")
@click.option("--taper", type=click.Choice(FAMILIES), required=True)
@click.option("--nu", type=float, required=True, help="Taper scale in (0, 1].")
@click.option("--d", "degree", type=int, required=True, help="Degree of the 1/z polynomial.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output JSON path (default: print to stdout).")
def approx_cmd(horizon, omega, taper, nu, degree, out):
    """Fit psi_d to exp(iwT) r_nu(w) and certify its sup error."""
    try:
        spec = TaperSpec(family=taper, nu=nu)
        approx = fit_approximant(horizon, omega, spec, degree)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    if out is None:
        click.echo(json.dumps(approximant_to_dict(approx), indent=2))
    else:
        with _writing(out):
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
    spec = _load(load_spectrum, spec_path, "a spectrum file")
    try:
        if not np.all(np.isfinite([t0, t1, dt])):
            raise ValueError("t0, t1 and dt must be finite")
        if not t1 > t0 or dt <= 0:
            raise ValueError("need t1 > t0 and dt > 0")
        n = window_size(t1 - t0, dt)
        xs = sample_grid(spec, t0, dt, n)
    except (ValueError, KeyError) as exc:
        raise click.ClickException(str(exc)) from exc
    times = t0 + dt * np.arange(n)
    with _writing(out):
        _write_csv(out, "t,x", times, xs)
    click.echo(f"wrote {out}  ({n} samples)")


def _sample_index(times, t, name="t"):
    # the index of the sample time nearest t, which must lie within
    # 1e-9 * max(1, |that time|) of it, so a t that is not a finite sample
    # time (NaN, infinite) is refused here, as name
    hi = min(max(int(np.searchsorted(times, t)), 1), len(times) - 1)
    i0 = hi - 1 if abs(times[hi - 1] - t) <= abs(times[hi] - t) else hi
    if not abs(times[i0] - t) <= 1e-9 * max(1.0, abs(times[i0])):
        if not times[0] <= t <= times[-1]:  # NaN included
            raise ValueError(
                f"{name}={t} lies outside the sample grid, which runs from "
                f"{times[0]:g} to {times[-1]:g}")
        raise ValueError(
            f"{name}={t} does not lie on the sample grid: the nearest sample "
            f"is {times[i0]:g} and the step is {times[hi] - times[hi - 1]:g}")
    return i0


def _window_from(times, values, t1):
    # the eta form starts at its window's first sample, t1's; its integrals
    # need 3 samples from there on
    i0 = _sample_index(times, t1)
    if len(times) - i0 < 3:
        raise ValueError(
            f"t1={t1} leaves fewer than 3 samples up to the last sample "
            f"time {times[-1]:g}; an eta window needs at least 3 samples")
    return times[i0:], values[i0:]


def _fit_eta_from_samples(approx, times, values, t1, theta=None, dbar=None):
    # (window times up to theta, prediction there, fit): predict_fitted's
    # fit at dbar times, and fit-eta's record of it (t1, ref_time, fit_span,
    # c, residual, cond, extrapolation), which realize_fitted applies from
    # the sample times t1 and ref_time.  Without theta and dbar, predict's
    # internal fit at d times up to the last sample, whose refusals name
    # what predict sets (d, the record and --t1)
    internal = dbar is None
    if internal:
        theta, dbar = float(times[-1]), approx.d
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got theta={theta}")
    if theta > times[-1]:
        # np.interp would hold the last sample for the observations past it
        raise ValueError(f"theta={theta} is past the last sample time "
                         f"{times[-1]:g}")
    T = approx.T
    tw, vw = _window_from(times, values, t1)
    t1 = float(tw[0])
    if theta - T <= t1 + T / 10.0:
        raise ValueError(
            f"the record is too short for the internal eta fit: from "
            f"t1={t1:g} it must run past t1 + 1.1 T = {t1 + 1.1 * T:g} and it "
            f"ends at {theta:g}; use a longer record, an earlier --t1 or --eta"
            if internal else
            "observation window too short: need theta - T > t1 + T/10")
    if dbar < approx.d:
        raise ValueError(f"need at least d={approx.d} fit times, got {dbar}")
    lo, hi = t1 + T / 10.0, theta - T
    # the dbar x d fit matrix has at least as many entries as fit times
    grid_size(dbar * approx.d, f"--dbar {dbar} at d={approx.d}: the {dbar} x "
              f"{approx.d} fit matrix")
    # the fit times: dbar of the count window samples in [lo, hi], its first
    # and last among them, spread by index like Chebyshev extreme points,
    # which keeps the square fit far better conditioned than an even spread;
    # strictly increasing, since each step adds 1 and a rounding of a rising
    # term, and every sample when count = dbar
    slack = 1e-9 * max(1.0, abs(lo), abs(hi))
    i_lo, i_end = np.searchsorted(tw, [lo - slack, hi + slack])
    count = i_end - i_lo
    if dbar > count:
        raise ValueError(
            f"the internal eta fit needs d={dbar} fit samples in [t1 + T/10, "
            f"last sample - T] = [{lo:g}, {hi:g}] and the record has "
            f"{count}; use a longer or finer record, an earlier --t1, a lower "
            f"d or --eta" if internal else
            f"--dbar {dbar} exceeds the {count} samples in the fit span "
            f"[{lo:g}, {hi:g}]")
    k = np.arange(dbar)
    idx = i_lo + k + np.rint((count - dbar) / 2.0 * (
        1.0 - np.cos(np.pi * k / (dbar - 1)))).astype(int)
    zeta = np.interp(tw[idx] + T, times, values)
    # the observations end at theta, and so does the window fitted to them
    n = int(np.searchsorted(tw, theta + 1e-9 * max(1.0, abs(theta)), "right"))
    tw, vw = tw[:n], vw[:n]
    y, c, (lo, hi), cond = predict_fitted(approx, tw, vw, idx, zeta)
    # |T_{d-1}| at theta, the fitted span mapped onto [-1, 1]: about the
    # factor by which carrying the fitted polynomial part to theta amplifies
    # the fit's residual
    x = (2.0 * theta - lo - hi) / (hi - lo)
    with np.errstate(over="ignore"):
        extrapolation = float(np.cosh((approx.d - 1) * np.arccosh(x)))
    return tw, y, {"t1": t1, "ref_time": float(tw[len(tw) // 2]),
                   "fit_span": [lo, hi], "c": c.tolist(),
                   "residual": (y[idx] - zeta).tolist(), "cond": cond,
                   "extrapolation": extrapolation}


def _forecast(t_out, last):
    # the count of output times past the last fit time, whose predictions
    # extrapolate the fit
    slack = 1e-9 * max(1.0, abs(last))
    return len(t_out) - int(np.searchsorted(t_out, last + slack, "right"))


def _load(loader, path, what):
    # loader(path), or a refusal that names the file and what it lacks
    try:
        return loader(path)
    except (OSError, OverflowError, KeyError, TypeError, ValueError) as exc:
        raise click.ClickException(
            f"{path} is not {what} ({type(exc).__name__}: {exc})") from exc


@contextlib.contextmanager
def _writing(path, exit_code=1):
    # the body's writes to path; an OSError is refused naming path and it
    try:
        yield
    except OSError as exc:
        refusal = click.ClickException(
            f"cannot write {path} ({type(exc).__name__}: {exc})")
        refusal.exit_code = exit_code
        raise refusal from exc


def _read_eta(path):
    # (t1, ref_time, fit_span, c) from a fit-eta output, refused unless c,
    # fit_span and ref_time are finite and the span increases; predict
    # checks them against the approximant and the record
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if "etaP" in data:
        raise ValueError("it holds etaP, the constants of an older fit-eta: "
                         "rerun fit-eta to write c")
    t1, ref_time = float(data["t1"]), float(data["ref_time"])
    span = np.asarray(data["fit_span"], dtype=float)
    c = np.asarray(data["c"], dtype=float)
    if not (c.ndim == 1 and np.all(np.isfinite(c)) and np.isfinite(ref_time)):
        raise ValueError("c must be a list of finite numbers and ref_time "
                         "finite")
    if not (span.shape == (2,) and np.all(np.isfinite(span))
            and span[0] < span[1]):
        raise ValueError(f"fit_span must be two finite, increasing times, "
                         f"got {data['fit_span']}")
    return t1, ref_time, (float(span[0]), float(span[1])), c


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
              default=None, help="Reuse the fit of a fit-eta output.")
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
            "fit")
    note = ""
    approx = _load(load_approximant, approx_path, "an approximant file")
    try:
        times, values = _read_samples(samples_path)
        if mode == "conv":
            y, tail = predict_convolution(approx, times, values,
                                          history_length=history_length)
            t_out = times[len(times) - len(y):]
        else:
            if eta_path is not None:
                eta_t1, ref_time, span, c = _load(_read_eta, eta_path,
                                                  "a fit-eta output")
                try:
                    if c.shape != (approx.d,):
                        raise ValueError(
                            f"c must hold one coefficient per degree below "
                            f"d = {approx.d}, not the {c.size} of a fit at "
                            f"d = {c.size}")
                    t_out, vw = _window_from(times, values, eta_t1)
                    ref = _sample_index(t_out, ref_time, "ref_time")
                except ValueError as exc:
                    raise ValueError(f"{eta_path}: {exc}") from exc
                y = realize_fitted(approx, t_out, vw, ref, c, span)
                note = f", forecast={_forecast(t_out, span[1])}"
            else:
                t_out, y, fit = _fit_eta_from_samples(
                    approx, times, values,
                    float(times[0]) if t1 is None else t1)
                note = (f", forecast={_forecast(t_out, fit['fit_span'][1])}, "
                        f"cond={fit['cond']:.3e}, "
                        f"extrapolation={fit['extrapolation']:.3e}")
            tail = 0.0  # no truncated history: one zero for every row
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    with _writing(out):
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
    """Fit the polynomial the constants add from observations on
    [t1, theta], for predict --eta."""
    approx = _load(load_approximant, approx_path, "an approximant file")
    try:
        times, values = _read_samples(samples_path)
        _, _, fit = _fit_eta_from_samples(approx, times, values, t1, theta,
                                          dbar)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    with _writing(out), open(out, "w", encoding="utf-8",
                             newline="\n") as fh:
        json.dump(fit, fh, indent=2)
        fh.write("\n")
    click.echo(f"wrote {out}  (dbar={dbar}, cond={fit['cond']:.3e}, "
               f"extrapolation={fit['extrapolation']:.3e})")


@main.command("eval")
@click.option("--config", "config_path", type=click.Path(dir_okay=False),
              required=True, help="ExperimentConfig JSON.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Output directory (default: ./reports).")
def eval_cmd(config_path, out_dir):
    """Run a sweep; exit 0 = all rows and the convergence check pass (or it
    is skipped), 1 = a row or the convergence check fails, 2 = config error
    or an --out directory that cannot be written."""
    try:
        config = ExperimentConfig.from_json(config_path)
        rows = run_sweep(config)  # raises only for a spectrum file
    except (OSError, KeyError, TypeError, ValueError) as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(2)
    dest = out_dir or "reports"
    with _writing(dest, exit_code=2):
        verdict = write_reports(rows, dest)
    lines = []
    for row in rows:
        status = "ERROR " + row.error if row.error else \
            ("pass" if row.passed else "FAIL")
        lines.append(f"{row.spec} d={row.d} nu={row.nu:g}: "
                     f"sup={row.sup_err:.6g} [{status}]")
    click.echo("\n".join(lines))
    click.echo("convergence: " + (
        f"skipped ({verdict['skipped']})" if verdict["passed"] is None
        else "; ".join(verdict["failures"]) or "pass"))
    click.echo(f"reports written to {dest}")
    if not all(row.passed for row in rows) or verdict["passed"] is False:
        sys.exit(1)


if __name__ == "__main__":
    main()
