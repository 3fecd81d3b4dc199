#!/usr/bin/env python3
"""gap-predict benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep_tone --seed 1 --seconds 22 --trace 0

Run from anywhere; the package is taken from ``src/`` next to this
directory.  A run generates the workload's input files from the seed, then
spends ``--seconds`` in rounds.  With ``--trace 0`` each round starts one
fresh interpreter that only imports ``gap_predict.cli`` (``setup_s``), one
fresh ``python -m gap_predict.cli`` run of the workload's command (``cli_s``,
``peak_rss_mb``), and then repeats the same command in this process through
``cli.main`` (warm jobs: ``items_per_s``, ``job_tail_s``).  With
``--trace 1`` the rounds alternate untraced and traced warm jobs and the run
reports the per-layer metrics of perfbench/spans.py instead.

Every output is checked by the oracles of perfbench/workloads.py; later
outputs must be byte-identical to the first.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record of the run goes to ``.bench_work/results/``.  The exit code is 0
only when every item passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import textwrap
import threading
import time
import warnings

BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)   # before numpy is imported, here and in children

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(WORK, "results")
ROUNDS = 6
MIN_WARM_JOBS = 24          # so that job_tail_s sits at p50 or above
PROBE_TIMEOUT_S = 150
# Machine speed on a shared host drifts by +-25% over seconds, more than any
# bound.  Times are therefore scaled to the speed at which a fixed reference
# takes its nominal time.  Each warm job is bracketed by an in-process kernel
# (Python bytecode plus small numpy ufuncs, like the program).  Fresh
# processes are scaled by the run's median of a fresh interpreter that imports
# numpy and runs the kernel 25 times: start-up and import costs the in-process
# kernel does not see, and the speed of whichever CPU the child ran on.  Raw
# wall times are kept in the run record.
CAL_REF_S = 0.0085
_KERNEL = """\
acc = 0
for i in range(30000):
    acc += i * i
for _ in range(40):
    cos(x * 3.0).sum()
"""
REF_PROC = [sys.executable, "-c",
            "from numpy import cos, linspace\nx = linspace(0.0, 1.0, 4000)\n"
            "for _ in range(25):\n" + textwrap.indent(_KERNEL, "    ")]
REF_PROC_S = 0.3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _tail(values):
    """Highest percentile with at least ten samples beyond it: the 11th
    largest value.  Returns (value, percentile, sample count)."""
    s = sorted(values)
    n = len(s)
    return s[n - 11], 100.0 * (n - 11) / (n - 1), n


# --------------------------------------------------------------- calibration

class Clock:
    """Times a sample and scales it by the mean of the calibration runs just
    before and just after it."""

    def __init__(self):
        import numpy
        self._x = numpy.linspace(0.0, 1.0, 4000)
        self._cos = numpy.cos
        self._code = compile(_KERNEL, "<kernel>", "exec")
        self.mark()

    def mark(self):
        """Calibrate now, as the 'before' of the next sample."""
        self.last = self._calibrate()

    def _calibrate(self):
        t0 = time.perf_counter()
        exec(self._code, {"cos": self._cos, "x": self._x})
        return time.perf_counter() - t0

    def scale(self, wall):
        """Call right after a sample of `wall` seconds: the factor that maps
        its wall time to reference-speed time.  Longer samples get longer
        calibrations, up to ten kernels (about 5% of the sample)."""
        k = min(10, max(1, round(0.05 * wall / CAL_REF_S)))
        before = self.last
        self.last = sum(self._calibrate() for _ in range(k)) / k
        return CAL_REF_S / (0.5 * (before + self.last))


# ------------------------------------------------------------ fresh processes

def _fresh(argv, cwd, log):
    """Run argv to completion; return (wall s, peak RSS MB, exit code)."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd,
                                env=dict(os.environ, PYTHONPATH=SRC),
                                stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _import_profile(cwd, log):
    """cli.import_s and cli.import.scipy_s from ``python -X importtime``."""
    _fresh([sys.executable, "-X", "importtime", "-c", "import gap_predict.cli"],
           cwd, log)
    total = scipy = 0.0
    with open(log, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue
            level = (len(name) - len(name.lstrip()) - 1) // 2
            name = name.strip()
            if level == 0 and name.split(".")[0] == "gap_predict":
                total += int(cum_us) * 1e-6
            if name.split(".")[0] == "scipy":
                scipy += int(self_us) * 1e-6
    return total, scipy


# ----------------------------------------------------------------- warm jobs

class Runner:
    """Runs the workload's command and checks what it wrote."""

    def __init__(self, workload, cli):
        self.wl = workload
        self.cli = cli
        self.reference = None       # output bytes of the first checked job
        self.check = None
        self.attempted = 0
        self.failed = 0
        self.bytes_written = 0
        self.eta_warnings = 0

    def _clear(self):
        for path in self.wl.outputs:
            if os.path.exists(path):
                os.remove(path)

    def _account(self, code):
        outputs = []
        for path in self.wl.outputs:
            try:
                with open(path, "rb") as fh:
                    outputs.append(fh.read())
            except OSError:
                outputs.append(None)
        self.bytes_written += sum(len(b) for b in outputs if b)
        self.attempted += self.wl.items
        if self.reference is None:
            self.reference = outputs
            self.check = self.wl.check()
            failed = self.check.failed
        elif outputs != self.reference:
            failed = self.wl.items  # not byte-identical to the first run
        else:
            failed = self.check.failed
        if code != 0:
            failed = self.wl.items  # an invocation that fails fails its items
        self.failed += failed

    def warm(self, tracer=None):
        """One in-process job through cli.main; returns its wall time."""
        self._clear()
        sink = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            warnings.simplefilter("always")
            span = tracer.job_span() if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with span:
                try:
                    self.cli.main.main(args=list(self.wl.argv),
                                       prog_name="gap-predict")
                    code = 0
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
            elapsed = time.perf_counter() - t0
        self.eta_warnings += sum("eta fit" in str(w.message) for w in caught)
        self._account(code)
        return elapsed

    def fresh(self, cwd, log):
        self._clear()
        wall, rss, code = _fresh(
            [sys.executable, "-m", "gap_predict.cli", *self.wl.argv], cwd, log)
        self._account(code)
        return wall, rss


# ------------------------------------------------------------------- records

def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": _git_commit(),
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV}}


# ---------------------------------------------------------------------- main

def _run_untraced(runner, wl, args, workdir):
    raw = {"setup": [], "cli": [], "warm": []}
    warm, refs, rss = [], [], []
    clock = Clock()

    def ref():
        return _fresh(REF_PROC, workdir, os.path.join(workdir, "ref.log"))[0]

    t_start = time.perf_counter()
    for r in range(ROUNDS):
        round_end = t_start + args.seconds * (r + 1) / ROUNDS
        refs.append(ref())
        raw["setup"].append(_fresh(
            [sys.executable, "-c", "import gap_predict.cli"], workdir,
            os.path.join(workdir, "setup.log"))[0])
        wall, peak = runner.fresh(workdir, os.path.join(workdir, "cli.log"))
        raw["cli"].append(wall)
        rss.append(peak)
        refs.append(ref())
        clock.mark()
        due = math.ceil(MIN_WARM_JOBS * (r + 1) / ROUNDS)
        while len(raw["warm"]) < due or time.perf_counter() < round_end:
            wall = runner.warm()
            raw["warm"].append(wall)
            warm.append(wall * clock.scale(wall))
    # fresh processes: scale the medians by the run's median reference, so
    # the reference's own noise is averaged over all of them
    fresh_scale = REF_PROC_S / statistics.median(refs)
    tail, pct, n = _tail(warm)
    metrics = {
        "setup_s": (statistics.median(raw["setup"]) * fresh_scale, "s"),
        "cli_s": (statistics.median(raw["cli"]) * fresh_scale, "s"),
        "items_per_s": (wl.items / statistics.median(warm), "1/s"),
        "job_tail_s": (tail, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "max_err": (runner.check.max_err, "abs"),
    }
    detail = {"raw_s": raw, "scaled_warm_s": warm, "reference_s": refs,
              "peak_rss_mb": rss, "job_tail_percentile": pct, "warm_jobs": n,
              "raw_medians_s": {k: statistics.median(v)
                                for k, v in raw.items()}}
    return metrics, detail


def _run_traced(runner, wl, args, workdir, package):
    from spans import LAYERS, Tracer

    imports = [_import_profile(workdir, os.path.join(workdir, "imp.log"))
               for _ in range(3)]
    tracer = Tracer(package)
    plain, traced = [], []
    clock = Clock()
    t_start = time.perf_counter()
    for r in range(ROUNDS):
        half = t_start + args.seconds * (2 * r + 1) / (2 * ROUNDS)
        end = t_start + args.seconds * (r + 1) / ROUNDS
        # alternate which half goes first, so drift hits both alike
        for traced_half, until in (((r % 2 == 1), half), ((r % 2 == 0), end)):
            if traced_half:
                tracer.install()
            try:
                done = 0
                while done < 2 or time.perf_counter() < until:
                    wall = runner.warm(tracer if traced_half else None)
                    (traced if traced_half else plain).append(
                        wall * clock.scale(wall))
                    done += 1
            finally:
                tracer.uninstall()
    jobs = len(traced)
    layer = tracer.metrics(jobs)
    layer["predictor.fit_eta.warnings"] = runner.eta_warnings / (
        len(plain) + len(traced) + 1)
    layer["cli.import_s"] = statistics.median([i[0] for i in imports])
    layer["cli.import.scipy_s"] = statistics.median([i[1] for i in imports])
    layer["cli.bytes_written"] = runner.bytes_written / (
        len(plain) + len(traced) + 1)
    ips_traced = wl.items / statistics.median(traced)
    ips_plain = wl.items / statistics.median(plain)
    layer["trace.items_per_s"] = ips_traced
    layer["trace.untraced_items_per_s"] = ips_plain
    layer["trace.overhead_frac"] = ips_plain / ips_traced - 1.0
    top = max(LAYERS, key=lambda m: layer[f"{m}.self_s"])
    detail = {"plain_s": plain, "traced_s": traced, "top_self_module": top,
              "predicted_top": list(wl.predicted_top),
              "top_as_predicted": top in wl.predicted_top}
    os.makedirs(RESULTS, exist_ok=True)
    tracer.save(os.path.join(RESULTS,
                             f"{args.workload}-seed{args.seed}.spans.npz"))
    return layer, detail


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gap_predict", "cli.py")):
        print(f"perfbench: no gap_predict package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    import gap_predict
    from gap_predict import cli
    from gap_predict.approx import fit_approximant, save_approximant
    from gap_predict.taper import TaperSpec
    if not os.path.abspath(gap_predict.__file__).startswith(SRC + os.sep):
        print(f"perfbench: gap_predict imported from {gap_predict.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.make(args.workload, args.seed, workdir,
                            (fit_approximant, save_approximant, TaperSpec))
        runner = Runner(wl, cli)
        # warm-up, unmeasured: bytecode caches, lazy imports, the reference
        # output that every later job must reproduce byte for byte
        _fresh([sys.executable, "-c", "import gap_predict.cli"], workdir,
               os.path.join(workdir, "setup.log"))
        runner.warm()
        if args.trace:
            metrics, detail = _run_traced(runner, wl, args, workdir,
                                          gap_predict)
            metrics = {k: (metrics[k], unit)
                       for k, unit in spans.UNITS.items()}
        else:
            metrics, detail = _run_untraced(runner, wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = runner.failed / runner.attempted
    correct = runner.failed == 0
    env = _environment(args)
    record = {"environment": env, "correct": correct,
              "attempted": runner.attempted, "failed": runner.failed,
              "failed_frac": failed_frac, "check": runner.check.notes,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "detail": detail}
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(" ".join(f"{k}={v}" for k, v in env.items() if k != "blas_threads")
          + " blas_threads=1")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    print(f"  {'failed_frac':<32} {failed_frac:.6g} fraction "
          f"({runner.failed} of {runner.attempted} items)")
    for key, value in runner.check.notes.items():
        print(f"  check.{key:<26} {value:.6g}")
    if args.trace:
        verdict = "as predicted" if detail["top_as_predicted"] else "DEVIATION"
        print(f"  largest self time: {detail['top_self_module']} "
              f"(predicted {' or '.join(wl.predicted_top)}): {verdict}")
    else:
        print(f"  job_tail_s is p{detail['job_tail_percentile']:.1f} of "
              f"{detail['warm_jobs']} warm jobs")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
