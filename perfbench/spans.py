"""Per-layer tracing of gap_predict from outside the package.

The tracer wraps the public functions of the six modules.  A function is
patched in its home module and under every other name that refers to it in
the package (``harness.sample``, ``cli.predict_convolution``, the package
namespace), so calls between modules are seen too.  The click command
callbacks stand for the ``cli`` layer.  Private helpers are not wrapped: their
time counts as self time of the public function that calls them.

Spans (name, start, end, parent, job) are kept in flat arrays in memory and
written out by :meth:`Tracer.save`.  A span's self time is its duration minus
the time its child spans cover; calls nest strictly in one thread, so that is
the sum of the direct children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("taper", "approx", "signal", "predictor", "harness", "cli")

# every per-layer metric a traced run reports, with its unit; counts and
# times are per traced job
UNITS = {
    "taper.calls": "count", "taper.self_s": "s",
    "approx.fit.calls": "count", "approx.fit.self_s": "s",
    "approx.certify.calls": "count", "approx.certify.self_s": "s",
    "approx.certify.nodes": "count", "approx.certify.per_fit": "ratio",
    "approx.self_s": "s",
    "signal.sample.calls": "count", "signal.sample.self_s": "s",
    "signal.sample.unique_frac": "fraction",
    "signal.sample_grid.points": "count", "signal.sample_grid.self_s": "s",
    "signal.exact_hk.calls": "count", "signal.exact_hk.self_s": "s",
    "signal.epsilon1.calls": "count", "signal.epsilon1.self_s": "s",
    "signal.self_s": "s",
    "predictor.conv.calls": "count", "predictor.conv.self_s": "s",
    "predictor.conv.lag_points": "count", "predictor.kernel_eval.calls": "count",
    "predictor.integrals.self_s": "s", "predictor.integrals.points": "count",
    "predictor.eta_grid.self_s": "s", "predictor.eta_grid.points": "count",
    "predictor.fit_eta.calls": "count", "predictor.fit_eta.self_s": "s",
    "predictor.fit_eta.cond_max": "ratio", "predictor.fit_eta.warnings": "count",
    "predictor.self_s": "s",
    "harness.rows": "count", "harness.rows_error": "count",
    "harness.rows_fail": "count", "harness.self_s": "s",
    "harness.write_reports.self_s": "s", "harness.report_bytes": "B",
    "cli.import_s": "s", "cli.import.scipy_s": "s", "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.spans": "count", "trace.items_per_s": "1/s",
    "trace.untraced_items_per_s": "1/s", "trace.overhead_frac": "fraction",
}


def _public_functions(module):
    for name in getattr(module, "__all__", ()):
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.job_id = -1
        self.counters = Counter()
        self.cond_max = 0.0
        self._samples = set()
        self._patches = []

    # -------------------------------------------------------------- patching

    def install(self):
        """Wrap every public function wherever the package binds it."""
        wrappers = {}
        for layer, module in self.modules.items():
            for name, fn in _public_functions(module):
                hook = getattr(self, f"_hook_{layer}_{name}", None)
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn, hook)
        for module in (self.package, *self.modules.values()):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        cli = self.modules["cli"]
        for command in cli.main.commands.values():
            self._patches.append((command, "callback", command.callback))
            command.callback = self._wrap(f"cli.{command.name}",
                                          command.callback, None)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, qualname, fn, hook):
        nid = self._name_id(qualname)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        return wrapper

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def job_span(self):
        """One job: the root span ``cli.main``."""
        self.job_id += 1
        self._samples.clear()
        idx = self._open(self._name_id("cli.main"))
        try:
            yield
        finally:
            self._close(idx)
            self.counters["signal.sample.unique"] += len(self._samples)

    # ----------------------------------------------------------- counters

    def _hook_approx_certify_sup_error(self, args, result):
        self.counters["approx.certify.nodes"] += (
            args["dense_factor"] * (args["fit_nodes"] - 1) + 1)

    def _hook_signal_sample(self, args, result):
        self._samples.add((args["spec"], float(args["t"])))

    def _hook_signal_sample_grid(self, args, result):
        self.counters["signal.sample_grid.points"] += args["n"]

    def _hook_predictor_predict_convolution(self, args, result):
        self.counters["predictor.conv.lag_points"] += len(args["times"])

    def _hook_predictor_iterated_integrals(self, args, result):
        self.counters["predictor.integrals.points"] += (
            args["d"] * len(args["times"]))

    def _hook_predictor_predict_eta_grid(self, args, result):
        self.counters["predictor.eta_grid.points"] += (
            np.size(args["t_eval"]) * len(args["state"].a))

    def _hook_predictor_fit_eta(self, args, result):
        self.cond_max = max(self.cond_max, float(result.cond))

    def _hook_harness_run_sweep(self, args, result):
        self.counters["harness.rows"] += len(result)
        self.counters["harness.rows_error"] += sum(r.error is not None
                                                   for r in result)
        self.counters["harness.rows_fail"] += sum(
            r.error is None and not r.passed for r in result)

    def _hook_harness_write_reports(self, args, result):
        for name in ("report.csv", "report.json"):
            self.counters["harness.report_bytes"] += os.path.getsize(
                os.path.join(args["out_dir"], name))

    # ------------------------------------------------------------ results

    def self_times(self):
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def metrics(self, jobs):
        """Per-layer metrics per traced job (``jobs`` = number of jobs)."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        self_t = self.self_times()
        layer_of = np.array([n.split(".")[0] for n in self.names])
        calls = Counter(self.names[i] for i in names)

        def fn_self(*fns):
            ids = [self.name_ids[f] for f in fns if f in self.name_ids]
            return float(self_t[np.isin(names, ids)].sum()) / jobs

        span_layer = layer_of[names]

        def layer_self(layer, mask=True):
            return float(self_t[(span_layer == layer) & mask].sum()) / jobs

        # approx spans at or below a certification count as certification
        certify = self.name_ids.get("approx.certify_sup_error", -2)
        in_cert = np.zeros(len(names), dtype=bool)
        for i in range(len(names)):
            in_cert[i] = names[i] == certify or (parent[i] >= 0
                                                 and in_cert[parent[i]])
        by_layer = {layer: layer_self(layer) for layer in LAYERS}
        cert_self = layer_self("approx", in_cert)
        sample_calls = calls["signal.sample"]
        fits = calls["approx.fit_approximant"]
        c = self.counters
        per = lambda v: float(v) / jobs  # noqa: E731
        return {
            "taper.calls": per(sum(v for k, v in calls.items()
                                   if k.startswith("taper."))),
            "taper.self_s": by_layer["taper"],
            "approx.fit.calls": per(fits),
            "approx.fit.self_s": by_layer["approx"] - cert_self,
            "approx.certify.calls": per(calls["approx.certify_sup_error"]),
            "approx.certify.self_s": cert_self,
            "approx.certify.nodes": per(c["approx.certify.nodes"]),
            "approx.certify.per_fit": (calls["approx.certify_sup_error"] / fits
                                       if fits else 0.0),
            "approx.self_s": by_layer["approx"],
            "signal.sample.calls": per(sample_calls),
            "signal.sample.self_s": fn_self("signal.sample"),
            "signal.sample.unique_frac": (c["signal.sample.unique"]
                                          / sample_calls if sample_calls
                                          else 0.0),
            "signal.sample_grid.points": per(c["signal.sample_grid.points"]),
            "signal.sample_grid.self_s": fn_self("signal.sample_grid"),
            "signal.exact_hk.calls": per(calls["signal.exact_hk"]),
            "signal.exact_hk.self_s": fn_self("signal.exact_hk"),
            "signal.epsilon1.calls": per(calls["signal.epsilon1"]),
            "signal.epsilon1.self_s": fn_self("signal.epsilon1"),
            "signal.self_s": by_layer["signal"],
            "predictor.conv.calls": per(calls["predictor.predict_convolution"]),
            "predictor.conv.self_s": fn_self("predictor.predict_convolution"),
            "predictor.conv.lag_points": per(c["predictor.conv.lag_points"]),
            "predictor.kernel_eval.calls": per(calls["predictor.kernel_eval"]),
            "predictor.integrals.self_s": fn_self("predictor.iterated_integrals"),
            "predictor.integrals.points": per(c["predictor.integrals.points"]),
            "predictor.eta_grid.self_s": fn_self("predictor.predict_eta_grid"),
            "predictor.eta_grid.points": per(c["predictor.eta_grid.points"]),
            "predictor.fit_eta.calls": per(calls["predictor.fit_eta"]),
            "predictor.fit_eta.self_s": fn_self("predictor.fit_eta"),
            "predictor.fit_eta.cond_max": self.cond_max,
            "predictor.self_s": by_layer["predictor"],
            "harness.rows": per(c["harness.rows"]),
            "harness.rows_error": per(c["harness.rows_error"]),
            "harness.rows_fail": per(c["harness.rows_fail"]),
            "harness.self_s": by_layer["harness"],
            "harness.write_reports.self_s": fn_self("harness.write_reports",
                                                    "harness.emit_report"),
            "harness.report_bytes": per(c["harness.report_bytes"]),
            "cli.self_s": by_layer["cli"],
            "trace.spans": per(len(names)),
        }

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            job=np.frombuffer(self.job, np.int32),
            start=np.frombuffer(self.start, float),
            end=np.frombuffer(self.end, float))
