"""Spans and counters for the traced run, installed from outside the library.

Each function in FUNCTIONS is wrapped at every module that binds it
(`real_root_scan` is bound in hermite, measures and dbspace, for
example), and the methods in METHODS are wrapped on their classes.  A span records its name, start, end, parent span and the
benchmark job it ran under; spans stay in memory until the run writes
them out.  A layer's busy time is self time: span duration minus the
part covered by its child spans.  Nothing runs concurrently, so no layer
waits and no wait time is recorded.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

from crystalsum import (cli, dbspace, freqalg, hermite, measures, qmodular,
                        selfdual, spectra, verifier)

MODULES = ("qmodular", "freqalg", "spectra", "hermite", "measures", "dbspace",
           "selfdual", "verifier", "cli")
CLI_COMMANDS = ("ks", "eta", "spectrum", "kernel", "selfdual", "pair-check")


class Tracer:
    """In-memory span recorder with additive and maximum counters."""

    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id, job, self seconds)
        self._stack = []       # [id, name, start, seconds covered by children]
        self._next_id = 0
        self.job = None
        self.counts = defaultdict(float)
        self.maxes = defaultdict(float)

    def begin(self, name):
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def end(self):
        end = time.perf_counter()
        sid, name, start, covered = self._stack.pop()
        parent = None
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][3] += end - start
        self.spans.append((sid, name, start, end, parent, self.job,
                           end - start - covered))

    def wrap(self, name, fn, count=None, pre=None):
        """fn inside a span; `count(tracer, result, *args)` runs after it ends."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                args = pre(tracer, args)
            tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end()
            if count is not None:
                count(tracer, out, *args, **kwargs)
            return out
        return traced


# -- counters -----------------------------------------------------------------

def _digits(n):
    return len(str(abs(int(n))))


def _count_qseries(tr, out, *args, **kwargs):
    tr.counts["qmodular.terms"] += len(out.terms)
    if out.terms:
        big = max((max(abs(c.numerator), c.denominator) for c in out.terms.values()),
                  key=int)
        tr.maxes["qmodular.max_digits"] = max(tr.maxes["qmodular.max_digits"],
                                              _digits(big))


def _count_es_mul(tr, out, a, b, *rest, **kwargs):
    tr.counts["freqalg.mul.term_pairs"] += len(a) * (len(b) if isinstance(b, freqalg.ExpSum) else 1)


def _count_eval(tr, out, f, z, *rest, **kwargs):
    tr.counts["freqalg.eval.term_points"] += len(f) * int(np.size(z))


def _count_exact(tr, out, *args, **kwargs):
    tr.counts["spectra.exact.n_powers"] += out.meta["n_powers"]
    tr.counts["spectra.exact.atoms"] += len(out.atoms)


def _count_integrand(tr, out, z, *rest, **kwargs):
    tr.counts["spectra.mean_value.samples"] += int(np.size(z))


def _wrap_integrand(tr, args):
    """Put the integrand handed to mean_value_batch in a span of its own."""
    return (tr.wrap("spectra.mean_value.f", args[0], _count_integrand),) + tuple(args[1:])


def _count_validate(tr, out, E, grid=None, *rest, **kwargs):
    grid = grid or hermite.default_grid(E)
    tr.counts["hermite.validate.grid_points"] += grid.nx * grid.ny + grid.nx
    tr.counts["hermite.rejects"] += not out.accepted


def _count_root_scan(tr, out, B, interval, *rest, **kwargs):
    span = B.freq_span()
    if span > 0:
        step = 1.0 / (8.0 * span)
        n = max(int(math.ceil((float(interval[1]) - float(interval[0])) / step)), 8)
        tr.counts["hermite.root_scan.grid_points"] += n + 1
    tr.counts["hermite.root_scan.roots"] += len(out.roots)


def _count_pair(tr, out, *args, **kwargs):
    tr.counts["measures.mu_atoms"] += len(out.mu)
    tr.counts["measures.a_atoms"] += len(out.a)


def _count_kernel_context(tr, out, *args, **kwargs):
    tr.counts["dbspace.kernel_context.roots"] += len(out.points)


def _count_sd_measure(tr, out, *args, **kwargs):
    tr.counts["selfdual.measure.atoms"] += len(out)


def _count_reports(tr, out, *args, **kwargs):
    for r in out if isinstance(out, list) else [out]:
        tr.counts["verifier.checks"] += 1
        tr.counts["verifier.conclusive"] += r.verdict in ("pass", "fail")
        key = "verifier.worst_residual_over_tol"
        tr.maxes[key] = max(tr.maxes[key], r.residual / r.params["tol"])


# (owner, attribute, span name, counter, argument hook)
FUNCTIONS = [
    (qmodular, "eta_product", "qmodular.eta_product", None, None),
    (qmodular, "lambda_invariant", "qmodular.lambda_invariant", None, None),
    (qmodular, "fminus", "qmodular.fminus", None, None),
    (qmodular, "qpow", "qmodular.qpow", _count_qseries, None),
    (spectra, "exact_spectrum", "spectra.exact", _count_exact, None),
    (spectra, "mean_value_batch", "spectra.mean_value", None, _wrap_integrand),
    (spectra, "fejer_reconstruct", "spectra.fejer", None, None),
    (hermite, "is_hermite_biehler", "hermite.validate", _count_validate, None),
    (hermite, "real_root_scan", "hermite.root_scan", _count_root_scan, None),
    (measures, "pair_from_hb", "measures.pair_from_hb", _count_pair, None),
    (measures, "herglotz_kernel_residual", "measures.herglotz", None, None),
    (measures, "antipodal_split", "measures.antipodal_split", None, None),
    (dbspace, "kernel_context", "dbspace.kernel_context", _count_kernel_context, None),
    (dbspace, "kernel_series", "dbspace.kernel_series", None, None),
    (dbspace, "kernel_closed", "dbspace.kernel_closed", None, None),
    (dbspace, "sampling_eval", "dbspace.sampling", None, None),
    (selfdual, "selfdual_measure", "selfdual.measure", _count_sd_measure, None),
    (selfdual, "functional_equation_residual", "selfdual.fe_residual", None, None),
    (verifier, "check_pair", "verifier.check_pair", _count_reports, None),
    (verifier, "check_selfdual", "verifier.check_selfdual", _count_reports, None),
    (verifier, "bump_ft", "verifier.bump_ft", None, None),
    (cli, "main", "cli.main", None, None),
] + [(cli, "cmd_" + c.replace("-", "_"), "cli." + c, None, None) for c in CLI_COMMANDS]

METHODS = [
    (qmodular.QSeries, "__mul__", "qmodular.mul", _count_qseries),
    (qmodular.QSeries, "__rmul__", "qmodular.mul", _count_qseries),
    (freqalg.ExpSum, "__mul__", "freqalg.mul", _count_es_mul),
    (freqalg.ExpSum, "__rmul__", "freqalg.mul", _count_es_mul),
    (freqalg.ExpSum, "truncate", "freqalg.truncate", None),
    (freqalg.ExpSum, "eval", "freqalg.eval", _count_eval),
]


def _binding_modules():
    """crystalsum and every submodule loaded from it."""
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "crystalsum" or name.startswith("crystalsum."))]


def install(tracer):
    """Wrap every binding of every traced callable; returns an undo function."""
    undo = []
    modules = _binding_modules()
    for owner, attr, name, count, pre in FUNCTIONS:
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, count, pre)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, traced)
    for cls, attr, name, count in METHODS:
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(name, original, count))

    def uninstall():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
    return uninstall


# -- per-pass metrics ---------------------------------------------------------

def _self(agg, name):
    return agg[name][1]


def layer_metrics(spans, counts, maxes):
    """Per-layer metrics of one traced pass (spans and counters of that pass)."""
    agg = defaultdict(lambda: [0, 0.0, 0.0])      # calls, self s, inclusive s
    busy = defaultdict(float)
    for _, name, start, end, _, _, self_s in spans:
        a = agg[name]
        a[0] += 1
        a[1] += self_s
        a[2] += end - start
        busy[name.split(".")[0]] += self_s
    checks = counts["verifier.checks"]
    m = {
        "qmodular.eta_product.s": _self(agg, "qmodular.eta_product"),
        "qmodular.lambda_invariant.s": _self(agg, "qmodular.lambda_invariant"),
        "qmodular.fminus.s": _self(agg, "qmodular.fminus"),
        "qmodular.qpow.calls": agg["qmodular.qpow"][0],
        "qmodular.qpow.s": _self(agg, "qmodular.qpow"),
        "qmodular.mul.calls": agg["qmodular.mul"][0],
        "qmodular.mul.s": _self(agg, "qmodular.mul"),
        "qmodular.terms": counts["qmodular.terms"],
        "qmodular.max_digits": maxes["qmodular.max_digits"],
        "freqalg.mul.calls": agg["freqalg.mul"][0],
        "freqalg.mul.s": _self(agg, "freqalg.mul"),
        "freqalg.mul.term_pairs": counts["freqalg.mul.term_pairs"],
        "freqalg.truncate.s": _self(agg, "freqalg.truncate"),
        "freqalg.eval.calls": agg["freqalg.eval"][0],
        "freqalg.eval.s": _self(agg, "freqalg.eval"),
        "freqalg.eval.term_points": counts["freqalg.eval.term_points"],
        "spectra.exact.s": _self(agg, "spectra.exact"),
        "spectra.exact.n_powers": counts["spectra.exact.n_powers"],
        "spectra.exact.atoms": counts["spectra.exact.atoms"],
        "spectra.mean_value.s": _self(agg, "spectra.mean_value"),
        "spectra.mean_value.samples": counts["spectra.mean_value.samples"],
        "spectra.mean_value.f_s": agg["spectra.mean_value.f"][2],
        "spectra.fejer.s": _self(agg, "spectra.fejer"),
        "spectra.oracle_gap": maxes["spectra.oracle_gap"],
        "hermite.validate.calls": agg["hermite.validate"][0],
        "hermite.validate.s": _self(agg, "hermite.validate"),
        "hermite.validate.grid_points": counts["hermite.validate.grid_points"],
        "hermite.rejects": counts["hermite.rejects"],
        "hermite.root_scan.s": _self(agg, "hermite.root_scan"),
        "hermite.root_scan.grid_points": counts["hermite.root_scan.grid_points"],
        "hermite.root_scan.roots": counts["hermite.root_scan.roots"],
        "measures.pair_from_hb.s": _self(agg, "measures.pair_from_hb"),
        "measures.mu_atoms": counts["measures.mu_atoms"],
        "measures.a_atoms": counts["measures.a_atoms"],
        "measures.herglotz.s": _self(agg, "measures.herglotz"),
        "measures.antipodal_split.s": _self(agg, "measures.antipodal_split"),
        "dbspace.kernel_context.s": _self(agg, "dbspace.kernel_context"),
        "dbspace.kernel_context.roots": counts["dbspace.kernel_context.roots"],
        "dbspace.kernel_series.s": _self(agg, "dbspace.kernel_series"),
        "dbspace.kernel_closed.s": _self(agg, "dbspace.kernel_closed"),
        "dbspace.sampling.s": _self(agg, "dbspace.sampling"),
        "selfdual.measure.s": _self(agg, "selfdual.measure"),
        "selfdual.measure.atoms": counts["selfdual.measure.atoms"],
        "selfdual.fe_residual.s": _self(agg, "selfdual.fe_residual"),
        "verifier.check_pair.s": _self(agg, "verifier.check_pair"),
        "verifier.check_selfdual.s": _self(agg, "verifier.check_selfdual"),
        "verifier.checks": checks,
        "verifier.conclusive_ratio": counts["verifier.conclusive"] / checks if checks else 0.0,
        "verifier.bump_ft.calls": agg["verifier.bump_ft"][0],
        "verifier.bump_ft.s": _self(agg, "verifier.bump_ft"),
        "verifier.worst_residual_over_tol": maxes["verifier.worst_residual_over_tol"],
        "cli.import_s": maxes["cli.import_s"],
        "cli.self_s": busy["cli"],
        "cli.output_bytes": counts["cli.output_bytes"],
    }
    for c in CLI_COMMANDS:
        m[f"cli.{c}.s"] = agg["cli." + c][2]
    for mod in MODULES + ("bench",):
        m[f"{mod}.busy_s"] = busy[mod]
    return m
