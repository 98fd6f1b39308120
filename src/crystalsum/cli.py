"""Command-line surface: reproducible runs emitting JSON/CSV artifacts.

Commands: ks, eta, spectrum, kernel, selfdual, pair-check.  Each
`cmd_<command>(args, prov, tol)` checks its input, does its work and returns
`(files, ok)`: each output file's text by name, and whether its checks hold.
`main` does the rest once for all: it builds the provenance block (version,
command, config echo, seed) every file embeds, resolves the tolerance,
writes the files into `--out` and exits 0 on pass, 1 on a failed check (the
files written), 2 on invalid input or an unwritable `--out` (one `error:`
line).  Identical config and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

# no command needs a second BLAS thread; OpenBLAS reads this once, as numpy loads
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .freqalg import ExpSum
from .hermite import HermiteBiehler, RootFindingError, ks_from_Q, scan_step
from .dbspace import kernel_closed, kernel_closed_eform, kernel_context, kernel_series
from .measures import DiscreteMeasure, FSPair, pair_from_hb
from .qmodular import EtaProductSpec, family_spec, fminus, fplus, to_fraction
from .selfdual import functional_equation_residual, selfdual_measure
from .spectra import MAX_SPECTRUM_ATOMS, AtomBoundError, exact_spectrum, mean_value_batch
from .verifier import TestFunction, check_pair, check_selfdual, gaussian_suite


class InputError(Exception):
    """Bad input or failed validation: exit code 2."""


# work bounds, checked before any grid or test function exists: far above the
# README's --count 10 and the widest scan window tested (+-50000.5 at span 1,
# 800009 grid points), and far below runs of minutes
MAX_COUNT = 10 ** 4
MAX_SCAN_GRID_POINTS = 4 * 10 ** 6
# heights Im z of the gaussians eta checks its measure with, and selfdual's default --ys
SUITE_HEIGHTS = (0.5, 1.0, 2.0)
# heights y of eta's functional-equation residuals at z = iy; not 1: z = i is fixed
# by z -> -1/z, so there a plus-family residual is 0 whatever the coefficients
FE_HEIGHTS = (1.25, 1.5)


def _provenance(args):
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("out", "func", "command")}
    return {"tool": "crystalsum", "version": __version__,
            "command": args.command, "seed": args.seed, "config": cfg}


def _dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _checks(prov, reports, key="reports", **extra):
    """The text of a report file listing `reports` under `key`, and whether
    every one of them passed."""
    ok = all(r.verdict == "pass" for r in reports)
    return _dump_json({"provenance": prov, key: [r.to_json_dict() for r in reports],
                       "all_pass": ok, **extra}), ok


def _csv_text(provenance, header, rows):
    lines = ["# provenance: " + json.dumps(provenance, sort_keys=True), ",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _load_json(path):
    try:
        d = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read JSON from {path}: {e}") from None
    if not isinstance(d, dict):
        raise InputError(f"{path} holds a JSON {type(d).__name__}, not an object")
    return d


def _read(reader, d, what):
    """reader(d); a key, index or type that d lacks makes the input invalid.
    The readers' ValueErrors name what is wrong, and main reports them."""
    try:
        return reader(d)
    except (LookupError, TypeError, AttributeError) as e:
        raise InputError(f"malformed {what} JSON: {e!r}") from None


def _load_hb(d) -> HermiteBiehler:
    meta = d.get("meta")
    h = d if "E" in d else meta.get("H") if isinstance(meta, dict) else None
    if h is None:
        raise InputError("input carries no Hermite-Biehler data "
                         "(expected an H JSON or a pair JSON with meta.H)")
    return _read(HermiteBiehler.from_json_dict, h, "Hermite-Biehler")


def _check_scan(option, B, x0, x1):
    """Refuse a root scan of B on [x0, x1] with more first-grid points than
    MAX_SCAN_GRID_POINTS; the library's own scan rejects a nonfinite window."""
    points = (x1 - x0) / scan_step(B) + 1
    if math.isfinite(points) and points > MAX_SCAN_GRID_POINTS:
        raise InputError(f"{option} needs {points:.3g} root-scan grid points, more "
                         f"than the {MAX_SCAN_GRID_POINTS:,} allowed")


# -- commands -----------------------------------------------------------------

def cmd_ks(args, prov, tol):
    H = ks_from_Q(_read(ExpSum.from_json_dict, _load_json(args.q_json), "Q"))
    window = tuple(args.window)
    _check_scan("--window", H.B, *window)
    pair = pair_from_hb(H, args.cutoff, window)
    pair.meta["H"] = H.to_json_dict()
    report, ok = _checks(prov, [check_pair(pair, tf, tol) for tf in
                                gaussian_suite(args.count, seed=args.seed)])
    return {"pair.json": _dump_json({**pair.to_json_dict(), "provenance": prov}),
            "report.json": report}, ok


def cmd_eta(args, prov, tol):
    order = to_fraction(args.order)
    if args.family_l is not None:
        spec = family_spec(args.family_l)
    elif args.spec_json is not None:
        spec = _read(EtaProductSpec.from_json_dict, _load_json(args.spec_json),
                     "eta-product spec")
    else:
        raise InputError("eta needs --spec-json or --family-l")
    # past a negative order the coefficients, and so the weights, grow like
    # e^{c sqrt n}: the measure is not tempered and has no Fourier transform
    for c, o in spec.cusp_orders().items():
        if o < 0:
            raise InputError(f"the eta product has order {o} < 0 at the cusp 1/{c}, "
                             "so its measure is not tempered")
    # the requested series only: the plus one, or with --minus the minus one
    series = (fminus if args.minus else fplus)(spec, order)
    rows = [(j, c.numerator, c.denominator)
            for j, c in enumerate(series.relative_coefficients())]
    # the exact coefficients are results, not input: Python's digit limit on
    # int -> str (3.10.7 on) is lifted while they are written, and only then
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        csv_text = _csv_text(prov, ("n", "numerator", "denominator"), rows)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    m = selfdual_measure(series, tuple(args.window))
    suite = [TestFunction("gaussian", z=1j * y) for y in SUITE_HEIGHTS]
    fe = {}
    for y in FE_HEIGHTS:
        try:
            fe[str(y)] = functional_equation_residual(series, 1j * y, tail_cap=tol)
        except ValueError as e:
            fe[str(y)] = f"inconclusive: {e}"
    report, ok = _checks(prov, check_selfdual(m, suite, tol), "gaussian_reports",
                         spec=spec.to_json_dict(), sign=series.sign,
                         functional_equation_residuals=fe)
    return {"series.csv": csv_text,
            "measure.json": _dump_json({**m.to_json_dict(), "provenance": prov}),
            "selfdual_report.json": report}, ok


def cmd_spectrum(args, prov, tol):
    for name, v in (("--T", args.T), ("--y", args.y)):
        if not (math.isfinite(v) and v > 0):
            raise InputError(f"{name} must be finite and positive, got {v}")
    H = _load_hb(_load_json(args.input))
    if not all(map(math.isfinite, args.lambdas)):
        raise InputError(f"--lambdas must all be finite, got {args.lambdas}")
    # each atom of the triangular recurrence depends only on lower ones, so
    # the atoms up to the largest lambda are all a row reads; the spectrum is
    # nonnegative, so a negative lambda needs none
    top = max([*args.lambdas, 0.0])
    try:
        spec = exact_spectrum(H, top + 1.0)
    except AtomBoundError:
        raise InputError(f"--lambdas {top:g} needs more than the {MAX_SPECTRUM_ATOMS} "
                         "spectrum atoms allowed") from None
    exact = DiscreteMeasure(*spec.sorted_arrays(),
                            (-1e-9, spec.meta["requested_cutoff"] + 1e-9))
    def f(z):  # iA/B in A's array: no chunk-size temporary beyond B's
        v = H.A.eval(z)
        v /= H.B.eval(z)
        v *= 1j
        return v
    numeric = mean_value_batch(f, args.lambdas, args.y, args.T)
    rows = [(float(lam), ev.real, ev.imag, nv.real, nv.imag, abs(ev - nv)) for lam, ev, nv
            in zip(args.lambdas, map(exact.weight_at, args.lambdas), numeric)]
    header = ("lambda", "exact_re", "exact_im", "numeric_re", "numeric_im", "absdiff")
    return {"spectrum.csv": _csv_text(prov, header, rows)}, True


def _parse_points(raw):
    pts = []
    for s in raw:
        try:
            re_, im_ = s.split(",")
            p = complex(float(re_), float(im_))
            if not (math.isfinite(p.real) and math.isfinite(p.imag)):
                raise ValueError
        except ValueError:
            raise InputError(f"cannot parse point '{s}' (expected finite re,im)") \
                from None
        pts.append(p)
    return pts


def cmd_kernel(args, prov, tol):
    H = _load_hb(_load_json(args.input))
    points = _parse_points(args.points)
    # each (w, z) entry costs about 0.4 ms: at most MAX_COUNT entries
    if len(points) > math.isqrt(MAX_COUNT):
        raise InputError(f"--points takes at most {math.isqrt(MAX_COUNT)} points "
                         f"({MAX_COUNT} kernel entries), got {len(points)}")
    for p in points:
        if p.imag <= 0:
            raise InputError(f"point {p} lies on or below the real axis")
        # kernel_series' truncation tail 2/(R - |Re p|) needs the point inside
        if abs(p.real) >= args.R:
            raise InputError(f"point {p} lies at or beyond the window radius --R {args.R:g}")
    _check_scan("--R", H.B, -args.R, args.R)
    ctx = kernel_context(H, args.R)
    entries, ok = [], True
    for w in points:
        for z in points:
            closed = kernel_closed(ctx, w, z)
            eform = kernel_closed_eform(ctx, w, z)
            series, tail = kernel_series(ctx, w, z)
            res = abs(series - closed)
            within = res <= 3 * tail + tol * (1 + abs(closed))
            ok = ok and within and \
                abs(eform - closed) <= 1e-10 * (1 + abs(closed))
            entries.append({"w": [w.real, w.imag], "z": [z.real, z.imag],
                            "closed": [closed.real, closed.imag],
                            "eform_diff": abs(eform - closed), "series_residual": res,
                            "tail_estimate": tail, "within_tail": within})
    report = {"provenance": prov, "R": args.R, "n_roots": len(ctx.gammas),
              "entries": entries, "all_within_tail": ok}
    return {"kernel_report.json": _dump_json(report)}, ok


def cmd_selfdual(args, prov, tol):
    m = _read(DiscreteMeasure.from_json_dict, _load_json(args.input), "measure")
    if m.dual_sign is None:
        raise InputError("measure JSON carries no dual_sign tag")
    suite = [TestFunction("gaussian", z=1j * y) for y in args.ys]
    report, ok = _checks(prov, check_selfdual(m, suite, tol))
    return {"selfdual_report.json": report}, ok


def cmd_pair_check(args, prov, tol):
    pair = _read(FSPair.from_json_dict, _load_json(args.input), "pair")
    report, ok = _checks(prov, [check_pair(pair, tf, tol) for tf in
                                gaussian_suite(args.count, seed=args.seed)])
    return {"pair_check_report.json": report}, ok


# -- parser -------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="crystalsum",
        description="Fourier summation pairs: construction and verification")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0,
                   help="gaussian-suite seed of ks and pair-check: a nonnegative "
                        "integer, seeding Python's random.Random")
    p.add_argument("--tol", type=float, default=None,
                   help="verification tolerance (default 1e-6)")
    sub = p.add_subparsers(dest="command", required=True)

    ks = sub.add_parser("ks", help="pair from a real-rooted Q (E = Q' - iQ)")
    ks.add_argument("q_json", help="ExpSum JSON file for Q")
    ks.add_argument("--cutoff", type=float, default=12.0)
    ks.add_argument("--window", nargs=2, type=float, default=(-12.5, 12.5))
    ks.add_argument("--count", type=int, default=10,
                    help="gaussians in the verification suite")
    ks.set_defaults(func=cmd_ks)

    eta = sub.add_parser("eta", help="eta-product self-dual series and measure")
    eta.add_argument("--spec-json", help="JSON file with {N, r: {d: 'p/q'}}")
    eta.add_argument("--family-l", help="exact rational parameter l >= -2")
    eta.add_argument("--order", default="60", help="series order p/q")
    eta.add_argument("--window", nargs=2, type=float, default=(-40.0, 40.0))
    eta.add_argument("--minus", action="store_true",
                     help="emit the anti-self-dual (minus) series")
    eta.set_defaults(func=cmd_eta)

    spec = sub.add_parser("spectrum", help="exact vs mean-value coefficients")
    spec.add_argument("input", help="H JSON or pair JSON (with meta.H)")
    spec.add_argument("--lambdas", nargs="*", type=float, default=[])
    spec.add_argument("--y", type=float, default=1.0)
    spec.add_argument("--T", type=float, default=10_000.0)
    spec.set_defaults(func=cmd_spectrum)

    ker = sub.add_parser("kernel", help="reproducing-kernel identity checks")
    ker.add_argument("input", help="H JSON or pair JSON (with meta.H)")
    ker.add_argument("--points", nargs="+", default=["0,1", "1,2"],
                     help="evaluation points 're,im'")
    ker.add_argument("--R", type=float, default=100.0)
    ker.set_defaults(func=cmd_kernel)

    sd = sub.add_parser("selfdual", help="gaussian self-duality checks")
    sd.add_argument("input", help="measure JSON with dual_sign")
    sd.add_argument("--ys", nargs="+", type=float, default=list(SUITE_HEIGHTS))
    sd.set_defaults(func=cmd_selfdual)

    pc = sub.add_parser("pair-check", help="summation identity on a pair JSON")
    pc.add_argument("input", help="pair JSON")
    pc.add_argument("--count", type=int, default=10)
    pc.set_defaults(func=cmd_pair_check)
    # no option starts with '-' and a digit or '.', so -1e3 and -0.5,1 are values;
    # a usage error is one `error:` line and exit 2, as any invalid input
    for q in (p, *sub.choices.values()):
        q._negative_number_matcher = re.compile(r"^-\.?\d")
        q.error = lambda message, q=q: q.exit(2, f"error: {message}\n")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
            raise InputError(f"--tol must be finite and positive, got {args.tol}")
        if args.seed < 0:
            raise InputError(f"--seed must be a nonnegative integer, got {args.seed}")
        # an empty suite would pass vacuously
        if not 1 <= getattr(args, "count", 1) <= MAX_COUNT:
            raise InputError(f"--count must be between 1 and {MAX_COUNT}, got {args.count}")
        files, ok = args.func(args, _provenance(args),
                              1e-6 if args.tol is None else args.tol)
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                (Path(args.out) / name).write_text(text)
        except OSError as e:
            raise InputError(f"cannot write to --out {args.out}: {e}") from None
    # the library's domain errors (SpectrumError and HermiteBiehlerError are
    # ValueErrors, EvalRangeError an OverflowError) mean invalid input, not a failed check
    except (InputError, RootFindingError, OverflowError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
