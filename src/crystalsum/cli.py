"""Command-line surface: reproducible runs emitting JSON/CSV artifacts.

Commands: ks, eta, spectrum, kernel, selfdual, pair-check.  Every output
file embeds a provenance block (version, command, config echo, seed);
identical config and seed produce byte-identical output.  Exit codes:
0 pass, 1 verification failure, 2 input/validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from . import __version__
from .freqalg import ExpSum
from .hermite import HermiteBiehler, RootFindingError, ks_from_Q
from .dbspace import kernel_closed, kernel_closed_eform, kernel_context, kernel_series
from .measures import DiscreteMeasure, FSPair, pair_from_hb
from .qmodular import EtaProductSpec, family_spec, fminus, fplus, to_fraction
from .selfdual import functional_equation_residual, selfdual_measure
from .spectra import exact_spectrum, mean_value_batch
from .verifier import TestFunction, check_pair, check_selfdual, gaussian_suite


class InputError(Exception):
    """Bad input or failed validation: exit code 2."""


def _provenance(command, config, seed):
    cfg = {k: v for k, v in sorted(config.items())
           if k not in ("out", "func", "command")}
    return {"tool": "crystalsum", "version": __version__,
            "command": command, "seed": seed, "config": cfg}


def _dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_outputs(outdir, files):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (outdir / name).write_text(text)


def _csv_text(provenance, header, rows):
    lines = ["# provenance: " + json.dumps(provenance, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read JSON from {path}: {e}") from None


def _load_hb(d) -> HermiteBiehler:
    if "E" in d:
        return HermiteBiehler.from_json_dict(d)
    meta = d.get("meta", {})
    if "H" in meta:
        return HermiteBiehler.from_json_dict(meta["H"])
    raise InputError("input carries no Hermite-Biehler data "
                     "(expected an H JSON or a pair JSON with meta.H)")


def _worst_exit(reports):
    verdicts = {r.verdict for r in reports}
    return 0 if verdicts <= {"pass"} else 1


# -- commands -----------------------------------------------------------------

def cmd_ks(args):
    qd = _load_json(args.q_json)
    try:
        Q = ExpSum.from_json_dict(qd)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed Q JSON: {e}") from None
    H = ks_from_Q(Q)
    window = tuple(args.window)
    pair = pair_from_hb(H, args.cutoff, window)
    pair.meta["H"] = H.to_json_dict()
    suite = gaussian_suite(args.count, seed=args.seed)
    tol = args.tol if args.tol is not None else 1e-6
    reports = [check_pair(pair, tf, tol) for tf in suite]
    prov = _provenance("ks", vars(args), args.seed)
    pair_json = pair.to_json_dict()
    pair_json["provenance"] = prov
    report = {"provenance": prov,
              "reports": [r.to_json_dict() for r in reports],
              "all_pass": all(r.verdict == "pass" for r in reports)}
    _write_outputs(args.out, {"pair.json": _dump_json(pair_json),
                              "report.json": _dump_json(report)})
    return _worst_exit(reports)


def _load_eta_spec(path) -> EtaProductSpec:
    d = _load_json(path)
    try:
        N, r = d["N"], d["r"]
        if not isinstance(r, dict):
            raise TypeError(f"r must be a JSON object, got {type(r).__name__}")
        if isinstance(N, float) and not N.is_integer():
            raise ValueError(f"N must be a finite integer, got {N}")
        return EtaProductSpec(int(N), {int(k): to_fraction(v) for k, v in r.items()})
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"invalid eta-product spec: {e}") from None


def _eta_series(args):
    """The requested series only: the plus one, or with --minus the minus one."""
    order = to_fraction(args.order)
    if args.family_l is not None:
        spec = family_spec(args.family_l)
    elif args.spec_json is not None:
        spec = _load_eta_spec(args.spec_json)
    else:
        raise InputError("eta needs --spec-json or --family-l")
    return spec, (fminus if args.minus else fplus)(spec, order)


def cmd_eta(args):
    spec, series = _eta_series(args)
    prov = _provenance("eta", vars(args), args.seed)
    rel = series.relative_coefficients()
    rows = [(j, c.numerator, c.denominator) for j, c in enumerate(rel)]
    csv_text = _csv_text(prov, ("n", "numerator", "denominator"), rows)
    window = tuple(args.window)
    m = selfdual_measure(series, window)
    mjson = m.to_json_dict()
    mjson["provenance"] = prov
    suite = [TestFunction("gaussian", z=1j * y) for y in (0.5, 1.0, 2.0)]
    tol = args.tol if args.tol is not None else 1e-6
    reports = check_selfdual(m, suite, tol)
    fe = {}
    for y in (1.0, 1.25):
        try:
            fe[str(y)] = functional_equation_residual(series, 1j * y,
                                                      tail_cap=tol)
        except ValueError as e:
            fe[str(y)] = f"inconclusive: {e}"
    report = {"provenance": prov,
              "spec": spec.to_json_dict(),
              "sign": series.sign,
              "functional_equation_residuals": fe,
              "gaussian_reports": [r.to_json_dict() for r in reports],
              "all_pass": all(r.verdict == "pass" for r in reports)}
    _write_outputs(args.out, {"series.csv": csv_text,
                              "measure.json": _dump_json(mjson),
                              "selfdual_report.json": _dump_json(report)})
    return _worst_exit(reports)


def cmd_spectrum(args):
    for name, v in (("--T", args.T), ("--y", args.y)):
        if not (math.isfinite(v) and v > 0):
            raise InputError(f"{name} must be finite and positive, got {v}")
    d = _load_json(args.input)
    H = _load_hb(d)
    # the spectrum is nonnegative, so a negative lambda needs no atoms
    cutoff = args.cutoff if args.cutoff is not None else max([*args.lambdas, 0.0]) + 1.0
    spec = exact_spectrum(H, cutoff)
    exact = DiscreteMeasure([(val, c) for _, val, c in spec.sorted_atoms()],
                            (-1e-9, spec.meta["requested_cutoff"] + 1e-9))
    f = lambda z: 1j * H.A.eval(z) / H.B.eval(z)
    numeric = mean_value_batch(f, args.lambdas, args.y, args.T) \
        if args.lambdas else []
    rows = []
    for lam, nv in zip(args.lambdas, numeric):
        ev = exact.weight_at(lam)
        rows.append((float(lam), ev.real, ev.imag, nv.real, nv.imag,
                     abs(ev - nv)))
    prov = _provenance("spectrum", vars(args), args.seed)
    text = _csv_text(prov, ("lambda", "exact_re", "exact_im",
                            "numeric_re", "numeric_im", "absdiff"), rows)
    _write_outputs(args.out, {"spectrum.csv": text})
    return 0


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


def cmd_kernel(args):
    d = _load_json(args.input)
    H = _load_hb(d)
    points = _parse_points(args.points) or [1j, 1 + 2j]
    for p in points:
        if p.imag <= 0:
            raise InputError(f"point {p} lies on or below the real axis")
    ctx = kernel_context(H, args.R)
    entries = []
    ok = True
    for w in points:
        for z in points:
            closed = kernel_closed(ctx, w, z)
            eform = kernel_closed_eform(ctx, w, z)
            series, tail = kernel_series(ctx, w, z)
            res = abs(series - closed)
            within = res <= 3 * tail + 1e-6 * (1 + abs(closed))
            ok = ok and within and \
                abs(eform - closed) <= 1e-10 * (1 + abs(closed))
            entries.append({"w": [w.real, w.imag], "z": [z.real, z.imag],
                            "closed": [closed.real, closed.imag],
                            "eform_diff": abs(eform - closed),
                            "series_residual": res,
                            "tail_estimate": tail,
                            "within_tail": within})
    prov = _provenance("kernel", vars(args), args.seed)
    report = {"provenance": prov, "R": args.R, "n_roots": len(ctx.points),
              "entries": entries, "all_within_tail": ok}
    _write_outputs(args.out, {"kernel_report.json": _dump_json(report)})
    return 0 if ok else 1


def cmd_selfdual(args):
    d = _load_json(args.input)
    try:
        m = DiscreteMeasure.from_json_dict(d)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed measure JSON: {e}") from None
    if m.dual_sign is None:
        raise InputError("measure JSON carries no dual_sign tag")
    tol = args.tol if args.tol is not None else 1e-6
    suite = [TestFunction("gaussian", z=1j * y) for y in args.ys]
    reports = check_selfdual(m, suite, tol)
    prov = _provenance("selfdual", vars(args), args.seed)
    out = {"provenance": prov,
           "reports": [r.to_json_dict() for r in reports],
           "all_pass": all(r.verdict == "pass" for r in reports)}
    _write_outputs(args.out, {"selfdual_report.json": _dump_json(out)})
    return _worst_exit(reports)


def cmd_pair_check(args):
    d = _load_json(args.input)
    try:
        pair = FSPair.from_json_dict(d)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed pair JSON: {e}") from None
    tol = args.tol if args.tol is not None else 1e-6
    suite = gaussian_suite(args.count, seed=args.seed)
    reports = [check_pair(pair, tf, tol) for tf in suite]
    prov = _provenance("pair-check", vars(args), args.seed)
    out = {"provenance": prov,
           "reports": [r.to_json_dict() for r in reports],
           "all_pass": all(r.verdict == "pass" for r in reports)}
    _write_outputs(args.out, {"pair_check_report.json": _dump_json(out)})
    return _worst_exit(reports)


# -- parser -------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="crystalsum",
        description="Fourier summation pairs: construction and verification")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0, help="suite RNG seed")
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
    spec.add_argument("--cutoff", type=float, default=None)
    spec.set_defaults(func=cmd_spectrum)

    ker = sub.add_parser("kernel", help="reproducing-kernel identity checks")
    ker.add_argument("input", help="H JSON or pair JSON (with meta.H)")
    ker.add_argument("--points", nargs="*", default=["0,1", "1,2"],
                     help="evaluation points 're,im'")
    ker.add_argument("--R", type=float, default=100.0)
    ker.set_defaults(func=cmd_kernel)

    sd = sub.add_parser("selfdual", help="gaussian self-duality checks")
    sd.add_argument("input", help="measure JSON with dual_sign")
    sd.add_argument("--ys", nargs="*", type=float, default=[0.5, 1.0, 2.0])
    sd.set_defaults(func=cmd_selfdual)

    pc = sub.add_parser("pair-check", help="summation identity on a pair JSON")
    pc.add_argument("input", help="pair JSON")
    pc.add_argument("--count", type=int, default=10)
    pc.set_defaults(func=cmd_pair_check)
    # no option starts with '-' and a digit or '.', so -1e3 and -0.5,1 are values
    for q in (p, *sub.choices.values()):
        q._negative_number_matcher = re.compile(r"^-\.?\d")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
            raise InputError(f"--tol must be finite and positive, got {args.tol}")
        # an empty suite would pass vacuously
        if getattr(args, "count", 1) < 1:
            raise InputError(f"--count must be at least 1, got {args.count}")
        if getattr(args, "ys", None) == []:
            raise InputError("--ys needs at least one height")
        return args.func(args)
    # domain errors from the library (SpectrumError and HermiteBiehlerError
    # are ValueErrors, EvalRangeError an OverflowError) mean the input was
    # invalid, not that a check failed
    except (InputError, RootFindingError, OverflowError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
