"""The four benchmark workloads: inputs from a seed, jobs, and oracle gates.

A workload is built once per process (the set-up the benchmark times) and
then runs its jobs once per pass.  A job is a named callable taking the
pass state dict; it may leave results there for later jobs of the same
pass.  A job fails when it raises, and every gate below raises GateError
when the library's output disagrees with an independent expectation.

Library functions are always reached through their module (for example
`spectra.exact_spectrum`), never through names bound here, so the traced
run's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from crystalsum import (cli, dbspace, freqalg, hermite, measures, qmodular,
                        selfdual, spectra, verifier)

GUINAND = {1: Fraction(2, 3), 2: Fraction(-1, 3), 4: Fraction(2, 3)}
THETA = {1: -2, 2: 5, 4: -2}
# criterion 1: c0..c6 of the Guinand eta product
GUINAND_C0_6 = [Fraction(1), Fraction(-2, 3), Fraction(-4, 9), Fraction(-40, 81),
                Fraction(-160, 243), Fraction(268, 729), Fraction(1808, 6561)]
# criterion 3: leading coefficients of the lambda-invariant
LAMBDA_123 = [16, -128, 704]


class GateError(AssertionError):
    """A job's output disagrees with its oracle."""


def gate(ok, message):
    if not ok:
        raise GateError(message)


@dataclass
class Workload:
    """Jobs of one workload plus what the report says about its inputs.

    `jobs` run in order once per pass.  `inproc_jobs`, when set, is the
    in-process variant the traced run uses (the CLI workload's untraced
    jobs are child processes, which a tracer cannot see into).
    """

    name: str
    jobs: list
    seed_note: str
    warmup: bool = True
    inproc_jobs: list | None = None
    root: Path | None = None          # directory the CLI jobs write into


# -- shared inputs ------------------------------------------------------------

def poisson_Q():
    """Q = sin(pi z) over basis 1/2: mu is the 2 pi comb on Z."""
    return freqalg.sine(freqalg.FreqBasis((0.5,)), (1,))


def leeyang_Q():
    """Rank-2 irrational basis: Lee-Yang determinant, rotation pi/4, lengths (1, sqrt2)."""
    th = math.pi / 4
    U = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    basis = freqalg.FreqBasis((1.0, math.sqrt(2)))
    return hermite.leeyang_real_form(U, [(1, 0), (0, 1)], basis)


def criterion8_E():
    """E = Q' - iQ for Q = sin(x) + 0.1 sin(sqrt2 x), which is not real-rooted."""
    basis = freqalg.FreqBasis((1 / (2 * math.pi), math.sqrt(2) / (2 * math.pi)))
    Q = freqalg.sine(basis, (1, 0)) + 0.1 * freqalg.sine(basis, (0, 1))
    return Q.derivative() - 1j * Q


def ratio(H):
    """f = iA/B, the function whose spectrum and Poisson measure are built."""
    return lambda z: 1j * H.A.eval(z) / H.B.eval(z)


def upper_points(rng, n, re=(-2.0, 2.0), im=(0.5, 2.0)):
    return [complex(rng.uniform(*re), rng.uniform(*im)) for _ in range(n)]


# -- eta-exact ----------------------------------------------------------------

def eta_exact(seed, smoke=False):
    """Exact q-series: Guinand, the theta quotient and family_l(1), then self-duality.

    No input is random, so the seed is recorded but changes nothing.
    """
    g_order, t_order, l_order = (60, 100, 50) if smoke else (500, 800, 400)
    guinand = qmodular.EtaProductSpec(4, GUINAND)
    theta = qmodular.EtaProductSpec(4, THETA)
    suite = [verifier.TestFunction("gaussian", z=1j * y) for y in (0.5, 1.0, 2.0)]

    def job_guinand(st):
        s = qmodular.fplus(guinand, Fraction(g_order))
        got = s.relative_coefficients(7)
        gate(got == GUINAND_C0_6, f"Guinand c0..c6 = {got}")
        st["guinand"] = s

    def job_theta(st):
        s = qmodular.fplus(theta, Fraction(t_order))
        squares = [(m * m, 2) for m in range(1, math.isqrt(t_order - 1) + 1)]
        gate(s.entries == [(0, 1)] + squares,
             "theta quotient is not 1 at q^0 and 2 at each square")
        st["theta"] = s

    def job_family(st):
        _, plus, minus = qmodular.family_l(Fraction(1), Fraction(l_order))
        a = plus.relative_coefficients(4)
        b = minus.relative_coefficients(4)
        # minus = (1 - 2 lambda(2z)) * plus on the common lattice: peel the
        # lambda coefficients off the two exact outputs
        l1 = (a[1] - b[1]) / (2 * a[0])
        l2 = ((a[2] - b[2]) / 2 - l1 * a[1]) / a[0]
        l3 = ((a[3] - b[3]) / 2 - l1 * a[2] - l2 * a[1]) / a[0]
        gate([l1, l2, l3] == LAMBDA_123, f"lambda starts {[l1, l2, l3]}")
        # criterion 4 laws at l = 1
        gate(a[:3] == [1, -1, 0] and b[:3] == [1, -33, 288],
             f"family laws at l=1: alpha {a[:3]}, beta {b[:3]}")
        st["l1.plus"], st["l1.minus"] = plus, minus

    def selfdual_job(key, n_atoms=None):
        def job(st):
            s = st[key]
            m = selfdual.selfdual_measure(s, (-40.0, 40.0))
            if n_atoms is not None:
                gate(len(m) == n_atoms, f"{key}: {len(m)} atoms, expected {n_atoms}")
            gate(len(m) > 0, f"{key}: empty measure")
            reports = verifier.check_selfdual(m, suite, tol=1e-6)
            gate(all(r.verdict == "pass" for r in reports),
                 f"{key}: self-dual verdicts {[r.verdict for r in reports]}")
            fe = selfdual.functional_equation_residual(s, 0.8j, tail_cap=1e-8)
            gate(fe <= 1e-8, f"{key}: functional equation residual {fe:.3g}")
        return job

    jobs = [("guinand.fplus", job_guinand), ("theta.fplus", job_theta),
            ("family_l", job_family),
            ("guinand.selfdual", selfdual_job("guinand", 2 * g_order)),
            ("theta.selfdual", selfdual_job("theta")),
            ("l1.plus.selfdual", selfdual_job("l1.plus")),
            ("l1.minus.selfdual", selfdual_job("l1.minus"))]
    return Workload("eta-exact", jobs,
                    "eta-exact has no random input; the seed changes nothing")


# -- hb-spectrum --------------------------------------------------------------

def _fejer_gate(spec, f, points, label):
    """Fejer partial sums against f itself, within the a-priori taper error.

    With T = cutoff, |sum - f| <= sum_{0<lam<T} |a| (lam/T) e^{-2 pi lam y}
    plus the spectrum beyond the cutoff, negligible at these heights.
    """
    T = spec.meta["requested_cutoff"]
    a0 = 2 * spec.coefficient_at_zero().real
    vals = np.array([val for _, val, _ in spec.sorted_atoms()])
    mods = np.array([abs(c) for _, _, c in spec.sorted_atoms()])
    inside = (vals > 0) & (vals < T)
    for z in points:
        got = spectra.fejer_reconstruct(spec, a0, T, z)
        want = complex(f(z))
        bound = float(np.sum(mods[inside] * vals[inside] / T
                             * np.exp(-2 * math.pi * vals[inside] * z.imag)))
        err = abs(got - want)
        gate(err <= 1.01 * bound + 1e-12 * (1 + abs(want)),
             f"{label}: Fejer error {err:.3g} above its bound {bound:.3g} at {z}")


def hb_spectrum(seed, smoke=False):
    """Exact spectra (freqalg products) and tapered mean values (spectra).

    The seed draws the Fejer evaluation points.
    """
    p_cut, l_cut, T = (40.0, 12.0, 500.0) if smoke else (600.0, 60.0, 2500.0)
    Hp = hermite.ks_from_Q(poisson_Q())
    Hl = hermite.ks_from_Q(leeyang_Q())
    rng = np.random.default_rng(seed)
    fejer_pts = {"poisson": upper_points(rng, 5, (-1.0, 1.0), (0.5, 1.5)),
                 "leeyang": upper_points(rng, 5, (-1.0, 1.0), (0.5, 1.5))}

    def job_poisson_exact(st):
        spec = spectra.exact_spectrum(Hp, p_cut)
        atoms = spec.sorted_atoms()
        # i pi cot(pi z) = pi (1 + 2 sum_{n>=1} q^n): pi at 0, 2 pi on Z>0
        gate(len(atoms) == int(p_cut) + 1, f"poisson: {len(atoms)} atoms")
        for k, (_, val, c) in enumerate(atoms):
            want = math.pi if k == 0 else 2 * math.pi
            gate(val == k and abs(c - want) <= 1e-11 * want,
                 f"poisson spectrum at {val}: {c}")
        st["poisson"] = spec

    def job_leeyang_exact(st):
        spec = spectra.exact_spectrum(Hl, l_cut)
        atoms = spec.sorted_atoms()
        gate(atoms and atoms[0][1] == 0.0 and atoms[-1][1] <= l_cut + 1e-9,
             "leeyang spectrum is not supported on [0, cutoff]")
        gate(0.0 < spec.y_valid < math.inf, f"leeyang y_valid {spec.y_valid}")
        st["leeyang"] = spec

    def mean_value_job(key, H, y, width):
        def job(st):
            atoms = st[key].sorted_atoms()[:10]
            lams = [val for _, val, _ in atoms]
            got = spectra.mean_value_batch(ratio(H), lams, y, T, panel_width=width)
            gap = max(abs(g - c) for (_, _, c), g in zip(atoms, got))
            st.setdefault("oracle_gap", []).append(gap)
            gate(gap <= 1e-3, f"{key}: exact vs mean value differ by {gap:.3g}")
        return job

    def fejer_job(key, H):
        return lambda st: _fejer_gate(st[key], ratio(H), fejer_pts[key], key)

    # safe lines for the first 10 atoms: at y = 1 the Lee-Yang atoms up to
    # lambda ~ 3.8 carry e^{2 pi lambda y} ~ 1e10 amplification (criterion 9)
    jobs = [("poisson.exact", job_poisson_exact),
            ("leeyang.exact", job_leeyang_exact),
            ("poisson.mean_value", mean_value_job("poisson", Hp, 0.2, 1 / 32)),
            ("leeyang.mean_value", mean_value_job("leeyang", Hl, 0.3, 1 / 8)),
            ("poisson.fejer", fejer_job("poisson", Hp)),
            ("leeyang.fejer", fejer_job("leeyang", Hl))]
    return Workload("hb-spectrum", jobs, "the seed draws the Fejer points")


# -- hb-pair ------------------------------------------------------------------

def hb_pair(seed, smoke=False):
    """Pairs on wide windows: root scans, residue weights, checks, kernels.

    The seed draws the gaussian-suite seed and the Herglotz, kernel and
    sampling evaluation points.
    """
    p_win, l_win, R = (500.5, 100.0, 200.0) if smoke else (50000.5, 5000.0, 1e4)
    Qp, Ql, E8 = poisson_Q(), leeyang_Q(), criterion8_E()
    rng = np.random.default_rng(seed)
    suite = verifier.gaussian_suite(10, seed=int(rng.integers(2**31)))
    herglotz_pts = [(w, z) for w, z in zip(upper_points(rng, 20, im=(0.3, 2.5)),
                                           upper_points(rng, 20, im=(0.3, 2.5)))]
    kernel_pts = list(zip(upper_points(rng, 5), upper_points(rng, 5)))
    bump = verifier.TestFunction("bump", center=0.3, halfwidth=1.5)

    def ks_job(key, Q):
        def job(st):
            H = hermite.ks_from_Q(Q)
            cert = H.certificate
            gate(cert.margin_modulus > 0 and cert.margin_herglotz > 0,
                 f"{key}: certificate margins {cert}")
            st[key + ".H"] = H
        return job

    def job_reject(st):
        verdict = hermite.is_hermite_biehler(E8)
        gate(not verdict.accepted, "criterion-8 lift was accepted")

    def job_poisson_pair(st):
        pair = measures.pair_from_hb(st["poisson.H"], 16.0, (-p_win, p_win))
        n = int(p_win)
        x, w = pair.mu.positions(), pair.mu.weights()
        gate(x.size == 2 * n + 1, f"poisson: {x.size} roots, expected {2 * n + 1}")
        gate(np.max(np.abs(x - np.arange(-n, n + 1))) <= 1e-9,
             "poisson roots are not the integers")
        gate(np.max(np.abs(w - 2 * math.pi)) <= 1e-11 * 2 * math.pi,
             "poisson weights are not 2 pi")
        st["poisson.pair"] = pair

    def job_leeyang_pair(st):
        pair = measures.pair_from_hb(st["leeyang.H"], 10.0, (-l_win, l_win))
        # root density of B is its frequency span 1 + sqrt2
        expect = 2 * l_win * (1 + math.sqrt(2))
        gate(abs(len(pair.mu) - expect) <= 4, f"leeyang: {len(pair.mu)} roots")
        st["leeyang.pair"] = pair

    def check_job(key, tol):
        def job(st):
            reports = [verifier.check_pair(st[key + ".pair"], tf, tol) for tf in suite]
            gate(all(r.verdict == "pass" for r in reports),
                 f"{key}: verdicts {[r.verdict for r in reports]}")
        return job

    def job_bump(st):
        pair = measures.pair_from_hb(st["poisson.H"], 16.0, (-40.5, 40.5))
        r = verifier.check_pair(pair, bump, tol=5e-2)
        gate(r.verdict == "pass", f"bump check {r.verdict}, residual {r.residual:.3g}")

    def job_herglotz(st):
        for i, (w, z) in enumerate(herglotz_pts):
            key = "poisson" if i % 2 == 0 else "leeyang"
            mu = st[key + ".pair"].mu
            res = measures.herglotz_kernel_residual(mu, ratio(st[key + ".H"]), w, z)
            tail = measures.herglotz_tail_bound(mu, w, z)
            gate(res <= 3 * tail, f"{key}: Herglotz residual {res:.3g} > 3 x {tail:.3g}")

    def job_kernel(st):
        H = st["poisson.H"]
        ctx = dbspace.kernel_context(H, R)
        gate(len(ctx.points) >= 2 * R - 1, f"kernel: {len(ctx.points)} roots")
        g = ctx.gammas
        for w, z in kernel_pts:
            closed = dbspace.kernel_closed(ctx, w, z)
            series, tail = dbspace.kernel_series(ctx, w, z)
            res = abs(series - closed)
            gate(res <= 3 * tail, f"kernel series residual {res:.3g} vs tail {tail:.3g}")
            # samples of F = K(w, .) at the roots, from the closed AB-form
            wb = w.conjugate()
            F = (H.B.eval(g) * H.A.eval(wb) - H.B.eval(wb) * H.A.eval(g)) \
                / (math.pi * (g - wb))
            samples = dict(zip((p.gamma for p in ctx.points), F))
            got = dbspace.sampling_eval(ctx, samples, z)
            err = abs(got - closed)
            gate(err <= 3 * tail, f"sampling error {err:.3g} vs tail {tail:.3g}")

    def job_antipodal(st):
        pair = measures.pair_from_hb(st["poisson.H"], 300.0, (-300.5, 300.5))
        (mu1, a1), (mu2, a2) = measures.antipodal_split(pair.mu, pair.a)
        gate(len(a2) == 0 and len(mu2) == 0,
             "real-antipodal pair split off an imaginary part")
        gate(np.array_equal(a1.weights(), pair.a.weights())
             and np.array_equal(mu1.weights(), pair.mu.weights())
             and np.max(np.abs(a1.positions() - pair.a.positions())) <= 1e-9,
             "antipodal split does not reconstruct the pair")

    jobs = [("poisson.ks", ks_job("poisson", Qp)),
            ("leeyang.ks", ks_job("leeyang", Ql)),
            ("criterion8.reject", job_reject),
            ("poisson.pair", job_poisson_pair),
            ("leeyang.pair", job_leeyang_pair),
            ("poisson.check_pair", check_job("poisson", 1e-10)),
            ("leeyang.check_pair", check_job("leeyang", 1e-5)),
            ("poisson.bump", job_bump),
            ("herglotz", job_herglotz),
            ("kernel", job_kernel),
            ("antipodal_split", job_antipodal)]
    return Workload("hb-pair", jobs,
                    "the seed draws the gaussian suite and the evaluation points")


# -- cli-readme ---------------------------------------------------------------

README_Q = {"basis": [0.5], "denominator": 1,
            "terms": [{"k": [1], "c": [0.0, -0.5]}, {"k": [-1], "c": [0.0, 0.5]}]}
README_GUINAND = {"N": 4, "r": {"1": "2/3", "2": "-1/3", "4": "2/3"}}


def readme_commands(seed):
    """The seven README commands as (name, out dir, argv after the program)."""
    s = ["--seed", str(seed)]
    return [
        ("ks", "run", ["--out", "run", "--tol", "1e-9", *s, "ks", "q.json",
                       "--cutoff", "16", "--window", "-16.5", "16.5"]),
        ("eta", "run-eta", ["--out", "run-eta", *s, "eta", "--spec-json",
                            "guinand.json", "--order", "300"]),
        ("eta-minus", "run-minus", ["--out", "run-minus", *s, "eta", "--family-l",
                                    "1", "--order", "200", "--minus"]),
        ("spectrum", "run-spec", ["--out", "run-spec", *s, "spectrum", "run/pair.json",
                                  "--lambdas", "0", "1", "2", "3", "--y", "0.3",
                                  "--T", "2000"]),
        ("kernel", "run-ker", ["--out", "run-ker", *s, "kernel", "run/pair.json",
                               "--points", "0,1", "1,2", "--R", "200"]),
        ("selfdual", "run-sd", ["--out", "run-sd", *s, "selfdual",
                                "run-eta/measure.json", "--ys", "0.5", "1", "2"]),
        ("pair-check", "run-pc", ["--out", "run-pc", *s, "pair-check",
                                  "run/pair.json", "--count", "10"]),
    ]


def _content_gate(name, files):
    """First-pass checks of what each command wrote."""
    if name == "spectrum":
        rows = [ln.split(",") for ln in files["spectrum.csv"].decode().splitlines()
                if ln and ln[0].isdigit()]
        gate(len(rows) == 4 and all(float(r[-1]) <= 1e-3 for r in rows),
             "spectrum: exact vs mean value differ by more than 1e-3")
        return
    report = next(v for k, v in files.items() if k.endswith("report.json"))
    d = json.loads(report)
    flag = "all_within_tail" if name == "kernel" else "all_pass"
    gate(d.get(flag) is True, f"{name}: {flag} is not true")


def cli_readme(seed, workdir):
    """The README commands, one child process each, in a fresh directory per pass.

    The seed is passed as the CLI --seed (gaussian suites of ks and
    pair-check).  Output files must be byte-identical on every pass.  The
    sizes are the README's, in smoke runs too.
    """
    root = Path(workdir) / f"cli-{os.getpid()}"
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    commands = readme_commands(seed)
    reference = {}
    wl = Workload("cli-readme", [], "the seed is the CLI --seed", warmup=False)
    state = {"n": 0}

    def job_prepare(st):
        state["n"] += 1
        d = root / f"pass-{state['n']}"
        d.mkdir(parents=True, exist_ok=False)
        (d / "q.json").write_text(json.dumps(README_Q))
        (d / "guinand.json").write_text(json.dumps(README_GUINAND))
        st["dir"], st["bytes"] = d, 0

    def check_outputs(st, name, outdir, code, stderr=""):
        gate(code == 0, f"{name}: exit code {code} {stderr[-300:]}")
        out = st["dir"] / outdir
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        st["bytes"] += sum(len(b) for b in files.values())
        if name not in reference:
            _content_gate(name, files)
            reference[name] = files
        gate(files == reference[name], f"{name}: outputs differ from the first pass")

    def child_job(name, outdir, argv):
        def job(st):
            proc = subprocess.run([sys.executable, "-m", "crystalsum.cli", *argv],
                                  cwd=st["dir"], env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
            check_outputs(st, name, outdir, proc.returncode, proc.stderr)
        return job

    def inproc_job(name, outdir, argv):
        def job(st):
            cwd = os.getcwd()
            os.chdir(st["dir"])
            try:
                code = cli.main(argv)
            finally:
                os.chdir(cwd)
            check_outputs(st, name, outdir, code)
        return job

    wl.jobs = [("prepare", job_prepare)] + \
        [(n, child_job(n, o, a)) for n, o, a in commands]
    wl.inproc_jobs = [("prepare", job_prepare)] + \
        [(n, inproc_job(n, o, a)) for n, o, a in commands]
    wl.root = root
    return wl


IN_PROCESS = {"eta-exact": eta_exact, "hb-spectrum": hb_spectrum, "hb-pair": hb_pair}


def build(name, seed, smoke, workdir):
    """Inputs and jobs of one workload; `workdir` takes the CLI runs' files."""
    if name == "cli-readme":
        return cli_readme(seed, workdir)
    return IN_PROCESS[name](seed, smoke)
