"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a PASS/FAIL line (run with `pytest -s` to see them
all; failures show their line in the report).  Three criteria, as first
written, asked for something no correct program can do; their tests
assert what the method does promise instead, each of which a wrong
program still fails:

 *  criterion 8: sin(x) + 0.1 sin(sqrt2 x) is NOT real-rooted (Newton from
    the asymptotic prediction reaches a zero near 7.5845 + 5.5590i), so
    its lift E = Q' - iQ is not Hermite-Biehler.  The test asserts that the
    validator rejects it with a genuine witness (Im w > 0, |E*(w)| >= |E(w)|)
    and runs the stated irrational-frequency pipeline (cutoff 10, window
    +-40, 10-gaussian suite at 1e-5) on the provably real-rooted Lee-Yang
    input instead;
 *  criterion 9: on the line y = 1 the mean value of frequency lambda needs
    cancellation of terms of size pi e^{2 pi lambda}, beyond double
    precision for lambda >= 4.  The mean value does not depend on the
    height above y_valid (Cauchy), so the test keeps T = 1e4 and 1e-3 but
    passes the line 0.3 as `y`, for the Poisson input and for the Lee-Yang
    input;
 *  criterion 10: the sampling series truncated at R = 1e3 has a one-signed
    tail of about 2|B(-i)||B(z)|/(pi R), 1.7e-2 to 0.22 at the five points,
    so the stated 1e-4 would need R between 1.7e5 and 2.2e6.  The test
    asserts that the sampling series of K(i, .) is the atom expansion, that
    its error is the tail `kernel_series` reports and the analytic 1/R law
    predicts, and that R * error is constant in R.
"""

import math
import time
from fractions import Fraction as F

import numpy as np

from crystalsum.dbspace import kernel_closed, kernel_context, kernel_series, sampling_eval
from crystalsum.freqalg import FreqBasis, sine
from crystalsum.hermite import (
    HermiteBiehler,
    is_hermite_biehler,
    ks_from_Q,
    leeyang_real_form,
)
from crystalsum.measures import (
    herglotz_kernel_residual,
    herglotz_tail_bound,
    pair_from_hb,
)
from crystalsum.qmodular import (
    QQ,
    EtaProductSpec,
    eta_product,
    family_l,
    fplus,
    lambda_invariant,
)
from crystalsum.selfdual import functional_equation_residual, selfdual_measure
from crystalsum.spectra import exact_spectrum, fejer_reconstruct, mean_value_batch
from crystalsum.verifier import TestFunction, check_pair, check_selfdual, gaussian_suite
from probes import (fit_h, herglotz_eval, monomial, phase_derivative, progression_hits,
                    qcoefficient)

HALF = FreqBasis((0.5,))
UNIT = FreqBasis((1.0,))
GUINAND = EtaProductSpec(4, {1: F(2, 3), 2: F(-1, 3), 4: F(2, 3)})
POISSON = EtaProductSpec(4, {1: -2, 2: 5, 4: -2})

RESULTS = []


def record(n, ok, detail):
    line = f"criterion {n:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    return ok


def poisson_H():
    return ks_from_Q(sine(HALF, (1,)))


def leeyang_H():
    th = math.pi / 4
    U = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    basis = FreqBasis((1.0, math.sqrt(2)))
    return ks_from_Q(leeyang_real_form(U, [(1, 0), (0, 1)], basis))


def test_criterion_01_guinand_exact():
    t0 = time.monotonic()
    ser = eta_product(GUINAND, F(8))
    expect = [QQ(1), QQ(-2, 3), QQ(-4, 9), QQ(-40, 81), QQ(-160, 243),
              QQ(268, 729), QQ(1808, 6561)]
    ok = all(qcoefficient(ser, F(1, 9) + m) == c for m, c in enumerate(expect))
    dt = time.monotonic() - t0
    ok = ok and dt < 1.0
    assert record(1, ok, f"guinand c0..c6 exact, {dt:.3f}s")


def test_criterion_02_theta_exact():
    t0 = time.monotonic()
    ser = eta_product(POISSON, F(400))
    expect = {F(0): QQ(1)}
    m = 1
    while m * m < 400:
        expect[F(m * m)] = QQ(2)
        m += 1
    ok = ser.terms == expect
    dt = time.monotonic() - t0
    ok = ok and dt < 5.0
    assert record(2, ok, f"theta quotient exact below 400, {dt:.2f}s")


def test_criterion_03_lambda_invariant():
    lam = lambda_invariant(F(2))
    ok = (qcoefficient(lam, F(1, 2)) == QQ(16)
          and qcoefficient(lam, F(1)) == QQ(-128)
          and qcoefficient(lam, F(3, 2)) == QQ(704))
    assert record(3, ok, "lambda = 16q^(1/2) - 128q + 704q^(3/2) exact")


def test_criterion_04_family_laws():
    ok = True
    for l in (F(-2), F(2, 3), F(1), F(5)):
        _, plus, minus = family_l(l, F(5))
        a = plus.relative_coefficients(3)
        b = minus.relative_coefficients(3)
        lq = QQ(l.numerator, l.denominator)
        ok = ok and a[0] == 1 and a[1] == -lq
        ok = ok and a[2] == (lq - 1) * (lq + 2) / 2
        ok = ok and b[0] == 1 and b[1] == -(32 + lq)
        ok = ok and b[2] == (lq * lq + 65 * lq + 510) / 2
    _, plus_m2, _ = family_l(F(-2), F(60))
    ok = ok and plus_m2.entries == fplus(POISSON, F(60)).entries
    assert record(4, ok, "alpha/beta laws at l in {-2, 2/3, 1, 5}; "
                         "l = -2 reduces to the theta series")


def test_criterion_05_guinand_selfdual():
    t0 = time.monotonic()
    s = fplus(GUINAND, F(1000))
    m = selfdual_measure(s, (-40.0, 40.0))
    n_atoms = len(m)
    suite = [TestFunction("gaussian", z=1j * y) for y in (0.5, 1.0, 2.0)]
    reports = check_selfdual(m, suite, tol=1e-6)
    ok = n_atoms == 2000 and all(r.verdict == "pass" for r in reports)
    worst = max(r.residual for r in reports)
    s300 = fplus(GUINAND, F(300))
    fe = max(functional_equation_residual(s300, 1j * y, tail_cap=1e-8)
             for y in (0.8, 1.0, 1.3))
    ok = ok and fe <= 1e-8
    dt = time.monotonic() - t0
    ok = ok and dt < 30.0
    assert record(5, ok, f"2000 atoms, gaussian residual {worst:.2e} <= 1e-6, "
                         f"functional eq {fe:.2e} <= 1e-8, {dt:.1f}s")


def test_criterion_06_minus_family_antiselfdual():
    _, _, minus = family_l(F(1), F(800))
    m = selfdual_measure(minus, (-40.0, 40.0))
    suite = [TestFunction("gaussian", z=1j * y) for y in (0.5, 1.0, 2.0)]
    reports = check_selfdual(m, suite, tol=1e-6)
    ok = m.dual_sign == -1 and all(r.verdict == "pass" for r in reports)
    fe = functional_equation_residual(minus, 1j * math.sqrt(2), tail_cap=1e-8)
    ok = ok and fe <= 1e-6
    worst = max(r.residual for r in reports)
    assert record(6, ok, f"minus family l=1: sign -1, gaussian residual "
                         f"{worst:.2e} <= 1e-6")


def test_criterion_07_poisson_pipeline():
    H = poisson_H()
    cutoff, W = 16.0, 16.5
    pair = pair_from_hb(H, cutoff, (-W, W))
    ok = np.allclose(pair.mu.positions(), np.arange(-16, 17), atol=1e-10)
    ok = ok and np.allclose(pair.mu.weights().real, 2 * math.pi, rtol=1e-11)
    # independent oracle: pi(1+q)/(1-q) by explicit geometric convolution
    oracle = {}
    for n in range(int(cutoff) + 1):
        conv = 1 if n == 0 else 2  # [1,1] * [1,1,1,...] at index n
        oracle[float(n)] = math.pi * conv
    for lam, expect in oracle.items():
        got = pair.a.weight_at(lam)
        sym = pair.a.weight_at(-lam)
        ok = ok and abs(got - (2 * math.pi if lam == 0 else expect)) \
            <= 1e-11 * expect
        ok = ok and abs(sym - got.conjugate()) == 0.0
    reports = [check_pair(pair, tf, tol=1e-10)
               for tf in gaussian_suite(10, seed=20250809)]
    ok = ok and all(r.verdict == "pass" for r in reports)
    worst = max(r.residual for r in reports)
    assert record(7, ok, f"mu = 2pi comb, a = 2pi on Z, 10-gaussian suite "
                         f"worst residual {worst:.2e} <= 1e-10")


def _paper_irrational_Q():
    basis = FreqBasis((1 / (2 * math.pi), math.sqrt(2) / (2 * math.pi)))
    return sine(basis, (1, 0)) + 0.1 * sine(basis, (0, 1))


def _leeyang_pipeline_reports():
    """Criterion 8's pipeline (cutoff 10, window +-40, 10-gaussian suite at
    1e-5) on the Lee-Yang input, which is real-rooted by construction."""
    pair = pair_from_hb(leeyang_H(), 10.0, (-40.0, 40.0))
    return [check_pair(pair, tf, tol=1e-5)
            for tf in gaussian_suite(10, seed=20250809)]


def test_criterion_08_irrational_pipeline_faithful():
    """The stated input is rejected for the right reason; the pipeline runs
    on a real-rooted irrational-frequency input.

    Q = sin(x) + 0.1 sin(sqrt2 x) has a zero off the real axis, so E = Q' - iQ
    is not Hermite-Biehler and the validator must reject it.  Asserted:
    the rejection witness lies in the upper half-plane with |E*| >= |E| there,
    recomputed through E.star(); Newton from the asymptotic prediction
    reaches |Q| < 1e-10 at Im z > 1; and the stated pipeline passes on the
    Lee-Yang input, all within the 60 s budget.
    """
    t0 = time.monotonic()
    Q = _paper_irrational_Q()
    E = Q.derivative() - 1j * Q
    verdict = is_hermite_biehler(E)
    w = verdict.witness
    ok = not verdict.accepted and w is not None and w.imag > 0
    ratio = abs(complex(E.star().eval(w))) / abs(complex(E.eval(w))) if ok else 0.0
    ok = ok and ratio >= 1.0
    s2 = math.sqrt(2)
    z = complex(math.pi / (s2 - 1), math.log(10.0) / (s2 - 1))
    dQ = Q.derivative()
    for _ in range(50):
        z = z - complex(Q.eval(z)) / complex(dQ.eval(z))
    q_at_z = abs(complex(Q.eval(z)))
    ok = ok and q_at_z < 1e-10 and z.imag > 1.0
    reports = _leeyang_pipeline_reports()
    ok = ok and all(r.verdict == "pass" for r in reports)
    worst = max(r.residual for r in reports)
    dt = time.monotonic() - t0
    ok = ok and dt < 60.0
    where = (f"rejected at w = {w:.4g}" if w is not None
             else f"accepted = {verdict.accepted}, no witness")
    assert record(8, ok, f"stated Q {where} (|E*|/|E| = "
                         f"{ratio:.3g}); Q has a zero at {z:.6g} (|Q| = "
                         f"{q_at_z:.1e}); lee-yang pipeline worst {worst:.2e} "
                         f"<= 1e-5, {dt:.1f}s")


def _oracle_gaps(H, cutoff, y, panel_width):
    """|mean value - exact atom| for the ten lowest exact frequencies, at
    T = 1e4 on the line y; and spec.y_valid."""
    spec = exact_spectrum(H, cutoff)
    atoms = spec.sorted_atoms()[:10]
    f = lambda z: 1j * H.A.eval(z) / H.B.eval(z)
    got = mean_value_batch(f, [val for _, val, _ in atoms], y, 1e4,
                           panel_width=panel_width)
    return [abs(g - c) for (_, _, c), g in zip(atoms, got)], spec.y_valid


def test_criterion_09_oracle_equivalence_as_stated():
    """Mean value at y = 1, T = 1e4 equals the exact spectrum within 1e-3
    at the ten lowest frequencies, for the Poisson and Lee-Yang inputs.

    On the line y = 1 itself the integrand needs cancellation of terms of
    size pi e^{2 pi lambda}, beyond double precision from lambda = 4 on.
    The tapered mean value is independent of the height above the
    spectrum's y_valid, so it is integrated on the line 0.3, passed as the
    `y` argument; the test asserts that this line is at or above both
    y_valid.  Poisson's poles lie 0.3 below that line and need panels of
    width 1/16.
    """
    EVAL_Y = 0.3
    gaps_p, yv_p = _oracle_gaps(poisson_H(), 10.0, EVAL_Y, 1 / 16)
    gaps_l, yv_l = _oracle_gaps(leeyang_H(), 4.0, EVAL_Y, 0.25)
    ok = len(gaps_p) == 10 and len(gaps_l) == 10
    ok = ok and max(yv_p, yv_l) <= EVAL_Y
    ok = ok and all(d <= 1e-3 for d in gaps_p + gaps_l)
    assert record(9, ok, f"ten lowest frequencies within 1e-3 at y = 1 "
                         f"(line {EVAL_Y}): poisson worst {max(gaps_p):.2e}, "
                         f"lee-yang worst {max(gaps_l):.2e}")


def test_criterion_10_kernel_identities_as_stated():
    """Kernel closed-vs-series passes within the reported tail; the sampling
    series of K(i, .) at R = 1e3 is off by exactly its truncation tail.

    The stated 1e-4 at R = 1e3 is below that one-signed tail, about
    2|B(-i)||B(z)|/(pi R).  Asserted at R = 1e3 and 2e3: sampling_eval equals
    the atom expansion kernel_series (the same finite sum) within 1e-12
    relative; its error against the closed form lies between 0.9 and 1
    times the tail kernel_series reports and within 1% of the analytic
    tail; and R * error agrees within 1% between the two radii.  A wrong
    weight, node or B' fails each of these.
    """
    H = poisson_H()
    R = 1000.0
    ctx = kernel_context(H, R)
    ok_series = True
    for (w, z) in ((1j, 1 + 2j), (0.5 + 0.8j, -1 + 1.5j), (2j, 2j)):
        closed = kernel_closed(ctx, w, z)
        series, tail = kernel_series(ctx, w, z)
        res = abs(series - closed)
        ok_series = ok_series and res <= tail + 1e-6 * (1 + abs(closed))
        ok_series = ok_series and res <= 3 * tail
    pts = (0.3 + 0.7j, -1.2 + 0.5j, 0.1 + 1.1j, 2.4 + 0.9j, -3 + 1.3j)
    b_mi = abs(complex(H.B.eval(-1j)))
    ok_sampling = True
    scaled = {}
    for radius in (R, 2 * R):
        c = ctx if radius == R else kernel_context(H, radius)
        samples = {p.gamma: kernel_closed(c, 1j, p.gamma) for p in c.points}
        for z in pts:
            got = sampling_eval(c, samples, z)
            series, tail = kernel_series(c, 1j, z)
            err = abs(got - kernel_closed(c, 1j, z))
            analytic = 2 * b_mi * abs(complex(H.B.eval(z))) / (math.pi * radius)
            ok_sampling = ok_sampling and abs(got - series) <= 1e-12 * abs(series)
            ok_sampling = ok_sampling and 0.9 * tail <= err <= tail
            ok_sampling = ok_sampling and abs(err - analytic) <= 0.01 * analytic
            scaled[radius, z] = radius * err
    ok_sampling = ok_sampling and all(
        abs(scaled[2 * R, z] - scaled[R, z]) <= 0.01 * scaled[R, z] for z in pts)
    detail = (f"series-vs-closed within reported tail: {ok_series}; "
              f"sampling at R=1e3 is the atom sum with its 1/R tail: "
              f"{ok_sampling} (R*err "
              + ", ".join(f"{scaled[R, z]:.4g}" for z in pts) + ")")
    assert record(10, ok_series and ok_sampling, detail)


def test_criterion_11_herglotz_representation():
    rng = np.random.default_rng(11)
    ok = True
    pairs = []
    H1 = poisson_H()
    pairs.append((H1, pair_from_hb(H1, 30.0, (-800.5, 800.5))))
    H2 = HermiteBiehler.validate(monomial(UNIT, (-1,)))
    pairs.append((H2, pair_from_hb(H2, 30.0, (-800.25, 800.25))))
    H3 = leeyang_H()
    pairs.append((H3, pair_from_hb(H3, 8.0, (-500.0, 500.0))))
    worst_ratio = 0.0
    for H, pair in pairs:
        f = lambda z: 1j * H.A.eval(z) / H.B.eval(z)
        for _ in range(20):
            w = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
            z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
            res = herglotz_kernel_residual(pair.mu, f, w, z)
            tail = herglotz_tail_bound(pair.mu, w, z)
            ok = ok and res <= 3 * tail
            worst_ratio = max(worst_ratio, res / tail if tail > 0 else 0.0)
    # fejer-vs-herglotz round trip at 1e-4 (window tail ~2|z|/W)
    cutoff = 600.0
    pair = pair_from_hb(H1, cutoff, (-50000.5, 50000.5))
    spec = exact_spectrum(H1, cutoff)
    a0 = pair.a.weight_at(0.0).real
    h = fit_h(pair.mu, fejer_reconstruct(spec, a0, cutoff, 1j))
    rt = max(abs(fejer_reconstruct(spec, a0, cutoff, z)
                 - herglotz_eval(pair.mu, h, z))
             for z in (1j, 0.4 + 1j, -0.3 + 1.2j, 1.1j, 0.2 + 1.25j))
    ok = ok and rt <= 1e-4
    assert record(11, ok, f"kernel residual <= 3x tail at 20 random points "
                          f"x 3 pairs (worst ratio {worst_ratio:.2f}); "
                          f"round trip {rt:.2e} <= 1e-4")


def test_criterion_12_phase_positivity():
    rng = np.random.default_rng(12)
    ok = True
    for H, span in ((poisson_H(), 50.0), (leeyang_H(), 40.0)):
        xs = rng.uniform(-span, span, size=10_000)
        ok = ok and bool(np.all(phase_derivative(H, xs) > 0))
    assert record(12, ok, "phi' > 0 at 10^4 random points for each accepted E")


def test_criterion_13_progression_claim():
    t0 = time.monotonic()
    rng = np.random.default_rng(13)
    c = math.sqrt(2)
    worst = 0
    for _ in range(1000):
        start = float(rng.uniform(0, 5))
        step = float(rng.uniform(0.05, 3))
        worst = max(worst, progression_hits(c, (start, step), 10_000))
    ok = worst <= 2
    embedded = progression_hits(F(1, 9), (1 / 3, 3.0), 10_000)
    ok = ok and embedded >= 33
    dt = time.monotonic() - t0
    assert record(13, ok, f"sqrt2: max hits {worst} <= 2 over 10^3 "
                          f"progressions; 1/9 embeds {embedded} hits, {dt:.1f}s")


def test_supplement_irrational_pipeline_leeyang():
    """The irrational-frequency pipeline criterion 8 intended, on an input
    that is provably real-rooted: the Lee-Yang determinant with U a
    rotation by pi/4 and lengths (1, sqrt2)."""
    reports = _leeyang_pipeline_reports()
    worst = max(r.residual for r in reports)
    print(f"supplement: lee-yang pair 10-gaussian suite worst residual "
          f"{worst:.2e} at tol 1e-5")
    assert all(r.verdict == "pass" for r in reports)


def test_supplement_oracle_equivalence_safe_height():
    """Criterion 9's comparison on a line where double precision suffices
    (legitimate by y-independence), for both a lattice and an irrational
    input; meets 1e-3 with orders of magnitude to spare."""
    worst = 0.0
    for H, y, width in ((poisson_H(), 0.2, 1 / 32), (leeyang_H(), 1.0, 1 / 8)):
        spec = exact_spectrum(H, 10.0 if len(H.E.basis.base) == 1 else 2.0)
        atoms = spec.sorted_atoms()[:10]
        lams = [val for _, val, _ in atoms]
        f = lambda z: 1j * H.A.eval(z) / H.B.eval(z)
        got = mean_value_batch(f, lams, y, 10_000.0, panel_width=width)
        for (vec, val, c), g in zip(atoms, got):
            worst = max(worst, abs(g - c))
    print(f"supplement: oracle equivalence worst diff {worst:.2e} <= 1e-3")
    assert worst <= 1e-3


def test_zz_summary():
    print("\n================ acceptance summary ================")
    for line in RESULTS:
        print(line)
    print("====================================================")
    assert True
