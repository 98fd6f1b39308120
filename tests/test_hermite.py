import cmath
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from crystalsum.freqalg import EvalRangeError, ExpSum, FreqBasis, Grid, sine
from crystalsum.hermite import (
    GridSpec,
    HermiteBiehler,
    HermiteBiehlerError,
    RootFindingError,
    default_grid,
    is_hermite_biehler,
    ks_from_Q,
    leeyang_real_form,
    real_root_scan,
    scan_step,
    split_AB,
)
from probes import cosine, leeyang_Q, monomial, phase_derivative, poisson_H

HALF = FreqBasis((0.5,))
UNIT = FreqBasis((1.0,))
# basis for sums in sin(x), sin(sqrt2 x): frequencies 1/(2pi), sqrt2/(2pi)
RAW = FreqBasis((1 / (2 * math.pi), math.sqrt(2) / (2 * math.pi)))


def test_split_AB_plane_wave():
    E = monomial(UNIT, (-1,))  # e^{-2 pi i z}
    A, B = split_AB(E)
    assert A.terms == cosine(UNIT, (1,)).terms
    assert B.terms == sine(UNIT, (1,)).terms


def test_split_AB_poisson():
    Q = sine(HALF, (1,))
    E = Q.derivative() - 1j * Q
    A, B = split_AB(E)
    assert B.terms == Q.terms                      # B = Q exactly
    for v, c in (math.pi * cosine(HALF, (1,))).terms.items():
        assert A.terms[v] == pytest.approx(c, rel=1e-15)
    assert A.is_star_fixed(tol=0.0) and B.is_star_fixed(tol=0.0)


def test_split_AB_star_fixed_input():
    Q = sine(HALF, (1,)) + 2.0 * cosine(HALF, (2,))
    A, B = split_AB(Q)
    assert A.terms == Q.terms
    assert not B


def test_accepts_decaying_plane_wave():
    v = is_hermite_biehler(monomial(UNIT, (-1,)))
    assert v.accepted
    assert v.certificate.margin_modulus > 0
    assert v.certificate.margin_herglotz > 0


def test_rejects_the_empty_sum():
    v = is_hermite_biehler(ExpSum(UNIT))
    assert not v.accepted and v.reason == "empty sum" and v.witness is None
    with pytest.raises(HermiteBiehlerError, match="empty sum$"):
        HermiteBiehler.validate(ExpSum(UNIT))


def test_rejects_growing_plane_wave():
    v = is_hermite_biehler(monomial(UNIT, (1,)))
    assert not v.accepted
    assert v.witness is not None and v.witness.imag > 0


def test_accepts_poisson_E():
    H = poisson_H()
    assert H.certificate.margin_modulus > 0
    assert H.B.terms == sine(HALF, (1,)).terms


def test_rejects_rootless_Q():
    Q = sine(HALF, (1,)) + 2.0  # 2 + sin(pi z), no real roots
    with pytest.raises(HermiteBiehlerError):
        ks_from_Q(Q)


def test_rejects_non_real_rooted_irrational_Q():
    # sin(x) + 0.1 sin(sqrt2 x) has complex zeros near height
    # ln(10)/(sqrt2 - 1) ~ 5.56; the sampled check sees the leakage at y <= 5
    Q = sine(RAW, (1, 0)) + 0.1 * sine(RAW, (0, 1))
    verdict = is_hermite_biehler(Q.derivative() - 1j * Q)
    assert not verdict.accepted
    assert verdict.witness == pytest.approx(-22.739146825983266 + 5j, abs=1e-12)
    assert verdict.reason == "|E*| >= |E| (ratio 3.842)"


def count_evals(monkeypatch):
    """Patch ExpSum.eval to count its calls; returns the one-item counter."""
    calls = [0]
    original = ExpSum.eval

    def counted(self, z):
        calls[0] += 1
        return original(self, z)
    monkeypatch.setattr(ExpSum, "eval", counted)
    return calls


@pytest.mark.parametrize("Q", [sine(HALF, (1,)), leeyang_Q()],
                         ids=["poisson", "leeyang"])
def test_validation_evaluates_E_on_the_axis_and_E_and_Estar_on_the_grid(
        monkeypatch, Q):
    E = Q.derivative() - 1j * Q
    calls = count_evals(monkeypatch)
    HermiteBiehler.validate(E)
    # the axis is the grid's first row: E and E* are evaluated once each
    assert calls[0] == 2


@pytest.mark.parametrize("Q", [sine(HALF, (1,)), leeyang_Q()]
                         + [leeyang_Q(t) for t in (0.005, 0.3, 1.2, 3.0)],
                         ids=["poisson", "leeyang", "leeyang-0.005", "leeyang-0.3",
                              "leeyang-1.2", "leeyang-3.0"])
def test_margin_herglotz_is_the_grid_minimum_of_re_iA_over_B(Q):
    E = Q.derivative() - 1j * Q
    cert = is_hermite_biehler(E).certificate
    # oracle: A and B evaluated on their own, not through E and E*
    A, B = split_AB(E)
    xs, ys = default_grid(E).mesh()
    Z = xs[None, :] + 1j * ys[:, None]
    oracle = float(np.min((1j * A.eval(Z) / B.eval(Z)).real))
    assert cert.margin_herglotz == pytest.approx(oracle, rel=1e-12)


def test_certificate_json_has_no_degeneracy_floor_and_old_files_load():
    d = poisson_H().to_json_dict()
    assert set(d["certificate"]) == {"grid", "margin_modulus", "margin_herglotz"}
    d["certificate"]["degeneracy_floor"] = 1e-8  # as written by older versions
    assert HermiteBiehler.from_json_dict(d).E.terms == poisson_H().E.terms


def test_stored_grid_at_the_phase_limit():
    # the terms of E = pi cos(pi z) - i sin(pi z) have norm 1/2, so phases
    # pi |x| pass freqalg's 2^48 where |x| passes 2^48/pi: just inside it a
    # stored grid validates, just outside it evaluation raises
    d = poisson_H().to_json_dict()
    x = 2.0 ** 48 / math.pi
    d["certificate"]["grid"]["x"] = [-x * (1 - 1e-9), x * (1 - 1e-9)]
    assert HermiteBiehler.from_json_dict(d).certificate.grid.x_max == x * (1 - 1e-9)
    d["certificate"]["grid"]["x"] = [-x * (1 + 1e-9), x * (1 + 1e-9)]
    with pytest.raises(EvalRangeError, match="no correct digit"):
        HermiteBiehler.from_json_dict(d)
    with pytest.raises(EvalRangeError, match="no correct digit"):
        is_hermite_biehler(poisson_H().E, GridSpec(-1.0, x * (1 + 1e-9), 0.05, 5.0))


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 1, -1, 2)
    with pytest.raises(ValueError):
        GridSpec(1, 0, 0.1, 2)
    g = default_grid(sine(HALF, (1,)))
    assert g.x_max == pytest.approx(8.0)  # 4 periods of frequency 1/2


@pytest.mark.parametrize("args", [
    (-math.inf, math.inf, 0.05, 5.0),          # every grid point would be NaN
    (0.0, math.nan, 0.05, 5.0),
    (-1e308, 1e308, 0.05, 5.0),                # finite bounds, infinite width
    (-1.0, 1.0, 0.05, math.inf),
    (-1.0, 1.0, 0.05, 5.0, 2.5),
    (-1.0, 1.0, 0.05, 5.0, "400"),
    (-1.0, 1.0, 0.05, 5.0, 400, 1.0),
    (-1.0, 1.0, 0.05, 5.0, 1, 50),
    (-1.0, 1.0, 0.05, 5.0, 1001, 1000),        # above the 10^6 points allowed
])
def test_grid_spec_refuses_before_any_mesh(monkeypatch, args):
    def refuse(*a, **k):
        raise AssertionError("a mesh was built")
    monkeypatch.setattr(np, "linspace", refuse)
    with pytest.raises(ValueError):
        GridSpec(*args)
    assert GridSpec(-1.0, 1.0, 0.05, 5.0, 1000, 1000).nx == 1000


def test_non_finite_coefficient_rejects_before_evaluation(monkeypatch):
    E = poisson_H().E + monomial(HALF, (3,), complex(math.nan, 0.0))
    calls = count_evals(monkeypatch)
    verdict = is_hermite_biehler(E)
    assert not verdict.accepted and "non-finite" in verdict.reason
    assert calls[0] == 0
    with pytest.raises(HermiteBiehlerError, match="non-finite coefficient$"):
        HermiteBiehler.validate(E)


def test_nan_samples_reject(monkeypatch):
    # every comparison with NaN is false, so a test that looks for a failing
    # sample would accept; only a margin known to be positive may
    E, original = poisson_H().E, ExpSum.eval
    monkeypatch.setattr(ExpSum, "eval", lambda self, z: original(self, z)
                        if not isinstance(z, Grid) else np.full(z.shape, complex(math.nan)))
    assert not is_hermite_biehler(E).accepted


def test_validation_exponentiates_the_axes_not_the_rectangle(monkeypatch):
    # the rectangle is one product grid, whose tables E and E* share: per
    # generator the real-axis preflight (nx points) and the grid's ny row
    # heads and nx column offsets, never one exponential per grid point
    E = poisson_H().E
    exp, calls = np.exp, []

    def counting_exp(x, *args, **kwargs):
        calls.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    grid = default_grid(E)
    assert (grid.nx, grid.ny) == (400, 50)
    assert is_hermite_biehler(E).accepted
    assert max(calls) <= 400
    assert sum(calls) <= len(E.basis.base) * (400 + 50 + 400)


@pytest.mark.parametrize("B, match", [
    (ExpSum(HALF), "identically zero"),
    (monomial(HALF, (1,)), "real on R"),
], ids=["zero", "not_real_on_R"])
def test_root_scan_rejects_what_it_cannot_scan(B, match):
    with pytest.raises(RootFindingError, match=match):
        real_root_scan(B, (-1.0, 1.0))


def test_root_scan_of_a_monomial_finds_no_root():
    # a nonzero constant is the one star-fixed monomial, and never vanishes
    assert real_root_scan(monomial(HALF, (0,), 2.5), (-1.0, 1.0)).roots.size == 0


def test_real_roots_sine():
    roots = real_root_scan(sine(HALF, (1,)), (-2.5, 2.5)).roots
    assert np.allclose(roots, [-2, -1, 0, 1, 2], atol=1e-11)


def test_real_roots_includes_endpoints():
    roots = real_root_scan(sine(UNIT, (1,)), (0.0, 1.0)).roots
    assert np.allclose(roots, [0.0, 0.5, 1.0], atol=1e-11)


def test_real_roots_against_independent_bisection():
    Q = sine(RAW, (1, 0)) + 0.1 * sine(RAW, (0, 1))
    roots = real_root_scan(Q, (-10, 10)).roots

    def f(x):
        return math.sin(x) + 0.1 * math.sin(math.sqrt(2) * x)

    xs = np.arange(-10, 10, 1e-3)
    vals = np.array([f(x) for x in xs])
    oracle = []
    for i in np.nonzero(vals[:-1] * vals[1:] < 0)[0]:
        a, b = xs[i], xs[i + 1]
        for _ in range(60):
            m = 0.5 * (a + b)
            if f(a) * f(m) <= 0:
                b = m
            else:
                a = m
        oracle.append(0.5 * (a + b))
    if abs(vals[np.argmin(np.abs(xs))]) < 1e-15:
        oracle.append(0.0)
    oracle.sort()
    assert len(roots) == len(oracle)
    assert np.allclose(roots, oracle, atol=1e-9)
    assert any(abs(r) < 1e-10 for r in roots)


def scan_error_point(B, window):
    """The point named by the RootFindingError the scan must raise."""
    with pytest.raises(RootFindingError, match="multiple root") as e:
        real_root_scan(B, window)
    return float(re.search(r"near x = (\S+)", str(e.value)).group(1))


def test_double_root_flagged():
    B = sine(HALF, (1,)) * sine(HALF, (1,))  # sin^2(pi z)
    # step 1/16: the double root 0 of (-0.5, 0.5) is a grid sample, the
    # roots of the other two windows fall between samples
    for window, root in (((-0.5, 0.5), 0), ((-0.73, 0.41), 0), ((2.3, 3.9), 3)):
        assert abs(scan_error_point(B, window) - root) <= 1e-6


def test_double_root_raises_near_and_far_from_zero():
    # B' of sin^2(pi (z - X)) has slope exactly L2 at the double root X, so
    # the monotone test passes there by rounding unless it clears the
    # floors of B', which grow with |X|; the root was then silently lost
    for X in (0.3, 5000.3, 50000.3):
        S = ExpSum(HALF, {(1,): cmath.exp(-1j * math.pi * X) / 2j,
                          (-1,): -cmath.exp(1j * math.pi * X) / 2j})
        B = (S * S).hermitize()
        assert abs(scan_error_point(B, (X - 0.77, X + 0.61)) - X) <= 1e-5
    # 1 - cos(2 pi lam (z - X)) with lam = 7 - 5 sqrt 2 over (1, sqrt 2):
    # evaluation's phase error goes with 7 + 5 sqrt 2, 200 times |lam|, so
    # floors built from |lam| let the monotone test pass by rounding
    lam = 7 - 5 * math.sqrt(2)
    for X in (49991.2, 50019.9):
        B = ExpSum(FreqBasis((1.0, math.sqrt(2))),
                   {(0, 0): 1.0, (7, -5): -cmath.exp(-2j * math.pi * lam * X) / 2,
                    (-7, 5): -cmath.exp(2j * math.pi * lam * X) / 2}).hermitize()
        # |B| stays below its floor within about 7e-4 of X here
        assert abs(scan_error_point(B, (X - 10.3, X + 8.7)) - X) <= 1e-3


@pytest.mark.parametrize("k", range(3, 9))
def test_higher_multiplicity_raises_fast_in_little_memory(k):
    B = sine(HALF, (1,))
    for _ in range(k - 1):
        B = B * sine(HALF, (1,))  # sin^k(pi z)
    tracemalloc.start()
    t = time.perf_counter()
    x = scan_error_point(B, (-1.3, 1.7))
    elapsed = time.perf_counter() - t
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 1.0 and peak < 10 * 2**20
    # |sin(pi x)|^k <= 1e-14 within (1e-14)^(1/k)/pi < 0.006 of a root
    assert abs(x - round(x)) < 0.006


def test_phase_derivative_plane_wave():
    E = monomial(UNIT, (-1,))
    for x in (-1.3, 0.0, 2.7):
        assert phase_derivative(E, x) == pytest.approx(2 * math.pi, rel=1e-12)


def test_phase_derivative_poisson():
    H = poisson_H()
    assert phase_derivative(H, 0.0) == pytest.approx(1.0, rel=1e-12)
    # weight of the zero root: A(0)/B'(0) = pi/pi = 1, so the atom mass is 2pi
    w = H.A.eval(0.0).real / H.B.derivative().eval(0.0).real
    assert w == pytest.approx(1.0, rel=1e-12)


def test_phase_derivative_positive_at_random_points():
    H = poisson_H()
    rng = np.random.default_rng(5)
    xs = rng.uniform(-20, 20, size=2000)
    assert np.all(phase_derivative(H, xs) > 0)


def test_interlacing_of_A_and_B_roots():
    H = poisson_H()
    ra = real_root_scan(H.A, (-4.75, 4.75)).roots
    rb = real_root_scan(H.B, (-4.75, 4.75)).roots
    both = sorted((r, "A") for r in ra) + sorted((r, "B") for r in rb)
    both.sort()
    labels = [t for _, t in both]
    assert all(a != b for a, b in zip(labels, labels[1:]))


def assert_leeyang_identity(U, lengths, basis, zs):
    """Q(z) e^{i arg(det U)/2} e^{pi i L z} = det(U + diag(e^{2 pi i l_j z})) at zs."""
    U = np.asarray(U, dtype=complex)
    Q = leeyang_real_form(U, lengths, basis)
    ls = np.array([basis.value(v) for v in lengths])
    c = cmath.exp(0.5j * cmath.phase(np.linalg.det(U)))
    for z in zs:
        det = np.linalg.det(U + np.diag(np.exp(2j * math.pi * ls * z)))
        got = complex(Q.eval(z)) * c * cmath.exp(1j * math.pi * ls.sum() * z)
        assert abs(got - det) <= 1e-12 * (1 + abs(det))
    return Q


def test_leeyang_one_by_one():
    zs = [0.0, 0.3, -1.7, 0.25 + 0.5j, -2.0 + 1.0j]
    Q = assert_leeyang_identity(np.array([[-1.0]]), [(1,)], UNIT, zs)
    # det(-1 + e^{2 pi i z}) normalized is 2 sin(pi z) = i e^{-pi i z} - i e^{pi i z}
    assert Q.basis == FreqBasis((1.0,), 2) and set(Q.terms) == {(-1,), (1,)}
    assert Q.terms[(1,)] == pytest.approx(-1j, abs=1e-15)
    roots = real_root_scan(Q, (-2.2, 2.2)).roots
    assert np.allclose(roots, [-2, -1, 0, 1, 2], atol=1e-11)
    roots = real_root_scan(leeyang_real_form(np.array([[1.0]]), [(1,)], UNIT),
                           (-2.2, 2.2)).roots
    assert np.allclose(roots, [-1.5, -0.5, 0.5, 1.5], atol=1e-11)


def test_leeyang_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        leeyang_real_form(np.array([[1.0, 0.1], [0.0, 1.0]]), [(1, 0), (0, 1)],
                          FreqBasis((1.0, math.sqrt(2))))


@pytest.mark.parametrize("U, lengths, match", [
    (np.eye(2)[:1], [(1, 0), (0, 1)], "square"),
    (np.eye(2), [(1, 0)], "one length per"),
    (np.eye(2), [(1, 0), (0, -1)], "positive"),
    # zip would drop the 5, or a missing entry would surface only in ExpSum
    (np.eye(2), [(1, 0, 5), (0, 1)], r"\(1, 0, 5\) has 3 entries, but the basis has rank 2"),
    (np.eye(2), [(1, 0), (1,)], r"\(1,\) has 1 entries, but the basis has rank 2"),
], ids=["not_square", "length_count", "nonpositive_length", "length_vector_too_long",
        "length_vector_too_short"])
def test_leeyang_rejects_invalid_input(U, lengths, match):
    with pytest.raises(ValueError, match=match):
        leeyang_real_form(U, lengths, FreqBasis((1.0, math.sqrt(2))))


def test_leeyang_diagonal_reduces_to_product():
    # det(diag(u_j + e^{2 pi i l_j z})) is the product of its two factors:
    # four terms, at (+-l_1 +- l_2)/2
    U = np.diag([np.exp(0.3j), np.exp(-1.1j)])
    Q = assert_leeyang_identity(U, [(1, 0), (0, 1)], FreqBasis((1.0, math.sqrt(2))),
                                [0.0, 0.7, -3.1, 0.4 + 0.3j, 1.9 + 1.2j])
    assert set(Q.terms) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_leeyang_rotation_is_real_rooted():
    # rotation by pi/4 with lengths (1, sqrt2): classic non-lattice example
    th = math.pi / 4
    U = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    basis = FreqBasis((1.0, math.sqrt(2)))
    Q = leeyang_real_form(U, [(1, 0), (0, 1)], basis)
    assert Q.is_star_fixed(tol=0.0)
    H = ks_from_Q(Q)  # sampled Hermite-Biehler acceptance
    rng = np.random.default_rng(11)
    assert np.all(phase_derivative(H, rng.uniform(-30, 30, 500)) > 0)
    # the scan certifies every root simple on a wide window, or raises
    roots = real_root_scan(Q, (-25.0, 25.0)).roots
    assert len(roots) > 100 and np.all(np.diff(roots) > 0)


def test_ks_roots_coincide_with_Q_roots():
    Q = sine(HALF, (1,))
    H = ks_from_Q(Q)
    r1 = real_root_scan(H.B, (-3.3, 3.3)).roots
    r2 = real_root_scan(Q, (-3.3, 3.3)).roots
    assert np.allclose(r1, r2, atol=1e-10)


def test_rotated_split():
    # e^{i a} E is Hermite-Biehler with A_a = A cos a + B sin a, B_a = B cos a - A sin a
    H = poisson_H()
    A0, B0 = split_AB(H.E)
    assert A0.terms == H.A.terms and B0.terms == H.B.terms
    for a in (math.pi / 8, math.pi / 2, 2.0):
        Ha = HermiteBiehler.validate(cmath.exp(1j * a) * H.E)
        want_A = H.A * math.cos(a) + H.B * math.sin(a)
        want_B = H.B * math.cos(a) - H.A * math.sin(a)
        for got, want in ((Ha.A, want_A), (Ha.B, want_B)):
            assert set(got.terms) <= set(want.terms)
            for v, c in want.terms.items():
                assert got.terms.get(v, 0j) == pytest.approx(c, abs=1e-12)
    B90 = HermiteBiehler.validate(1j * H.E).B
    # B_{pi/2} = -A: its roots are the roots of A (half-integers here)
    rb90 = real_root_scan(B90, (-2.2, 2.2)).roots
    ra = real_root_scan(H.A, (-2.2, 2.2)).roots
    assert np.allclose(rb90, ra, atol=1e-11)
    assert np.allclose(ra, [-1.5, -0.5, 0.5, 1.5], atol=1e-11)


def test_json_round_trip():
    H = poisson_H()
    d = H.to_json_dict()
    H2 = HermiteBiehler.from_json_dict(d)
    assert H2.E.terms == H.E.terms


def phase_root_count(E, x0, x1):
    """Roots of B in (x0, x1) for E = A - iB: the multiples of pi strictly
    between the phases of E at the ends, unwrapped on a grid refined until
    no step turns the phase by pi/4 or more."""
    xs = np.linspace(x0, x1, 6001)
    while True:
        vals = E.eval(xs)
        turn = np.angle(vals[1:] / vals[:-1])  # wrapped to (-pi, pi]
        big = np.abs(turn) >= math.pi / 4
        if not big.any():
            break
        xs = np.sort(np.concatenate((xs, 0.5 * (xs[:-1] + xs[1:])[big])))
    assert np.max(np.abs(turn)) < math.pi / 2
    start = math.atan2(vals[0].imag, vals[0].real) / math.pi
    lo, hi = sorted((start, start + float(np.sum(turn)) / math.pi))
    return math.ceil(hi) - math.floor(lo) - 1


@pytest.mark.parametrize("theta", [0.005, 0.05, 0.13, 0.16, 0.5, math.pi - 0.005])
def test_leeyang_root_count_equals_phase_count(theta):
    # small |sin theta| puts pairs of roots of B far closer than the grid step
    U = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    H = ks_from_Q(leeyang_real_form(U, [(1, 0), (0, 1)],
                                    FreqBasis((1.0, math.sqrt(2)))))
    roots = real_root_scan(H.B, (-30.0, 30.0)).roots
    assert len(roots) == phase_root_count(H.E, -30.0, 30.0) == 144


def test_root_scan_bisection_stops_where_no_bracket_can_shrink(monkeypatch):
    # the safeguarded Newton ends a bracket once a step's error bound is
    # within an ulp of the iterate, or once a halving midpoint rounds onto an
    # endpoint, not after a fixed cap: beyond |x| = 8192 that ulp is wider
    # than ROOT_TOL, so the far window costs no more evaluations
    B = ks_from_Q(leeyang_Q()).B
    calls = count_evals(monkeypatch)
    counts, roots = [], []
    for centre in (0.0, 20000.0):
        calls[0] = 0
        roots.append(real_root_scan(B, (centre - 5000.0, centre + 5000.0)).roots)
        counts.append(calls[0])
    assert counts[1] <= counts[0]
    assert len(roots[0]) == len(roots[1])


def test_leeyang_roots_are_within_2_ulp_of_their_40_digit_polish():
    import mpmath as mp
    B = ks_from_Q(leeyang_Q()).B
    # the same sum in 40 digits: its frequencies from the float basis exactly
    terms = [(sum(mp.mpf(k) * b for k, b in zip(v, B.basis.base)) / B.basis.denominator,
              mp.mpc(c.real, c.imag)) for v, _, c in B.sorted_terms()]
    count = 0
    with mp.workdps(40):
        def f(x):
            return mp.re(mp.fsum(c * mp.expjpi(2 * lam * x) for lam, c in terms))
        for window in ((-30, 30), (4900, 5000), (19950, 20000)):
            for r in real_root_scan(B, window).roots:
                exact = mp.findroot(f, mp.mpf(float(r)))
                assert abs(mp.mpf(float(r)) - exact) <= 2 * np.spacing(abs(r)), (window, r)
                count += 1
    assert count == 505


def test_scan_cap_refuses_before_any_grid_exists():
    B = sine(HALF, (1,))
    assert scan_step(B) == 1 / 8 and scan_step(monomial(HALF, (1,))) == math.inf
    with pytest.raises(RootFindingError, match=r"1\.6e\+09 grid points .* 50,000,000 allowed"):
        real_root_scan(B, (-1e8, 1e8))
