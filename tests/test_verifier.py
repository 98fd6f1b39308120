import math
from fractions import Fraction as F

import numpy as np
import pytest

from crystalsum import spectra, verifier
from crystalsum.measures import DiscreteMeasure, FSPair, pair_from_hb
from crystalsum.qmodular import EtaProductSpec, family_l, fplus
from crystalsum.selfdual import selfdual_measure
from crystalsum.verifier import (
    _SUITE_SHIFT,
    _SUITE_Y,
    TestFunction,
    VerificationReport,
    bump_ft,
    check_pair,
    check_selfdual,
    gaussian_ft,
    gaussian_suite,
    _report,
    transform,
)
from probes import fejer_identity_check, poisson_H


def poisson_pair(cutoff=16.0, W=16.5):
    return pair_from_hb(poisson_H(), cutoff, (-W, W))


def test_gaussian_selfdual_fixed_point():
    tf = TestFunction("gaussian", z=1j)
    for t in (-1.3, 0.0, 0.7):
        assert gaussian_ft(tf, t) == pytest.approx(tf.eval(t), rel=1e-14)


def test_gaussian_shift_rule():
    base = TestFunction("gaussian", z=1.5j)
    shifted = TestFunction("gaussian", z=1.5j, x0=0.8)
    for xi in (-1.0, 0.3, 2.2):
        expect = gaussian_ft(base, xi) * np.exp(-2j * np.pi * xi * 0.8)
        assert gaussian_ft(shifted, xi) == pytest.approx(expect, rel=1e-13)


def test_gaussian_value_at_zero():
    tf = TestFunction("gaussian", z=2j)
    assert gaussian_ft(tf, 0.0) == pytest.approx(1 / math.sqrt(2), rel=1e-14)


def test_gaussian_double_transform_reflects():
    tf = TestFunction("gaussian", z=0.7 + 1.3j, x0=0.4, xi0=-0.6)
    z2 = -1 / complex(tf.z)
    c = gaussian_ft(tf, tf.xi0) / TestFunction("gaussian", z=z2, x0=tf.xi0,
                                               xi0=-tf.x0).eval(tf.xi0)
    tf2 = TestFunction("gaussian", z=z2, x0=tf.xi0, xi0=-tf.x0)
    for t in (-0.9, 0.0, 1.4):
        twice = c * gaussian_ft(tf2, t)
        assert twice == pytest.approx(tf.eval(-t), rel=1e-12)


def test_gaussian_rejects_lower_half():
    with pytest.raises(ValueError):
        TestFunction("gaussian", z=-1j)


def test_bump_transform_basics():
    tf = TestFunction("bump", center=0.0, halfwidth=1.0, exponent=1.0)
    v0, err0 = bump_ft(tf, 0.0, tol=1e-10)
    assert v0.real > 0 and abs(v0.imag) < 1e-12
    assert err0 <= 1e-10
    # reference from a very fine independent Riemann sum
    ts = np.linspace(-1, 1, 200_001)
    ref = np.trapezoid(tf.eval(ts).real, ts)
    assert v0.real == pytest.approx(ref, abs=1e-9)
    # even bump: transform real at every xi; modulus below the L1 mass
    for xi in (0.5, 1.7, 4.2):
        v, err = bump_ft(tf, xi, tol=1e-10)
        assert abs(v.imag) <= 1e-10
        assert abs(v) <= v0.real + 1e-12
    assert bump_ft(tf, 0.3, tol=1e-8)[1] <= 1e-8
    assert transform(tf, 0.3) == bump_ft(tf, 0.3)


def test_check_pair_poisson_gaussian():
    pair = poisson_pair()
    rep = check_pair(pair, TestFunction("gaussian", z=1j), tol=1e-10)
    assert rep.verdict == "pass"
    assert rep.residual <= 1e-12
    theta = 2 * math.pi * sum(math.exp(-math.pi * n * n) for n in range(-9, 10))
    assert rep.lhs == pytest.approx(theta, rel=1e-12)


def test_check_pair_poisson_suite():
    pair = poisson_pair()
    for tf in gaussian_suite(10, seed=123):
        rep = check_pair(pair, tf, tol=1e-10)
        assert rep.verdict == "pass", rep.to_json_dict()


def test_check_pair_quarter_shift_literal():
    # mu = sum delta_{n - 1/4}, a(n) = i^n: the classical shifted-comb pair
    N = 16
    n = range(-N, N + 1)
    mu = DiscreteMeasure(np.array(n) - 0.25, np.ones(len(n)), (-N - 1, N + 1))
    a = DiscreteMeasure(n, [1j ** (k % 4) for k in n], (-N - 1, N + 1))
    pair = FSPair(mu, a, {"source": "literal"})
    rep = check_pair(pair, TestFunction("gaussian", z=1j), tol=1e-8)
    assert rep.verdict == "pass"
    assert rep.residual <= 1e-12


def test_check_pair_detects_corruption():
    pair = poisson_pair()
    w = pair.mu.w.copy()
    k = len(w) // 2               # the atom at 0
    delta = 1e-3
    w[k] += delta
    bad = FSPair(DiscreteMeasure(pair.mu.x, w, pair.mu.window), pair.a, {})
    tf = TestFunction("gaussian", z=1j)
    rep = check_pair(bad, tf, tol=1e-6)
    assert rep.verdict == "fail"
    expect = delta * abs(gaussian_ft(tf, float(pair.mu.x[k])))
    assert rep.residual == pytest.approx(expect, rel=1e-6)


def test_check_pair_linearity_triangle():
    pair = poisson_pair()
    tf = TestFunction("gaussian", z=1j, x0=0.5)
    r0 = check_pair(pair, tf).residual
    w = pair.mu.w.copy()
    w[0] += 1e-4
    bad = FSPair(DiscreteMeasure(pair.mu.x, w, pair.mu.window), pair.a, {})
    r1 = check_pair(bad, tf).residual
    half = 0.5 * (bad.mu.w + pair.mu.w)
    mix = FSPair(DiscreteMeasure(pair.mu.x, half, pair.mu.window), pair.a, {})
    rmix = check_pair(mix, tf).residual
    assert rmix <= 0.5 * r0 + 0.5 * r1 + 1e-14
    assert rmix >= 0.5 * r1 - 0.5 * r0 - 1e-14


def test_check_pair_bump():
    # smooth compactly supported test function: the identity itself holds
    # far below the certifiable level; the crude 1/xi^2 transform envelope
    # makes the verdict an honest 'inconclusive' at 1e-4 on a narrow
    # window and a 'pass' at the tail-supported tolerance on a wide one
    tf = TestFunction("bump", center=0.3, halfwidth=2.5, exponent=1.5)
    narrow = poisson_pair(8.0, 30.5)
    rep = check_pair(narrow, tf, tol=1e-4)
    assert rep.verdict == "inconclusive"
    assert rep.residual <= 1e-6
    wide = poisson_pair(8.0, 150.5)
    rep = check_pair(wide, tf, tol=5e-3)
    assert rep.verdict == "pass"
    assert rep.residual <= 1e-6


def test_check_pair_inconclusive_when_tail_dominates():
    pair = poisson_pair(cutoff=4.0, W=4.5)  # narrow windows
    tf = TestFunction("gaussian", z=0.5j, x0=2.0)
    rep = check_pair(pair, tf, tol=1e-10)
    assert rep.verdict == "inconclusive"


def test_empty_measure_is_inconclusive():
    empty = DiscreteMeasure([], [], (-1, 1), dual_sign=1)
    tf = TestFunction("gaussian", z=1j)
    assert check_pair(FSPair(empty, empty), tf).verdict == "inconclusive"
    bump = TestFunction("bump", halfwidth=0.5)
    reports = check_selfdual(empty, [tf, bump])
    assert [r.verdict for r in reports] == ["inconclusive"] * 2
    assert all(r.lhs == r.rhs == 0 for r in reports)


def test_pass_survives_window_doubling():
    tf = TestFunction("gaussian", z=1j, x0=1.0)
    r1 = check_pair(poisson_pair(16.0, 16.5), tf, tol=1e-8)
    r2 = check_pair(poisson_pair(32.0, 33.0), tf, tol=1e-8)
    assert r1.verdict == "pass" and r2.verdict == "pass"


def test_check_selfdual_guinand_and_poisson():
    gui = fplus(EtaProductSpec(4, {1: F(2, 3), 2: F(-1, 3), 4: F(2, 3)}),
                F(1000))
    m = selfdual_measure(gui, (-40, 40))
    suite = [TestFunction("gaussian", z=1j * y) for y in (0.5, 1.0, 2.0)]
    for rep in check_selfdual(m, suite, tol=1e-6):
        assert rep.verdict == "pass"
        assert rep.residual <= 1e-6
    poi = fplus(EtaProductSpec(4, {1: -2, 2: 5, 4: -2}), F(1600))
    mp = selfdual_measure(poi, (-40, 40))
    for rep in check_selfdual(mp, suite, tol=1e-6):
        assert rep.verdict == "pass"


def test_check_selfdual_minus_family():
    _, _, minus = family_l(F(1), F(800))
    m = selfdual_measure(minus, (-40, 40))
    suite = [TestFunction("gaussian", z=1j * y) for y in (0.5, 1.0, 2.0)]
    for rep in check_selfdual(m, suite, tol=1e-6):
        assert rep.verdict == "pass"
        assert rep.params["sign"] == -1


def test_fejer_identity_poisson():
    pair = poisson_pair(cutoff=900.0, W=1000.5)
    rep = fejer_identity_check(pair, 1j, 2j, 1000.0)
    assert rep.residual <= 1e-2
    assert rep.verdict in ("pass", "inconclusive")


def test_fejer_identity_degenerate_T():
    pair = poisson_pair(cutoff=6.0, W=6.5)
    rep = fejer_identity_check(pair, 1j, 2j, 0.5)
    a0 = pair.a.weight_at(0.0)
    expect = a0 / (2j - (-1j))
    assert rep.lhs == pytest.approx(expect, rel=1e-12)


def test_fejer_identity_rate_in_T():
    # with a wide mu-window the taper term dominates and scales like 1/T
    pair = pair_from_hb(poisson_H(), 1200.0,
                        (-30000.5, 30000.5))
    w, z = 0.3j, 0.4j
    r100 = fejer_identity_check(pair, w, z, 100.0).residual
    r1000 = fejer_identity_check(pair, w, z, 1000.0).residual
    assert 5.0 <= r100 / r1000 <= 20.0


@pytest.mark.parametrize("W", [16.5, 60.5, 200.5])
def test_fejer_rhs_tail_matches_its_closed_form(W):
    # w = z = i: the kernel envelope is 1/(2 pi (1+t^2)), and the fitted
    # model is flat (p ~ 1e-16), so both edges give C density (pi/2 - atan W)/pi
    pair = poisson_pair(cutoff=W - 0.5, W=W)
    tm = pair.mu.tail_model
    assert abs(tm.p) < 1e-12
    closed = tm.C * tm.density * (math.pi / 2 - math.atan(W)) / math.pi
    rep = fejer_identity_check(pair, 1j, 1j, 100.0)
    assert rep.tail_rhs / closed == pytest.approx(1.0, abs=1e-2)


def test_check_pair_gaussian_tail_matches_erfc():
    # phi = e^{-pi v (t-1)^2}, v = 1/2, against the flat model of a past
    # +-X: C density (erfc(sqrt(pi v)(X-1)) + erfc(sqrt(pi v)(X+1)))/(2 sqrt v)
    pair = poisson_pair()
    tm = pair.a.tail_model
    assert abs(tm.p) < 1e-12
    X = pair.a.window[1]
    r = math.sqrt(math.pi * 0.5)
    closed = tm.C * tm.density * (math.erfc(r * (X - 1)) + math.erfc(r * (X + 1))) \
        / (2 * math.sqrt(0.5))
    rep = check_pair(pair, TestFunction("gaussian", z=0.5j, x0=1.0))
    # a ratio: pytest.approx's absolute floor would accept any tail near 1e-154
    assert rep.tail_lhs / closed == pytest.approx(1.0, abs=1e-2)


def test_fejer_identity_empty_measure_is_inconclusive():
    empty = DiscreteMeasure([], [], (-1, 1))
    rep = fejer_identity_check(FSPair(empty, empty), 1j, 2j, 10.0)
    assert rep.residual == 0.0 and rep.verdict == "inconclusive"


def test_report_json_shape():
    rep = VerificationReport(1 + 2j, 1 + 2j, 0.0, 0.0, 0.0, "pass", {"k": 1})
    d = rep.to_json_dict()
    assert d["lhs"] == [1.0, 2.0] and d["verdict"] == "pass"
    assert d["tails"] == [0.0, 0.0]


@pytest.mark.parametrize("residual, tails", [
    (0.0, (0.0, math.nan)),      # max() would keep the first tail over the NaN
    (0.0, (math.nan, 0.0)),
    (0.0, (math.inf, 0.0)),
    (math.nan, (0.0, 0.0)),
    (math.inf, (0.0, 0.0)),
], ids=["nan-second-tail", "nan-first-tail", "inf-tail", "nan-residual", "inf-residual"])
def test_a_non_finite_tail_or_residual_is_inconclusive(residual, tails):
    rep = _report(residual, 0.0, tails, 5, 1e-6, {})
    assert rep.verdict == "inconclusive"


def test_gaussian_suite_deterministic():
    s1 = gaussian_suite(10, seed=7)
    s2 = gaussian_suite(10, seed=7)
    assert [(t.z, t.x0) for t in s1] == [(t.z, t.x0) for t in s2]
    for t in s1:
        assert 0.5 <= complex(t.z).imag <= 3.0
        assert -2.0 <= t.x0 <= 2.0
    draws = {seed: [(complex(t.z), t.x0) for t in gaussian_suite(20, seed=seed)]
             for seed in (0, 1)}
    for pairs in draws.values():
        assert all(z.real == 0 and _SUITE_Y[0] <= z.imag <= _SUITE_Y[1]
                   and _SUITE_SHIFT[0] <= x0 <= _SUITE_SHIFT[1] for z, x0 in pairs)
    assert draws[0] == [(complex(t.z), t.x0) for t in gaussian_suite(20, seed=0)]
    assert draws[0] != draws[1]
    # Im z then x0, each from random.Random(0): its first two uniforms
    # 0.8444218515250481 and 0.7579544029403025, which Python keeps fixed for an int seed
    assert draws[0][0] == (2.6110546288126204j, 1.03181761176121)
    with pytest.raises(ValueError, match="nonnegative"):
        gaussian_suite(1, seed=-1)


@pytest.mark.parametrize("module, n", [(spectra, 8), (verifier, 12)])
def test_gauss_legendre_tables_are_numpys_bit_for_bit(module, n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    assert module._GL_NODES.tobytes() == nodes.tobytes()
    assert module._GL_WEIGHTS.tobytes() == weights.tobytes()
