import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from crystalsum.qmodular import (
    QQ,
    EtaProductSpec,
    QSeries,
    chi12,
    eta_product,
    family_l,
    fminus,
    fplus,
    lambda_invariant,
    qpow,
)
from fraction_reference import eta_expansion
from probes import (progression_hits, qcoefficient, qseries_from_json,
                    qseries_to_json, qshift, selfdual_coefficient)

ONE = QSeries({F(0): 1}, F(10))


def geometric(order, sign=1):
    """1 + sign*q up to the given order."""
    return QSeries({F(0): 1, F(1): sign}, F(order))


def test_chi12_table():
    assert [chi12(n) for n in (1, 5, 7, 11, 13, 2, 3, 4, 6, 12)] == \
        [1, -1, -1, 1, 1, 0, 0, 0, 0, 0]


def test_eta_first_terms():
    eta = eta_expansion(F(8))
    expect = {F(1, 24): 1, F(25, 24): -1, F(49, 24): -1, F(121, 24): 1,
              F(169, 24): 1}
    for e, c in expect.items():
        assert qcoefficient(eta, e) == c
    assert all(e in expect for e in eta.terms)


def test_eta_empty_below_lead():
    assert not eta_expansion(F(1, 24))


@pytest.mark.parametrize("scale", [0, -1])
def test_eta_expansion_rejects_nonpositive_scale(scale):
    # scale 0 looped forever, a negative scale grew the dict without bound
    with pytest.raises(ValueError, match="positive"):
        eta_expansion(F(8), scale=scale)


def test_eta_matches_euler_product():
    # q^{1/24} prod_{n<48} (1 - q^n), truncated, term for term
    order = F(6)
    prod = QSeries({F(0): 1}, order)
    for n in range(1, 48):
        prod = prod * QSeries({F(0): 1, F(n): -1}, order)
    assert qshift(prod, F(1, 24)).truncate(order) == eta_expansion(order)


def binomial_series(r, order):
    """(1+q)^r via the binomial coefficients, exact."""
    terms = {}
    c = QQ(1)
    for k in range(order):
        terms[F(k)] = c
        c = c * (QQ(r.numerator, r.denominator) - k) / (k + 1)
    return QSeries(terms, F(order))


def test_qpow_sqrt_of_one_minus_q():
    u = geometric(8, sign=-1)
    w = qpow(u, F(1, 2))
    expect = {F(0): QQ(1), F(1): QQ(-1, 2), F(2): QQ(-1, 8), F(3): QQ(-1, 16)}
    for e, c in expect.items():
        assert qcoefficient(w, e) == c
    # against the full binomial oracle
    oracle = binomial_series(F(1, 2), 8)
    flipped = QSeries({e: (-1) ** int(e) * c for e, c in oracle.terms.items()}, F(8))
    assert w == flipped


def test_qpow_trivial_exponents():
    u = QSeries({F(1, 3): 2, F(4, 3): 5}, F(3))
    assert qpow(u, 0) == QSeries({F(0): 1}, u.order - F(1, 3))
    assert qpow(u, 1) == u


def test_qpow_round_trip_exact():
    u = QSeries({F(0): 1, F(1): 3, F(2): QQ(-7, 2)}, F(9))
    for r in (F(2, 3), F(-5, 4), F(3)):
        assert qpow(qpow(u, r), 1 / r) == u


def test_qpow_rejects_irrational_leading_root():
    u = QSeries({F(0): 2, F(1): 1}, F(4))
    with pytest.raises(ValueError):
        qpow(u, F(1, 2))
    # beyond double range: still an exact integer test, not a float root
    for c0 in (2 * 10**400, F(10**400, 3), 10**400 + 1):
        with pytest.raises(ValueError):
            qpow(QSeries({F(0): c0, F(1): 1}, F(5)), F(1, 2))
    # exact rational root accepted
    v = QSeries({F(0): QQ(4, 9), F(1): 1}, F(4))
    assert qcoefficient(qpow(v, F(1, 2)), F(0)) == QQ(2, 3)


def test_qpow_exact_root_of_huge_leading_coefficient():
    u = QSeries({F(0): 10**400, F(1): 1}, F(5))
    assert qpow(u, F(1, 2)).leading() == (F(0), 10**200)
    assert qpow(QSeries({F(0): F(3**300, 2**600)}, F(1)), F(1, 3)).leading() \
        == (F(0), F(3**100, 2**200))


def test_floats_never_enter_a_qseries():
    s = QSeries({F(0): 1, F(1): F(1, 3)}, F(3))
    for build in (lambda: QSeries({0: 0.5}, 3),
                  lambda: QSeries({0: np.float64(0.5)}, 3),
                  lambda: s.scale(0.1),
                  lambda: s * 0.5,
                  lambda: 0.5 * s,
                  lambda: s + 0.5,
                  lambda: qshift(s, 1, 0.5)):
        with pytest.raises(TypeError):
            build()
    # exact scalars still work, and numpy integers are exact rationals
    assert s.scale(np.int64(3)) == s.scale(3) == s * F(3)


def test_family_series_equal_the_separate_builds():
    # family_l builds one eta lattice for both series; its length must fit
    # the minus series' half steps at every order, fractional ones included
    for l in (F(1), F(2, 3), F(-2)):
        for order in [F(n, 6) for n in range(0, 40)] + [F(-1), F(200)]:
            spec, plus, minus = family_l(l, order)
            assert plus == fplus(spec, order)
            assert minus == fminus(spec, order)


def test_mul_truncation_order():
    a = QSeries({F(1): 1}, F(4))      # accurate below 4
    b = QSeries({F(2): 1}, F(10))     # accurate below 10
    p = a * b
    assert p.order == F(6)            # min(4+2, 10+1)
    assert p.terms == {F(3): QQ(1)}


def test_add_keeps_declared_lattices():
    half = F(1, 2)
    s = QSeries.on_lattice(0, half, [QQ(1)], 4) + QSeries.on_lattice(1, half, [QQ(1)], 4)
    assert (s.lead, s.unit, s.coeffs) == (0, half, [1, 0, 1])
    # a number joins on the series' own unit; a zero operand adds no lattice
    t = 1 - QSeries.on_lattice(2, 2, [QQ(3)], 10) + QSeries({}, 8)
    assert (t.lead, t.unit, t.coeffs, t.order) == (0, 2, [1, -3], 8)
    # the unit is the gcd of both units and the lead difference
    u = (QSeries.on_lattice(F(1, 3), F(2, 3), [QQ(1)] * 3, 5)
         - QSeries.on_lattice(0, half, [QQ(2)], 5))
    assert (u.lead, u.unit) == (0, F(1, 6))
    assert u.terms == {0: -2, F(1, 3): 1, F(1): 1, F(5, 3): 1}


def test_add_keeps_the_minus_lattice():
    # the term map of (1 - 2 lambda(3z)) eta has unit 1; its declared
    # lattice, and so the rows of series.csv, has the half steps of fminus
    spec = EtaProductSpec(9, {1: F(1, 3), 3: F(1, 3), 9: F(1, 3)})
    lam = lambda_invariant(F(1, 2)).scale_exponents(3)
    series = (1 - 2 * lam) * eta_product(spec, F(3, 2))
    assert series.coeffs == fminus(spec, F(3, 2)).series.coeffs == [1, 0, F(-1, 3)]


def test_spec_validation():
    with pytest.raises(ValueError):
        EtaProductSpec(4, {1: 1, 2: 1, 4: -2})        # sum != 1
    with pytest.raises(ValueError):
        EtaProductSpec(4, {1: -3, 2: 7, 4: -3})       # sum d r_d < 0
    with pytest.raises(ValueError):
        EtaProductSpec(6, {1: 1, 2: 0, 3: 0, 6: 0})   # symmetry r_1 != r_6


@pytest.mark.parametrize("N", [1, 2, 12, 36, 97, 360, 1001, 2**10])
def test_spec_fills_every_divisor_of_the_level(N):
    spec = EtaProductSpec(N, {1: F(1, 2), N: F(1, 2)} if N > 1 else {1: 1})
    assert sorted(spec.r) == [d for d in range(1, N + 1) if N % d == 0]


def test_spec_refuses_a_level_past_the_bound():
    with pytest.raises(ValueError, match="1,000,000,000,000"):
        EtaProductSpec(10**12 + 1, {1: F(1, 2), 10**12 + 1: F(1, 2)})


def test_spec_derives_b_and_k():
    guinand = EtaProductSpec(4, {1: F(2, 3), 2: F(-1, 3), 4: F(2, 3)})
    assert (guinand.b, guinand.k) == (9, 1)           # 24k/b = 8/3
    poisson = EtaProductSpec(4, {1: -2, 2: 5, 4: -2})
    assert (poisson.b, poisson.k) == (1, 0)


def test_eta_product_poisson_is_theta():
    spec = EtaProductSpec(4, {1: -2, 2: 5, 4: -2})
    ser = eta_product(spec, F(60))
    expect = {F(0): QQ(1)}
    m = 1
    while m * m < 60:
        expect[F(m * m)] = QQ(2)
        m += 1
    assert ser.terms == expect


def test_eta_product_guinand_leading_coefficients():
    spec = EtaProductSpec(4, {1: F(2, 3), 2: F(-1, 3), 4: F(2, 3)})
    ser = eta_product(spec, F(8))
    expect = [QQ(1), QQ(-2, 3), QQ(-4, 9), QQ(-40, 81), QQ(-160, 243),
              QQ(268, 729), QQ(1808, 6561)]
    for m, c in enumerate(expect):
        assert qcoefficient(ser, F(1, 9) + m) == c
    # support is exactly 1/9 + Z>=0, i.e. n = 1 mod 9 over denominator 9
    for e in ser.terms:
        assert (e * 9 - 1) % 9 == 0


def test_eta_product_level_one_is_eta():
    spec = EtaProductSpec(1, {1: 1})
    assert eta_product(spec, F(6)) == eta_expansion(F(6))


def test_lambda_invariant_leading_terms():
    lam = lambda_invariant(F(3))
    assert qcoefficient(lam, F(1, 2)) == QQ(16)
    assert qcoefficient(lam, F(1)) == QQ(-128)
    assert qcoefficient(lam, F(3, 2)) == QQ(704)
    one_minus = QSeries({F(0): 1}, F(3)) - lam.scale(2)
    assert qcoefficient(one_minus, F(0)) == QQ(1)


def test_fplus_poisson_frequencies():
    spec = EtaProductSpec(4, {1: -2, 2: 5, 4: -2})
    s = fplus(spec, F(30))
    assert s.sign == +1 and s.denom == 1 and s.N == 4   # gamma_n = n/2
    for n, _ in s.entries:
        assert math.isqrt(n) ** 2 == n   # support on squares
    assert selfdual_coefficient(s, 0) == QQ(1) and selfdual_coefficient(s, 1) == QQ(2)


def test_fplus_guinand_support():
    spec = EtaProductSpec(4, {1: F(2, 3), 2: F(-1, 3), 4: F(2, 3)})
    s = fplus(spec, F(20))
    assert all(n % 9 == 1 for n, _ in s.entries)
    assert s.denom == 9 and s.N == 4   # gamma_n = n/18


@pytest.mark.parametrize("l", [F(-2), F(2, 3), F(1), F(5)])
def test_family_coefficient_laws(l):
    spec, plus, minus = family_l(l, F(5))
    a = plus.relative_coefficients(3)
    b = minus.relative_coefficients(3)
    assert a[0] == QQ(1) and b[0] == QQ(1)
    assert a[1] == -QQ(l.numerator, l.denominator)
    assert a[2] == QQ((l - 1).numerator * (l + 2).numerator,
                      2 * (l - 1).denominator * (l + 2).denominator)
    assert b[1] == -(QQ(32) + QQ(l.numerator, l.denominator))
    lq = QQ(l.numerator, l.denominator)
    assert b[2] == (lq * lq + 65 * lq + 510) / 2


def test_family_minus_two_is_poisson_series():
    spec, plus, _ = family_l(F(-2), F(30))
    ref = fplus(EtaProductSpec(4, {1: -2, 2: 5, 4: -2}), F(30))
    assert plus.entries == ref.entries


def test_family_alpha_polynomials_in_l():
    # n! alpha_{n,l} is a polynomial in l of degree <= n with integer
    # coefficients: interpolate at 7 nodes, then predict a fresh l.
    nodes = [F(v) for v in range(7)]
    cols = {l: family_l(l, F(8))[1].relative_coefficients(7) for l in nodes}
    probe_l = F(19, 2)
    probe = family_l(probe_l, F(8))[1].relative_coefficients(7)
    fact = 1
    for n in range(7):
        fact = fact * max(n, 1)
        ys = [QQ(fact) * cols[l][n] for l in nodes]
        coeffs = _newton_poly(nodes, ys)
        assert all(c.denominator == 1 for c in coeffs), f"n={n}: {coeffs}"
        assert all(c == 0 for c in coeffs[n + 1:])
        pred = _poly_eval(coeffs, probe_l)
        assert pred == QQ(fact) * probe[n]


def _newton_poly(xs, ys):
    """Exact interpolating polynomial coefficients (monomial basis)."""
    n = len(xs)
    coef = list(ys)
    xq = [QQ(x.numerator, x.denominator) for x in xs]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xq[i] - xq[i - j])
    # expand newton form to monomials
    poly = [QQ(0)] * n
    poly[0] = coef[-1]
    for k in range(n - 2, -1, -1):
        # poly = poly*(x - xs[k]) + coef[k]
        new = [QQ(0)] * n
        for i in range(n - 1):
            new[i + 1] += poly[i]
            new[i] -= poly[i] * xq[k]
        new[0] += coef[k]
        poly = new
    return poly


def _poly_eval(coeffs, x):
    xq = QQ(x.numerator, x.denominator)
    acc = QQ(0)
    for c in reversed(coeffs):
        acc = acc * xq + c
    return acc


def test_fminus_requires_square_level():
    spec = EtaProductSpec(2, {1: F(1, 2), 2: F(1, 2)})
    with pytest.raises(ValueError):
        fminus(spec, F(4))


def test_hecke_growth_sanity():
    spec = EtaProductSpec(4, {1: F(2, 3), 2: F(-1, 3), 4: F(2, 3)})
    s = fplus(spec, F(223))   # entries up to n = 2000
    ratios = [abs(float(c)) / n ** 0.25 for n, c in s.entries if n > 0]
    assert max(ratios) <= 1.0  # bounded by a unit Hecke constant


def test_determinism_of_exact_pipeline():
    spec = EtaProductSpec(4, {1: F(2, 3), 2: F(-1, 3), 4: F(2, 3)})
    a = eta_product(spec, F(30))
    b = eta_product(spec, F(30))
    assert a == b and a.terms == b.terms


def test_progression_hits_embedded():
    # n = 9m^2 + 2m gives sqrt(n + 1/9) = 3m + 1/3
    count = progression_hits(F(1, 9), (1 / 3, 3.0), 10_000)
    assert count >= 33


def test_progression_hits_squares():
    assert progression_hits(0, (0.0, 1.0), 100) == 11


def test_progression_hits_irrational_small():
    import numpy as np
    rng = np.random.default_rng(0)
    c = math.sqrt(2)
    for _ in range(100):
        start = float(rng.uniform(0, 3))
        step = float(rng.uniform(0.1, 3))
        assert progression_hits(c, (start, step), 10_000) <= 2


def test_json_round_trip():
    spec = EtaProductSpec(4, {1: F(2, 3), 2: F(-1, 3), 4: F(2, 3)})
    ser = eta_product(spec, F(6))
    assert qseries_from_json(json.loads(json.dumps(qseries_to_json(ser)))) == ser
