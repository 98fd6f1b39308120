import math
from fractions import Fraction as F

import pytest

from crystalsum.qmodular import (
    QQ,
    EtaProductSpec,
    QSeries,
    chi12,
    eta_expansion,
    eta_product,
    family_l,
    fminus,
    fplus,
    lambda_invariant,
    progression_hits,
    qpow,
)

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
        assert eta.coefficient(e) == c
    assert all(e in expect for e in eta.terms)


def test_eta_empty_below_lead():
    assert not eta_expansion(F(1, 24))


def test_eta_matches_euler_product():
    # q^{1/24} prod_{n<48} (1 - q^n), truncated, term for term
    order = F(6)
    prod = QSeries({F(0): 1}, order)
    for n in range(1, 48):
        prod = prod * QSeries({F(0): 1, F(n): -1}, order)
    assert prod.shift(F(1, 24)).truncate(order) == eta_expansion(order)


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
        assert w.coefficient(e) == c
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
    assert qpow(v, F(1, 2)).coefficient(F(0)) == QQ(2, 3)


def test_qpow_exact_root_of_huge_leading_coefficient():
    u = QSeries({F(0): 10**400, F(1): 1}, F(5))
    assert qpow(u, F(1, 2)).leading() == (F(0), 10**200)
    assert qpow(QSeries({F(0): F(3**300, 2**600)}, F(1)), F(1, 3)).leading() \
        == (F(0), F(3**100, 2**200))


def test_mul_truncation_order():
    a = QSeries({F(1): 1}, F(4))      # accurate below 4
    b = QSeries({F(2): 1}, F(10))     # accurate below 10
    p = a * b
    assert p.order == F(6)            # min(4+2, 10+1)
    assert p.terms == {F(3): QQ(1)}


def test_spec_validation():
    with pytest.raises(ValueError):
        EtaProductSpec(4, {1: 1, 2: 1, 4: -2})        # sum != 1
    with pytest.raises(ValueError):
        EtaProductSpec(4, {1: -3, 2: 7, 4: -3})       # sum d r_d < 0
    with pytest.raises(ValueError):
        EtaProductSpec(6, {1: 1, 2: 0, 3: 0, 6: 0})   # symmetry r_1 != r_6


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
        assert ser.coefficient(F(1, 9) + m) == c
    # support is exactly 1/9 + Z>=0, i.e. n = 1 mod 9 over denominator 9
    for e in ser.terms:
        assert (e * 9 - 1) % 9 == 0


def test_eta_product_level_one_is_eta():
    spec = EtaProductSpec(1, {1: 1})
    assert eta_product(spec, F(6)) == eta_expansion(F(6))


def test_lambda_invariant_leading_terms():
    lam = lambda_invariant(F(3))
    assert lam.coefficient(F(1, 2)) == QQ(16)
    assert lam.coefficient(F(1)) == QQ(-128)
    assert lam.coefficient(F(3, 2)) == QQ(704)
    one_minus = QSeries({F(0): 1}, F(3)) - lam.scale(2)
    assert one_minus.coefficient(F(0)) == QQ(1)


def test_fplus_poisson_frequencies():
    spec = EtaProductSpec(4, {1: -2, 2: 5, 4: -2})
    s = fplus(spec, F(30))
    assert s.sign == +1 and s.denom == 1 and s.N == 4
    for n, gamma in s.frequencies():
        assert gamma == pytest.approx(n / 2)
        assert math.isqrt(n) ** 2 == n   # support on squares
    assert s.coefficient(0) == QQ(1) and s.coefficient(1) == QQ(2)


def test_fplus_guinand_support():
    spec = EtaProductSpec(4, {1: F(2, 3), 2: F(-1, 3), 4: F(2, 3)})
    s = fplus(spec, F(20))
    assert all(n % 9 == 1 for n, _ in s.entries)
    for n, gamma in s.frequencies():
        assert gamma == pytest.approx(n / 18)


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
    assert QSeries.loads(ser.dumps()) == ser
