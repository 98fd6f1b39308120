"""The integer lattice kernel of `qmodular` against a Fraction reference.

The reference is the general-rational chain the eta constructions used to
run on: the public `eta_expansion`, `shift`, `qpow` and `QSeries.__mul__`.
Both sides are exact, so every comparison is equality of term maps.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crystalsum.qmodular import (EtaProductSpec, QSeries, SelfDualSeries, _lattice_power,
                                 eta_expansion, eta_product, family_l, family_spec,
                                 fminus, lambda_invariant, qpow)

GUINAND = EtaProductSpec(4, {1: F(2, 3), 2: F(-1, 3), 4: F(2, 3)})


# -- the Fraction reference ---------------------------------------------------

def reference_eta_product(spec, order):
    """prod_d eta(dz)^{r_d}: Fraction powers of each theta factor, their
    product, and one rational s-th root of the product."""
    order = F(order)
    lead = spec.weight_sum / 24
    if order <= lead:
        return QSeries({}, order)
    rel = order - lead
    s = math.lcm(*(v.denominator for v in spec.r.values()))
    inner = QSeries({F(0): 1}, rel)
    for d, rd in sorted(spec.r.items()):
        m = int(rd * s)
        if m == 0:
            continue
        fac = eta_expansion(rel + F(d, 24), scale=d).shift(F(-d, 24))
        inner = inner * qpow(fac, m)
    out = qpow(inner, F(1, s)) if s > 1 else inner
    return out.shift(lead).truncate(order)


def reference_lambda(order):
    """16 eta(2z)^16 eta(z/2)^8 / eta(z)^24 from three Fraction powers."""
    order = F(order)
    lead = F(1, 2)
    if order <= lead:
        return QSeries({}, order)
    rel = order - lead
    f2 = eta_expansion(rel + F(2, 24), scale=2).shift(F(-2, 24))
    fh = eta_expansion(rel + F(1, 48), scale=F(1, 2)).shift(F(-1, 48))
    f1 = eta_expansion(rel + F(1, 24), scale=1).shift(F(-1, 24))
    prod = qpow(f2, 16) * qpow(fh, 8) * qpow(f1, -24)
    return prod.shift(lead, 16).truncate(order)


def reference_fminus(spec, order):
    """(1 - 2 lambda(sqrt(N) z)) times the eta product, as QSeries products."""
    order = F(order)
    rootN = math.isqrt(spec.N)
    lam = reference_lambda(order / rootN).scale_exponents(rootN)
    g = (QSeries({F(0): 1}, order) - lam.scale(2)) * reference_eta_product(spec, order)
    entries = []
    for e, c in g.sorted_terms():
        n = e * 2 * spec.b
        assert n.denominator == 1
        entries.append((int(n), c))
    step = 2 * spec.b if rootN % 2 == 0 else spec.b
    return SelfDualSeries(entries=entries, denom=2 * spec.b, N=spec.N, sign=-1,
                          lead_n=2 * spec.k, step=step, order=g.order * 2 * spec.b)


# -- random admissible specs ----------------------------------------------------

LEVELS = (1, 2, 3, 4, 6, 8, 9, 12, 16)


@st.composite
def eta_specs(draw):
    """r_d = r_{N/d} drawn with denominators up to 7; the pair {1, N} is solved
    for sum r_d = 1, and sum d r_d >= 0 is assumed."""
    N = draw(st.sampled_from(LEVELS))
    r = {}
    rest = F(1)
    for d in range(2, math.isqrt(N) + 1):
        if N % d == 0:
            r[d] = r[N // d] = draw(st.fractions(-2, 2, max_denominator=7))
            rest -= r[d] if d * d == N else 2 * r[d]
    r[1] = r[N] = rest if N == 1 else rest / 2
    assume(sum(d * v for d, v in r.items()) >= 0)
    return EtaProductSpec(N, r)


orders_above_lead = st.fractions(0, 9, max_denominator=4)


@settings(max_examples=80, deadline=None)
@given(spec=eta_specs(), offset=orders_above_lead)
@example(spec=GUINAND, offset=F(7))                    # order on the lattice
@example(spec=EtaProductSpec(9, {1: F(1, 3), 3: F(1, 3), 9: F(1, 3)}), offset=F(5, 2))
@example(spec=EtaProductSpec(16, {1: F(-1, 4), 2: F(1, 2), 4: F(1, 2), 8: F(1, 2),
                                  16: F(-1, 4)}), offset=F(6))
def test_eta_product_and_minus_series_match_fraction_reference(spec, offset):
    order = spec.weight_sum / 24 + offset
    assert eta_product(spec, order) == reference_eta_product(spec, order)
    if math.isqrt(spec.N) ** 2 == spec.N:
        assert fminus(spec, order) == reference_fminus(spec, order)


@settings(max_examples=40, deadline=None)
@given(l=st.sampled_from([F(1), F(2, 3), F(-2)]),
       order=st.fractions(0, 12, max_denominator=4))
@example(l=F(1), order=F(12))
@example(l=F(2, 3), order=F(25, 2))
def test_lambda_and_family_minus_match_fraction_reference(l, order):
    assert lambda_invariant(order) == reference_lambda(order)
    assert fminus(family_spec(l), order) == reference_fminus(family_spec(l), order)


def test_readme_sizes_match_fraction_reference():
    assert eta_product(GUINAND, F(300)).terms == reference_eta_product(GUINAND, F(300)).terms
    spec, plus, minus = family_l(1, F(200))
    ref_plus = reference_eta_product(spec, F(200))
    assert plus.entries == [(int(e * spec.b), c) for e, c in ref_plus.sorted_terms()]
    assert minus == reference_fminus(spec, F(200))


def test_lattice_power_refuses_an_inexact_division():
    # (1 + x^2/3)^1: E = 2 gives 2 W_2 = 2/3, which no integer W_2 satisfies
    with pytest.raises(AssertionError):
        _lattice_power([1, 0, F(1, 3)], 1)
