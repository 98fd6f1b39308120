"""The integer lattice kernel of `qmodular` against a Fraction reference.

The reference is the general-rational chain the eta constructions used to
run on: `eta_expansion` and `shift`, with the Fraction recurrences of
`fraction_reference` in place of `qpow` and `QSeries.__mul__`, which now run
on the kernel themselves.  Both sides are exact, so every comparison is
equality of term maps.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from probes import qshift
from crystalsum.qmodular import (EtaProductSpec, QSeries, SelfDualSeries, _lattice_power,
                                 eta_product, family_l, family_spec,
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
        fac = qshift(ref.eta_expansion(rel + F(d, 24), scale=d), F(-d, 24))
        inner = ref.mul(inner, ref.qpow(fac, m))
    out = ref.qpow(inner, F(1, s)) if s > 1 else inner
    return qshift(out, lead).truncate(order)


def reference_lambda(order):
    """16 eta(2z)^16 eta(z/2)^8 / eta(z)^24 from three Fraction powers."""
    order = F(order)
    lead = F(1, 2)
    if order <= lead:
        return QSeries({}, order)
    rel = order - lead
    f2 = qshift(ref.eta_expansion(rel + F(2, 24), scale=2), F(-2, 24))
    fh = qshift(ref.eta_expansion(rel + F(1, 48), scale=F(1, 2)), F(-1, 48))
    f1 = qshift(ref.eta_expansion(rel + F(1, 24), scale=1), F(-1, 24))
    prod = ref.mul(ref.mul(ref.qpow(f2, 16), ref.qpow(fh, 8)), ref.qpow(f1, -24))
    return qshift(prod, lead, 16).truncate(order)


def reference_fminus(spec, order):
    """(1 - 2 lambda(sqrt(N) z)) times the eta product, as QSeries products."""
    order = F(order)
    rootN = math.isqrt(spec.N)
    lam = reference_lambda(order / rootN).scale_exponents(rootN)
    g = ref.mul(QSeries({F(0): 1}, order) - lam.scale(2), reference_eta_product(spec, order))
    return SelfDualSeries(g, 2 * spec.b, spec.N, -1)


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


# -- `*` and `qpow` on the kernel against the Fraction recurrences ---------------

# denominators up to 12 mix several bases (7, 10, 12, ...), so no power of
# one base clears them; units 1/2 and 1/3 meet on the common unit 1/6
units = st.sampled_from([F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 6)])
coeffs = st.lists(st.fractions(-5, 5, max_denominator=12), max_size=10)
# orders up to lead + 6 cut the longer coefficient lists
small_series = st.builds(QSeries.on_lattice, lead=st.fractions(-2, 2, max_denominator=6),
                         unit=units, coeffs=coeffs,
                         order=st.fractions(-2, 6, max_denominator=6))
# 1/7 at E = 1 and 1/5 at E = 3: D = 35, though 5 alone would clear E = 3
SEVENTH_FIFTH = QSeries({F(0): 1, F(1): F(1, 7), F(3): F(1, 5)}, F(9))


@settings(max_examples=70, deadline=None)
@given(a=small_series, b=small_series)
@example(a=SEVENTH_FIFTH, b=QSeries.on_lattice(F(1, 3), F(1, 2), [F(2, 9), F(-1, 4)], F(8)))
@example(a=SEVENTH_FIFTH, b=SEVENTH_FIFTH)
def test_mul_matches_fraction_reference(a, b):
    assert a * b == ref.mul(a, b)


@settings(max_examples=70, deadline=None)
@given(t=st.fractions(min_value=F(-3), max_value=3, max_denominator=4).filter(bool),
       p=st.integers(-3, 3).filter(bool), q=st.integers(1, 3), u=small_series)
@example(t=F(1), p=2, q=3, u=SEVENTH_FIFTH)
@example(t=F(1), p=-1, q=2, u=SEVENTH_FIFTH)
def test_qpow_matches_fraction_reference(t, p, q, u):
    # lead coefficient t^q, so the q-th root exists
    assume(u)
    u = QSeries.on_lattice(u.lead, u.unit, [t ** q] + u.coeffs[1:], u.order)
    assert qpow(u, F(p, q)) == ref.qpow(u, F(p, q))
