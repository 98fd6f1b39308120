"""Property tests: ring laws of ExpSum, qpow round trips, DiscreteMeasure
merging against a list reference, and array against scalar bump transforms."""

import math
from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crystalsum.freqalg import ExpSum, FreqBasis
from crystalsum.measures import MERGE_TOL, Atom, DiscreteMeasure, SqrtProvenance
from crystalsum.qmodular import QSeries, qpow
from crystalsum.verifier import TestFunction, bump_ft

BASIS = FreqBasis((1.0, math.sqrt(2)))

# Gaussian-integer coefficients keep every sum and product exact in doubles,
# so the laws can be asserted with ==.
gint = st.builds(complex, st.integers(-4, 4), st.integers(-4, 4))
vec = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
expsums = st.dictionaries(vec, gint, max_size=5).map(lambda t: ExpSum(BASIS, t))


@given(expsums, expsums, expsums)
def test_expsum_ring_laws(f, g, h):
    one = ExpSum(BASIS, {(0, 0): 1})
    zero = ExpSum(BASIS)
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * one == f and f + zero == f
    assert f - f == zero


@given(expsums, expsums)
def test_expsum_star_is_an_involutive_ring_map(f, g):
    assert f.star().star() == f
    assert (f + g).star() == f.star() + g.star()
    assert (f * g).star() == f.star() * g.star()


small_q = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(t=st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3),
       p=st.integers(-3, 3).filter(bool), q=st.integers(1, 3),
       e0=st.fractions(min_value=-2, max_value=2, max_denominator=3),
       tail=st.dictionaries(st.integers(1, 6), small_q, max_size=4))
def test_qpow_round_trip(t, p, q, e0, tail):
    r = F(p, q)
    # c0 = t^(|p| q) has exact rational r-th and (1/r)-th powers
    c0 = t ** (abs(p) * q)
    u = QSeries({e0: c0, **{e0 + k: c for k, c in tail.items()}}, e0 + 7)
    assert qpow(qpow(u, r), 1 / r) == u


# -- DiscreteMeasure against a list reference ---------------------------------

def reference_merge(atoms):
    """Sort, merge neighbours by provenance or position, drop zero weights."""
    merged = []
    for a in sorted(atoms, key=lambda a: a.x):
        if merged:
            prev = merged[-1]
            if a.prov is not None and prev.prov is not None:
                same = (a.prov.radicand_key() == prev.prov.radicand_key()
                        and (a.x >= 0) == (prev.x >= 0))
            else:
                same = abs(a.x - prev.x) <= MERGE_TOL
            if same:
                merged[-1] = Atom(prev.x, prev.w + a.w, prev.prov or a.prov)
                continue
        merged.append(a)
    return [a for a in merged if a.w != 0]


def reference_weight_at(atoms, x, tol=MERGE_TOL):
    for a in atoms:
        if abs(a.x - x) <= tol:
            return a.w
    return 0j


jitter = st.sampled_from([0.0, 4e-11, -4e-11, 9e-11, 3e-10])
plain_atom = st.builds(lambda k, j, w: Atom(k / 4 + j, complex(w)),
                       st.integers(-12, 12), jitter, st.integers(-2, 2))
# squarefree N: distinct radicands then have distinct values, as positions
# of one measure must (equal values under different tags cannot merge)
prov = st.builds(SqrtProvenance, st.integers(1, 6), st.integers(1, 3),
                 st.sampled_from([2, 3, 5]))


@st.composite
def tagged_atoms(draw):
    """A +- pair at sqrt(n/(b sqrt N)), tagged or not, with random weights."""
    p = draw(prov)
    w = st.integers(-2, 2).map(complex)
    out = [Atom(p.value(), draw(w), p), Atom(-p.value(), draw(w), p)]
    if draw(st.booleans()):
        out.append(Atom(p.value() + draw(jitter), draw(w)))
    return out


@settings(max_examples=200, deadline=None)
@given(plain=st.lists(plain_atom, max_size=12),
       tagged=st.lists(tagged_atoms(), max_size=4),
       probes=st.lists(st.floats(-4, 4), max_size=5))
def test_measure_merging_and_weight_at_match_list_reference(plain, tagged, probes):
    atoms = plain + [a for group in tagged for a in group]
    m = DiscreteMeasure(atoms, (-5, 5))
    ref = reference_merge(atoms)
    assert list(m) == ref
    assert np.array_equal(m.positions(), [a.x for a in ref])
    assert np.array_equal(m.weights(), np.array([a.w for a in ref], dtype=complex))
    for x in [a.x + d for a in atoms for d in (0.0, 5e-11, -1e-10, 2e-10)] + probes:
        assert m.weight_at(x) == reference_weight_at(ref, x)


# -- bump transforms ----------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(center=st.floats(-1, 1), halfwidth=st.floats(0.5, 2),
       exponent=st.floats(0.5, 2),
       xi=st.lists(st.floats(-4, 4), min_size=1, max_size=4))
def test_bump_ft_array_agrees_with_scalar_calls(center, halfwidth, exponent, xi):
    tf = TestFunction("bump", center=center, halfwidth=halfwidth,
                      exponent=exponent)
    vals, errs = bump_ft(tf, np.array(xi), tol=1e-8)
    assert vals.shape == errs.shape == (len(xi),)
    for x, v, e in zip(xi, vals, errs):
        vs, es = bump_ft(tf, x, tol=1e-8)
        assert isinstance(vs, complex) and isinstance(es, float)
        assert abs(v - vs) <= e + es
