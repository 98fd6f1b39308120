"""Property tests: ring laws of ExpSum, its evaluation against a per-term
reference, qpow round trips, QSeries through its term map, DiscreteMeasure
merging against a list reference, array against scalar bump transforms, the
pair pipeline on random Lee-Yang unitaries, and product grids against
their flat arrays."""

import math
from collections import namedtuple
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crystalsum.freqalg import EvalRangeError, ExpSum, FreqBasis, Grid
from crystalsum.hermite import ks_from_Q, leeyang_real_form
from crystalsum.measures import MERGE_TOL, DiscreteMeasure, SqrtProvenance, pair_from_hb
from crystalsum.qmodular import QSeries, qpow
from crystalsum.verifier import TestFunction, bump_ft, check_pair, gaussian_suite
from probes import qcoefficient

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
    assert f - 2 == f + ExpSum(BASIS, {(0, 0): -2}) and 2 - f == -f + 2 * one


@given(expsums, expsums)
def test_expsum_star_is_an_involutive_ring_map(f, g):
    assert f.star().star() == f
    assert (f + g).star() == f.star() + g.star()
    assert (f * g).star() == f.star() * g.star()


# -- evaluation against one exponential per term ------------------------------

def per_term_reference(s, z):
    """sum c e^{2 pi i lam z} with one np.exp per term, and the sum of the
    term moduli; None where some term's modulus e^{-2 pi lam Im z} exceeds
    e^709 at some point (where ExpSum.eval must raise)."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape, dtype=complex)
    moduli = np.zeros(z.shape)
    for _, lam, c in s.sorted_terms():
        if z.size and np.max(-2.0 * math.pi * lam * z.imag) > 709.0:
            return None
        e = np.exp(2j * np.pi * lam * z)
        out = out + c * e
        moduli = moduli + abs(c) * np.abs(e)
    return out, moduli


@st.composite
def sums_and_point_strategies(draw):
    """A rank 1-3 sum with k in [-8, 8] (gaps included), and a strategy of
    points whose heights fall on both sides of eval's range guard and past
    the per-term overflow check."""
    base = draw(st.lists(st.sampled_from([1.0, math.sqrt(2), math.sqrt(3),
                                          math.pi / 3, 0.5, math.e / 2]),
                         min_size=1, max_size=3, unique=True))
    basis = FreqBasis(tuple(base), draw(st.integers(1, 3)))
    coef = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1)).filter(bool)
    vec = st.tuples(*[st.integers(-8, 8)] * len(base))
    s = ExpSum(basis, draw(st.dictionaries(vec, coef, min_size=1, max_size=8)))
    height = draw(st.sampled_from([1.5, 8.0, 25.0]))
    return s, st.builds(complex, st.floats(-50, 50), st.floats(-height, height))


@st.composite
def sums_and_points(draw):
    """The sums of sums_and_point_strategies at a scalar, a 0-d array, an
    empty array or an array of 1-6 of its points."""
    s, point = draw(sums_and_point_strategies())
    shape = draw(st.sampled_from(["scalar", "0-d", "empty", "array"]))
    if shape == "scalar":
        z = draw(point)
    elif shape == "0-d":
        z = np.asarray(draw(point))
    elif shape == "empty":
        z = np.zeros(0, dtype=complex)
    else:
        z = np.array(draw(st.lists(point, min_size=1, max_size=6)))
    return s, z


def reference_bound(s, scale, moduli):
    """The error allowed of an evaluation against per_term_reference at
    points of modulus `scale`."""
    # a term's frequency sum_j k_j base_j/D is rounded relative to
    # sum_j |k_j| base_j/D, in the reference too, and |z| times that sets
    # the phase error of either route
    norm = max(sum(abs(k) * b for k, b in zip(v, s.basis.base))
               for v in s.terms) / s.basis.denominator
    # and underflow, a few subnormal steps per term
    return 16 * np.finfo(float).eps * (1 + 2 * math.pi * norm * scale) * moduli \
        + 4 * len(s) * np.finfo(float).smallest_subnormal


WIDE_GAP = ExpSum(FreqBasis((1.0,)), {(-8,): 1.0, (8,): 0.5j})


@settings(max_examples=300, deadline=None)
@given(sums_and_points())
@example((WIDE_GAP, np.array([4j, 1.0 - 4j])))      # an array: per term
@example((WIDE_GAP, np.array([15j])))                # the check raises
@example((ExpSum(FreqBasis((math.sqrt(2), math.sqrt(3))),   # one subnormal step
                 {(1, 1): 2.2250847434e-313j}), 1 + 0j))
@example((ExpSum(FreqBasis((1.0,)), {(0,): 1e-200, (-8,): 1e-320}),
          6j))                    # a subnormal coefficient times e^301
def test_expsum_eval_matches_per_term_reference(case):
    s, z = case
    ref = per_term_reference(s, z)
    if ref is None:
        with pytest.raises(EvalRangeError):
            s.eval(z)
        return
    before = np.asarray(z).tobytes()
    got = s.eval(z)
    assert np.asarray(z).tobytes() == before
    want, moduli = ref
    if np.ndim(z) == 0:
        assert isinstance(got, complex)
    else:
        assert isinstance(got, np.ndarray) and got.dtype == complex
        assert got.shape == np.shape(z)
    bound = reference_bound(s, np.abs(z), moduli)
    finite = np.isfinite(moduli)
    assert np.all(np.isfinite(np.asarray(got)[finite]))
    assert np.all(np.abs(np.asarray(got) - want)[finite] <= bound[finite])


@st.composite
def sums_and_grids(draw):
    """The sums of sums_and_points on grids of 1-4 row heads at the same
    heights and 1-6 real column offsets, the last row partial or unused."""
    s, point = draw(sums_and_point_strategies())
    rows = draw(st.lists(point, min_size=1, max_size=4))
    cols = draw(st.lists(st.floats(-50, 50), min_size=1, max_size=6))
    return s, Grid(rows, cols, draw(st.integers(0, len(rows) * len(cols))))


@settings(max_examples=300, deadline=None)
@given(sums_and_grids())
@example((WIDE_GAP, Grid([0.5 + 1j, -3 + 2j], [0.0, 0.25, 7.5], 5)))  # contraction
@example((WIDE_GAP, Grid([1 + 4j, -2 - 4j], [0.1, -0.3], 3)))         # contraction
@example((WIDE_GAP, Grid([1 + 8j, -2 - 8j], [0.1, -0.3], 3)))         # per term
@example((WIDE_GAP, Grid([15j, 0j], [0.0, 1.0], 3)))                  # raises
@example((ExpSum(FreqBasis((1.0, math.sqrt(2), math.sqrt(3)), 2),       # rank 3,
                 {(3, -2, 1): 0.5, (-4, 1, 0): 1j, (0, 5, -3): -0.25}),  # last row
          Grid([0.5 + 0.4j, -7 - 0.3j, 11 + 0.2j], [0.0, 0.3, -1.7, 4.0], 10)))  # partial
@example((ExpSum(BASIS, {(2, -1): 1.0, (-3, 2): 0.5j, (0, 1): -2.0}),  # more than
          Grid(np.linspace(-40, 40, 100) + 0.3j, np.linspace(0, 0.8, 512), 51193)))  # a chunk
@example((ExpSum(BASIS, {(2, -1): 1.0, (-3, 2): 0.5j, (0, 1): -2.0}),  # column blocks
          Grid([0.5 + 0.3j, -4 + 0.2j, 9 - 0.1j], np.linspace(-3, 3, 130), 300)))  # 64, 64, 2
@example((WIDE_GAP, Grid([0.5 + 0.1j, -2 - 0.2j, 3 + 0.05j], [0.25], 3)))  # one column
@example((ExpSum(FreqBasis((1.0, math.sqrt(2), math.sqrt(3)), 2),       # rank 3 on
                 {(3, -2, 1): 0.5, (-4, 1, 0): 1j, (0, 5, -3): -0.25}),  # one full block
          Grid([0.5 + 0.4j, -7 - 0.3j], np.linspace(-2, 2, 64, endpoint=False), 128)))
def test_grid_eval_matches_eval_at_its_points(case):
    s, grid = case
    z = np.asarray(grid)
    assert z.shape == grid.shape and z.dtype == complex
    if per_term_reference(s, z) is None:
        with pytest.raises(EvalRangeError):
            s.eval(z)
        with pytest.raises(EvalRangeError):
            s.eval(grid)
        return
    got, want = s.eval(grid), s.eval(z)
    assert isinstance(got, np.ndarray) and got.dtype == complex
    assert got.shape == z.shape
    _, moduli = per_term_reference(s, z)
    # a point is the rounded sum of its row head and column offset, so it
    # is known to the scale of their moduli, not of its own
    scale = (np.abs(grid.rows)[:, None] + np.abs(grid.cols)).ravel()[:grid.size]
    finite = np.isfinite(moduli)
    assert np.all(np.isfinite(got[finite]))
    assert np.all(np.abs(got - want)[finite] <= reference_bound(s, scale, moduli)[finite])


SIN_PI = ExpSum(FreqBasis((0.5,)), {(1,): -0.5j, (-1,): 0.5j})  # sin(pi z)


def on_shape(x, shape):
    """x as a scalar, or x and x + 0.5 as an array or as a Grid."""
    return {"scalar": x, "array": np.array([x, x + 0.5]),
            "grid": Grid([x], [0.0, 0.5], 2)}[shape]


@pytest.mark.parametrize("shape", ["scalar", "array", "grid"])
@pytest.mark.parametrize("x", [1e14, 1e15, 1e17, 1e300])
def test_eval_raises_where_a_phase_has_no_correct_digit(x, shape):
    # sin(pi x) = 0 at these integers, where summing phases with no correct
    # digit gave values from -0.0113 to -0.902
    with pytest.raises(EvalRangeError):
        SIN_PI.eval(on_shape(x, shape))


@pytest.mark.parametrize("shape", ["scalar", "array", "grid"])
def test_eval_below_the_phase_limit_is_within_the_reference_bound(shape):
    z = on_shape(1e12, shape)
    got = np.atleast_1d(SIN_PI.eval(z))
    points = np.atleast_1d(np.asarray(z))
    want, moduli = per_term_reference(SIN_PI, points)
    bound = reference_bound(SIN_PI, np.abs(points), moduli)
    assert np.all(np.abs(got - want) <= bound)
    # and within it of sin(pi x) = 0, sin(pi (x + 0.5)) = 1 at the even x
    assert np.all(np.abs(got - np.array([0.0, 1.0])[:got.size]) <= bound)


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


# declared units finer than the support, and orders cutting the list, included
lattice_series = st.builds(
    QSeries.on_lattice,
    lead=small_q, unit=st.fractions(min_value=F(1, 6), max_value=2, max_denominator=6),
    coeffs=st.lists(st.sampled_from([F(0), F(0), F(1), F(-2, 3), F(5, 2)]), max_size=10),
    order=st.fractions(min_value=-3, max_value=12, max_denominator=6))


@settings(max_examples=200, deadline=None)
@given(s=lattice_series, probe=st.fractions(min_value=-4, max_value=14, max_denominator=12))
def test_qseries_survives_its_term_map(s, probe):
    assert QSeries(s.terms, s.order) == s
    if s:
        assert s.coeffs[0] and s.coeffs[-1]
        assert s.lead + (len(s.coeffs) - 1) * s.unit < s.order
        assert qcoefficient(s, s.lead + s.unit / 2) == 0  # between lattice points
    for e, c in s.terms.items():
        assert qcoefficient(s, e) == c
    assert qcoefficient(s, probe) == s.terms.get(probe, 0)


# -- DiscreteMeasure against a list reference ---------------------------------

Atom = namedtuple("Atom", "x w prov", defaults=(None,))  # one input atom


def reference_merge(atoms):
    """Sort; an atom at most MERGE_TOL above its left neighbour joins the
    neighbour's group, which keeps its first position and first non-null
    tag and sums its weights; drop zero weights.  Tags are not compared."""
    merged = []
    for i, a in enumerate(sorted(atoms, key=lambda a: a.x)):
        if i and a.x - left <= MERGE_TOL:
            g = merged[-1]
            merged[-1] = Atom(g.x, g.w + a.w, g.prov or a.prov)
        else:
            merged.append(a)
        left = a.x
    return [a for a in merged if a.w != 0]


def reference_weight_at(atoms, x, tol=MERGE_TOL):
    for a in atoms:
        if abs(a.x - x) <= tol:
            return a.w
    return 0j


jitter = st.sampled_from([0.0, 4e-11, -4e-11, 9e-11, 3e-10])
plain_atom = st.builds(lambda k, j, w: Atom(k / 4 + j, complex(w)),
                       st.integers(-12, 12), jitter, st.integers(-2, 2))
# N with square factors too: tags of different N then name one value
prov = st.builds(SqrtProvenance, st.integers(1, 6), st.integers(1, 3),
                 st.sampled_from([1, 2, 3, 4, 5, 8, 12]))


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
    m = DiscreteMeasure([a.x for a in atoms], [a.w for a in atoms], (-5, 5),
                        [a.prov for a in atoms])
    ref = reference_merge(atoms)
    assert m.prov == tuple(a.prov for a in ref)
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


# -- the pair pipeline on random Lee-Yang unitaries ----------------------------

LEEYANG_BASIS = FreqBasis((1.0, math.sqrt(2)))


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(0.005, math.pi - 0.005), seed=st.integers(0, 2**31 - 1))
@example(theta=0.005, seed=0)
@example(theta=math.pi - 0.005, seed=0)
def test_leeyang_rotation_pairs_pass(theta, seed):
    U = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    Q = leeyang_real_form(U, [(1, 0), (0, 1)], LEEYANG_BASIS)
    H = ks_from_Q(Q)
    pair = pair_from_hb(H, 6.0, (-20.0, 20.0))
    assert len(pair.mu) > 0 and np.all(pair.mu.w.real > 0)
    for tf in gaussian_suite(2, seed=seed):
        report = check_pair(pair, tf, tol=1e-6)
        assert report.verdict == "pass", report
