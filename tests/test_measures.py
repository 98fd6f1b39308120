import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from crystalsum.freqalg import FreqBasis, monomial, sine
from crystalsum.hermite import (
    HermiteBiehler,
    RootFindingError,
    ks_from_Q,
    leeyang_real_form,
)
from crystalsum.measures import (
    Atom,
    DiscreteMeasure,
    FSPair,
    SqrtProvenance,
    antipodal_split,
    degree_probe,
    fit_h,
    fit_tail_model,
    herglotz_eval,
    herglotz_kernel_residual,
    herglotz_tail_bound,
    measure_from_phase,
    pair_from_hb,
    signed_split,
    window_tail,
)
from crystalsum.spectra import exact_spectrum, fejer_reconstruct

HALF = FreqBasis((0.5,))
UNIT = FreqBasis((1.0,))


def poisson_H():
    return ks_from_Q(sine(HALF, (1,)))


def leeyang_H():
    """Lee-Yang determinant of the rotation by pi/4, lengths (1, sqrt2)."""
    th = math.pi / 4
    U = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    return ks_from_Q(leeyang_real_form(U, [(1, 0), (0, 1)],
                                       FreqBasis((1.0, math.sqrt(2)))))


def comb(wt, n_max, spacing=1.0):
    atoms = [(spacing * n, wt) for n in range(-n_max, n_max + 1)]
    return DiscreteMeasure(atoms, (-spacing * n_max - 1, spacing * n_max + 1),
                           nonneg=wt > 0)


def test_merge_by_position():
    m = DiscreteMeasure([(0.0, 1.0), (1e-12, 2.0), (1.0, 3.0)], (-1, 2))
    assert len(m) == 2
    assert m.weight_at(0.0) == 3.0


def test_merge_by_provenance():
    p = SqrtProvenance(10, 9, 4)  # sqrt(10/18)
    x = p.value()
    m = DiscreteMeasure([Atom(x, 1.0, p), Atom(x + 5e-10, 2.0, p),
                         Atom(-x, 4.0, p)], (-1, 1))
    assert len(m) == 2
    assert m.weight_at(x) == 3.0 and m.weight_at(-x) == 4.0


def test_provenance_merges_across_square_factors_of_N():
    # sqrt(1/(1 sqrt 1)) = sqrt(2/(1 sqrt 4)) = 1: one radicand, two tags
    p, q = SqrtProvenance(1, 1, 1), SqrtProvenance(2, 1, 4)
    assert p.radicand_key() == q.radicand_key() == (1, 1)
    assert SqrtProvenance(3, 2, 12).radicand_key() == (Fraction(3, 4), 3)
    m = DiscreteMeasure([Atom(p.value(), 1.0, p), Atom(q.value(), 2.0, q)], (-2, 2))
    assert len(m) == 1 and m.weight_at(1.0) == 3.0


def test_nonneg_flag_enforced():
    with pytest.raises(ValueError):
        DiscreteMeasure([(0.0, -1.0)], (-1, 1), nonneg=True)
    with pytest.raises(ValueError):
        DiscreteMeasure([(0.0, 1j)], (-1, 1), nonneg=True)


def test_window_must_cover():
    with pytest.raises(ValueError):
        DiscreteMeasure([(2.0, 1.0)], (-1, 1))


def test_measure_from_phase_poisson():
    mu = measure_from_phase(poisson_H(), 0.0, (-5.5, 5.5))
    assert np.allclose(mu.positions(), np.arange(-5, 6), atol=1e-10)
    assert np.allclose(mu.weights().real, 2 * math.pi, rtol=1e-10)
    assert mu.nonneg


def test_measure_from_phase_plane_wave():
    H = HermiteBiehler.validate(monomial(UNIT, (-1,)))
    mu = measure_from_phase(H, 0.0, (-2.2, 2.2))
    # B = sin(2 pi z): atoms on Z/2 with phi' = 2 pi, weight 1
    assert np.allclose(mu.positions(), np.arange(-4, 5) / 2, atol=1e-11)
    assert np.allclose(mu.weights().real, 1.0, rtol=1e-10)
    # alpha = pi/2 shifts to the zeros of cos(2 pi z)
    mu2 = measure_from_phase(H, math.pi / 2, (-1.3, 1.3))
    assert np.allclose(mu2.positions(),
                       [-1.25, -0.75, -0.25, 0.25, 0.75, 1.25], atol=1e-11)


def test_measure_from_phase_rejects_double_roots():
    Q = sine(HALF, (1,))
    H = poisson_H()
    squared = Q * Q
    fake = HermiteBiehler(H.E, H.A, squared, H.certificate)
    with pytest.raises(RootFindingError):
        measure_from_phase(fake, 0.0, (-2.5, 2.5))


def test_pair_from_hb_poisson():
    pair = pair_from_hb(poisson_H(), 10.0, (-8.5, 8.5))
    assert pair.real_antipodal
    assert np.allclose(pair.mu.positions(), np.arange(-8, 9), atol=1e-10)
    assert np.allclose(pair.mu.weights().real, 2 * math.pi, rtol=1e-10)
    assert np.allclose(pair.a.positions(), np.arange(-10, 11), atol=1e-12)
    assert np.allclose(pair.a.weights(), 2 * math.pi, rtol=1e-11)


def test_pair_from_hb_plane_wave():
    H = HermiteBiehler.validate(monomial(UNIT, (-1,)))
    pair = pair_from_hb(H, 6.0, (-3.3, 3.3))
    assert pair.a.weight_at(0.0) == pytest.approx(2.0, rel=1e-12)
    for k in (2.0, 4.0, 6.0):
        assert pair.a.weight_at(k) == pytest.approx(2.0, rel=1e-11)
        assert pair.a.weight_at(-k) == pytest.approx(2.0, rel=1e-11)
    assert pair.a.weight_at(1.0) == 0j


def test_pair_cutoff_zero():
    pair = pair_from_hb(poisson_H(), 0.0, (-2.5, 2.5))
    assert len(pair.a) == 1
    assert pair.a.weight_at(0.0) == pytest.approx(2 * math.pi, rel=1e-12)


def test_herglotz_single_atom_is_i_over_z():
    mu = DiscreteMeasure([(0.0, 2 * math.pi)], (-1, 1), nonneg=True)
    for z in (1j, 0.5 + 1j, -2 + 0.3j):
        assert herglotz_eval(mu, 0.0, z) == pytest.approx(1j / z, rel=1e-12)


def test_herglotz_empty_measure():
    mu = DiscreteMeasure([], (-1, 1))
    assert herglotz_eval(mu, 0.7, 1j) == 0.7j


def test_herglotz_matches_cotangent():
    mu = comb(2 * math.pi, 1000)
    f = lambda z: 1j * math.pi / np.tan(math.pi * z)
    z = 1 / 3 + 1j
    h = fit_h(mu, f(1j))
    got = herglotz_eval(mu, h, z)
    assert abs(got - f(z)) <= 3e-3  # window-tail O(1/N)


def test_herglotz_positive_real_part():
    mu = comb(2 * math.pi, 300)
    rng = np.random.default_rng(2)
    for _ in range(100):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))
        assert herglotz_eval(mu, 0.0, z).real > 0


def test_kernel_residual_single_atom():
    mu = DiscreteMeasure([(0.0, 2 * math.pi)], (-1, 1), nonneg=True)
    f = lambda z: 1j / z
    for w, z in ((1j, 1j), (0.3 + 0.8j, -1 + 2j)):
        assert herglotz_kernel_residual(mu, f, w, z) < 1e-14


def test_kernel_residual_constant():
    mu = DiscreteMeasure([], (-1, 1))
    f = lambda z: 0.4j
    assert herglotz_kernel_residual(mu, f, 1j, 2j) == 0.0


def test_kernel_residual_poisson_within_tail():
    mu = comb(2 * math.pi, 1000)
    f = lambda z: 1j * math.pi / np.tan(math.pi * z)
    w, z = 1j, 1 + 2j
    res = herglotz_kernel_residual(mu, f, w, z)
    # the window tail is sum_{|g|>1000} 1/g^2 = 2/1000
    assert res <= 2.5e-3
    tail = herglotz_tail_bound(mu, w, z)
    assert res <= 3 * tail


def test_herglotz_tail_bound_without_tail_model():
    # three atoms fit no tail model; the flat one (max |w|, p = 0, atoms
    # per unit of window) still bounds the kernel sum the window cuts off
    H = poisson_H()
    mu = pair_from_hb(H, 2.0, (-1.5, 1.5)).mu
    assert len(mu) == 3 and mu.tail_model is None
    f = lambda z: 1j * H.A.eval(z) / H.B.eval(z)
    for w, z in ((1j, 1j), (0.3 + 0.5j, -0.2 + 1j), (2j, 0.5j)):
        res = herglotz_kernel_residual(mu, f, w, z)
        tail = herglotz_tail_bound(mu, w, z)
        assert 0 < res <= tail


def test_window_tail_of_a_power_law():
    # weights (1+|x|)^-2 at the integers fit p = -2; against env = 1 each
    # edge then gives C density (1+X)^(p+1)/(-(p+1)) = C density/(1+X)
    atoms = [(n, (1.0 + abs(n)) ** -2) for n in range(-50, 51)]
    mu = DiscreteMeasure(atoms, (-50.5, 50.5))
    tm = mu.tail_model
    assert tm.p == pytest.approx(-2.0, abs=1e-9)
    expect = -2 * tm.C * tm.density * (1 + 50.5) ** (tm.p + 1) / (tm.p + 1)
    assert window_tail(mu, np.ones_like) == pytest.approx(expect, rel=1e-3)



@pytest.mark.parametrize("w", [[1, 1, 1e10, 1e20, 1e30], [1e30, 1e20, 1e10, 1, 1]],
                         ids=["rising", "mirrored"])
def test_tail_fit_is_absent_or_bounds_every_fitted_atom(w):
    # weights jumping 1e10 per 0.001 near x = 1000 fit |p| ~ 2e7, where
    # (1+|x|)^p overflows; a stored C of 0 or inf would bound nothing
    x, w = np.array([-3, 1000, 1000.001, 1000.002, 1000.003]), np.array(w)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tm = fit_tail_model(x, w)
    if tm is not None:
        fitted = np.abs(x) >= np.abs(x).max() / 3
        assert 0 < tm.C < math.inf
        assert np.all(np.log(w[fitted])
                      <= math.log(tm.C) + tm.p * np.log1p(np.abs(x[fitted])))

@pytest.mark.parametrize("H", [poisson_H(), leeyang_H()], ids=["poisson", "leeyang"])
def test_herglotz_tail_bound_is_the_truncation_within_thirty_percent(H):
    # truth: the kernel sum at w = z = i over the atoms beyond X, summed out
    # to N plus the remainder of the atoms' mean mass per unit length m,
    # integral_{|t|>N} m/(2 pi (1+t^2)) dt = m (pi/2 - atan N)/pi
    N = 4000.5
    far = measure_from_phase(H, 0.0, (-N, N))
    g, w = far.positions(), far.weights().real
    m = w.sum() / (2 * N)
    remainder = m * (math.pi / 2 - math.atan(N)) / math.pi
    for X in (16.5, 60.5, 200.5):
        out = np.abs(g) > X
        truth = np.sum(w[out] / (1 + g[out] ** 2)) / (2 * math.pi) + remainder
        bound = herglotz_tail_bound(measure_from_phase(H, 0.0, (-X, X)), 1j, 1j)
        assert truth <= bound <= 1.3 * truth


def test_round_trip_fejer_vs_herglotz():
    # equality of the two representations of f (spectrum side vs measure
    # side): the herglotz window tail is ~2|z|/W, so W = 5e4 and moderate
    # |z| keep the comparison under 1e-4
    H = poisson_H()
    cutoff = 600.0
    pair = pair_from_hb(H, cutoff, (-50000.5, 50000.5))
    spec = exact_spectrum(H, cutoff)
    a0 = pair.a.weight_at(0.0).real
    h = fit_h(pair.mu, fejer_reconstruct(spec, a0, cutoff, 1j))
    for z in (1j, 0.4 + 1j, -0.3 + 1.2j, 1.1j, 0.2 + 1.25j):
        lhs = fejer_reconstruct(spec, a0, cutoff, z)
        rhs = herglotz_eval(pair.mu, h, z)
        assert abs(lhs - rhs) <= 1e-4


def test_signed_split():
    mu = DiscreteMeasure([(0.0, 1.0), (1.0, -1.0)], (-1, 2))
    plus, minus = signed_split(mu)
    assert plus.weight_at(0.0) == 1.0 and len(plus) == 1
    assert minus.weight_at(1.0) == 1.0 and len(minus) == 1
    # recombination is exact
    for at in mu:
        assert (plus.weight_at(at.x) - minus.weight_at(at.x)) == at.w
    with pytest.raises(ValueError):
        signed_split(DiscreteMeasure([(0.0, 1j)], (-1, 1)))


def test_signed_split_all_positive():
    mu = comb(2 * math.pi, 3)
    plus, minus = signed_split(mu)
    assert len(plus) == len(mu) and len(minus) == 0


def test_antipodal_split_quarter_shift_pair():
    # mu = sum i^n delta_n with a = indicator of Z - 1/4: the split yields
    # the two real-antipodal sub-pairs displayed by the classical shifted
    # lattice example.
    N = 6
    mu = DiscreteMeasure([(n, 1j ** (n % 4)) for n in range(-N, N + 1)],
                         (-N - 1, N + 1))
    a = DiscreteMeasure([(n - 0.25, 1.0) for n in range(-N, N + 1)],
                        (-N - 1.25, N + 0.75))
    (mu1, a1), (mu2, a2) = antipodal_split(mu, a)
    # mu1 = Re mu: (-1)^m at even integers
    assert np.allclose(mu1.positions(), np.arange(-N, N + 1, 2))
    for at in mu1:
        assert at.w == (-1.0) ** (at.x / 2)
    # mu2 = -Im mu at odd integers
    for at in mu2:
        assert at.w == pytest.approx(-math.sin(math.pi * at.x / 2))
    # a1 = 1/2 on both quarter-shifted lattices
    for at in a1:
        assert at.w == 0.5
        assert min(abs(at.x % 1 - 0.25), abs(at.x % 1 - 0.75)) < 1e-9
    # a2 = +-i/2, antipodally
    for at in a2:
        assert abs(at.w) == 0.5 and abs(at.w.real) < 1e-15
        assert a2.weight_at(-at.x) == at.w.conjugate()
    # both split pairs satisfy the summation identity on a gaussian
    phi = lambda t: np.exp(-np.pi * t * t)
    phihat = phi  # self-dual
    for m, aa in ((mu1, a1), (mu2, a2)):
        lhs = sum(at.w * phi(at.x) for at in aa)
        rhs = sum(at.w * phihat(at.x) for at in m)
        assert abs(lhs - rhs) < 1e-9


def test_antipodal_split_keeps_every_irrational_atom():
    # a real-antipodal a on the irrational Lee-Yang spectrum is all a1
    pair = pair_from_hb(leeyang_H(), 10.0, (-40.0, 40.0))
    (_, a1), (_, a2) = antipodal_split(pair.mu, pair.a)
    assert len(pair.a) == 89
    assert np.array_equal(a1.positions(), pair.a.positions())
    assert np.array_equal(a1.weights(), pair.a.weights())
    assert len(a2) == 0


def test_degree_probe_poisson():
    mu = comb(2 * math.pi, 400)
    assert degree_probe(mu, 2)["verdict"] == "convergent-at-window-scale"
    assert degree_probe(mu, 0)["verdict"] == "divergent trend"


def test_degree_probe_single_atom():
    mu = DiscreteMeasure([(0.5, 1.0)], (-1, 1))
    assert degree_probe(mu, 0)["verdict"] == "convergent-at-window-scale"


def test_json_round_trip():
    p = SqrtProvenance(10, 9, 4)
    mu = DiscreteMeasure([Atom(p.value(), 1.5, p), (0.0, 2.0)], (-1, 1))
    d = mu.to_json_dict()
    back = DiscreteMeasure.from_json_dict(d)
    assert len(back) == 2
    assert back.weight_at(p.value()) == 1.5
    pair = FSPair(mu, mu, {"real_antipodal": False})
    back_pair = FSPair.from_json_dict(pair.to_json_dict())
    assert len(back_pair.mu) == 2


def test_json_keeps_the_fitted_tail_model():
    mu = comb(2 * math.pi, 20)
    d = mu.to_json_dict()
    assert d["tail_model"] == mu.tail_model.to_json_dict()
    # the model is refitted from the atoms, to the same value
    assert DiscreteMeasure.from_json_dict(d).tail_model == mu.tail_model
