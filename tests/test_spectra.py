import math
import struct
import time
import tracemalloc
from fractions import Fraction
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crystalsum import freqalg, spectra
from crystalsum.freqalg import CHUNK_POINTS, FreqBasis, sine
from crystalsum.hermite import HermiteBiehler, ks_from_Q
from crystalsum.spectra import (
    SpectrumAtoms,
    SpectrumError,
    exact_spectrum,
    fejer_reconstruct,
    mean_value_batch,
)
from divide_reference import divide
from probes import leeyang_H, monomial, poisson_H, spectrum_to_json

HALF = FreqBasis((0.5,))
UNIT = FreqBasis((1.0,))


def plane_wave_H():
    return HermiteBiehler.validate(monomial(UNIT, (-1,)))


def icotangent(z):
    """Direct evaluator of i pi cot(pi z) (oracle, no shared code)."""
    z = np.asarray(z, dtype=complex)
    return 1j * np.pi * np.cos(np.pi * z) / np.sin(np.pi * z)


def test_exact_spectrum_poisson():
    spec = exact_spectrum(poisson_H(), 12.0)
    atoms = {val: c for _, val, c in spec.sorted_atoms()}
    assert atoms[0.0] == pytest.approx(math.pi, rel=1e-13)
    for n in range(1, 13):
        assert atoms[float(n)] == pytest.approx(2 * math.pi, rel=1e-12)
    assert len(atoms) == 13
    assert spec.y_valid == pytest.approx(0.15)


@pytest.mark.parametrize("cutoff", [600, 900])
def test_exact_spectrum_poisson_large_cutoff_is_exact(cutoff):
    spec = exact_spectrum(poisson_H(), float(cutoff))
    want = {(2 * n,): complex(2 * math.pi) for n in range(1, cutoff + 1)}
    want[(0,)] = complex(math.pi)
    assert spec.atoms == want


# -- exact rational oracle ------------------------------------------------------

def _q(c):
    """Complex double as an exact pair of Fractions."""
    return Fraction(c.real), Fraction(c.imag)


def _qmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def rational_spectrum(H, cutoff):
    """iA/B in nonnegative frequencies up to cutoff, solved in exact rationals.

    Solves B·out = iA term by term in ascending frequency from the exact
    values of the double coefficients of A and B: with b0 the lowest term
    of B at vb, out(v) = (iA(v+vb) - sum_{u != vb} B(u) out(v+vb-u)) / b0.
    """
    basis = H.B.basis
    vb, _, b0 = H.B.min_freq()
    sub = lambda a, b: tuple(x - y for x, y in zip(a, b))
    add = lambda a, b: tuple(x + y for x, y in zip(a, b))
    rhs = {sub(v, vb): _qmul((0, 1), _q(c)) for v, c in H.A.terms.items()}
    steps = {sub(u, vb): _q(c) for u, c in H.B.terms.items() if u != vb}
    support = {v for v in rhs if basis.value(v) <= cutoff + 1e-12}
    frontier = list(support)
    while frontier:
        frontier = [w for w in {add(v, u) for v in frontier for u in steps}
                    if w not in support and basis.value(w) <= cutoff + 1e-12]
        support.update(frontier)
    br, bi = _q(b0)
    inv_b0 = (br / (br * br + bi * bi), -bi / (br * br + bi * bi))
    out = {}
    for v in sorted(support, key=lambda v: (basis.value(v), v)):
        re, im = rhs.get(v, (0, 0))
        for u, c in steps.items():
            prev = out.get(sub(v, u))
            if prev is not None:
                t = _qmul(c, prev)
                re, im = re - t[0], im - t[1]
        out[v] = _qmul((re, im), inv_b0)
    return {v: c for v, c in out.items() if c != (0, 0)}


def test_exact_spectrum_matches_rational_solve_leeyang():
    spec = exact_spectrum(leeyang_H(), 60.0)
    oracle = rational_spectrum(leeyang_H(), 60.0)
    assert set(spec.atoms) == set(oracle)
    err = max(abs(c - complex(float(oracle[v][0]), float(oracle[v][1])))
              for v, c in spec.atoms.items())
    assert err <= 1e-12


# -- the division recurrence against its breadth-first reference ---------------

def division_inputs(H, cutoff):
    """The (p, g, cutoff) that exact_spectrum hands to _divide."""
    seen, real = [], spectra._divide
    spectra._divide = lambda *args: seen.append(args) or real(*args)
    try:
        exact_spectrum(H, cutoff)
    finally:
        spectra._divide = real
    return seen[0]


@st.composite
def division_cases(draw):
    """(p, g, cutoff): a rank 1-3 basis, 1-4 positive steps in g (the last
    one the sum of two others, as in Lee-Yang, or not), p frequencies below
    and above the cutoff, and a cutoff from 0 to 12."""
    r = draw(st.integers(1, 3))
    base = draw(st.lists(st.sampled_from([0.5, 1.0, math.sqrt(2), math.sqrt(3), math.pi / 3]),
                         min_size=r, max_size=r, unique=True))
    basis = FreqBasis(tuple(base), draw(st.integers(1, 3)))
    vectors = lambda lo, hi, least, n: st.lists(
        st.tuples(*[st.integers(lo, hi)] * r).filter(lambda v: basis.value(v) >= least),
        min_size=1, max_size=n, unique=True)
    coefficient = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(bool)
    steps = draw(vectors(-2, 2, 0.3, 3))
    if len(steps) > 1 and draw(st.booleans()):
        steps.append(tuple(map(add, steps[0], steps[1])))
    g = freqalg.ExpSum(basis, {u: draw(coefficient) for u in steps})
    p = freqalg.ExpSum(basis, {v: draw(coefficient) for v in draw(vectors(-4, 4, 0.0, 4))})
    return p, g, draw(st.integers(0, 120).map(lambda n: n / 10) | st.floats(0.0, 12.0))


def _bits(xs):
    return struct.pack(f"{2 * len(xs)}d", *(y for x in xs for y in (x.real, x.imag)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=division_cases())
@example(case=division_inputs(poisson_H(), 600.0))
@example(case=division_inputs(leeyang_H(), 60.0))
def test_divide_matches_its_reference_bit_for_bit(case):
    p, g, cutoff = case
    want = divide(p, g, cutoff)
    atoms, values = spectra._divide(p, g, cutoff)
    assert list(atoms) == list(want)
    assert _bits(list(atoms.values())) == _bits(list(want.values()))
    assert _bits(values) == _bits([p.basis.value(v) for v in want])


@pytest.mark.parametrize("H, cutoff", [
    (leeyang_H(), 531.0),  # 100142 atoms: just past the bound (530 holds 99766)
    (leeyang_H(), 1e308),  # ends only if the bound is checked as each atom joins
    (ks_from_Q(sine(FreqBasis((0.25,)), (1,))), 1e308),  # cutoff/delta = 2e308 is no double
], ids=["leeyang-531", "leeyang-1e308", "quarter-comb-1e308"])
def test_atom_bound_raises_in_a_second_and_bounded_memory(H, cutoff):
    t = time.perf_counter()
    with pytest.raises(SpectrumError, match="more than the 100000 spectrum atoms"):
        exact_spectrum(H, cutoff)
    assert time.perf_counter() - t < 1.0
    tracemalloc.start()
    try:
        with pytest.raises(SpectrumError):
            exact_spectrum(H, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_exact_spectrum_plane_wave():
    spec = exact_spectrum(plane_wave_H(), 9.0)
    atoms = {val: c for _, val, c in spec.sorted_atoms()}
    assert atoms[0.0] == pytest.approx(1.0, rel=1e-13)
    for k in (2.0, 4.0, 6.0, 8.0):
        assert atoms[k] == pytest.approx(2.0, rel=1e-12)
    assert set(atoms) == {0.0, 2.0, 4.0, 6.0, 8.0}


def test_exact_spectrum_cutoff_zero():
    spec = exact_spectrum(poisson_H(), 0.0)
    assert len(spec.atoms) == 1
    assert spec.coefficient_at_zero() == pytest.approx(math.pi, rel=1e-13)


def test_exact_spectrum_min_freq_mismatch():
    H = poisson_H()
    bad = HermiteBiehler(H.E, math.pi * (monomial(HALF, (2,)) * 0.5
                                         + monomial(HALF, (-2,)) * 0.5),
                         H.B, H.certificate)
    with pytest.raises(SpectrumError):
        exact_spectrum(bad, 4.0)


def test_exact_spectrum_zero_B():
    H = poisson_H()
    bad = HermiteBiehler(H.E, H.A, H.B * 0.0, H.certificate)
    with pytest.raises(SpectrumError, match="B is identically zero"):
        exact_spectrum(bad, 4.0)


def test_spectrum_rejects_negative_frequency():
    with pytest.raises(SpectrumError):
        SpectrumAtoms(UNIT, {(-1,): 1.0}, 1.0, {}, [-1.0])


def test_mean_value_pure_exponential():
    f = lambda z: np.exp(2j * np.pi * np.asarray(z))
    for y in (0.5, 1.0, 2.0):
        assert mean_value_batch(f, [1.0], y, 200.0)[0] == pytest.approx(1.0, abs=1e-9)


def test_mean_value_constant_vanishes_off_zero():
    f = lambda z: np.full_like(np.asarray(z, dtype=complex), 3.0)
    v = mean_value_batch(f, [0.7], 1.0, 500.0)[0]
    assert abs(v) < 10 / 500.0
    assert mean_value_batch(f, [0.0], 1.0, 500.0)[0] == pytest.approx(3.0, rel=1e-12)


def test_mean_value_against_exact_atom():
    # lam = 1 coefficient of i pi cot(pi z) is 2 pi
    v = mean_value_batch(icotangent, [1.0], 1.0, 10_000.0)[0]
    assert abs(v - 2 * math.pi) <= 1e-3


def test_mean_value_y_independence():
    spec = exact_spectrum(poisson_H(), 4.0)
    y0 = spec.y_valid
    T = 200.0
    v1 = mean_value_batch(icotangent, [1.0], y0 + 0.5, T)[0]
    v2 = mean_value_batch(icotangent, [1.0], y0 + 2.0, T)[0]
    assert abs(v1 - v2) <= 10 / T


def test_oracle_equivalence_ten_lowest():
    # exact division vs tapered mean values on the 10 lowest frequencies;
    # the line height and panel width are chosen so that neither the
    # e^{2 pi lam y} noise amplification nor the oscillation rate exceeds
    # double precision (y-independence makes any valid height legitimate).
    H = poisson_H()
    spec = exact_spectrum(H, 10.0)
    lams = sorted(val for _, val, _ in spec.sorted_atoms())[:10]
    f = lambda z: 1j * H.A.eval(z) / H.B.eval(z)
    got = mean_value_batch(f, lams, 0.2, 2000.0, panel_width=1 / 32)
    for lam, g in zip(lams, got):
        expect = spec.atoms[(int(round(2 * lam)),)]
        assert abs(g - expect) <= 1e-3, f"lam={lam}"


def test_mean_value_rejects_poles():
    f = lambda z: np.full_like(np.asarray(z, dtype=complex), np.inf)
    with pytest.raises(SpectrumError):
        mean_value_batch(f, [0.0], 1.0, 10.0)[0]


@pytest.mark.parametrize("bad", [
    # a negative or infinite width once gave one panel of width 2T and a
    # wrong value, zero a ZeroDivisionError, nan a bare ValueError
    {"panel_width": -1.0},
    {"panel_width": math.inf},
    {"panel_width": 0.0},
    {"panel_width": math.nan},
    {"y": math.inf},
    {"y": math.nan},
    {"y": -math.inf},
])
def test_mean_value_rejects_invalid_quadrature(bad):
    args = {"y": 1.0, **bad}
    with pytest.raises(SpectrumError):
        mean_value_batch(icotangent, [1.0], T=50.0, **args)


# -- streamed mean value against the one-shot formula ------------------------

def one_shot_mean_values(f, lambdas, y, T, taper="fejer", panel_width=0.25,
                         nodes=8):
    """Reference: every node at once and one full-length exponential per lambda."""
    n_panels = max(int(math.ceil(2 * T / panel_width)), 1)
    w_eff = 2 * T / n_panels
    xi, wi = np.polynomial.legendre.leggauss(nodes)
    mids = -T + w_eff * (np.arange(n_panels) + 0.5)
    X = (mids[:, None] + 0.5 * w_eff * xi[None, :]).ravel()
    W = np.broadcast_to(0.5 * w_eff * wi[None, :], (n_panels, nodes)).ravel()
    Z = X + 1j * y
    fv = np.asarray(f(Z), dtype=complex)
    if taper == "fejer":
        base, norm = W * (1.0 - np.abs(X / T)) * fv, T
    else:
        base, norm = W * fv, 2.0 * T
    return [complex(np.sum(base * np.exp(-2j * np.pi * lam * Z))) / norm
            for lam in lambdas]


PANELS_PER_CHUNK = CHUNK_POINTS // 8


# line: the integration line Im z, None for 0.3
@pytest.mark.parametrize("T, width, taper, line, f", [
    # 2.5 chunks of width-1/4 panels, the last one partial
    (2.5 * PANELS_PER_CHUNK / 8, 1 / 4, "fejer", None, icotangent),
    (2.5 * PANELS_PER_CHUNK / 8, 1 / 4, "none", None, icotangent),
    (2.5 * PANELS_PER_CHUNK / 8, 1 / 4, "fejer", 0.2, icotangent),
    # 20480 width-1/4 panels: several full chunks, the last one full too
    (2560.0, 1 / 4, "fejer", None, icotangent),
    (2560.0, 1 / 4, "none", None, icotangent),
    (2560.0, 1 / 4, "fejer", 0.2, icotangent),
    # fewer panels than one chunk
    (37.0, 1 / 8, "fejer", None, icotangent),
])
def test_streamed_mean_value_matches_one_shot(T, width, taper, line, f):
    # lambda * y stays below 1, so e^{2 pi lambda y} amplifies the rounding
    # of either summation order by less than 1e3
    y = 0.3 if line is None else line
    lams = [0.0, 1.0, 1.5, 3.0]
    got = mean_value_batch(f, lams, y, T, taper=taper, panel_width=width)
    want = one_shot_mean_values(icotangent, lams, y, T, taper=taper,
                                panel_width=width)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9


def test_mean_value_rejects_samples_of_the_wrong_shape():
    # a scalar-only evaluator returns one value for the whole grid
    f = lambda z: complex(np.asarray(z)[0])
    with pytest.raises(SpectrumError, match=r"shape \(\) on a grid of shape \(4736,\)"):
        mean_value_batch(f, [1.0], 0.3, 37.0, panel_width=1 / 8)


def test_mean_value_pole_in_last_chunk_raises():
    # 3.5 chunks of width-1/4 panels; only nodes of the last chunk are poles
    T = 3.5 * PANELS_PER_CHUNK / 8
    f = lambda z: np.where(np.real(z) > T - 0.1, np.inf, 1.0) + 0j
    with pytest.raises(SpectrumError):
        mean_value_batch(f, [1.0], 1.0, T)


def test_mean_value_memory_stays_bounded():
    # 2T / (1/32) = 160000 panels, 1.28M nodes: one complex array of all
    # nodes alone would take 20 MB; a streamed chunk with this evaluator's
    # temporaries takes about 5 MB
    H = poisson_H()
    f = lambda z: 1j * H.A.eval(z) / H.B.eval(z)
    tracemalloc.start()
    try:
        got = mean_value_batch(f, [0.0, 1.0, 2.0], 0.2, 2500.0, panel_width=1 / 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(got[1] - 2 * math.pi) <= 1e-3
    assert peak < 10e6


def test_mean_value_holds_only_its_two_chunk_buffers():
    # 20480 panels, five full chunks, an f that allocates nothing: beside a
    # float taper and a complex sample buffer of one chunk (768 KiB), made
    # once per call, only small tables; new weight and zero-padded sample
    # arrays in every chunk peak at 1.70 MiB
    samples = np.ones(CHUNK_POINTS, dtype=complex)
    mean_value_batch(lambda z: samples[:z.size], [1.0], 0.3, 1.0)  # first-call imports
    tracemalloc.start()
    try:
        mean_value_batch(lambda z: samples, np.arange(10.0), 0.3, 2560.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 2**20


def recorded_matmul(monkeypatch):
    """Patch np.matmul as freqalg sees it: (m*k*n, dtypes) of every call."""
    matmul, calls = np.matmul, []

    def recording(a, b, *args, **kwargs):
        calls.append((a.shape[0] * a.shape[1] * b.shape[1], a.dtype, b.dtype))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(freqalg.np, "matmul", recording)
    return calls


@pytest.mark.parametrize("n_lams", [10, 200, 1100])
def test_every_matmul_is_a_real_product_under_the_threading_floor(monkeypatch, n_lams):
    # OpenBLAS runs a dgemm of at most 2^18 multiply-adds on one thread; one
    # projection row (128 x 2L) fits it up to L = 1024, so with 1100 lambdas
    # its columns split (2048 + 152)
    calls = recorded_matmul(monkeypatch)
    if n_lams == 10:
        H = leeyang_H()
        f = lambda z: 1j * H.A.eval(z) / H.B.eval(z)
        mean_value_batch(f, 0.5 * np.arange(n_lams), 0.3, CHUNK_POINTS / 64)
    else:
        lams = np.linspace(0.0, 3.0, n_lams)
        got = mean_value_batch(icotangent, lams, 0.3, 37.0, panel_width=1 / 8)
        want = one_shot_mean_values(icotangent, lams, 0.3, 37.0, panel_width=1 / 8)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9
    assert calls
    assert all(size <= 2**18 and a == b == float for size, a, b in calls)


class Sampled(Exception):
    pass


def refusing_integrand():
    """An f that records its grid and raises Sampled, and the record."""
    calls = []

    def f(z):
        calls.append(z.size)
        raise Sampled
    return f, calls


def test_mean_value_of_no_frequencies_is_empty():
    f, calls = refusing_integrand()
    assert mean_value_batch(f, [], 0.3, 10.0) == []
    assert calls == []


def test_quadrature_bound_refuses_before_any_sample():
    # T = 1.5625e6 takes exactly 10^8 nodes at width 1/4: allowed, so the
    # first chunk is sampled; just above it nothing is, with or without lambdas
    f, calls = refusing_integrand()
    with pytest.raises(Sampled):
        mean_value_batch(f, [1.0], 0.3, 1.5625e6)
    assert calls == [CHUNK_POINTS]
    for lams in ([1.0], []):
        f, calls = refusing_integrand()
        with pytest.raises(SpectrumError, match="the 100000000 quadrature points"):
            mean_value_batch(f, lams, 0.3, math.nextafter(1.5625e6, math.inf))
        assert calls == []


def test_phase_limit_refuses_before_any_sample():
    # phases 2 pi lambda x of the mean value's own tables reach 2 pi max|lambda| T;
    # within freqalg's limit of 2^48 the first chunk is sampled, past it none is
    lam = 2.0 ** 48 / (2 * math.pi * 10.0)
    for lams in ([lam * (1 - 1e-9)], [1.0, -lam * (1 - 1e-9)]):
        f, calls = refusing_integrand()
        with pytest.raises(Sampled):
            mean_value_batch(f, lams, 0.0, 10.0)
        assert calls == [640]  # 80 panels of 8 nodes, one chunk
    for lams in ([lam * (1 + 1e-9)], [1.0, -lam * (1 + 1e-9)]):
        f, calls = refusing_integrand()
        with pytest.raises(SpectrumError, match="out of range"):
            mean_value_batch(f, lams, 0.0, 10.0)
        assert calls == []


@pytest.mark.parametrize("H", [poisson_H(), leeyang_H()], ids=["poisson", "leeyang"])
def test_one_exponential_per_generator_and_chunk(monkeypatch, H):
    # no exponential of chunk size: each generator of f = iA/B comes from
    # one exponential of each table of the chunk's grid (512 row heads, 64
    # column offsets), shared by A and B
    exp, calls = np.exp, []

    def counting_exp(x, *args, **kwargs):
        calls.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    f = lambda z: 1j * H.A.eval(z) / H.B.eval(z)
    # one chunk: 2T / (1/4) panels of 8 nodes
    mean_value_batch(f, [1.0], 0.3, CHUNK_POINTS / 64)
    assert max(calls) < CHUNK_POINTS
    # the mean value's own phase tables for one lambda (64 node phases, 512
    # row phases), its mid_0 phase and its final scale
    own = 64 + 512 + 1 + 1
    assert sum(calls) <= own + len(H.B.basis.base) * (64 + 512 + 1)


@pytest.mark.parametrize("T, width", [
    (37.0, 1 / 8),                       # 9.25 rows of one chunk
    (2.5 * PANELS_PER_CHUNK / 8, 1 / 4),  # two full chunks and half of one
    (CHUNK_POINTS / 64 + 0.1, 1 / 4),    # a full chunk and one panel
])
def test_integrand_sees_exactly_the_chunk_nodes(T, width):
    seen = []

    def f(z):
        assert isinstance(z, freqalg.Grid) and z.size <= CHUNK_POINTS
        seen.append(np.asarray(z))
        return np.ones(z.shape, dtype=complex)

    mean_value_batch(f, [1.0], 0.3, T, panel_width=width)
    n_panels = math.ceil(2 * T / width)
    w = 2 * T / n_panels
    xi, _ = np.polynomial.legendre.leggauss(8)
    X = (-T + w * (np.arange(n_panels) + 0.5)[:, None] + 0.5 * w * xi).ravel()
    got = np.concatenate(seen)
    assert len(seen) == -(-n_panels // PANELS_PER_CHUNK)
    assert got.shape == X.shape
    assert np.all(np.abs(got.real) <= T) and np.all(got.imag == 0.3)
    assert np.max(np.abs(got.real - X)) <= 4 * np.spacing(T)


def test_integrand_written_with_operators_is_called_once_per_chunk():
    # numpy arithmetic on the grid gives its flat array, so such an f is not
    # sent to the point-by-point fallback
    calls = []

    def f(z):
        calls.append(np.size(z))
        return 1j * np.pi * np.cos(np.pi * z) / np.sin(np.pi * z)

    got = mean_value_batch(f, [1.0], 0.3, 2.5 * PANELS_PER_CHUNK / 8)
    assert calls == [CHUNK_POINTS, CHUNK_POINTS, CHUNK_POINTS // 2]
    assert got[0] == pytest.approx(2 * math.pi, abs=1e-3)


def test_rank2_mean_value_memory_stays_bounded():
    # the Lee-Yang evaluator holds more temporaries per node than Poisson's;
    # 40000 panels of 8 nodes at width 1/8.  The bound is the 7.80 MB peak
    # of one exponential per term in chunks of 2^16 nodes (about 5.8 MB now)
    H = leeyang_H()
    f = lambda z: 1j * H.A.eval(z) / H.B.eval(z)
    atoms = exact_spectrum(H, 4.0).sorted_atoms()[:3]
    tracemalloc.start()
    try:
        got = mean_value_batch(f, [val for _, val, _ in atoms], 0.3, 2500.0,
                               panel_width=1 / 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(abs(g - c) for g, (_, _, c) in zip(got, atoms)) <= 1e-3
    assert peak < 7.81e6


def loop_fejer_reconstruct(a, a0, T, z):
    """Reference: the atom-by-atom loop in ascending frequency order."""
    total = 0.5 * complex(a0)
    for _, val, c in a.sorted_atoms():
        if 0.0 < val < T:
            total += c * (1.0 - val / T) * np.exp(2j * np.pi * val * complex(z))
    return complex(total)


@pytest.mark.parametrize("H, cutoff", [(poisson_H(), 600.0), (leeyang_H(), 60.0)])
def test_fejer_reconstruct_matches_loop(H, cutoff):
    spec = exact_spectrum(H, cutoff)
    a0 = 2 * spec.coefficient_at_zero().real
    for T in (cutoff, cutoff / 3, 0.5):
        for z in (0.5j, 0.3 + 0.7j, -0.9 + 1.5j, 2j):
            want = loop_fejer_reconstruct(spec, a0, T, z)
            got = fejer_reconstruct(spec, a0, T, z)
            assert isinstance(got, complex)
            assert abs(got - want) <= 1e-14 * abs(want)


def test_fejer_reconstruct_poisson():
    H = poisson_H()
    spec = exact_spectrum(H, 60.0)
    a0 = 2 * spec.coefficient_at_zero().real
    got = fejer_reconstruct(spec, a0, 50.0, 2j)
    direct = icotangent(2j)
    # fejer taper error at T=50 is (2 pi/T) e^{-4 pi} ~ 4.4e-7
    assert abs(got - direct) <= 1e-6


def test_fejer_reconstruct_degenerate_T():
    H = poisson_H()
    spec = exact_spectrum(H, 5.0)
    a0 = 2 * spec.coefficient_at_zero().real
    assert fejer_reconstruct(spec, a0, 0.5, 1j) == 0.5 * a0


def test_fejer_reconstruct_empty():
    empty = SpectrumAtoms(UNIT, {}, 0.0, {}, [])
    assert fejer_reconstruct(empty, 0.0, 10.0, 1j) == 0.0


def test_fejer_convergence_monotone():
    H = poisson_H()
    spec = exact_spectrum(H, 250.0)
    a0 = 2 * spec.coefficient_at_zero().real
    zs = [1j, 0.3 + 1j, -0.7 + 1.5j, 2j, 0.1 + 2.5j]
    for z in zs:
        errs = [abs(fejer_reconstruct(spec, a0, T, z) - icotangent(z))
                for T in (25, 50, 100, 200)]
        for e1, e2 in zip(errs, errs[1:]):
            assert e2 <= 1.1 * e1


def test_spectrum_json():
    spec = exact_spectrum(poisson_H(), 3.0)
    d = spectrum_to_json(spec)
    assert d["yValid"] == spec.y_valid
    assert d["cutoff"] == [6]
    assert len(d["terms"]) == 4
