import json
import math
import tracemalloc

import numpy as np
import pytest

from crystalsum.freqalg import (
    CHUNK_POINTS,
    BasisMismatchError,
    EvalRangeError,
    ExpSum,
    FreqBasis,
    Grid,
    constant,
    real_matmul,
    sine,
)
from probes import cosine, monomial

HALF = FreqBasis((0.5,))        # frequencies in (1/2)Z
UNIT = FreqBasis((1.0,))        # frequencies in Z


def test_basis_validation():
    with pytest.raises(ValueError):
        FreqBasis(())
    with pytest.raises(ValueError):
        FreqBasis((1.0, 1.0))
    with pytest.raises(ValueError):
        FreqBasis((-1.0,))
    with pytest.raises(ValueError):
        FreqBasis((1.0,), denominator=0)


def test_eval_constant_at_i():
    f = constant(UNIT, 1.0)
    assert f.eval(1j) == 1.0


def test_eval_exponential_at_i():
    f = monomial(UNIT, (1,))
    assert f.eval(1j) == pytest.approx(math.exp(-2 * math.pi), rel=1e-14)


def test_eval_sine_at_half():
    s = sine(HALF, (1,))  # sin(pi x)
    assert s.eval(0.5) == pytest.approx(1.0, abs=1e-15)


def test_eval_vectorized_matches_scalar():
    f = sine(HALF, (1,)) + 0.25 * cosine(HALF, (2,))
    xs = np.linspace(-3, 3, 17) + 0.3j
    vec = f.eval(xs)
    for x, v in zip(xs, vec):
        assert f.eval(complex(x)) == pytest.approx(v, rel=1e-15)


TWO_GENERATORS = ExpSum(FreqBasis((1.0, math.sqrt(2))), {(1, -2): 1.0, (-3, 1): 0.5j})


def test_an_evaluation_keeps_no_chunk_once_it_returns():
    # no generator, power or chunk outlives the call, whatever the length;
    # only the sum's evaluation plan, made on the first call, stays
    for size in (7, CHUNK_POINTS, CHUNK_POINTS + 1, 4 * CHUNK_POINTS + 3):
        z = np.linspace(-5.0, 5.0, size) + 0.1j
        tracemalloc.start()
        try:
            TWO_GENERATORS.eval(z)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 2**14


def test_one_evaluation_holds_as_much_at_16_chunks_as_at_4():
    held = []
    for chunks in (4, 16):
        z = np.linspace(-5.0, 5.0, chunks * CHUNK_POINTS) + 0.1j
        tracemalloc.start()
        try:
            out = TWO_GENERATORS.eval(z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held.append(peak - out.nbytes)
        del out
    # a few chunk-sized arrays beyond the output (5 MiB), whatever the length;
    # generators and powers of the whole array took 14 and 56 MiB here
    assert held[1] <= held[0] + z.itemsize * CHUNK_POINTS and held[1] < 6 * 2**20


def test_grid_evaluation_holds_only_its_output_and_small_tables():
    # one contraction of a (rows x terms) by a (terms x cols) table: no
    # generator, power, accumulator or down factor of the grid's size
    s = ExpSum(FreqBasis((1.0, math.sqrt(2)), 2),
               {(1, 1): 2j, (-1, 1): 1.0, (1, -1): -1.0, (-1, -1): 0.5})
    grid = Grid(0.3j + 2.0 * np.arange(64), np.linspace(0.0, 2.0, 512, endpoint=False),
                CHUNK_POINTS)
    tracemalloc.start()
    try:
        out = s.eval(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (CHUNK_POINTS,)
    assert peak <= out.nbytes + 2**16


@pytest.mark.parametrize("m, k, n", [
    (700, 8, 128),   # 716800 multiply-adds: rows split
    (3, 1024, 400),  # 409600 in one row: columns split too
    (0, 3, 4), (5, 0, 4), (5, 3, 0),
])
def test_real_matmul_is_a_at_b_in_calls_under_the_threading_floor(monkeypatch, m, k, n):
    rng = np.random.default_rng(m + k + n)
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    want = a @ b
    matmul, sizes = np.matmul, []

    def recording(x, y, *args, **kwargs):
        sizes.append(x.shape[0] * x.shape[1] * y.shape[1])
        return matmul(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    out = np.full((m, n), np.nan)
    real_matmul(a, b, out)
    assert np.allclose(out, want, rtol=1e-13, atol=1e-13)
    assert max(sizes, default=0) <= 2**18


def test_grid_refuses_an_empty_column_table():
    with pytest.raises(ValueError, match="column offset"):
        Grid([1j], [], 0)


@pytest.mark.parametrize("n", [-1, 3])
def test_grid_refuses_a_point_count_past_its_tables(n):
    with pytest.raises(ValueError, match=f"n = {n}"):
        Grid([1j], [0.0, 1.0], n)


def test_grid_keeps_partial_products_of_powers_in_range():
    # at rank 4 the first three powers of (8, 8, 8, -8) reach e^950 at Im z = -3,
    # past double range, while the term (e^603) and each power stay inside it;
    # the grid's range guard sends it per term, as every array goes
    s = ExpSum(FreqBasis((2.0, 2.1, 2.2, 2.3)), {(8, 8, 8, -8): 1.0})
    for z in (Grid([0.5 - 3j], [0.0, 0.25], 2), np.array([0.5 - 3j])):
        want = np.exp(2j * np.pi * 32 * np.asarray(z))
        assert np.allclose(s.eval(z), want, rtol=1e-12, atol=0)


def test_eval_overflow_is_an_error():
    f = monomial(UNIT, (1,))
    with pytest.raises(EvalRangeError):
        f.eval(-200j)  # e^{2 pi * 200} overflows


def test_mul_adds_frequencies():
    a = monomial(UNIT, (1,))
    b = monomial(UNIT, (2,))
    assert (a * b).terms == {(3,): 1 + 0j}


def test_mul_one_minus_q_times_one_plus_q():
    one = constant(UNIT, 1.0)
    q = monomial(UNIT, (1,))
    prod = (one + q) * (one - q)
    assert prod.terms == {(0,): 1 + 0j, (2,): -1 + 0j}


def test_mul_product_to_sum_identity():
    # sin(pi z) * 2cos(pi z) = sin(2 pi z), checked on exact term maps
    lhs = sine(HALF, (1,)) * (2.0 * cosine(HALF, (1,)))
    rhs = sine(HALF, (2,))
    assert lhs.terms == rhs.terms


def test_mul_basis_mismatch():
    with pytest.raises(BasisMismatchError):
        monomial(UNIT, (1,)) * monomial(HALF, (1,))


def test_star_monomial_and_sine():
    q = monomial(UNIT, (1,))
    assert q.star().terms == {(-1,): 1 + 0j}
    s = sine(HALF, (1,))
    assert s.star().terms == s.terms  # real on R -> fixed point
    t = monomial(UNIT, (1,), 1j)
    assert t.star().terms == {(-1,): -1j}


def test_star_is_involution_exactly():
    rng = np.random.default_rng(7)
    basis = FreqBasis((1.0, math.sqrt(2)))
    terms = {(int(a), int(b)): complex(x, y)
             for a, b, x, y in rng.normal(size=(12, 4)) * 3}
    f = ExpSum(basis, terms)
    assert f.star().star().terms == f.terms


def test_star_eval_reflection():
    rng = np.random.default_rng(11)
    basis = FreqBasis((1.0, math.sqrt(2)))
    f = ExpSum(basis, {(1, 0): 1 + 2j, (0, 1): -0.5j, (-2, 1): 0.25})
    zs = rng.normal(size=100) + 1j * rng.uniform(0.1, 2.0, size=100)
    for z in zs:
        lhs = f.star().eval(z)
        rhs = np.conj(f.eval(np.conj(z)))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


def test_mul_eval_consistency():
    rng = np.random.default_rng(3)
    basis = FreqBasis((1.0, math.sqrt(3)))
    f = ExpSum(basis, {(1, 0): 1.5, (0, 1): 2j, (-1, 1): 0.3 - 0.1j})
    g = ExpSum(basis, {(2, 0): -1.0, (0, -1): 0.7j})
    zs = rng.normal(size=50) + 1j * rng.uniform(-2.0, 2.0, size=50)
    for z in zs:
        lhs = (f * g).eval(z)
        rhs = f.eval(z) * g.eval(z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_derivative_rules():
    assert not constant(UNIT, 5.0).derivative()          # constants die
    d = monomial(UNIT, (1,)).derivative()
    assert d.terms == {(1,): 2j * math.pi}
    # d/dz sin(pi z) = pi cos(pi z), via exact Euler-form term maps
    lhs = sine(HALF, (1,)).derivative()
    rhs = math.pi * cosine(HALF, (1,))
    for v, c in rhs.terms.items():
        assert lhs.terms[v] == pytest.approx(c, rel=1e-15)


def test_merging_is_exact_not_floating():
    # two irrational frequencies that collide numerically would still be
    # distinct vectors; identical vectors merge exactly
    basis = FreqBasis((1.0, 2.0**0.5))
    a = monomial(basis, (1, 1), 1.0)
    b = monomial(basis, (1, 1), -1.0)
    assert not (a + b)
    c = monomial(basis, (1, 1), 1e-30)
    assert len(a + c) == 1  # merged by vector equality despite scale gap


def test_json_round_trip():
    basis = FreqBasis((1.0, math.sqrt(2)), denominator=2)
    f = ExpSum(basis, {(1, 0): 1 + 2j, (0, -3): -0.5j})
    g = ExpSum.from_json_dict(json.loads(json.dumps(f.to_json_dict())))
    assert g == f


def test_truncate():
    f = sum((monomial(UNIT, (k,)) for k in range(5)), constant(UNIT, 0.0))
    t = f.truncate(2.5)
    assert sorted(v[0] for v in t.terms) == [0, 1, 2]
