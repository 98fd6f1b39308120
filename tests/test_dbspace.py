import math

import numpy as np
import pytest

from crystalsum.dbspace import (
    KernelContext,
    kernel_closed,
    kernel_closed_eform,
    kernel_context,
    kernel_series,
    sampling_eval,
)
from crystalsum.freqalg import EvalRangeError, FreqBasis
from crystalsum.hermite import HermiteBiehler, ks_from_Q, split_AB
from probes import cosine, e1_transform, monomial, poisson_H

HALF = FreqBasis((0.5,))
UNIT = FreqBasis((1.0,))


def poisson_ctx(R=100.0):
    return kernel_context(poisson_H(), R)


def test_plane_wave_kernel_is_sinc():
    ctx = kernel_context(HermiteBiehler.validate(monomial(UNIT, (-1,))), 10.0)
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        u = w.conjugate() - z
        expect = np.sin(2 * np.pi * u) / (np.pi * u)
        assert kernel_closed(ctx, w, z) == pytest.approx(expect, rel=1e-11)
    # real diagonal limit: K(x,x) = 2
    for x in (-0.3, 0.0, 1.7):
        assert kernel_closed(ctx, x, x) == pytest.approx(2.0, rel=1e-7)


def test_closed_forms_agree():
    ctx = poisson_ctx(10.0)
    rng = np.random.default_rng(9)
    for _ in range(100):
        w = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2.5))
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2.5))
        k1 = kernel_closed(ctx, w, z)
        k2 = kernel_closed_eform(ctx, w, z)
        assert abs(k1 - k2) <= 1e-12 * max(1.0, abs(k1))


def test_kernel_hermitian_symmetry():
    ctx = poisson_ctx(10.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        assert kernel_closed(ctx, w, z) == \
            pytest.approx(kernel_closed(ctx, z, w).conjugate(), rel=1e-12)


def test_diagonal_positivity():
    ctx = poisson_ctx(10.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.05, 3))
        k = kernel_closed(ctx, z, z)
        assert abs(k.imag) <= 1e-12 * abs(k)
        assert k.real > 0
    assert kernel_closed(ctx, 1j, 1j).real > 0


def test_series_within_tail():
    w, z = 1j, 1 + 2j
    for R in (100.0, 1000.0):
        ctx = poisson_ctx(R)
        val, tail = kernel_series(ctx, w, z)
        closed = kernel_closed(ctx, w, z)
        assert abs(val - closed) <= 3 * tail
        assert abs(val - closed) <= tail + 1e-6 * (1 + abs(closed))


def test_series_tail_shrinks_with_R():
    w, z = 1j, 1 + 2j
    diffs = []
    for R in (100.0, 1000.0, 10_000.0):
        ctx = poisson_ctx(R)
        val, _ = kernel_series(ctx, w, z)
        diffs.append(abs(val - kernel_closed(ctx, w, z)))
    assert diffs[1] < 0.15 * diffs[0]
    assert diffs[2] < 0.15 * diffs[1]


def test_series_tail_near_the_window_edge_is_the_stated_bound():
    ctx = poisson_ctx(20.0)
    B, g = ctx.H.B, ctx.gammas
    w = z = 19.0 + 1j  # a = 0.95 R
    _, tail = kernel_series(ctx, w, z)
    bb = abs(complex(B.eval(z)) * complex(B.eval(w.conjugate())))
    density = g.size / (g[-1] - g[0])
    expect = bb * float(np.mean(ctx.weights)) * density * 2.0 / (20.0 - 19.0) / math.pi
    assert tail == pytest.approx(expect, rel=1e-12)
    # at or beyond the window radius there is no bound
    for x in (20.0, 25.0):
        assert kernel_series(ctx, x + 1j, 1j)[1] == math.inf


def test_series_on_an_empty_window_is_zero_with_no_bound():
    # B = cos(pi z) has no root in [-1/4, 1/4]
    ctx = kernel_context(ks_from_Q(cosine(HALF, (1,))), 0.25)
    assert ctx.gammas.size == 0
    assert kernel_series(ctx, 0.1 + 1j, 1j) == (0j, math.inf)


@pytest.mark.parametrize("w, z", [(1e300 + 1j, 1e300 + 1j), (-1e300 + 1j, 1e300 - 1j),
                                  (1e160 + 2j, 1e160 + 2j)])
def test_series_far_beyond_the_window_has_no_bound_and_no_overflow(w, z):
    # B = sin(pi z) has no correct digit there: its phases pi Re z pass
    # freqalg's limit, so evaluation raises before (g - z)(g - conj w) could
    # leave double range (the test configuration turns overflow warnings into
    # errors); a sum of those phases would be noise
    with pytest.raises(EvalRangeError):
        kernel_series(poisson_ctx(20.0), w, z)


def test_closed_kernel_far_out_on_the_real_axis_raises():
    with pytest.raises(EvalRangeError):
        kernel_closed(poisson_ctx(20.0), 1e300 + 1j, 1e300 + 1j)


def test_series_single_root_rank_one():
    H = poisson_H()
    ctx = kernel_context(H, 0.4)   # only the root at 0
    assert len(ctx.points) == 1
    w, z = 0.5 + 1j, -0.3 + 0.7j
    val, _ = kernel_series(ctx, w, z)
    B = H.B
    expect = (ctx.points[0].weight * B.eval(z) * B.eval(w.conjugate())
              / ((0 - z) * (0 - w.conjugate())) / math.pi)
    assert val == pytest.approx(expect, rel=1e-12)


def test_sampling_reconstructs_kernel_slice():
    # tail is ~2|B(-i)||B(z)|/(pi R): relative 5e-4 at R=1e3 for this z
    ctx = poisson_ctx(1000.0)
    w0 = 1j
    samples = {p.gamma: kernel_closed(ctx, w0, p.gamma) for p in ctx.points}
    z = 0.3 + 0.7j
    got = sampling_eval(ctx, samples, z)
    expect = kernel_closed(ctx, w0, z)
    assert abs(got - expect) <= 1e-3 * abs(expect)


def test_sampling_rate_one_over_R():
    w0 = 1j
    z = 0.3 + 0.7j
    errs = []
    for R in (100.0, 1000.0):
        ctx = poisson_ctx(R)
        samples = {p.gamma: kernel_closed(ctx, w0, p.gamma) for p in ctx.points}
        errs.append(abs(sampling_eval(ctx, samples, z)
                        - kernel_closed(ctx, w0, z)))
    assert errs[1] < 0.15 * errs[0]


def test_sampling_of_B_gives_zero():
    # B vanishes at every node: the reconstruction is identically 0,
    # exhibiting the one-dimensional orthogonal complement
    ctx = poisson_ctx(50.0)
    samples = {p.gamma: 0.0 for p in ctx.points}
    assert sampling_eval(ctx, samples, 0.4 + 0.9j) == 0j


def test_sampling_at_node_returns_sample():
    ctx = poisson_ctx(20.0)
    samples = {p.gamma: kernel_closed(ctx, 1j, p.gamma) for p in ctx.points}
    node = ctx.points[len(ctx.points) // 2].gamma
    assert sampling_eval(ctx, samples, node) == pytest.approx(samples[node])


def test_sampling_missing_sample():
    ctx = poisson_ctx(5.0)
    samples = {p.gamma: 1.0 for p in ctx.points[:-1]}
    with pytest.raises(KeyError):
        sampling_eval(ctx, samples, 1j)


def test_herglotz_bridge():
    # dividing the atom expansion by i B(z) conj(B(w)) gives the kernel
    # form of the Poisson representation for f = iA/B with the 2pi weights
    from crystalsum.measures import herglotz_kernel_residual, measure_from_phase
    H = poisson_H()
    mu = measure_from_phase(H, (-800.5, 800.5))
    f = lambda zz: 1j * H.A.eval(zz) / H.B.eval(zz)
    assert herglotz_kernel_residual(mu, f, 1j, 0.5 + 1.5j) <= 5e-3


def test_e1_family_invariance():
    H = poisson_H()
    ctx = kernel_context(H, 10.0)
    rng = np.random.default_rng(17)
    for _ in range(5):
        beta = float(rng.uniform(0, 2 * np.pi))
        p = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        E1 = e1_transform(ctx, beta, p)
        A1, B1 = split_AB(E1)
        for _ in range(5):
            w = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            wb = w.conjugate()
            k1 = (B1.eval(z) * A1.eval(wb) - B1.eval(wb) * A1.eval(z)) \
                / (math.pi * (z - wb))
            assert k1 == pytest.approx(kernel_closed(ctx, w, z), rel=1e-10)


def test_context_validation():
    H = poisson_H()
    with pytest.raises(ValueError):
        KernelContext(H, np.array([0.0, 0.0]), np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        KernelContext(H, np.array([0.0]), np.array([-1.0]), 1.0)
    with pytest.raises(ValueError):
        KernelContext(H, np.array([5.0]), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        KernelContext(H, np.array([0.0]), np.array([1.0, 1.0]), 1.0)
    # the points view pairs each root with its weight
    ctx = KernelContext(H, np.array([-0.5, 0.5]), np.array([1.0, 2.0]), 1.0)
    assert len(ctx.points) == 2
    assert (ctx.points[1].gamma, ctx.points[1].weight) == (0.5, 2.0)
