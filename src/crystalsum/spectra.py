"""Spectral coefficients of f = iA/B, by two independent routes.

The exact route expands iA/B as an exponential sum with nonnegative
frequencies.  With B normalized by its lowest-frequency term,
iA/B = p/(1-g) where every frequency of g is positive, so (1-g)·out = p
is a triangular system in ascending frequency and one recurrence
out(v) = p(v) + sum_u g(u) out(v-u) solves it up to a declared cutoff,
with no magnitude-based dropping: the output frequencies are exact
integer vectors and each coefficient is a short sum over earlier ones.
The support grows on integer keys with key(v+u) = key(v) + key(u), so
each frequency vector is built, valued and sorted once and every lookup
is an integer sum.

The numeric route estimates the same coefficients as tapered mean values

    (1/2T) int_{-T}^{T} w(x/T) f(x+iy) e^{-2 pi i lambda (x+iy)} dx

along a horizontal line, with the Fejer taper w(u) = 1-|u| (rescaled by
its integral) as default: the taper improves the truncation error of an
isolated atom from O(1/T) to O(1/T^2).  The quadrature is composite
Gauss-Legendre with fixed-width panels, at most MAX_QUADRATURE_POINTS
nodes, streamed in fixed-size chunks that f receives as product grids
(freqalg.Grid, one block of the real grid contraction for an ExpSum).
The taper and the tapered samples go into two buffers made once per call,
laid out in the grid's rows, and the phase factors over those rows, all
rows projected on all frequencies by one real matrix product
(freqalg.real_matmul): memory does not grow with T.

The two routes share no code and serve as oracles for each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, mul

import numpy as np

from .freqalg import (_EXP_OVERFLOW, _PHASE_LIMIT, CHUNK_POINTS, GRID_BLOCK, ExpSum,
                      FreqBasis, Grid, real_matmul, real_table)
from .hermite import HermiteBiehler


class SpectrumError(ValueError):
    pass


class AtomBoundError(SpectrumError):
    """An exact spectrum would hold more than MAX_SPECTRUM_ATOMS atoms."""


MAX_SPECTRUM_ATOMS = 10 ** 5  # the most frequencies an exact spectrum may hold
MAX_QUADRATURE_POINTS = 10 ** 8  # the most nodes a mean value may take (T = 1e4: 640000)


@dataclass
class SpectrumAtoms:
    """Nonnegative-frequency expansion of iA/B up to a cutoff.

    atoms maps frequency vectors to complex coefficients; y_valid is a
    height above which the defining expansion p/(1-g) was certified to
    converge (sup-norm bound of g below 1/2).  values are the frequencies
    of atoms in key order, ascending by (value, vector).
    """

    basis: FreqBasis
    atoms: dict
    y_valid: float
    meta: dict
    values: list = field(repr=False, compare=False)

    def __post_init__(self):
        if self.values and self.values[0] < -1e-12:
            raise SpectrumError("negative frequency in spectrum")
        self._arrays = (np.array(self.values, dtype=float),
                        np.array(list(self.atoms.values()), dtype=complex))
        self._arrays[0].flags.writeable = self._arrays[1].flags.writeable = False

    def sorted_atoms(self):
        return list(zip(self.atoms, self.values, self.atoms.values()))

    def sorted_arrays(self):
        """Frequencies and coefficients of sorted_atoms, as two read-only arrays."""
        return self._arrays

    def coefficient_at_zero(self) -> complex:
        return self.atoms.get(self.basis.zero_vec(), 0j)


def _sup_bound(g: ExpSum, y: float) -> float:
    """Triangle-inequality bound on sup_x |g(x+iy)| (all g-frequencies > 0)."""
    return sum(abs(c) * math.exp(-2 * math.pi * val * y)
               for _, val, c in g.sorted_terms())


def _divide(p: ExpSum, g: ExpSum, cutoff_value: float):
    """Terms of p/(1-g) with frequency at most cutoff_value, as a dict in
    ascending (value, vector) order, and the list of their values.

    Every frequency of g is positive, so the equation (1-g)·out = p is
    triangular in ascending frequency: out(v) = p(v) + sum_u g(u) out(v-u)
    over u in supp g, in its order, where each v-u precedes v.  The support
    is supp p and all it reaches by steps u through frequencies at or below
    the cutoff (the tolerance of `ExpSum.truncate`): each member takes each
    step once, and only a vector that is no member is built and valued.  As
    more than MAX_SPECTRUM_ATOMS members raise, each is p + n_1 u_1 + ...
    with n_1 + ... below that bound, so the keys sum_j v_j R^(r-1-j) of all
    members, v+u and v-u are additive and in tuple order.
    """
    basis = p.basis
    limit = cutoff_value + 1e-12
    pterms = p.sorted_terms()
    radix = 2 * (max((abs(k) for v, _, _ in pterms for k in v), default=0)
                 + MAX_SPECTRUM_ATOMS * max((abs(k) for u in g.terms for k in u), default=0)) + 1
    scale = [radix ** j for j in reversed(range(len(basis.base)))]
    val = {sum(map(mul, v, scale)): x for v, x, _ in pterms}  # key -> value
    vec = dict(zip(val, (v for v, _, _ in pterms)))
    pv = dict(zip(val, (c for _, _, c in pterms)))
    steps = [(sum(map(mul, u, scale)), u, c) for u, _, c in g.sorted_terms()]
    order = list(val)  # members in the order they join; each takes every step once
    for k in order:
        for ku, u, _ in steps:
            w = k + ku
            if w not in val:
                v = tuple(map(add, vec[k], u))
                x = basis.value(v)
                if x <= limit:
                    val[w], vec[w] = x, v
                    order.append(w)
                    if len(order) > MAX_SPECTRUM_ATOMS:
                        raise AtomBoundError(f"cutoff {cutoff_value:g} needs more than the "
                                             f"{MAX_SPECTRUM_ATOMS} spectrum atoms allowed")
    order.sort()  # by vector, then stably by value
    order.sort(key=val.__getitem__)
    out = {}
    for k in order:
        acc = pv.get(k, 0j)
        for ku, _, c in steps:
            prev = out.get(k - ku)
            if prev is not None:
                acc += c * prev
        out[k] = acc
    return dict(zip(map(vec.__getitem__, order), out.values())), list(map(val.__getitem__, order))


def exact_spectrum(H: HermiteBiehler, cutoff) -> SpectrumAtoms:
    """Expansion of iA/B in nonnegative frequencies, exact up to `cutoff`.

    Writes B = b0 e^{2 pi i theta0 z}(1 - g) with theta0 the common minimum
    frequency of A and B, so that iA/B = p/(1-g) with
    p = iA e^{-2 pi i theta0 z}/b0, and solves (1-g)·out = p by the
    triangular recurrence of `_divide`: one value and one sort per atom, kept
    by the SpectrumAtoms, and O(atoms·|supp g|) integer-key lookups.  Every
    retained frequency is complete and exact as an integer vector; more
    than MAX_SPECTRUM_ATOMS of them raise AtomBoundError.

    The coefficients are as accurate as the solve of a well-conditioned
    triangular system.  The earlier route summed the truncated powers g^n
    one by one and was not: at rank 2 (the Lee-Yang input at cutoff 60)
    the powers cancel against each other and its error grew from 3e-14
    below frequency 10 to 6e-3 near 55, while the recurrence stays within
    4e-15 of an exact rational solve of the same double inputs.

    meta records the requested cutoff, delta (the least frequency of g)
    and n_powers = ceil(cutoff/delta), the highest power of g that can
    reach a retained frequency.  y_valid is the least ladder height where
    the sup-norm bound of g drops below 1/2.
    """
    A, B = H.A, H.B
    if not B:
        raise SpectrumError("B is identically zero")
    vb, theta0, b0 = B.min_freq()
    va, _, _ = A.min_freq()
    if va != vb:
        raise SpectrumError(
            "minimum frequencies of A and B differ; E is not normalized "
            "Hermite-Biehler (spectrum would not be one-sided)")
    cutoff_value = float(cutoff)
    if not 0 <= cutoff_value < math.inf:
        raise SpectrumError(
            f"cutoff must be finite and nonnegative, got {cutoff_value}")

    g = ExpSum(B.basis, {tuple(a - b for a, b in zip(v, vb)): -c / b0
                         for v, c in B.terms.items() if v != vb})
    prefactor = (A.shift(-k for k in vb) * (1j / b0)).truncate(cutoff_value)

    delta = g.min_freq()[1] if g else math.inf
    if delta <= 0:
        raise SpectrumError("duplicate lowest frequency in B after purge")
    atoms, values = _divide(prefactor, g, cutoff_value)
    if 0 in atoms.values():
        values = [x for x, c in zip(values, atoms.values()) if c != 0]
        atoms = {v: c for v, c in atoms.items() if c != 0}

    y_valid = 0.05 if g else 0.0
    while g and _sup_bound(g, y_valid) >= 0.5:
        y_valid += 0.05
        if y_valid > 200.0:
            raise SpectrumError("could not certify convergence height")

    meta = {"requested_cutoff": cutoff_value, "n_powers": math.ceil(cutoff_value / delta),
            "delta": delta if delta != math.inf else None}
    return SpectrumAtoms(B.basis, atoms, y_valid, meta, values)


_NODES = 8  # Gauss-Legendre nodes per panel of mean_value_batch


def mean_value_batch(f, lambdas, y, T, taper="fejer", panel_width=0.25):
    """Tapered Bohr mean values at several frequencies, sharing f-samples.

    `f` is a vectorized evaluator: it receives each chunk of nodes as one
    freqalg.Grid and returns a sample array of the grid's shape, or
    SpectrumError names both shapes.  The integration line is Im z = y.
    By Cauchy's theorem the mean of a function holomorphic and bounded
    between two heights is the same on both lines (for iA/B, on every line
    above y_valid), and a lower line avoids amplifying quadrature noise by
    e^{2 pi lambda y} at large lambda.

    The quadrature nodes are X = mid_p + h xi_j (panel midpoints, half
    width h, _NODES Gauss-Legendre nodes xi_j), at most
    MAX_QUADRATURE_POINTS of them, with the scale e^{2 pi lambda y}/T a
    double and the phases 2 pi lambda X within freqalg's _PHASE_LIMIT, where
    ExpSum.eval keeps a correct digit, or SpectrumError before f is called.
    They are streamed in chunks of at most freqalg.CHUNK_POINTS nodes, in
    rows of R = GRID_BLOCK/_NODES panels: with mid_0 the chunk's first
    midpoint and w the panel width, node j of panel r in row m is
    X = mid_0 + w R m + (w r + h xi_j).  f receives a chunk, a partial last
    row included, as one freqalg.Grid of these row heads (plus iy) and
    GRID_BLOCK column offsets: its flat array under numpy, on which A and B
    of an f = iA/B are each one block of freqalg's grid contraction, over
    generator tables made once per chunk for both.  The phase factors alike:

        e^{-2 pi i lam (X + iy)} = e^{2 pi lam y} e^{-2 pi i lam mid_0}
            e^{-2 pi i lam w R m} e^{-2 pi i lam (w r + h xi_j)}.

    The last two factors do not depend on the chunk and are tabulated
    once per call, the Gauss weights folded into the node table (in the
    real form of freqalg.real_table).  Per chunk, f is evaluated once on the
    grid, the taper and the tapered samples go into two buffers made once
    per call, their rows are projected on every lambda by one
    freqalg.real_matmul into a third, the sum over rows is one contraction,
    and the only exponential is one lambda vector at mid_0: memory stays
    bounded by the chunk, not by T.  No frequencies take no samples.
    """
    if taper not in ("none", "fejer"):
        raise ValueError("taper must be 'none' or 'fejer'")
    if not 0 < T < math.inf:
        raise ValueError("T must be finite and positive")
    if not 0 < panel_width < math.inf:
        raise SpectrumError(
            f"panel width must be finite and positive, got {panel_width}")
    if not math.isfinite(y):
        raise SpectrumError(f"y must be finite, got {y}")
    T = float(T)
    lam = np.asarray(lambdas, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise SpectrumError(
            f"frequencies must be finite, got {lam[~np.isfinite(lam)][0]}")
    max_panels = MAX_QUADRATURE_POINTS // _NODES  # ceil(2T/width) > it iff 2T/width is
    if 2 * T / panel_width > max_panels:
        raise SpectrumError(f"T = {T:g} needs more than the {MAX_QUADRATURE_POINTS} quadrature "
                            f"points allowed (T up to {max_panels * panel_width / 2:g})")
    if not lam.size:
        return []
    lo, hi = float(lam.min()), float(lam.max())
    if 2 * math.pi * max(lo * y, hi * y) - math.log(T) > _EXP_OVERFLOW \
            or 2 * math.pi * max(-lo, hi) * T > _PHASE_LIMIT:
        raise SpectrumError(f"lambda in [{lo:g}, {hi:g}] on the line y = {y:g} over T = {T:g} "
                            "needs e^(2 pi lambda y)/T or phases 2 pi lambda x out of range")
    n_panels = max(int(math.ceil(2 * T / panel_width)), 1)
    w_eff = 2 * T / n_panels
    half = 0.5 * w_eff
    xi, wi = np.polynomial.legendre.leggauss(_NODES)
    norm = T if taper == "fejer" else 2.0 * T
    step = max(CHUNK_POINTS // _NODES, 1)
    row_panels = GRID_BLOCK // _NODES
    offsets = ((w_eff * np.arange(row_panels))[:, None] + half * xi[None, :]).ravel()
    row_starts = w_eff * row_panels * np.arange(-(-step // row_panels))
    # BLAS gets two products, freqalg's grid contraction and this row projection,
    # both real (a zgemm threads far sooner) and cut by real_matmul below
    # OpenBLAS's threading floor.  node_table: Gauss-weighted conjugate phases
    node_table = real_table(np.exp(-2j * np.pi * np.outer(offsets, lam))
                            * np.tile(half * wi, row_panels)[:, None])
    row_phase = np.exp(-2j * np.pi * np.outer(row_starts, lam))
    rows_T, offsets_T = row_starts / T, offsets / T
    taper_w = np.ones((row_starts.size, offsets.size))
    samples = np.empty(taper_w.shape, dtype=complex)
    flat = samples.reshape(-1)
    per_row = np.empty((row_starts.size, lam.size), dtype=complex)
    acc = np.zeros(lam.shape, dtype=complex)
    for start in range(0, n_panels, step):
        n = min(step, n_panels - start) * _NODES
        mid0 = -T + w_eff * (start + 0.5)
        grid = Grid(mid0 + 1j * y + row_starts, offsets, n)
        fv = np.asarray(f(grid), dtype=complex)
        if fv.shape != grid.shape:
            raise SpectrumError(f"f returned samples of shape {fv.shape} on a grid "
                                f"of shape {grid.shape}")
        if not np.isfinite(np.ascontiguousarray(fv).view(float)).all():
            raise SpectrumError("non-finite sample: a pole is too close to the line")
        used = grid.rows.size  # rows holding samples
        if taper == "fejer":
            X = np.add((mid0 / T + rows_T[:used])[:, None], offsets_T, out=taper_w[:used])
            np.subtract(1.0, np.abs(X, out=X), out=X)
        np.multiply(fv, taper_w.reshape(-1)[:n], out=flat[:n])
        flat[n:used * offsets.size] = 0  # the rest of a partial last row
        real_matmul(samples[:used].view(float), node_table, per_row[:used].view(float))
        acc += np.exp(-2j * np.pi * lam * mid0) \
            * np.einsum("ml,ml->l", per_row[:used], row_phase[:used])
    scale = np.exp(2 * np.pi * lam * y) / norm
    return [complex(v) for v in acc * scale]


def fejer_reconstruct(a: SpectrumAtoms, a0: float, T: float, z) -> complex:
    """Fejer partial sum (1/2) a0 + sum_{0<lambda<T} a(lambda)(1-lambda/T)e^{2 pi i lambda z}.

    Converges to iA/B as T grows, uniformly on compacts of the upper
    half-plane.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    vals, coef = a.sorted_arrays()
    keep = (vals > 0.0) & (vals < T)
    vals = vals[keep]
    terms = coef[keep] * (1.0 - vals / T) * np.exp(2j * np.pi * vals * complex(z))
    return complex(0.5 * complex(a0) + np.sum(terms))
