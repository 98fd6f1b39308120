"""Exact algebra of finite exponential sums over a declared frequency basis.

An exponential sum is a finite map  freq -> coefficient  representing

    f(z) = sum_k  c_k * exp(2*pi*i * lambda_k * z),

where every frequency lambda_k is an exact integer vector over a fixed
basis of positive reals:  lambda = sum_j k_j * base[j] / D.  Frequency
arithmetic (addition under multiplication of sums, negation under
conjugate reflection) is exact integer arithmetic; coefficients are
complex doubles.  Merging of like frequencies is decided by integer
vector equality only, never by a floating tolerance, so products and
powers of sums never accumulate spurious near-duplicate terms.

Evaluation has two routes, and the point set alone chooses.  On a Grid
(row heads r_m, real column offsets x_k) a sum in the generators
w_j = e^{2 pi i base_j z/D} factors, sum_t c_t w^{k_t}(r_m + x_k) =
sum_t (c_t U_mt) V_tk: a contraction of tables of integer powers of
e^{g r_m} and e^{g x_k}, done by real_matmul over blocks of at most
GRID_BLOCK columns, so only the output grows with the grid.  The grid
makes the two tables of each generator value g = 2 pi i base_j/D on first
use and keeps them, so A and B of iA/B (or E and E*) on one grid, or sums
over bases sharing an entry, exponentiate each table once.  Every other point
set (an array, a scalar, or a grid whose row heights could push a power
towards overflow or the subnormals) takes one exponential per term, in
chunks of at most CHUNK_POINTS points, so one evaluation holds a few
chunk-sized arrays beyond its output, whatever its length.  At Re z = x
term t's phase is off by about eps 2 pi |x| N_t, N_t = sum_j |k_j| base_j/D:
ExpSum.floor bounds the error, and inputs where a term overflows or that
phase error passes 1/16 rad raise EvalRangeError on either route.

Rational independence of the basis entries is asserted by the caller,
not verified here.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from operator import add, mul

import numpy as np

# exponent beyond which exp(x) overflows a double
_EXP_OVERFLOW = 709.0
# largest phase 2 pi |Re z| N_t of a term: its rounding error 2^-52 times it is 1/16 rad
_PHASE_LIMIT = 2.0 ** 48
# largest exponent a power or partial product of powers on a Grid may reach:
# half the range keeps it within 1e+-154 of 1, clear of the subnormals
_PRODUCT_LIMIT = 0.5 * _EXP_OVERFLOW
# most points per chunk of ExpSum.eval's per-term route and mean_value_batch
CHUNK_POINTS = 1 << 15
# most columns per block of the grid contraction, and the width of
# mean_value_batch's grids: one block per chunk
GRID_BLOCK = 64
# most multiply-adds per np.matmul call: OpenBLAS runs a dgemm of at most
# SMP_THRESHOLD_MIN (65536) x GEMM_MULTITHREAD_THRESHOLD (4) on one thread
_GEMM_BUDGET = 1 << 18


class BasisMismatchError(ValueError):
    """Two sums over different bases were combined."""


class EvalRangeError(OverflowError):
    """A term's modulus overflows double precision, or its phase has no correct digit."""


@dataclass(frozen=True)
class FreqBasis:
    """Ordered positive frequency basis with a common denominator.

    A frequency vector k represents sum_j k[j]*base[j]/denominator.
    Entries must be positive, finite and pairwise distinct.
    """

    base: tuple
    denominator: int = 1

    def __post_init__(self):
        base = tuple(float(b) for b in self.base)
        object.__setattr__(self, "base", base)
        if not base:
            raise ValueError("basis must have at least one entry")
        if any(not math.isfinite(b) or b <= 0 for b in base):
            raise ValueError("basis entries must be positive and finite")
        if len(set(base)) != len(base):
            raise ValueError("basis entries must be pairwise distinct")
        if int(self.denominator) < 1:
            raise ValueError("denominator must be a positive integer")
        object.__setattr__(self, "denominator", int(self.denominator))

    def value(self, vec):
        """Numeric frequency of an integer vector (double precision)."""
        return sum(map(mul, vec, self.base)) / self.denominator

    def zero_vec(self):
        return (0,) * len(self.base)


class Grid(np.lib.mixins.NDArrayOperatorsMixin):
    """The first n (0 <= n <= rows x cols) points rows[m] + cols[k], row-major,
    of complex row heads (those past the n-th point dropped) and at least one
    real column offset.  Under numpy it acts as that flat array; ExpSum.eval
    contracts a sum over the tables of its generators, which the grid makes
    on first use and keeps: rows and cols must not change after that."""

    def __init__(self, rows, cols, n):
        self.cols = np.asarray(cols, dtype=float).ravel()
        if not self.cols.size:
            raise ValueError("a Grid needs at least one column offset, got none")
        rows = np.asarray(rows, dtype=complex).ravel()
        if not 0 <= n <= rows.size * self.cols.size:
            raise ValueError(f"a Grid of {rows.size} x {self.cols.size} points "
                             f"cannot hold n = {n}")
        self.rows = rows[:-(-n // self.cols.size)]
        self.size, self.shape = n, (n,)
        self._tables = {}

    def tables(self, g):
        """(e^{g rows}, e^{g cols}), made on the first call for g and kept."""
        if g not in self._tables:
            self._tables[g] = np.exp(g * self.rows), np.exp(g * self.cols)
        return self._tables[g]

    def __array__(self, dtype=None, copy=None):
        flat = (self.rows[:, None] + self.cols).ravel()[:self.size]
        return flat.astype(dtype or complex, copy=False)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [np.asarray(x) if isinstance(x, Grid) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def real_table(c):
    """The (2k x 2n) table [[Re c, Im c], [-Im c, Re c]] per entry of a complex
    (k x n) table c: x @ c is x.view(float) @ real_table(c) viewed as complex.
    A complex zgemm wakes a second OpenBLAS thread far below real_matmul's budget."""
    k, n = c.shape
    table = np.empty((k, 2, n, 2))
    table[:, 0] = c.view(float).reshape(k, n, 2)
    table[:, 1, :, 0] = -c.imag
    table[:, 1, :, 1] = c.real
    return table.reshape(2 * k, 2 * n)


def real_matmul(a, b, out):
    """Write a @ b into out, for real 2-d arrays, by np.matmul calls of at most
    _GEMM_BUDGET multiply-adds (row blocks, and column blocks where one row is
    over it): single-threaded dgemms, as a second thread would only spin."""
    (m, k), n = a.shape, b.shape[1]
    cols = max(min(n, _GEMM_BUDGET // max(k, 1)), 1)
    rows = max(_GEMM_BUDGET // max(k * cols, 1), 1)
    for j in range(0, n, cols):
        for i in range(0, m, rows):
            np.matmul(a[i:i + rows], b[:, j:j + cols], out=out[i:i + rows, j:j + cols])


def complex_from_json(v) -> complex:
    """complex(re, im) from a JSON pair [re, im] of numbers; ValueError otherwise."""
    if not (isinstance(v, list) and len(v) == 2
            and all(type(x) in (int, float) for x in v)):
        raise ValueError(f"expected a pair [re, im] of numbers, got {v!r}")
    return complex(v[0], v[1])


def _vec_neg(a):
    return tuple(-x for x in a)


class ExpSum:
    """Finite exponential sum sum c_k e^{2 pi i lambda_k z} over a FreqBasis.

    Immutable.  Zero coefficients are purged on construction; all
    arithmetic returns new instances.
    """

    __slots__ = ("basis", "_terms", "_sorted", "_values", "_norms", "_plan")

    def __init__(self, basis: FreqBasis, terms=None):
        self.basis = basis
        clean = {}
        n = len(basis.base)
        for vec, c in (terms or {}).items():
            vec = tuple(int(k) for k in vec)
            if len(vec) != n:
                raise ValueError("frequency vector length does not match basis")
            c = complex(c)
            if c != 0:
                clean[vec] = clean.get(vec, 0j) + c
        self._terms = {v: c for v, c in clean.items() if c != 0}
        # ascending numeric frequency, integer vector as tiebreak; the values
        # and norms N_t are kept beside the vectors so nothing recomputes them
        order = sorted((basis.value(v), v) for v in self._terms)
        self._values = [val for val, _ in order]
        self._sorted = [v for _, v in order]
        self._norms = [basis.value(map(abs, v)) for v in self._sorted]
        self._plan = None               # _GridPlan, built on the first grid

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self):
        """Term map as a dict copy (freq vector -> coefficient)."""
        return dict(self._terms)

    def sorted_terms(self):
        """(vector, value, coefficient) triples in ascending frequency order."""
        return [(v, val, self._terms[v]) for v, val in zip(self._sorted, self._values)]

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return (isinstance(other, ExpSum) and self.basis == other.basis
                and self._terms == other._terms)

    def __repr__(self):
        parts = [f"{c:.6g}*e(2pi i {val:.6g} z)" for _, val, c in self.sorted_terms()[:4]]
        if len(self) > 4:
            parts.append("...")
        return "ExpSum(" + " + ".join(parts or ["0"]) + ")"

    def min_freq(self):
        """(vector, value, coefficient) of the lowest frequency term."""
        if not self._terms:
            raise ValueError("empty sum has no minimum frequency")
        v = self._sorted[0]
        return v, self._values[0], self._terms[v]

    def freq_span(self):
        """max frequency - min frequency (0 for at most one term)."""
        if len(self._terms) < 2:
            return 0.0
        return self._values[-1] - self._values[0]

    # -- evaluation ---------------------------------------------------------

    def eval(self, z):
        """Evaluate at z (scalar, ndarray or Grid).

        Raises EvalRangeError, instead of returning inf or noise, if any term's
        modulus exp(-2 pi lambda Im z) overflows or its phase error passes
        1/16 rad (|Re z| <= max|Re rows| + max|cols| on a Grid).

        A Grid whose powers stay in range (_GridPlan.reach times the largest
        |Im| of its row heads below _GridPlan.limit) is a real_matmul over its
        tables, GRID_BLOCK columns at a time; any other z sums one
        exponential per term, in chunks of at most CHUNK_POINTS points.
        """
        grid = isinstance(z, Grid)
        z = z if grid else np.asarray(z, dtype=complex)
        if not self._terms or not z.size:
            out = np.zeros(z.shape, dtype=complex)
            return out if out.shape else 0j
        im = z.rows.imag if grid else z.imag
        im_min = float(np.min(im))
        im_max = float(np.max(im))
        re_max = float(np.abs(z.rows.real).max() + np.abs(z.cols).max()) if grid \
            else float(np.abs(z.real).max())
        for lam, norm in zip(self._values, self._norms):
            worst = -2.0 * math.pi * lam * (im_min if lam > 0 else im_max)
            if worst > _EXP_OVERFLOW:
                raise EvalRangeError(
                    f"exp(-2 pi {lam:g} Im z) overflows double precision")
            if 2 * math.pi * re_max * norm > _PHASE_LIMIT:
                raise EvalRangeError(f"the phase of frequency {lam:g} at |Re z| = {re_max:g} "
                                     "has no correct digit")
        if grid and self._plan is None:
            self._plan = _GridPlan(self)
        if grid and self._plan.reach * max(-im_min, im_max) < self._plan.limit:
            out = self._plan.eval(z)
        else:
            flat = np.asarray(z).reshape(-1)
            out = np.zeros(flat.shape, dtype=complex)
            for i in range(0, flat.size, CHUNK_POINTS):
                part, acc = flat[i:i + CHUNK_POINTS], out[i:i + CHUNK_POINTS]
                for v, lam in zip(self._sorted, self._values):
                    acc += self._terms[v] * np.exp(2j * np.pi * lam * part)
            out = out.reshape(z.shape)
        return out if out.shape else complex(out)

    def floor(self, x_max):
        """Rounding floor 1e-14 sum_t |c_t| (1 + 2 pi x_max N_t) of eval on [-x_max, x_max]."""
        mod = np.abs([self._terms[v] for v in self._sorted])
        return 1e-14 * float(mod @ (1 + 2 * math.pi * x_max * np.array(self._norms)))

    # -- algebra ------------------------------------------------------------

    def _require_same_basis(self, other):
        if self.basis != other.basis:
            raise BasisMismatchError("operands use different frequency bases")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = constant(self.basis, other)
        self._require_same_basis(other)
        t = dict(self._terms)
        for v, c in other._terms.items():
            t[v] = t.get(v, 0j) + c
        return ExpSum(self.basis, t)

    __radd__ = __add__

    def __neg__(self):
        return ExpSum(self.basis, {v: -c for v, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return ExpSum(self.basis, {v: c * other for v, c in self._terms.items()})
        self._require_same_basis(other)
        t = {}
        for va, ca in self._terms.items():
            for vb, cb in other._terms.items():
                v = tuple(map(add, va, vb))
                t[v] = t.get(v, 0j) + ca * cb
        return ExpSum(self.basis, t)

    __rmul__ = __mul__

    def shift(self, vec):
        """Multiply by the unit monomial e^{2 pi i freq(vec) z}."""
        vec = tuple(int(k) for k in vec)
        return ExpSum(self.basis, {tuple(map(add, v, vec)): c for v, c in self._terms.items()})

    def star(self):
        """Conjugate reflection f*(z) = conj(f(conj z)): (lam, c) -> (-lam, conj c)."""
        return ExpSum(self.basis, {_vec_neg(v): c.conjugate()
                                   for v, c in self._terms.items()})

    def derivative(self):
        """d/dz: term (lam, c) -> (lam, 2 pi i lam c); the lam = 0 term drops."""
        lam = dict(zip(self._sorted, self._values))
        return ExpSum(self.basis, {v: 2j * math.pi * lam[v] * c
                                   for v, c in self._terms.items()})

    def is_star_fixed(self, tol):
        """Whether f* = f, i.e. f is real on R, each coefficient within tol
        relative to max(|c|, 1) (tol=0: exactly); a NaN coefficient never is."""
        for v, c in self._terms.items():
            cc = self._terms.get(_vec_neg(v))
            if cc is None or not abs(cc - c.conjugate()) <= tol * max(abs(c), 1.0):
                return False
        return True

    def hermitize(self):
        """(f + f*)/2: exactly star-fixed symmetrization."""
        return (self + self.star()) * 0.5

    def truncate(self, cutoff_value):
        """Drop terms with numeric frequency above cutoff_value (+1e-12)."""
        # term order is kept: it fixes the summation order of later products
        kept = set(self._sorted[:bisect.bisect_right(self._values, cutoff_value + 1e-12)])
        return ExpSum(self.basis, {v: c for v, c in self._terms.items() if v in kept})

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        return {
            "basis": list(self.basis.base),
            "denominator": self.basis.denominator,
            "terms": [{"k": list(v), "c": [self._terms[v].real, self._terms[v].imag]}
                      for v in self._sorted],
        }

    @classmethod
    def from_json_dict(cls, d):
        den = d.get("denominator", 1)
        if type(den) is not int or not all(type(k) is int for t in d["terms"] for k in t["k"]):
            raise ValueError("the denominator and every frequency vector entry "
                             "must be JSON integers")
        basis = FreqBasis(tuple(d["basis"]), den)
        return cls(basis, {tuple(t["k"]): complex_from_json(t["c"]) for t in d["terms"]})


class _GridPlan:
    """The z-independent half of ExpSum.eval's grid contraction, which `eval`
    does by real_matmul, one block of at most GRID_BLOCK columns at a time.

    Term t has exponents k[t] in the generators w_j = e^{gen_j z} of the
    coordinates some term uses, and coefficient coef[t].  At a row head r
    every power and partial product of a term's powers has modulus
    e^{-2 pi Im(r) s/D}, with s a sum over some j of k_j base_j, so
    |s|/D <= N_t: `reach`, 2 pi times the largest norm N_t, times max|Im r|
    bounds their exponents, which must stay below `limit`.
    """

    def __init__(self, s: ExpSum):
        basis = s.basis
        vecs = list(s._terms)
        coords = [j for j in range(len(basis.base)) if any(v[j] for v in vecs)]
        self.k = np.array([[v[j] for j in coords] for v in vecs], dtype=int)
        self.gen = [2j * math.pi * basis.base[j] / basis.denominator for j in coords]
        self.reach = 2 * math.pi * max(s._norms)
        self.coef = np.array(list(s._terms.values()))
        # nor may a coefficient shrink below 2^-970 = 2^-1022/eps, where its
        # product with a power could lose digits to the subnormals
        self.limit = min(_PRODUCT_LIMIT, 970 * math.log(2.0) + math.log(min(np.abs(self.coef))))

    def eval(self, grid):
        """Sum at the points of a Grid: sum_t (c_t U_mt) V_tk, U and V products
        of each term's powers of the generators' row and column tables, in
        real arithmetic: U.view(float) times real_table(V), by real_matmul, one
        block of at most GRID_BLOCK columns at a time written straight into the
        output, so no table outgrows the block."""
        terms = len(self.coef)
        U = np.ones((grid.rows.size, terms), dtype=complex)
        for k, g in zip(self.k.T, self.gen):
            U *= np.power(grid.tables(g)[0][:, None], k)
        U *= self.coef  # last: a coefficient may be tiny, each product is in range
        out = np.empty((grid.rows.size, grid.cols.size), dtype=complex)
        for lo in range(0, grid.cols.size, GRID_BLOCK):
            hi = min(lo + GRID_BLOCK, grid.cols.size)
            V = np.ones((terms, hi - lo), dtype=complex)
            for k, g in zip(self.k.T, self.gen):
                V *= np.power(grid.tables(g)[1][lo:hi], k[:, None])
            real_matmul(U.view(float), real_table(V), out[:, lo:hi].view(float))
        return out.reshape(-1)[:grid.size]


# -- constructors -----------------------------------------------------------

def constant(basis, c):
    return ExpSum(basis, {basis.zero_vec(): c})


def sine(basis, vec):
    """sin(2 pi freq(vec) x) as an exponential sum."""
    a = 1 / 2j
    return ExpSum(basis, {tuple(vec): a, _vec_neg(tuple(vec)): -a})
