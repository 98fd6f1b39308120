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
sum_t (c_t U_mt) V_tk: one einsum of tables of integer powers of e^{g r_m}
and e^{g x_k}, so only the output grows with the grid.  The grid makes the
two tables of each generator value g = 2 pi i base_j/D on first use and
keeps them, so A and B of iA/B (or E and E*) on one grid, or sums over
bases sharing an entry, exponentiate each table once.  Every other point
set (an array, a scalar, or a grid whose row heights could push a power
towards overflow or the subnormals) takes one exponential per term, in
chunks of at most CHUNK_POINTS points, so one evaluation holds a few
chunk-sized arrays beyond its output, whatever its length.  Inputs where
a term itself overflows raise EvalRangeError on either route.

Rational independence of the basis entries is asserted by the caller,
not verified here.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

# exponent beyond which exp(x) overflows a double
_EXP_OVERFLOW = 709.0
# largest exponent a power or partial product of powers on a Grid may reach:
# half the range keeps it within 1e+-154 of 1, clear of the subnormals
_PRODUCT_LIMIT = 0.5 * _EXP_OVERFLOW
# most points per chunk of ExpSum.eval's per-term route and mean_value_batch
CHUNK_POINTS = 1 << 15


class BasisMismatchError(ValueError):
    """Two sums over different bases were combined."""


class EvalRangeError(OverflowError):
    """exp(-2*pi*lambda*Im z) overflowed double precision."""


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
        return sum(k * b for k, b in zip(vec, self.base)) / self.denominator

    def zero_vec(self):
        return (0,) * len(self.base)

    def unit(self, j, mult=1):
        """Vector for mult*base[j]/denominator."""
        v = [0] * len(self.base)
        v[j] = mult
        return tuple(v)


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


def complex_from_json(v) -> complex:
    """complex(re, im) from a JSON pair [re, im] of numbers; ValueError otherwise."""
    if not (isinstance(v, list) and len(v) == 2
            and all(type(x) in (int, float) for x in v)):
        raise ValueError(f"expected a pair [re, im] of numbers, got {v!r}")
    return complex(v[0], v[1])


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vec_neg(a):
    return tuple(-x for x in a)


class ExpSum:
    """Finite exponential sum sum c_k e^{2 pi i lambda_k z} over a FreqBasis.

    Immutable.  Zero coefficients are purged on construction; all
    arithmetic returns new instances.
    """

    __slots__ = ("basis", "_terms", "_sorted", "_values", "_plan")

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
        # ascending numeric frequency, integer vector as tiebreak; the
        # numeric values are kept beside the vectors so nothing recomputes them
        order = sorted((basis.value(v), v) for v in self._terms)
        self._values = [val for val, _ in order]
        self._sorted = [v for _, v in order]
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

    def __hash__(self):
        return hash((self.basis, tuple(sorted(self._terms.items()))))

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

        Raises EvalRangeError if any term's modulus exp(-2 pi lambda Im z)
        overflows, instead of silently returning inf.

        A Grid whose powers stay in range (_GridPlan.reach times the largest
        |Im| of its row heads below _GridPlan.limit) is one contraction over
        its tables; any other z sums one exponential per term, in chunks of
        at most CHUNK_POINTS points.
        """
        grid = isinstance(z, Grid)
        z = z if grid else np.asarray(z, dtype=complex)
        if not self._terms:
            out = np.zeros(z.shape, dtype=complex)
            return out if out.shape else 0j
        im = z.rows.imag if grid else z.imag
        im_min = float(np.min(im)) if z.size else 0.0
        im_max = float(np.max(im)) if z.size else 0.0
        for lam in self._values:
            worst = -2.0 * math.pi * lam * (im_min if lam > 0 else im_max)
            if worst > _EXP_OVERFLOW:
                raise EvalRangeError(
                    f"exp(-2 pi {lam:g} Im z) overflows double precision")
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

    def __call__(self, z):
        return self.eval(z)

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
        if isinstance(other, (int, float, complex)):
            other = constant(self.basis, other)
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
                v = _vec_add(va, vb)
                t[v] = t.get(v, 0j) + ca * cb
        return ExpSum(self.basis, t)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / complex(scalar))

    def shift(self, vec):
        """Multiply by the unit monomial e^{2 pi i freq(vec) z}."""
        vec = tuple(int(k) for k in vec)
        return ExpSum(self.basis, {_vec_add(v, vec): c for v, c in self._terms.items()})

    def star(self):
        """Conjugate reflection f*(z) = conj(f(conj z)): (lam, c) -> (-lam, conj c)."""
        return ExpSum(self.basis, {_vec_neg(v): c.conjugate()
                                   for v, c in self._terms.items()})

    def derivative(self):
        """d/dz: term (lam, c) -> (lam, 2 pi i lam c); the lam = 0 term drops."""
        lam = dict(zip(self._sorted, self._values))
        return ExpSum(self.basis, {v: 2j * math.pi * lam[v] * c
                                   for v, c in self._terms.items()})

    def is_star_fixed(self, tol=0.0):
        """Exact (tol=0) or tolerant check that f* = f, i.e. f is real on R."""
        for v, c in self._terms.items():
            cc = self._terms.get(_vec_neg(v))
            if cc is None:
                return False
            if tol == 0.0:
                if cc != c.conjugate():
                    return False
            elif abs(cc - c.conjugate()) > tol * max(abs(c), 1.0):
                return False
        return True

    def hermitize(self):
        """(f + f*)/2: exactly star-fixed symmetrization."""
        return (self + self.star()) * 0.5

    def truncate(self, cutoff_value, tol=1e-12):
        """Drop terms with numeric frequency above cutoff_value (+tol)."""
        # term order is kept: it fixes the summation order of later products
        kept = set(self._sorted[:bisect.bisect_right(self._values, cutoff_value + tol)])
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
    """The z-independent half of ExpSum.eval's grid contraction.

    Term t has exponents k[t] in the generators w_j = e^{gen_j z} of the
    coordinates some term uses, and coefficient coef[t].  At a row head r
    every power and partial product of a term's powers has modulus
    e^{-2 pi Im(r) s/D}, with s a sum over some j of k_j base_j, so
    |s| <= sum_j |k_j| base_j: `reach`, 2 pi/D times the largest such bound,
    times max|Im r| bounds their exponents, which must stay below `limit`.
    """

    def __init__(self, s: ExpSum):
        basis = s.basis
        vecs = list(s._terms)
        coords = [j for j in range(len(basis.base)) if any(v[j] for v in vecs)]
        self.k = np.array([[v[j] for j in coords] for v in vecs], dtype=int)
        bases = [basis.base[j] for j in coords]
        self.gen = [2j * math.pi * b / basis.denominator for b in bases]
        self.reach = 2 * math.pi / basis.denominator * float(np.max(np.abs(self.k) @ bases))
        self.coef = np.array(list(s._terms.values()))
        # nor may a coefficient shrink below 2^-970 = 2^-1022/eps, where its
        # product with a power could lose digits to the subnormals
        self.limit = min(_PRODUCT_LIMIT, math.log(2.0**970 * min(np.abs(self.coef))))

    def eval(self, grid):
        """Sum at the points of a Grid: sum_t (c_t U_mt) V_tk, U and V products
        of each term's powers of the generators' row and column tables."""
        U = np.ones((grid.rows.size, len(self.coef)), dtype=complex)
        V = np.ones((len(self.coef), grid.cols.size), dtype=complex)
        for k, g in zip(self.k.T, self.gen):
            u, v = grid.tables(g)
            U *= np.power(u[:, None], k)
            V *= np.power(v, k[:, None])
        U *= self.coef  # last: a coefficient may be tiny, each product is in range
        # einsum, not @: see spectra.mean_value_batch
        return np.einsum("mt,tk->mk", U, V).reshape(-1)[:grid.size]


# -- constructors -----------------------------------------------------------

def constant(basis, c):
    return ExpSum(basis, {basis.zero_vec(): c})


def sine(basis, vec, amplitude=1.0):
    """amplitude * sin(2 pi freq(vec) x) as an exponential sum."""
    a = amplitude / 2j
    return ExpSum(basis, {tuple(vec): a, _vec_neg(tuple(vec)): -a})
