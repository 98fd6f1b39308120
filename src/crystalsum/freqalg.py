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

Evaluation treats a sum as a Laurent polynomial in the generators
w_j = e^{2 pi i base_j z/D}: one complex exponential per basis entry
present, nested Horner over the coordinates (gaps bridged by powers of
w_j from repeated squaring), then one factor prod_j w_j^{lo_j} for the
minimum exponents.  A range guard sends heights where some intermediate
power, or coefficient times power, could approach overflow or the
subnormals back to one exponential per term; inputs where a term itself
overflows raise EvalRangeError on either route.

Rational independence of the basis entries is asserted by the caller,
not verified here.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

# exponent beyond which exp(x) overflows a double
_EXP_OVERFLOW = 709.0
# largest exponent Horner's intermediate powers may reach: half the range
# keeps them within 1e+-154 of their coefficients, clear of the subnormals
_HORNER_LIMIT = 0.5 * _EXP_OVERFLOW


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


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vec_neg(a):
    return tuple(-x for x in a)


class ExpSum:
    """Finite exponential sum sum c_k e^{2 pi i lambda_k z} over a FreqBasis.

    Immutable.  Zero coefficients are purged on construction; all
    arithmetic returns new instances.
    """

    __slots__ = ("basis", "_terms", "_sorted", "_values", "_horner")

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
        self._horner = None             # _HornerPlan, built on first eval

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

    def coefficient(self, vec):
        return self._terms.get(tuple(vec), 0j)

    # -- evaluation ---------------------------------------------------------

    def eval(self, z):
        """Evaluate at z (scalar or ndarray).

        Raises EvalRangeError if any term's modulus exp(-2 pi lambda Im z)
        overflows, instead of silently returning inf.

        Sums by nested Horner in the generators w_j (see the module
        docstring) while the largest intermediate power,
        exp(2 pi max|Im z|/D * max(sum_j (hi_j - lo_j) base_j,
        max_j max(|hi_j|, |lo_j|) base_j)) with lo_j and hi_j the extreme
        exponents of coordinate j, stays below exp(_HORNER_LIMIT) and
        2^970 min |c|; above that, one exponential per term.
        """
        z = np.asarray(z, dtype=complex)
        if not self._terms:
            out = np.zeros(z.shape, dtype=complex)
            return out if out.shape else 0j
        im_min = float(np.min(z.imag)) if z.size else 0.0
        im_max = float(np.max(z.imag)) if z.size else 0.0
        for lam in self._values:
            worst = -2.0 * math.pi * lam * (im_min if lam > 0 else im_max)
            if worst > _EXP_OVERFLOW:
                raise EvalRangeError(
                    f"exp(-2 pi {lam:g} Im z) overflows double precision")
        if self._horner is None:
            self._horner = _HornerPlan(self)
        if self._horner.reach * max(-im_min, im_max) < self._horner.limit:
            out = self._horner.eval(z.reshape(-1)).reshape(z.shape)
        else:
            out = np.zeros(z.shape, dtype=complex)
            for v, lam in zip(self._sorted, self._values):
                out += self._terms[v] * np.exp(2j * np.pi * lam * z)
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
        basis = FreqBasis(tuple(d["basis"]), d.get("denominator", 1))
        terms = {tuple(t["k"]): complex(t["c"][0], t["c"][1]) for t in d["terms"]}
        return cls(basis, terms)

    def dumps(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def loads(cls, s):
        return cls.from_json_dict(json.loads(s))


class _HornerPlan:
    """The z-independent half of ExpSum.eval's generator route.

    `tree` nests the terms by coordinate: at each level a list of
    (shifted exponent, subtree) in descending exponent order, with the
    coefficient as the leaf.  Coordinates that are zero in every term are
    left out.  `reach` times max|Im z| bounds the exponent of every
    intermediate power, which must stay below `limit`.
    """

    def __init__(self, s: ExpSum):
        basis = s.basis
        vecs = list(s._terms)
        coords = [j for j in range(len(basis.base)) if any(v[j] for v in vecs)]
        self.lo = [min(v[j] for v in vecs) for j in coords]
        hi = [max(v[j] for v in vecs) for j in coords]
        bases = [basis.base[j] for j in coords]
        self.gen = [2j * math.pi * b / basis.denominator for b in bases]
        self.reach = 2 * math.pi / basis.denominator * max(
            sum((h - l) * b for h, l, b in zip(hi, self.lo, bases)),
            max((max(abs(h), abs(l)) * b for h, l, b in zip(hi, self.lo, bases)),
                default=0.0))
        # nor may a coefficient shrink below 2^-970 = 2^-1022/eps: an underflow
        # past that costs at most eps^2 of its term, however the lo factor grows it
        self.limit = min(_HORNER_LIMIT,
                         math.log(2.0**970 * min(map(abs, s._terms.values()))))
        items = sorted(((tuple(v[j] - l for j, l in zip(coords, self.lo)), c)
                        for v, c in s._terms.items()), reverse=True)
        self.tree = self._nest(items, 0)

    def _nest(self, items, depth):
        if depth == len(self.lo):
            return items[0][1]
        return [(k, self._nest(list(group), depth + 1))
                for k, group in groupby(items, key=lambda t: t[0][depth])]

    def eval(self, z):
        """Sum at the points of the 1-d array z."""
        powers = {(j, 1): np.exp(g * z) for j, g in enumerate(self.gen)}
        out = _horner(self.tree, 0, powers)
        for j, lo in enumerate(self.lo):
            if lo > 0:
                out = _times(out, _power(powers, j, lo))
        down = [_power(powers, j, -lo) for j, lo in enumerate(self.lo) if lo < 0]
        if down:
            # no power is read again, so their storage is reused
            d = down[0]
            for p in down[1:]:
                d *= p
            out = _times(out, np.reciprocal(d, out=d))
        return out if isinstance(out, np.ndarray) else np.full(z.shape, out)


def _power(powers, j, n):
    """w_j^n by repeated squaring from powers[(j, 1)] = w_j; every power
    made is kept in `powers` for reuse."""
    p = powers.get((j, n))
    if p is None:
        h = _power(powers, j, n // 2)
        p = h * h
        if n % 2:
            p *= powers[(j, 1)]
        powers[(j, n)] = p
    return p


def _times(acc, p):
    """acc * p, in place when acc is an array (always one made by the
    evaluation in progress) rather than a bare coefficient."""
    if isinstance(acc, np.ndarray):
        acc *= p
        return acc
    return acc * p


def _horner(node, depth, powers):
    """Nested Horner sum of a _HornerPlan tree from coordinate `depth` on."""
    if not isinstance(node, list):
        return node
    acc, prev = None, 0
    for k, child in node:
        val = _horner(child, depth + 1, powers)
        if acc is None:
            acc = val
        else:
            acc = _times(acc, _power(powers, depth, prev - k))
            acc += val
        prev = k
    return _times(acc, _power(powers, depth, prev)) if prev else acc


# -- constructors -----------------------------------------------------------

def constant(basis, c):
    return ExpSum(basis, {basis.zero_vec(): c})


def monomial(basis, vec, c=1.0):
    """c * e^{2 pi i freq(vec) z}."""
    return ExpSum(basis, {tuple(vec): c})


def cosine(basis, vec, amplitude=1.0):
    """amplitude * cos(2 pi freq(vec) x) as an exponential sum."""
    a = amplitude / 2.0
    return ExpSum(basis, {tuple(vec): a, _vec_neg(tuple(vec)): a})


def sine(basis, vec, amplitude=1.0):
    """amplitude * sin(2 pi freq(vec) x) as an exponential sum."""
    a = amplitude / 2j
    return ExpSum(basis, {tuple(vec): a, _vec_neg(tuple(vec)): -a})

