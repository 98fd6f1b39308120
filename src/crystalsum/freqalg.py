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

Rational independence of the basis entries is asserted by the caller,
not verified here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

Freq = tuple  # integer vector over a FreqBasis

# exponent beyond which exp(x) overflows a double
_EXP_OVERFLOW = 709.0


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

    __slots__ = ("basis", "_terms", "_sorted")

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
        # ascending numeric frequency, integer vector as tiebreak
        self._sorted = sorted(self._terms, key=lambda v: (basis.value(v), v))

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self):
        """Term map as a dict copy (freq vector -> coefficient)."""
        return dict(self._terms)

    def sorted_terms(self):
        """(vector, value, coefficient) triples in ascending frequency order."""
        return [(v, self.basis.value(v), self._terms[v]) for v in self._sorted]

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
        return v, self.basis.value(v), self._terms[v]

    def freq_span(self):
        """max frequency - min frequency (0 for at most one term)."""
        if len(self._terms) < 2:
            return 0.0
        vals = [self.basis.value(v) for v in self._sorted]
        return vals[-1] - vals[0]

    def coefficient(self, vec):
        return self._terms.get(tuple(vec), 0j)

    # -- evaluation ---------------------------------------------------------

    def eval(self, z):
        """Evaluate at z (scalar or ndarray), summing in ascending frequency order.

        Raises EvalRangeError if any term's modulus exp(-2 pi lambda Im z)
        overflows, instead of silently returning inf.
        """
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        if not self._terms:
            return out if out.shape else 0j
        im_min = float(np.min(z.imag)) if z.size else 0.0
        im_max = float(np.max(z.imag)) if z.size else 0.0
        for v in self._sorted:
            lam = self.basis.value(v)
            worst = -2.0 * math.pi * lam * (im_min if lam > 0 else im_max)
            if worst > _EXP_OVERFLOW:
                raise EvalRangeError(
                    f"exp(-2 pi {lam:g} Im z) overflows double precision")
            out = out + self._terms[v] * np.exp(2j * np.pi * lam * z)
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
        t = {}
        for v, c in self._terms.items():
            lam = self.basis.value(v)
            t[v] = 2j * math.pi * lam * c
        return ExpSum(self.basis, t)

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
        keep = {v: c for v, c in self._terms.items()
                if self.basis.value(v) <= cutoff_value + tol}
        return ExpSum(self.basis, keep)

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

