"""Exact formal q-series with rational exponents and rational coefficients.

Everything here is exact: exponents and coefficients are
`fractions.Fraction`.  No floating point enters any arithmetic path, so
re-running a pipeline reproduces identical term maps.

The module provides the Dedekind eta expansion as a sparse theta series,
eta-products over the divisors of a level N with rational exponents r_d
subject to  r_d = r_{N/d},  sum r_d = 1,  sum d r_d = 24k/b,  the modular
lambda-invariant, and the two self-dual series constructions built from
them (a plus family invariant under  F(z) -> sqrt(i/z) F(-1/z)  and a
minus family anti-invariant under the same map).

Rational powers of series are computed by the logarithmic-derivative
recurrence: if w = (1+v)^r then w'(1+v) = r v' w, which fixes each
coefficient of w from the earlier ones by exact rational arithmetic.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# the coefficient type; benchmark reports name the backend as type(QQ(1))
QQ = Fraction

_QQ_ZERO = QQ(0)
_QQ_ONE = QQ(1)


def to_fraction(x) -> Fraction:
    """Exact Fraction from int, str('p/q'), Fraction or another exact rational.

    Floats are rejected.
    """
    if isinstance(x, float):
        raise TypeError("floats are not accepted where exact rationals are required")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (str, int)):
        return Fraction(x)
    return Fraction(x.numerator, x.denominator)


def _coeff(c):
    """Normalize a coefficient to the exact rational type."""
    if isinstance(c, (int, str, Fraction)):
        return QQ(c)
    return c


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                    a.denominator * b.denominator)


def _iroot(v: int, n: int) -> int:
    """Floor of the n-th root of a nonnegative integer (integer Newton)."""
    if v < 2:
        return v
    r = 1 << -(-v.bit_length() // n)  # 2^ceil(bits/n) >= the root
    while True:
        s = ((n - 1) * r + v // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def _nth_root_exact(c, n: int):
    """Exact n-th root of a rational, or None if it is irrational."""
    if c < 0:
        if n % 2 == 0:
            return None
        r = _nth_root_exact(-c, n)
        return None if r is None else -r
    num, den = c.numerator, c.denominator
    out = []
    for val in (num, den):
        r = _iroot(val, n)
        if r ** n != val:
            return None
        out.append(r)
    return QQ(out[0], out[1])


class QSeries:
    """Truncated formal series sum c_e q^e, exponents rational, e < order."""

    __slots__ = ("terms", "order")

    def __init__(self, terms=None, order=Fraction(0)):
        self.order = to_fraction(order)
        agg = {}
        for e, c in (terms or {}).items():
            e = to_fraction(e)
            if e >= self.order:
                continue
            c = _coeff(c)
            if c != 0:
                agg[e] = agg.get(e, _QQ_ZERO) + c
        self.terms = {e: c for e, c in agg.items() if c != 0}

    # -- inspection ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, QSeries) and self.order == other.order
                and self.terms == other.terms)

    def __repr__(self):
        items = sorted(self.terms.items())[:5]
        body = " + ".join(f"({c})q^({e})" for e, c in items)
        if len(self.terms) > 5:
            body += " + ..."
        return f"QSeries({body or '0'}; order<{self.order})"

    def coefficient(self, e):
        return self.terms.get(to_fraction(e), _QQ_ZERO)

    def leading(self):
        """(exponent, coefficient) of the lowest-order term."""
        if not self.terms:
            raise ValueError("empty series has no leading term")
        e = min(self.terms)
        return e, self.terms[e]

    def sorted_terms(self):
        return sorted(self.terms.items())

    def lattice_unit(self) -> Fraction:
        """gcd of exponent differences (0 or 1 term -> Fraction(1))."""
        exps = sorted(self.terms)
        if len(exps) < 2:
            return Fraction(1)
        g = exps[1] - exps[0]
        for e in exps[2:]:
            g = _frac_gcd(g, e - exps[0])
        return g

    # -- ring operations ----------------------------------------------------

    def _as_series(self, other):
        if isinstance(other, QSeries):
            return other
        return QSeries({Fraction(0): _coeff(other)}, self.order)

    def __add__(self, other):
        other = self._as_series(other)
        order = min(self.order, other.order)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, _QQ_ZERO) + c
        return QSeries(t, order)

    __radd__ = __add__

    def __neg__(self):
        return QSeries({e: -c for e, c in self.terms.items()}, self.order)

    def __sub__(self, other):
        return self + (-self._as_series(other))

    def __rsub__(self, other):
        return (-self) + self._as_series(other)

    def scale(self, c):
        """Multiply every coefficient by the exact rational c."""
        c = _coeff(c)
        return QSeries({e: c * v for e, v in self.terms.items()}, self.order)

    def shift(self, e0, c0=1):
        """Multiply by the monomial c0 * q^{e0}."""
        e0 = to_fraction(e0)
        c0 = _coeff(c0)
        return QSeries({e + e0: c0 * c for e, c in self.terms.items()},
                       self.order + e0)

    def scale_exponents(self, s):
        """Substitute q -> q^s for an exact rational s > 0."""
        s = to_fraction(s)
        if s <= 0:
            raise ValueError("exponent scale must be positive")
        return QSeries({e * s: c for e, c in self.terms.items()}, self.order * s)

    def truncate(self, order):
        order = min(to_fraction(order), self.order)
        return QSeries({e: c for e, c in self.terms.items() if e < order}, order)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        if not self.terms or not other.terms:
            la = min(self.terms) if self.terms else self.order
            lb = min(other.terms) if other.terms else other.order
            return QSeries({}, min(self.order + lb, other.order + la))
        la, lb = min(self.terms), min(other.terms)
        # reliable up to the weaker of the two truncations
        order = min(self.order + lb, other.order + la)
        unit = _frac_gcd(self.lattice_unit(), other.lattice_unit())
        av = _dense(self, la, unit, order - lb - la)
        bv = _dense(other, lb, unit, order - la - lb)
        n_out = _lattice_len(order - la - lb, unit)
        if n_out <= 0:
            return QSeries({}, order)
        out = [_QQ_ZERO] * n_out
        for i, ai in enumerate(av):
            if not ai:
                continue
            jmax = min(n_out - i, len(bv))
            for j in range(jmax):
                bj = bv[j]
                if bj:
                    out[i + j] += ai * bj
        base = la + lb
        return QSeries({base + k * unit: c for k, c in enumerate(out) if c},
                       order)

    __rmul__ = __mul__

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        return {
            "order": str(self.order),
            "terms": [{"e": str(e), "c": str(c)} for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_json_dict(cls, d):
        return cls({Fraction(t["e"]): QQ(t["c"]) for t in d["terms"]},
                   Fraction(d["order"]))

    def dumps(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def loads(cls, s):
        return cls.from_json_dict(json.loads(s))


def _lattice_len(rel_order: Fraction, unit: Fraction) -> int:
    n = rel_order / unit
    return int(n) + (0 if n.denominator == 1 else 1) if n > 0 else 0


def _dense(series, lead, unit, rel_order):
    """Coefficients of series on the lattice lead + unit*Z>=0, below rel_order."""
    out = [_QQ_ZERO] * _lattice_len(rel_order, unit)
    for e, c in series.terms.items():
        idx = (e - lead) / unit
        if idx.denominator != 1:
            raise ValueError("exponent off the declared lattice")
        i = int(idx)
        if 0 <= i < len(out):
            out[i] = out[i] + c
    return out


def qpow(u: QSeries, r) -> QSeries:
    """u^r for an exact rational r, by the log-derivative recurrence.

    Requires a nonzero leading term c0*q^{e0}.  For non-integer r the
    leading coefficient must have an exact rational r-th power (c0 = 1 in
    all the eta constructions).  The result has leading exponent e0*r and
    the same relative truncation order as u.
    """
    r = to_fraction(r)
    if not u.terms:
        if r == 0:
            return QSeries({Fraction(0): _QQ_ONE}, u.order)
        raise ValueError("cannot raise a zero series to a power")
    e0, c0 = u.leading()
    rel_order = u.order - e0
    if r == 0:
        return QSeries({Fraction(0): _QQ_ONE}, rel_order)
    if r.denominator == 1:
        m = int(r)
        c0r = c0 ** m if m >= 0 else _QQ_ONE / (c0 ** (-m))
    else:
        root = _nth_root_exact(c0, r.denominator)
        if root is None:
            raise ValueError(f"leading coefficient {c0} has no exact rational "
                             f"{r.denominator}-th root")
        m = r.numerator
        c0r = root ** m if m >= 0 else _QQ_ONE / (root ** (-m))
    unit = u.lattice_unit()
    v = _dense(u, e0, unit, rel_order)
    n = len(v)
    inv_c0 = _QQ_ONE / c0
    v = [c * inv_c0 for c in v]  # v[0] == 1
    w = [_QQ_ZERO] * n
    w[0] = _QQ_ONE
    rq = QQ(r.numerator, r.denominator)
    rp1 = rq + 1
    support = [e for e in range(1, n) if v[e]]
    for E in range(1, n):
        s = _QQ_ZERO
        for e in support:
            if e > E:
                break
            s += (rp1 * e - E) * v[e] * w[E - e]
        w[E] = s / E
    base = e0 * r
    return QSeries({base + k * unit: c0r * c for k, c in enumerate(w) if c},
                   base + rel_order)


# -- Dedekind eta -----------------------------------------------------------

def chi12(n: int) -> int:
    """12-periodic character: +1 at 1,11; -1 at 5,7; 0 otherwise."""
    m = n % 12
    if m in (1, 11):
        return 1
    if m in (5, 7):
        return -1
    return 0


def eta_expansion(order, scale=Fraction(1)) -> QSeries:
    """Theta expansion of eta(scale*z): sum_{n>=1} chi12(n) q^{scale n^2/24}.

    Exact and sparse; only exponents below `order` are kept.
    """
    order = to_fraction(order)
    scale = to_fraction(scale)
    terms = {}
    n = 1
    while True:
        e = scale * n * n / 24
        if e >= order:
            break
        c = chi12(n)
        if c:
            terms[e] = QQ(c)
        n += 1
    return QSeries(terms, order)


# -- eta-products -----------------------------------------------------------

def _divisors(N):
    return sorted(d for d in range(1, N + 1) if N % d == 0)


@dataclass(frozen=True)
class EtaProductSpec:
    """Level N and exponents r_d (d | N) with the admissibility conditions.

    Requires r_d = r_{N/d}, sum r_d = 1 and sum d r_d = 24k/b for coprime
    integers b >= 1, k >= 0 (b = 1 when k = 0).  b and k are derived from
    the exponents, never taken from user input.
    """

    N: int
    r: dict = field(compare=False)
    b: int = field(init=False)
    k: int = field(init=False)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("level N must be a positive integer")
        divs = _divisors(self.N)
        r = {int(d): to_fraction(v) for d, v in self.r.items()}
        bad = [d for d in r if d not in divs]
        if bad:
            raise ValueError(f"exponent index {bad[0]} is not a divisor of N={self.N}")
        for d in divs:
            r.setdefault(d, Fraction(0))
        object.__setattr__(self, "r", r)
        for d in divs:
            if r[d] != r[self.N // d]:
                raise ValueError(f"symmetry violated: r_{d} != r_{self.N // d}")
        if sum(r.values()) != 1:
            raise ValueError("exponents must sum to 1")
        s = sum(Fraction(d) * r[d] for d in divs)
        if s < 0:
            raise ValueError("sum of d*r_d must be nonnegative")
        kb = s / 24
        b, k = kb.denominator, kb.numerator
        if k == 0:
            b = 1
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "k", k)

    @property
    def weight_sum(self) -> Fraction:
        """sum d*r_d = 24k/b."""
        return Fraction(24 * self.k, self.b)

    def to_json_dict(self):
        return {"N": self.N,
                "r": {str(d): str(v) for d, v in sorted(self.r.items())},
                "b": self.b, "k": self.k}


def eta_product(spec: EtaProductSpec, order) -> QSeries:
    """Exact expansion of prod_{d|N} eta(d z)^{r_d} below the given order.

    The exponents of the result all lie in (k + Z>=0)/b; this is asserted.
    The common denominator s of the r_d is factored out so that a single
    rational-power recurrence runs on an integer-exponent quotient.
    """
    order = to_fraction(order)
    lead = spec.weight_sum / 24  # = k/b
    if order <= lead:
        return QSeries({}, order)
    rel = order - lead
    s = 1
    for v in spec.r.values():
        s = s * v.denominator // math.gcd(s, v.denominator)
    inner = QSeries({Fraction(0): _QQ_ONE}, rel)
    for d, rd in sorted(spec.r.items()):
        m = int(rd * s)
        if m == 0:
            continue
        fac = eta_expansion(rel + Fraction(d, 24), scale=d).shift(Fraction(-d, 24))
        inner = inner * qpow(fac, m)
    out = qpow(inner, Fraction(1, s)) if s > 1 else inner
    out = out.shift(lead).truncate(order)
    for e in out.terms:
        idx = e * spec.b - spec.k
        if idx.denominator != 1 or idx < 0:
            raise AssertionError(f"exponent {e} escapes the lattice (k+Z>=0)/b")
    return out


def lambda_invariant(order) -> QSeries:
    """Modular lambda-invariant 16 eta(2z)^16 eta(z/2)^8 / eta(z)^24.

    Exact expansion with leading terms 16q^{1/2} - 128q + 704q^{3/2}.
    """
    order = to_fraction(order)
    lead = Fraction(1, 2)
    if order <= lead:
        return QSeries({}, order)
    rel = order - lead
    f2 = eta_expansion(rel + Fraction(2, 24), scale=2).shift(Fraction(-2, 24))
    fh = eta_expansion(rel + Fraction(1, 48), scale=Fraction(1, 2)).shift(Fraction(-1, 48))
    f1 = eta_expansion(rel + Fraction(1, 24), scale=1).shift(Fraction(-1, 24))
    prod = qpow(f2, 16) * qpow(fh, 8) * qpow(f1, -24)
    return prod.shift(lead, 16).truncate(order)


# -- self-dual series -------------------------------------------------------

@dataclass
class SelfDualSeries:
    """Coefficient list of a series F = sum alpha_n q^{n/(denom*sqrt(N))}.

    `sign` records the functional-equation parity:
    sqrt(i/z) F(-1/z) = sign * F(z).  The support lies on the lattice
    n = lead_n + step*Z>=0, which the relative indexing helpers use.
    """

    entries: list          # (n, exact rational coefficient), ascending n
    denom: int             # b for the plus family, 2b for the minus family
    N: int
    sign: int
    lead_n: int
    step: int
    order: Fraction        # exponent bound of the generating q-series

    def frequency(self, n) -> float:
        """gamma_n = n / (denom * sqrt(N))."""
        return n / (self.denom * math.sqrt(self.N))

    def frequencies(self):
        return [(n, self.frequency(n)) for n, _ in self.entries]

    def coefficient(self, n):
        for m, c in self.entries:
            if m == n:
                return c
        return _QQ_ZERO

    def relative_coefficients(self, count=None):
        """Coefficients by lattice index j (n = lead_n + step*j), exact."""
        out = {}
        for n, c in self.entries:
            j, rem = divmod(n - self.lead_n, self.step)
            if rem:
                raise AssertionError("entry off the declared support lattice")
            out[j] = c
        jmax = (count - 1) if count is not None else (max(out) if out else -1)
        return [out.get(j, _QQ_ZERO) for j in range(jmax + 1)]

    def evaluate(self, z, nmax=None) -> complex:
        """Truncated numeric value sum alpha_n e^{2 pi i z gamma_n}, Im z > 0."""
        scale = 2j * math.pi / (self.denom * math.sqrt(self.N))
        total = 0j
        for n, c in self.entries:
            if nmax is not None and n > nmax:
                break
            total += float(c) * cmath.exp(scale * n * z)
        return total

    def tail_bound(self, z) -> float:
        """Geometric bound on the truncation tail of evaluate() at z.

        The per-index coefficient growth is estimated from block maxima of
        the last stored entries (individual ratios are useless when a
        coefficient happens to be near zero), padded by 10%, and combined
        with the nome modulus per index step.  Returns inf when the ratio
        test fails at this height.
        """
        y = complex(z).imag
        if y <= 0:
            raise ValueError("tail bound requires Im z > 0")
        if len(self.entries) < 4:
            return 0.0
        block = self.entries[-40:]
        half = len(block) // 2
        m1 = max(abs(float(c)) for _, c in block[:half])
        m2 = max(abs(float(c)) for _, c in block[half:])
        n1 = block[half // 2][0]
        n2 = block[half + half // 2][0]
        if m1 > 0 and n2 > n1:
            growth = max((m2 / m1) ** (1.0 / (n2 - n1)), 1.0)
        else:
            growth = 1.0
        growth *= 1.1
        rho1 = math.exp(-2 * math.pi * y / (self.denom * math.sqrt(self.N)))
        q_eff = rho1 * growth
        if q_eff >= 1.0:
            return math.inf
        n_last = self.entries[-1][0]
        lead = m2 * growth ** max(n_last - n2, 0) \
            * rho1 ** n_last
        return lead * q_eff / (1.0 - q_eff)


def fplus(spec: EtaProductSpec, order) -> SelfDualSeries:
    """Plus-family series: the eta product re-scaled to argument z/sqrt(N).

    Satisfies sqrt(i/z) F(-1/z) = +F(z); coefficients alpha_n sit at
    frequencies n/(b sqrt N) with n in k + b*Z>=0.
    """
    ser = eta_product(spec, order)
    entries = []
    for e, c in ser.sorted_terms():
        n = e * spec.b
        assert n.denominator == 1
        entries.append((int(n), c))
    return SelfDualSeries(entries=entries, denom=spec.b, N=spec.N, sign=+1,
                          lead_n=spec.k, step=spec.b,
                          order=to_fraction(order) * spec.b)


def fminus(spec: EtaProductSpec, order) -> SelfDualSeries:
    """Minus-family series (1 - 2*lambda) * eta product; N a perfect square.

    Satisfies sqrt(i/z) F(-1/z) = -F(z); coefficients beta_n sit at
    frequencies n/(2b sqrt N) with n in 2k + step*Z>=0.
    """
    rootN = math.isqrt(spec.N)
    if rootN * rootN != spec.N:
        raise ValueError("the minus family requires N to be a perfect square")
    order = to_fraction(order)
    ser = eta_product(spec, order)
    lam = lambda_invariant(order / rootN).scale_exponents(rootN)
    one_minus = QSeries({Fraction(0): _QQ_ONE}, order) - lam.scale(2)
    g = one_minus * ser
    entries = []
    for e, c in g.sorted_terms():
        n = e * 2 * spec.b
        if n.denominator != 1:
            raise AssertionError("minus-family exponent off the n/(2b) lattice")
        entries.append((int(n), c))
    step = 2 * spec.b if rootN % 2 == 0 else spec.b
    return SelfDualSeries(entries=entries, denom=2 * spec.b, N=spec.N, sign=-1,
                          lead_n=2 * spec.k, step=step, order=g.order * 2 * spec.b)


def family_l(l, order):
    """One-parameter level-4 family r = (l, 1-2l, l), defined for l >= -2.

    Returns (spec, plus series, minus series).  The leading exponent of the
    eta product is (l+2)/24; l = -2 degenerates to the theta quotient of
    classical lattice summation and l = 2/3 to the sqrt(n+1/9) example.
    """
    l = to_fraction(l)
    if l < -2:
        raise ValueError("family parameter must satisfy l >= -2")
    spec = EtaProductSpec(4, {1: l, 2: 1 - 2 * l, 4: l})
    assert spec.weight_sum == l + 2
    return spec, fplus(spec, order), fminus(spec, order)


# -- arithmetic progression probe -------------------------------------------

def progression_hits(c, progression, nmax, tol=1e-9) -> int:
    """Count n in [0, nmax] with sqrt(c+n) within tol of {start + k*step, k>=0}.

    For irrational c the count is at most 2 for any infinite arithmetic
    progression; rational c can embed a full progression, e.g. c = 1/9
    contains 3m + 1/3 at n = 9m^2 + 2m.
    """
    start, step = progression
    if step <= 0:
        raise ValueError("progression step must be positive")
    n = np.arange(0, int(nmax) + 1, dtype=float)
    x = np.sqrt(float(c) + n)
    k = np.maximum(np.round((x - start) / step), 0.0)
    dist = np.abs(x - (start + k * step))
    return int(np.count_nonzero(dist <= tol))
