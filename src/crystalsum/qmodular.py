"""Exact formal q-series with rational exponents and rational coefficients.

Everything here is exact and no floating point enters any arithmetic path,
so re-running a pipeline reproduces identical term maps.  A `QSeries`
keeps `fractions.Fraction` exponents and coefficients; that general
rational API (`qpow`, `QSeries.__mul__`) serves arbitrary series.  The eta
constructions never need it: they run on plain Python `int` lists and
build their `Fraction` coefficients once, at the end (see the integer
lattice kernel below).

The module provides the Dedekind eta expansion as a sparse theta series,
eta-products over the divisors of a level N with rational exponents r_d
subject to  r_d = r_{N/d},  sum r_d = 1,  sum d r_d = 24k/b,  the modular
lambda-invariant, and the two self-dual series constructions built from
them (a plus family invariant under  F(z) -> sqrt(i/z) F(-1/z)  and a
minus family anti-invariant under the same map).

Rational powers of series are computed by the logarithmic-derivative
recurrence: if w = (1+v)^r then w'(1+v) = r v' w, which fixes each
coefficient of w from the earlier ones by exact arithmetic.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# the coefficient type; benchmark reports name the backend as type(QQ(1))
QQ = Fraction

_QQ_ZERO = QQ(0)
_QQ_ONE = QQ(1)


def to_fraction(x) -> Fraction:
    """Exact Fraction from int, str('p/q'), Fraction or another exact rational.

    Floats and other non-rationals raise TypeError; a zero denominator
    raises ValueError.
    """
    if isinstance(x, float):
        raise TypeError("floats are not accepted where exact rationals are required")
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, (str, numbers.Rational)):
        raise TypeError(f"expected an exact rational, got {type(x).__name__}")
    try:
        if isinstance(x, (str, int)):
            return Fraction(x)
        return Fraction(x.numerator, x.denominator)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


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
            c = to_fraction(c)
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
        return QSeries({Fraction(0): to_fraction(other)}, self.order)

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
        c = to_fraction(c)
        return QSeries({e: c * v for e, v in self.terms.items()}, self.order)

    def shift(self, e0, c0=1):
        """Multiply by the monomial c0 * q^{e0}."""
        e0 = to_fraction(e0)
        c0 = to_fraction(c0)
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
    if scale <= 0:
        raise ValueError("exponent scale must be positive")
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


# -- integer lattice kernel -------------------------------------------------
#
# The eta constructions stay in Z[1/s].  Each factor prod_{j>=1} (1 - x^{dj})
# is an integer series with constant term 1, so its integer powers and their
# products are integral.  The s-th root w of such a series has s^{2E} w_E
# integral, because binomial(1/s, k) s^{2k} is an integer (for a prime p | s,
# v_p(k!) < k).  So the kernel runs on int lists indexed by the lattice step,
# and the callers build each Fraction once, at the end.

def _euler(step: int, n: int) -> list:
    """prod_{j>=1} (1 - x^{step j}) below x^n, by the pentagonal theorem."""
    out = [0] * n
    k = 1
    while (e := step * (k * k - 1) // 24) < n:
        if c := chi12(k):  # k prime to 6, so 24 | k^2 - 1
            out[e] = c
        k += 1
    return out


def _lattice_power(v: list, m: int, s: int = 1) -> list:
    """W_E = s^{2E} [x^E] v^{m/s} for a nonempty int list v with v[0] == 1.

    The log-derivative recurrence of `qpow`, scaled by s^{2E}:
    E W_E = sum_e ((m+s)e - sE) v_e s^{2e-1} W_{E-e}.  With s = 1 it is the
    integer power, with m = 1 the scaled s-th root.  A division by E that
    leaves a remainder raises AssertionError: it would mean the
    integrality argument above failed, and flooring would hide a wrong
    coefficient.
    """
    n = len(v)
    support = [(e, (m + s) * e, v[e] * s ** (2 * e - 1)) for e in range(1, n) if v[e]]
    W = [1] + [0] * (n - 1)
    for E in range(1, n):
        sE = s * E
        acc = 0
        for e, me, ve in support:
            if e > E:
                break
            acc += (me - sE) * ve * W[E - e]
        W[E], rem = divmod(acc, E)
        if rem:
            raise AssertionError(f"inexact division by {E} in the lattice power")
    return W


def _lattice_mul(a: list, b: list) -> list:
    """Product of two int series of equal length, truncated to that length."""
    if sum(map(bool, a)) > sum(map(bool, b)):
        a, b = b, a  # the sparser factor drives the outer loop
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            out[i:] = [o + x * y for o, y in zip(out[i:], b)]
    return out


def _eta_lattice(spec, n: int):
    """(s, W): the eta product over its lead q^{k/b} is sum_E W_E q^E / s^{2E}, E < n.

    s is the common denominator of the r_d.  The factors' integer powers
    r_d s are multiplied first, and one scaled s-th root is taken last.
    """
    s = math.lcm(*(v.denominator for v in spec.r.values()))
    inner = None
    for d, rd in sorted(spec.r.items()):
        if rd:
            fac = _lattice_power(_euler(d, n), int(rd * s))
            inner = fac if inner is None else _lattice_mul(inner, fac)
    return s, (_lattice_power(inner, 1, s) if s > 1 else inner)


def _lattice(spec: EtaProductSpec, order: Fraction):
    """(s, W) of `_eta_lattice` for the E with k/b + E < order (W = [] if none).

    fminus reads W_E at its half step i = 2E; its n half steps below the
    order hold (n + 1) // 2 whole steps, so one W serves both series.
    """
    n = _lattice_len(order - Fraction(spec.k, spec.b), Fraction(1))
    return _eta_lattice(spec, n) if n else (1, [])


def _lambda_lattice(n: int) -> list:
    """L with lambda = sum_j L_j q^{(1+j)/2} below q^{(1+n)/2}; all L_j are integers.

    In x = q^{1/2}: 16 prod (1-x^{4j})^16 (1-x^j)^8 / (1-x^{2j})^24.
    """
    prod = _lattice_mul(_lattice_mul(_lattice_power(_euler(4, n), 16),
                                     _lattice_power(_euler(1, n), 8)),
                        _lattice_power(_euler(2, n), -24))
    return [16 * c for c in prod]


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

    The exponents of the result are k/b + E for integers E >= 0, so they
    lie in (k + Z>=0)/b.  The coefficients come from the integer lattice
    kernel as W_E / s^{2E}, with s the common denominator of the r_d.
    """
    order = to_fraction(order)
    lead = Fraction(spec.k, spec.b)
    s, W = _lattice(spec, order)
    return QSeries({lead + E: Fraction(w, s ** (2 * E)) for E, w in enumerate(W) if w},
                   order)


def lambda_invariant(order) -> QSeries:
    """Modular lambda-invariant 16 eta(2z)^16 eta(z/2)^8 / eta(z)^24.

    Exact expansion with leading terms 16q^{1/2} - 128q + 704q^{3/2}.
    """
    order = to_fraction(order)
    n = _lattice_len(order - Fraction(1, 2), Fraction(1, 2))
    if n == 0:
        return QSeries({}, order)
    return QSeries({Fraction(1 + j, 2): c for j, c in enumerate(_lambda_lattice(n)) if c},
                   order)


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

    def evaluate(self, z) -> complex:
        """Truncated numeric value sum alpha_n e^{2 pi i z gamma_n}, Im z > 0."""
        scale = 2j * math.pi / (self.denom * math.sqrt(self.N))
        total = 0j
        for n, c in self.entries:
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


def fplus(spec: EtaProductSpec, order, lattice=None) -> SelfDualSeries:
    """Plus-family series: the eta product re-scaled to argument z/sqrt(N).

    Satisfies sqrt(i/z) F(-1/z) = +F(z); coefficients alpha_n sit at
    frequencies n/(b sqrt N) with n in k + b*Z>=0, and alpha_{k+bE} is
    W_E/s^{2E} straight from the integer lattice.  `lattice` is
    `_lattice(spec, order)` when the caller has built it already.
    """
    order = to_fraction(order)
    s, W = lattice or _lattice(spec, order)
    return SelfDualSeries(
        entries=[(spec.k + spec.b * E, Fraction(w, s ** (2 * E)))
                 for E, w in enumerate(W) if w],
        denom=spec.b, N=spec.N, sign=+1, lead_n=spec.k, step=spec.b,
        order=order * spec.b)


def fminus(spec: EtaProductSpec, order, lattice=None) -> SelfDualSeries:
    """Minus-family series (1 - 2*lambda) * eta product; N a perfect square.

    Satisfies sqrt(i/z) F(-1/z) = -F(z); coefficients beta_n sit at
    frequencies n/(2b sqrt N) with n in 2k + step*Z>=0.  `lattice` is as
    in fplus.
    """
    rootN = math.isqrt(spec.N)
    if rootN * rootN != spec.N:
        raise ValueError("the minus family requires N to be a perfect square")
    order = to_fraction(order)
    b, k = spec.b, spec.k
    # g = (1 - 2 lambda(rootN z)) * F on the half steps q^{k/b + i/2}, i < n,
    # scaled by s^i: F's W_E sits at i = 2E, and lambda's term
    # q^{rootN (1+j)/2} at i = rootN (1+j), so each product lands on s^i.
    n = _lattice_len(order - Fraction(k, b), Fraction(1, 2))
    entries = []
    if n:
        s, W = lattice or _lattice(spec, order)
        f = [0] * n
        f[::2] = W
        one_minus = [1] + [0] * (n - 1)
        n_lam = (n - 1) // rootN  # the j with rootN (1+j) < n
        for j, c in enumerate(_lambda_lattice(n_lam) if n_lam else ()):
            i = rootN * (1 + j)
            one_minus[i] = -2 * c * s ** i
        entries = [(2 * k + i * b, Fraction(c, s ** i))
                   for i, c in enumerate(_lattice_mul(f, one_minus)) if c]
    step = 2 * b if rootN % 2 == 0 else b
    return SelfDualSeries(entries=entries, denom=2 * b, N=spec.N, sign=-1,
                          lead_n=2 * k, step=step, order=order * 2 * b)


def family_spec(l) -> EtaProductSpec:
    """Level-4 spec r = (l, 1-2l, l) of the one-parameter family, l >= -2."""
    l = to_fraction(l)
    if l < -2:
        raise ValueError("family parameter must satisfy l >= -2")
    spec = EtaProductSpec(4, {1: l, 2: 1 - 2 * l, 4: l})
    assert spec.weight_sum == l + 2
    return spec


def family_l(l, order):
    """One-parameter level-4 family r = (l, 1-2l, l), defined for l >= -2.

    Returns (spec, plus series, minus series).  The leading exponent of the
    eta product is (l+2)/24; l = -2 degenerates to the theta quotient of
    classical lattice summation and l = 2/3 to the sqrt(n+1/9) example.
    """
    spec = family_spec(l)
    lattice = _lattice(spec, to_fraction(order))  # shared by both series
    return spec, fplus(spec, order, lattice), fminus(spec, order, lattice)


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
