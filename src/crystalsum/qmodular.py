"""Exact formal q-series with rational exponents and rational coefficients.

Everything here is exact and no floating point enters any arithmetic path,
so re-running a pipeline reproduces identical term maps.  A `QSeries` is
a dense list of `fractions.Fraction` coefficients on a declared exponent
lattice lead + unit*Z>=0.  All arithmetic on it (`*`, `qpow` and the eta
constructions) runs on one integer kernel of plain Python `int` lists,
and each Fraction is built once, at the end.  A `SelfDualSeries` reads a
`QSeries` at integer frequency indices.

The module provides eta-products over the divisors of a level N, each
factor expanded by the pentagonal theorem, with rational exponents r_d
subject to  r_d = r_{N/d},  sum r_d = 1,  sum d r_d = 24k/b,  the modular
lambda-invariant, and the two self-dual series constructions built from
them (a plus family invariant under  F(z) -> sqrt(i/z) F(-1/z)  and a
minus family anti-invariant under the same map).

Rational powers of series are computed by the logarithmic-derivative
recurrence: if w = (1+v)^r then w'(1+v) = r v' w, which fixes each
coefficient of w from the earlier ones by an exact integer division.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

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
    """Truncated formal series sum_k coeffs[k] q^{lead + k*unit}, exponents < order.

    The exponents sit on a declared lattice: `lead` is the lowest exponent
    carried (the order itself for the zero series), `unit` > 0 the lattice
    step, and `coeffs` the dense list of exact rationals on it, with
    coeffs[0] != 0 and no trailing zeros.  The lattice may be finer than
    the support: zeros between terms are kept.
    """

    __slots__ = ("lead", "unit", "coeffs", "order")

    def __init__(self, terms=None, order=Fraction(0)):
        """Series from an {exponent: coefficient} map; the unit is the gcd of
        the exponent differences (1 for fewer than two terms)."""
        order = to_fraction(order)
        agg = {}
        for e, c in (terms or {}).items():
            e = to_fraction(e)
            if e < order:
                agg[e] = agg.get(e, _QQ_ZERO) + to_fraction(c)
        agg = {e: c for e, c in agg.items() if c}
        lead = min(agg, default=order)
        unit = _QQ_ZERO
        for e in agg:
            unit = _frac_gcd(unit, e - lead)
        unit = unit or _QQ_ONE
        coeffs = [_QQ_ZERO] * _lattice_len(max(agg, default=lead) + unit, lead, unit)
        for e, c in agg.items():
            coeffs[int((e - lead) / unit)] = c
        self._set(lead, unit, coeffs, order)

    @classmethod
    def on_lattice(cls, lead, unit, coeffs, order):
        """Series sum_k coeffs[k] q^{lead + k*unit} below order, on the declared unit.

        The coefficients must already be exact rationals; zeros at either
        end and terms at or beyond the order are dropped.
        """
        self = cls.__new__(cls)
        self._set(to_fraction(lead), to_fraction(unit), coeffs, to_fraction(order))
        return self

    def _set(self, lead, unit, coeffs, order):
        if unit <= 0:
            raise ValueError("lattice unit must be positive")
        n = _lattice_len(min(order, lead + len(coeffs) * unit), lead, unit)
        first = next((i for i in range(n) if coeffs[i]), n)
        while n > first and not coeffs[n - 1]:
            n -= 1
        self.lead = lead + first * unit if first < n else order
        self.unit, self.coeffs, self.order = unit, coeffs[first:n], order

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """{exponent: coefficient} over the nonzero terms (a fresh dict)."""
        return dict(self.sorted_terms())

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, QSeries) and self.order == other.order
                and self.terms == other.terms)

    def __repr__(self):
        items = self.sorted_terms()
        body = " + ".join(f"({c})q^({e})" for e, c in items[:5])
        if len(items) > 5:
            body += " + ..."
        return f"QSeries({body or '0'}; order<{self.order})"

    def leading(self):
        """(exponent, coefficient) of the lowest-order term."""
        if not self.coeffs:
            raise ValueError("empty series has no leading term")
        return self.lead, self.coeffs[0]

    def sorted_terms(self):
        return [(self.lead + k * self.unit, c) for k, c in enumerate(self.coeffs) if c]

    # -- ring operations ----------------------------------------------------

    def _as_series(self, other):
        """A series as is; a number as a constant on this series' unit."""
        if isinstance(other, QSeries):
            return other
        return QSeries.on_lattice(0, self.unit, [to_fraction(other)], self.order)

    def __add__(self, other):
        """Sum on the coarsest lattice holding both: the unit is the gcd of
        both units and the difference of the leads, so the declared
        lattices of the operands survive (a zero operand adds none)."""
        other = self._as_series(other)
        order = min(self.order, other.order)
        if not (self and other):
            return (self or other).truncate(order)
        lead = min(self.lead, other.lead)
        unit = _frac_gcd(_frac_gcd(self.unit, other.unit), other.lead - self.lead)
        last = max(s.lead + (len(s.coeffs) - 1) * s.unit for s in (self, other))
        coeffs = [_QQ_ZERO] * _lattice_len(min(order, last + unit), lead, unit)
        for s in (self, other):
            start, step = int((s.lead - lead) / unit), int(s.unit / unit)
            for i, c in zip(range(start, len(coeffs), step), s.coeffs):
                coeffs[i] += c
        return QSeries.on_lattice(lead, unit, coeffs, order)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-self._as_series(other))

    def __rsub__(self, other):
        return (-self) + self._as_series(other)

    def scale(self, c):
        """Multiply every coefficient by the exact rational c."""
        c = to_fraction(c)
        return QSeries.on_lattice(self.lead, self.unit, [c * v for v in self.coeffs],
                                  self.order)

    def scale_exponents(self, s):
        """Substitute q -> q^s for an exact rational s > 0."""
        s = to_fraction(s)
        if s <= 0:
            raise ValueError("exponent scale must be positive")
        return QSeries.on_lattice(self.lead * s, self.unit * s, self.coeffs, self.order * s)

    def truncate(self, order):
        return QSeries.on_lattice(self.lead, self.unit, self.coeffs,
                                  min(to_fraction(order), self.order))

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        # reliable up to the weaker of the two truncations
        order = min(self.order + other.lead, other.order + self.lead)
        if not (self and other):
            return QSeries({}, order)
        lead = self.lead + other.lead
        unit = _frac_gcd(self.unit, other.unit)
        last = lead + (len(self.coeffs) - 1) * self.unit + (len(other.coeffs) - 1) * other.unit
        n = _lattice_len(min(order, last + unit), lead, unit)
        D, (a, b) = _int_view(n, unit, self, other)
        c0 = self.coeffs[0] * other.coeffs[0]
        return QSeries.on_lattice(lead, unit, _from_view(_lattice_mul(a, b), D, c0), order)

    __rmul__ = __mul__


MAX_TERMS = 10 ** 6  # the longest coefficient list an order may ask for


def _lattice_len(order: Fraction, lead: Fraction, unit: Fraction) -> int:
    """Number of lattice points lead + unit*Z>=0 below order, at most MAX_TERMS."""
    n = max(math.ceil((order - lead) / unit), 0)
    if n > MAX_TERMS:
        shown = s if len(s := str(order)) <= 20 else f"of {len(s)} digits"
        raise ValueError(f"order {shown} needs more than the {MAX_TERMS} series "
                         "terms allowed")
    return n


def qpow(u: QSeries, r) -> QSeries:
    """u^r for an exact rational r, by the log-derivative recurrence.

    Requires a nonzero leading term c0*q^{e0}.  For non-integer r the
    leading coefficient must have an exact rational r-th power (c0 = 1 in
    all the eta constructions).  The result, `_lattice_power` on the integer
    view of u, has leading exponent e0*r, the unit of u and the same
    relative truncation order as u.
    """
    r = to_fraction(r)
    if not u:
        if r == 0:
            return QSeries({Fraction(0): _QQ_ONE}, u.order)
        raise ValueError("cannot raise a zero series to a power")
    e0, c0 = u.leading()
    rel_order = u.order - e0
    if r == 0:
        return QSeries({Fraction(0): _QQ_ONE}, rel_order)
    m, s = r.numerator, r.denominator
    root = Fraction(c0) if s == 1 else _nth_root_exact(c0, s)
    if root is None:
        raise ValueError(f"leading coefficient {c0} has no exact rational {s}-th root")
    D, (v,) = _int_view(_lattice_len(u.order, e0, u.unit), u.unit, u)
    return QSeries.on_lattice(e0 * r, u.unit, _from_view(_lattice_power(v, m, s), s * s * D,
                                                         root ** m), e0 * r + rel_order)


# -- Dedekind eta -----------------------------------------------------------

def chi12(n: int) -> int:
    """12-periodic character: +1 at 1,11; -1 at 5,7; 0 otherwise."""
    m = n % 12
    if m in (1, 11):
        return 1
    if m in (5, 7):
        return -1
    return 0


# -- integer lattice kernel -------------------------------------------------
#
# Every product and power runs on int lists indexed by the lattice step.  An
# integer series with constant term 1 has integral integer powers, and its
# s-th root w has s^{2E} w_E integral, because binomial(1/s, k) s^{2k} is an
# integer (for a prime p | s, v_p(k!) < k).  The eta factors
# prod_{j>=1} (1 - x^{dj}) are such series; a general series c0 q^lead v(x)
# with v(0) = 1 becomes one as its view V_E = D^E v_E, one integer D serving
# every series of a call.  Denominators cannot be factored in general, so D
# takes each number b of a coprime base of them at the power
# max ceil(v_b(den_E)/E).  Each Fraction is built once, at the end.

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


def _valuation(d: int, b: int):
    """(v, d / b^v) for the largest power b^v dividing d, in O(log v) divisions."""
    if d % b:
        return 0, d
    v, d = _valuation(d // b, b * b)
    return (2 * v + 2, d // b) if d % b == 0 else (2 * v + 1, d)


def _int_view(n: int, unit, *series):
    """(D, [V, ...]): V_E = D^E [x^E] u / (c0 q^lead) for E < n, x = q^unit, per u."""
    rel = []
    for u in series:
        c0, r = u.coeffs[0], int(u.unit / unit)
        rel.append([(i * r, c if c0 == 1 else Fraction(c, c0)) for i, c in enumerate(u.coeffs)
                    if c and 0 < i * r < n])
    dens = [(E, c.denominator) for terms in rel for E, c in terms if c.denominator > 1]
    base, todo = [], [d for _, d in dens]
    while todo:  # strip the base found so far, then refine it by gcds
        d = todo.pop()
        for b in base:
            d = _valuation(d, b)[1]
        b = next((b for b in base if math.gcd(b, d) > 1), None)
        if b is not None:
            base.remove(b)
            todo += [math.gcd(b, d), b // math.gcd(b, d), d]
        elif d > 1:
            base.append(d)
    D = math.prod(b ** max(-(-_valuation(d, b)[0] // E) for E, d in dens) for b in base)
    views = []
    for terms in rel:
        V = [1] + [0] * (n - 1)
        for E, c in terms:
            V[E], rem = divmod(c.numerator * D ** E, c.denominator)
            if rem:
                raise AssertionError(f"D = {D} leaves {c} q^{E} fractional")
        views.append(V)
    return D, views


def _from_view(W: list, scale: int, c0) -> list:
    """The Fractions c0 W_E / scale^E, back from a view."""
    p, q = c0.numerator, c0.denominator
    return [Fraction(p * w, q * scale ** E) if w else _QQ_ZERO for E, w in enumerate(W)]


# -- eta-products -----------------------------------------------------------

MAX_LEVEL = 10 ** 12  # the largest eta-product level: trial division to 10^6


def _divisors(N):
    """Divisors of N in increasing order, by trial division to sqrt(N)."""
    small = [d for d in range(1, math.isqrt(N) + 1) if N % d == 0]
    return sorted({*small, *(N // d for d in small)})


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
        if not 1 <= self.N <= MAX_LEVEL:
            raise ValueError(f"level N must be an integer from 1 to {MAX_LEVEL:,}, "
                             f"got {self.N}")
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

    The series lies on the lattice k/b + Z>=0, declared with unit 1 even
    where the support is sparser.  The coefficients come from the integer
    lattice kernel as W_E / s^{2E}, with s the common denominator of the r_d.
    """
    order = to_fraction(order)
    lead = Fraction(spec.k, spec.b)
    n = _lattice_len(order, lead, _QQ_ONE)
    s, W = _eta_lattice(spec, n) if n else (1, [])
    return QSeries.on_lattice(lead, _QQ_ONE, _from_view(W, s * s, _QQ_ONE), order)


def lambda_invariant(order) -> QSeries:
    """Modular lambda-invariant 16 eta(2z)^16 eta(z/2)^8 / eta(z)^24.

    Exact expansion with leading terms 16q^{1/2} - 128q + 704q^{3/2}: in
    x = q^{1/2} it is 16x prod (1-x^{4j})^16 (1-x^j)^8 / (1-x^{2j})^24, an
    integer series.
    """
    order = to_fraction(order)
    half = Fraction(1, 2)
    n = _lattice_len(order, half, half)
    prod = _lattice_mul(_lattice_mul(_lattice_power(_euler(4, n), 16),
                                     _lattice_power(_euler(1, n), 8)),
                        _lattice_power(_euler(2, n), -24))
    return QSeries.on_lattice(half, half, _from_view(prod, 1, QQ(16)), order)


# -- self-dual series -------------------------------------------------------

@dataclass
class SelfDualSeries:
    """A q-series F read as sum alpha_n q^{n/(denom*sqrt(N))}.

    `series` is F in the variable q^{1/sqrt(N)}, on a lattice whose lead
    and unit are integers once multiplied by `denom`, so each term sits at
    an integer n.  `sign` records the functional-equation parity:
    sqrt(i/z) F(-1/z) = sign * F(z).
    """

    series: QSeries
    denom: int             # b for the plus family, 2b for the minus family
    N: int
    sign: int
    entries: list = field(init=False, repr=False, compare=False)  # (n, alpha_n), ascending

    def __post_init__(self):
        s = self.series
        n0, step = int(self.denom * s.lead), int(self.denom * s.unit)
        self.entries = [(n0 + j * step, c) for j, c in enumerate(s.coeffs) if c]

    def relative_coefficients(self, count=None):
        """Coefficients by lattice index j from the lead (all of them, or count), exact."""
        c = self.series.coeffs
        return list(c) if count is None else (c + [_QQ_ZERO] * count)[:count]

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
        test fails at this height, or when the bound leaves double range.
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
        log_rho1 = -2 * math.pi * y / (self.denom * math.sqrt(self.N))
        q_eff = math.exp(log_rho1) * growth
        if q_eff >= 1.0:
            return math.inf
        n_last = self.entries[-1][0]
        # m2 growth^(n_last - n2) rho1^n_last, in log space: across the gaps
        # of a sparse series one factor overflows while the other underflows
        log_lead = math.log(m2) + max(n_last - n2, 0) * math.log(growth) + n_last * log_rho1
        lead = math.exp(log_lead) if log_lead < 709.0 else math.inf
        return lead * q_eff / (1.0 - q_eff)


def fplus(spec: EtaProductSpec, order) -> SelfDualSeries:
    """Plus-family series: the eta product re-scaled to argument z/sqrt(N).

    Satisfies sqrt(i/z) F(-1/z) = +F(z); coefficients alpha_n sit at
    frequencies n/(b sqrt N) with n in k + b*Z>=0.
    """
    return SelfDualSeries(eta_product(spec, order), spec.b, spec.N, +1)


def fminus(spec: EtaProductSpec, order, eta=None) -> SelfDualSeries:
    """Minus-family series (1 - 2*lambda(sqrt(N) z)) * eta product; N a perfect square.

    Satisfies sqrt(i/z) F(-1/z) = -F(z); coefficients beta_n sit at
    frequencies n/(2b sqrt N) with n in 2k + b*Z>=0, and in 2k + 2b*Z>=0
    for even sqrt(N).  `eta` is `eta_product(spec, order)` when the caller
    has built it already.
    """
    rootN = math.isqrt(spec.N)
    if rootN * rootN != spec.N:
        raise ValueError("the minus family requires N to be a perfect square")
    order = to_fraction(order)
    eta = eta if eta is not None else eta_product(spec, order)
    lam = lambda_invariant(order / rootN).scale_exponents(rootN)
    return SelfDualSeries((1 - 2 * lam) * eta, 2 * spec.b, spec.N, -1)


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
    plus = fplus(spec, order)
    return spec, plus, fminus(spec, order, plus.series)  # one eta product for both
