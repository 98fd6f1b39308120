"""Fraction reference for the exact q-series arithmetic of `qmodular`.

`mul` and `qpow` are the general-rational recurrences that `QSeries.__mul__`
and `qmodular.qpow` ran on before both moved to the integer kernel: a
convolution of Fractions, and the log-derivative recurrence in Fractions.
`eta_expansion` is the theta series of eta that the eta constructions
start from.  They share no arithmetic with the kernel, so the tests use
them as its oracle.  The file name keeps pytest from collecting it.
"""

from fractions import Fraction

from crystalsum.qmodular import (QQ, QSeries, _frac_gcd, _lattice_len, _nth_root_exact,
                                 chi12, to_fraction)

_QQ_ZERO = QQ(0)
_QQ_ONE = QQ(1)


def mul(self, other):
    """self * other, by the Fraction convolution on the common lattice."""
    if not isinstance(other, QSeries):
        return self.scale(other)
    # reliable up to the weaker of the two truncations
    order = min(self.order + other.lead, other.order + self.lead)
    if not (self and other):
        return QSeries({}, order)
    # the product lives on lead + unit*Z>=0; each factor's index steps by ra, rb
    lead = self.lead + other.lead
    unit = _frac_gcd(self.unit, other.unit)
    ra, rb = int(self.unit / unit), int(other.unit / unit)
    top = (len(self.coeffs) - 1) * ra + (len(other.coeffs) - 1) * rb + 1
    n = _lattice_len(min(order, lead + top * unit), lead, unit)
    out = [_QQ_ZERO] * n
    for i, ai in enumerate(self.coeffs):
        if not ai:
            continue
        for j, bj in enumerate(other.coeffs):
            k = i * ra + j * rb
            if k >= n:
                break
            if bj:
                out[k] += ai * bj
    return QSeries.on_lattice(lead, unit, out, order)


def qpow(u: QSeries, r) -> QSeries:
    """u^r for an exact rational r, by the log-derivative recurrence.

    Requires a nonzero leading term c0*q^{e0}.  For non-integer r the
    leading coefficient must have an exact rational r-th power (c0 = 1 in
    all the eta constructions).  The result has leading exponent e0*r, the
    unit of u and the same relative truncation order as u.
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
    n = _lattice_len(u.order, e0, u.unit)
    inv_c0 = _QQ_ONE / c0
    support = [(e, c * inv_c0) for e, c in enumerate(u.coeffs) if e and c]  # v = u/c0 past its 1
    w = [_QQ_ONE] + [_QQ_ZERO] * (n - 1)
    rp1 = r + 1
    for E in range(1, n):
        s = _QQ_ZERO
        for e, ve in support:
            if e > E:
                break
            s += (rp1 * e - E) * ve * w[E - e]
        w[E] = s / E
    return QSeries.on_lattice(e0 * r, u.unit, [c0r * c for c in w], e0 * r + rel_order)


def eta_expansion(order, scale=Fraction(1)) -> QSeries:
    """Theta expansion of eta(scale*z): sum_{n>=1} chi12(n) q^{scale n^2/24}.

    Exact; only exponents below `order` are kept.
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
