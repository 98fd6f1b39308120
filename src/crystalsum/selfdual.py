"""Self-dual measures from modular coefficient series.

A SelfDualSeries F with sqrt(i/z) F(-1/z) = sign * F(z) turns into a
discrete measure with atoms at +-sqrt(2 gamma_n) weighted by the series
coefficients: pairing against the gaussians e^{pi i z t^2} (whose
transform law mirrors the functional equation) shows the measure's
Fourier transform equals sign times itself.

Self-duality is certified two independent ways: the pointwise functional
equation residual here (which tests the modular input) and
`verifier.check_selfdual`, the summation identity paired against
gaussians with its two window tails (which tests the measure-building
arithmetic).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .measures import DiscreteMeasure, SqrtProvenance
from .qmodular import SelfDualSeries


def sqrt_i_over_z(z: complex) -> complex:
    """Principal sqrt(i/z): positive on the imaginary axis, continuous on H."""
    return cmath.sqrt(1j / z)


def _float_view(s: SelfDualSeries):
    """(n, c): the indices and coefficients alpha_n of s as float arrays, each
    exact coefficient converted once.  The measure's weights, the series
    value and its tail bound all read these two arrays."""
    return (np.array([n for n, _ in s.entries], dtype=float),
            np.array([float(c) for _, c in s.entries]))


def _evaluate(s: SelfDualSeries, n, c, z) -> complex:
    """Truncated value sum alpha_n e^{2 pi i z gamma_n}, Im z > 0, with the
    terms added left to right, as a loop would (np.sum pairs them and moves
    the last bits)."""
    scale = 2j * math.pi / (s.denom * math.sqrt(s.N))
    return sum((c * np.exp(scale * n * z)).tolist(), 0j)


def _tail_bound(s: SelfDualSeries, n, c, z) -> float:
    """Geometric bound on the truncation tail of `_evaluate` at z, Im z > 0.

    The per-index coefficient growth is estimated from block maxima of
    the last stored entries (individual ratios are useless when a
    coefficient happens to be near zero), padded by 10%, and combined
    with the nome modulus per index step.  Returns inf when the ratio
    test fails at this height, when the bound leaves double range, or
    when fewer than 4 entries leave the tail unknown.
    """
    if len(n) < 4:
        return math.inf
    idx, mag = n[-40:].tolist(), np.abs(c[-40:]).tolist()
    half = len(idx) // 2
    m1, m2 = max(mag[:half]), max(mag[half:])
    n1, n2 = idx[half // 2], idx[half + half // 2]
    if m1 > 0 and n2 > n1:
        growth = max((m2 / m1) ** (1.0 / (n2 - n1)), 1.0)
    else:
        growth = 1.0
    growth *= 1.1
    log_rho1 = -2 * math.pi * z.imag / (s.denom * math.sqrt(s.N))
    q_eff = math.exp(log_rho1) * growth
    if q_eff >= 1.0:
        return math.inf
    n_last = idx[-1]
    # m2 growth^(n_last - n2) rho1^n_last, in log space: across the gaps
    # of a sparse series one factor overflows while the other underflows
    log_lead = math.log(m2) + max(n_last - n2, 0) * math.log(growth) + n_last * log_rho1
    lead = math.exp(log_lead) if log_lead < 709.0 else math.inf
    return lead * q_eff / (1.0 - q_eff)


def selfdual_measure(s: SelfDualSeries, window) -> DiscreteMeasure:
    """Atoms at +-sqrt(2 gamma_n) with the series coefficients as weights.

    Positions keep the exact radicand 2n/(denom sqrt N) as provenance; the
    n = 0 pair merges into a single atom of doubled weight.  The measure
    carries the sign tag, so its transform is sign times itself.
    """
    tags = [SqrtProvenance(2 * n, s.denom, s.N) for n, _ in s.entries]
    pos = np.array([t.value() for t in tags], dtype=float)
    x = np.concatenate((pos, -pos))
    keep = (window[0] <= x) & (x <= window[1])
    return DiscreteMeasure(x[keep], np.tile(_float_view(s)[1], 2)[keep], window,
                           np.array(tags * 2, dtype=object)[keep], dual_sign=s.sign)


def functional_equation_residual(s: SelfDualSeries, z: complex,
                                 tail_cap: float | None = None) -> float:
    """|F(z) - sign sqrt(i/z) F(-1/z)| from the truncated series.

    When tail_cap is given, the geometric truncation-tail bound at both
    evaluation points must stay below it (the order is otherwise too small
    for this z, or the series too short to bound its tail).
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("the functional equation is tested on Im z > 0")
    zi = -1 / z
    factor = sqrt_i_over_z(z)
    n, c = _float_view(s)
    if tail_cap is not None:
        tail = _tail_bound(s, n, c, z) + abs(factor) * _tail_bound(s, n, c, zi)
        if not tail < tail_cap:
            raise ValueError(
                f"truncation tail {tail:.3g} exceeds the cap {tail_cap:.3g}; "
                "increase the series order for this z")
    return abs(_evaluate(s, n, c, z) - s.sign * factor * _evaluate(s, n, c, zi))
