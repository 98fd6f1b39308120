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


def selfdual_measure(s: SelfDualSeries, window) -> DiscreteMeasure:
    """Atoms at +-sqrt(2 gamma_n) with the series coefficients as weights.

    Positions keep the exact radicand 2n/(denom sqrt N) as provenance; the
    n = 0 pair merges into a single atom of doubled weight.  The measure
    carries the sign tag, so its transform is sign times itself.  The
    window must be a finite interval with lo < hi (ValueError otherwise).
    """
    x0, x1 = float(window[0]), float(window[1])
    if not (math.isfinite(x0) and math.isfinite(x1) and x0 < x1):
        raise ValueError(f"window must be a finite interval lo < hi, got ({x0}, {x1})")
    tags = [SqrtProvenance(2 * n, s.denom, s.N) for n, _ in s.entries]
    pos = np.array([t.value() for t in tags], dtype=float)
    x = np.concatenate((pos, -pos))
    w = np.array([float(c) for _, c in s.entries] * 2, dtype=complex)
    keep = (x0 <= x) & (x <= x1)
    return DiscreteMeasure(x[keep], w[keep], (x0, x1),
                           np.array(tags * 2, dtype=object)[keep], dual_sign=s.sign)


def functional_equation_residual(s: SelfDualSeries, z: complex,
                                 tail_cap: float | None = None) -> float:
    """|F(z) - sign sqrt(i/z) F(-1/z)| from the truncated series.

    When tail_cap is given, the geometric truncation-tail bound at both
    evaluation points must stay below it (the order is otherwise too small
    for this z).
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("the functional equation is tested on Im z > 0")
    zi = -1 / z
    factor = sqrt_i_over_z(z)
    if tail_cap is not None:
        tail = s.tail_bound(z) + abs(factor) * s.tail_bound(zi)
        if not tail < tail_cap:
            raise ValueError(
                f"truncation tail {tail:.3g} exceeds the cap {tail_cap:.3g}; "
                "increase the series order for this z")
    lhs = s.evaluate(z)
    rhs = s.sign * factor * s.evaluate(zi)
    return abs(lhs - rhs)
