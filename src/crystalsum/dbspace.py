"""Reproducing-kernel identities for the Hilbert space attached to E.

For a validated Hermite-Biehler sum E = A - iB, the space of entire
functions square-integrable against |E|^{-2} on the real line has the
reproducing kernel

    K(w,z) = [B(z) A(conj w) - B(conj w) A(z)] / (pi (z - conj w))
           = [E(z) conj(E(w)) - E*(z) E(conj w)] / (2 pi i (conj w - z)),

and, when E has no real zeros, the atom expansion over the roots of B

    pi K(w,z) = sum_{B(gamma)=0} (1/phi'(gamma))
                 B(z) B(conj w) / ((gamma - z)(gamma - conj w)),

together with the interpolation series

    F(z) = sum_{B(gamma)=0} F(gamma) B(z) / (B'(gamma) (z - gamma)).

The atom forms are truncated at a window radius R: a KernelContext holds
the roots of B inside it and their weights 1/phi' = A/B' as two arrays,
straight from `measures.phase_points`.  `kernel_series`
reports, next to its value, the one-signed 1/R truncation tail estimated
from the stored root data.  `sampling_eval` returns the bare truncated
series: sampling F = K(w, .) sums the same terms as the atom expansion, so
that tail applies to it; for a general F no tail is reported.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hermite import HermiteBiehler
# bound here too so that perfbench/check_bench.py's
# test_wrappers_reach_every_binding_site_and_come_off finds it
from .hermite import real_root_scan  # noqa: F401
from .measures import phase_points

_Root = namedtuple("_Root", "gamma weight")


@dataclass
class KernelContext:
    """Roots gamma of B inside a window of radius R, with weights A/B'(gamma).

    `gammas` and `weights` are matching float arrays: the roots strictly
    increasing and inside [-R, R], the weights positive.  `points` lists
    them as (gamma, weight) named tuples, one per root, built on first use.
    """

    H: HermiteBiehler
    gammas: np.ndarray
    weights: np.ndarray
    R: float

    def __post_init__(self):
        g, wt = self.gammas, self.weights
        if g.ndim != 1 or wt.shape != g.shape:
            raise ValueError(f"roots {g.shape} and weights {wt.shape} must match")
        if np.any(np.diff(g) <= 0):
            raise ValueError("roots must be strictly increasing")
        if np.any(wt <= 0):
            raise ValueError("root weights must be positive")
        if g.size and max(-g[0], g[-1]) > self.R:
            raise ValueError("window radius does not cover the stored roots")

    @cached_property
    def points(self):
        return tuple(map(_Root, self.gammas.tolist(), self.weights.tolist()))


def kernel_context(H: HermiteBiehler, R: float) -> KernelContext:
    """Roots of B on [-R, R] with residue weights A/B'."""
    roots, av, bpv = phase_points(H, (-R, R))
    return KernelContext(H, roots, av / bpv, float(R))


def kernel_closed(ctx: KernelContext, w: complex, z: complex) -> complex:
    """Closed AB-form of the kernel, with a confluent branch near z = conj w.

    The naive quotient loses all precision as z -> conj w, so within 1e-8
    the derivative limit [B'A(conj w) - B(conj w)A'](midpoint)/pi is used.
    """
    w = complex(w)
    z = complex(z)
    A, B = ctx.H.A, ctx.H.B
    wb = w.conjugate()
    if abs(z - wb) < 1e-8:
        t = 0.5 * (z + wb)
        num = (B.derivative().eval(t) * A.eval(wb)
               - B.eval(wb) * A.derivative().eval(t))
        return complex(num) / math.pi
    num = B.eval(z) * A.eval(wb) - B.eval(wb) * A.eval(z)
    return complex(num) / (math.pi * (z - wb))


def kernel_closed_eform(ctx: KernelContext, w: complex, z: complex) -> complex:
    """Alternative closed form through E and E*; equals kernel_closed."""
    w = complex(w)
    z = complex(z)
    E = ctx.H.E
    Es = E.star()
    wb = w.conjugate()
    if abs(z - wb) < 1e-8:
        return kernel_closed(ctx, w, z)
    num = E.eval(z) * complex(E.eval(w)).conjugate() - Es.eval(z) * E.eval(wb)
    return complex(num) / (2j * math.pi * (wb - z))


def kernel_series(ctx: KernelContext, w: complex, z: complex):
    """Atom expansion of the kernel over the stored roots.

    Returns (value, tail_estimate): the one-signed truncation tail is
    bounded by |B(z) B(conj w)| * wbar * rho * 2/(R - a) / pi with wbar and
    rho the observed mean weight and root density and a the largest real
    offset of the evaluation points.  For a >= R there is no such bound and
    the tail is inf, as for an empty window.
    """
    w = complex(w)
    z = complex(z)
    if min(abs(z.imag), abs(w.imag)) < 1e-6:
        g = ctx.gammas
        if g.size and min(np.min(np.abs(g - z)), np.min(np.abs(g - w))) < 1e-6:
            raise ValueError("evaluation point too close to a stored root")
    B = ctx.H.B
    wb = w.conjugate()
    g = ctx.gammas
    bb = complex(B.eval(z)) * complex(B.eval(wb))
    if g.size == 0:
        return 0j, math.inf
    # two quotients, as the product (g - z)(g - wb) could overflow
    val = bb * np.sum(ctx.weights / (g - z) / (g - wb)) / math.pi
    span = g[-1] - g[0]
    density = g.size / span if span > 0 else 1.0
    wbar = float(np.mean(ctx.weights))
    a = max(abs(z.real), abs(w.real))
    tail = abs(bb) * wbar * density * 2.0 / (math.pi * (ctx.R - a)) \
        if a < ctx.R else math.inf
    return complex(val), float(tail)


def sampling_eval(ctx: KernelContext, samples: dict, z: complex) -> complex:
    """Interpolation series sum F(gamma) B(z)/(B'(gamma)(z - gamma)).

    `samples` maps every stored root position to F(gamma); a missing root
    is an error.  At z within 1e-9 of a node the sample itself is returned
    (removable singularity).
    """
    z = complex(z)
    g = ctx.gammas
    try:
        F = np.array([samples[x] for x in g.tolist()], dtype=complex)
    except KeyError as e:
        raise KeyError(f"missing sample at root {e.args[0]}") from None
    if g.size == 0:
        return 0j
    near = np.abs(g - z) < 1e-9
    if np.any(near):
        return complex(F[np.argmax(near)])
    B = ctx.H.B
    bpv = B.derivative().eval(g).real
    return complex(B.eval(z) * np.sum(F / (bpv * (z - g))))
