"""Probes of the paper's side statements, kept with the tests as their oracles.

The library builds Fourier summation pairs and checks the summation
identity; these functions check what the paper says about such pairs
besides: the Herglotz representation of iA/B by mu (criterion 11), a
positive phase derivative (criterion 12), at most two hits of sqrt(c + n)
on a progression for irrational c (criterion 13), quadratic decay of mu,
the Fejer-tapered kernel identity and the invariance of the kernel under
E -> E1.  The exact-series readers below (a coefficient, a monomial
shift, JSON forms) serve the tests of `qmodular` and `spectra`, and the
canonical Hermite-Biehler inputs (Poisson, Lee-Yang) every test module
that needs them.  Nothing in the library calls them.  The file name keeps
pytest from collecting it.
"""

import math
from fractions import Fraction

import numpy as np

from crystalsum.dbspace import KernelContext
from crystalsum.freqalg import ExpSum, FreqBasis, _vec_neg, sine
from crystalsum.hermite import HermiteBiehler, ks_from_Q, leeyang_real_form
from crystalsum.measures import DiscreteMeasure, FSPair, herglotz_tail_bound
from crystalsum.qmodular import QSeries, to_fraction
from crystalsum.verifier import VerificationReport, _report


# -- canonical inputs ---------------------------------------------------------

def poisson_H():
    """E = Q' - iQ for Q = sin(pi z): pi cos(pi z) - i sin(pi z)."""
    return ks_from_Q(sine(FreqBasis((0.5,)), (1,)))


def leeyang_Q(theta=math.pi / 4):
    """Lee-Yang determinant of the rotation by theta, lengths (1, sqrt2)."""
    U = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    return leeyang_real_form(U, [(1, 0), (0, 1)], FreqBasis((1.0, math.sqrt(2))))


def leeyang_H():
    """The lift E = Q' - iQ of `leeyang_Q()`."""
    return ks_from_Q(leeyang_Q())


# -- exponential sums ---------------------------------------------------------

def monomial(basis, vec, c=1.0):
    """c * e^{2 pi i freq(vec) z}."""
    return ExpSum(basis, {tuple(vec): c})


def cosine(basis, vec, amplitude=1.0):
    """amplitude * cos(2 pi freq(vec) x) as an exponential sum."""
    a = amplitude / 2.0
    return ExpSum(basis, {tuple(vec): a, _vec_neg(tuple(vec)): a})


def phase_derivative(H, x):
    """phi'(x) = Re(i E'(x)/E(x)); positive on R for Hermite-Biehler E.

    Accepts a HermiteBiehler or a bare ExpSum; x may be scalar or ndarray.
    Raises when |E(x)| underflows the degeneracy floor (real zero of E).
    """
    E = H.E if isinstance(H, HermiteBiehler) else H
    Ev = E.eval(x)
    scale = sum(abs(c) for _, _, c in E.sorted_terms())
    if np.min(np.abs(Ev)) < 1e-12 * scale:
        raise ValueError("E(x) is numerically zero; strip real zeros first")
    val = (1j * E.derivative().eval(x) / Ev).real
    return val if np.ndim(x) else float(val)


def e1_transform(ctx: KernelContext, beta: float, p: complex):
    """E1 = e^{i beta}(E - conj(p) E*)/sqrt(1-|p|^2), |p| < 1.

    Every such E1 generates the same space and the same kernel.
    """
    if abs(p) >= 1:
        raise ValueError("|p| must be < 1")
    E = ctx.H.E
    c = complex(np.exp(1j * beta)) / math.sqrt(1 - abs(p) ** 2)
    return (E - complex(p).conjugate() * E.star()) * c


# -- measures -----------------------------------------------------------------

def herglotz_eval(mu: DiscreteMeasure, h: float, z: complex) -> complex:
    """ih + (1/2 pi i) sum w (1+gamma z)/((gamma-z)(1+gamma^2)).

    The Poisson-type compensated kernel keeps the sum convergent for
    measures of quadratic growth; for nonnegative mu the real part is
    positive on the upper half-plane.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("herglotz evaluation requires Im z > 0")
    g = mu.positions()
    if g.size and np.min(np.abs(g - z)) < 1e-9:
        raise ValueError("z is too close to an atom")
    w = mu.weights()
    s = np.sum(w * (1 + g * z) / ((g - z) * (1 + g * g))) if g.size else 0j
    return 1j * h + s / (2j * math.pi)


def fit_h(mu: DiscreteMeasure, f_at_i: complex) -> float:
    """Real constant making the compensated sum match f at z = i."""
    return float((f_at_i - herglotz_eval(mu, 0.0, 1j)).imag)


_PROBE_STAGES = 8  # expanding windows of degree_probe


def degree_probe(mu: DiscreteMeasure, n: int) -> dict:
    """Partial sums of sum |w|/(1+x^2)^{n/2} over expanding windows.

    A truncated window can only exhibit trends, so the verdict is either
    'convergent-at-window-scale' or 'divergent trend', with the staged
    sums included for inspection.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    xs = np.abs(mu.positions())
    ws = np.abs(mu.weights())
    X = max(xs.max() if xs.size else 0.0, 1.0)
    edges = np.linspace(X / _PROBE_STAGES, X, _PROBE_STAGES)
    sums = []
    for e in edges:
        sel = xs <= e
        sums.append(float(np.sum(ws[sel] / (1 + xs[sel] ** 2) ** (n / 2.0))))
    increments = np.diff([0.0] + sums)
    total = sums[-1] if sums else 0.0
    converged = bool(total == 0.0
                     or increments[-1] <= max(0.02 * total, 1e-12))
    if len(increments) >= 3 and increments[-1] > increments[-3] > 0:
        converged = False
    return {"verdict": "convergent-at-window-scale" if converged
            else "divergent trend",
            "exponent": n,
            "window_edges": [float(e) for e in edges],
            "partial_sums": sums}


# -- exact series -------------------------------------------------------------

def qcoefficient(s: QSeries, e) -> Fraction:
    """Coefficient of q^e in s: zero off its lattice and outside its terms."""
    k = (to_fraction(e) - s.lead) / s.unit
    ok = k.denominator == 1 and 0 <= k < len(s.coeffs)
    return s.coeffs[int(k)] if ok else Fraction(0)


def selfdual_coefficient(s, n) -> Fraction:
    """alpha_n of a SelfDualSeries: the coefficient of q^{n/denom}."""
    return qcoefficient(s.series, Fraction(n, s.denom))


def qshift(s: QSeries, e0, c0=1) -> QSeries:
    """s times the monomial c0 * q^{e0}."""
    e0, c0 = to_fraction(e0), to_fraction(c0)
    return QSeries.on_lattice(s.lead + e0, s.unit, [c0 * c for c in s.coeffs],
                              s.order + e0)


def qseries_to_json(s: QSeries) -> dict:
    return {"order": str(s.order),
            "terms": [{"e": str(e), "c": str(c)} for e, c in s.sorted_terms()]}


def qseries_from_json(d) -> QSeries:
    return QSeries({Fraction(t["e"]): Fraction(t["c"]) for t in d["terms"]},
                   Fraction(d["order"]))


def spectrum_to_json(spec) -> dict:
    """An exact spectrum as exponential-sum JSON, with its largest frequency
    vector as `cutoff` and its convergence height as `yValid`."""
    d = ExpSum(spec.basis, spec.atoms).to_json_dict()
    top = max(spec.atoms, key=spec.basis.value) if spec.atoms else spec.basis.zero_vec()
    d["cutoff"] = list(top)
    d["yValid"] = spec.y_valid
    return d


# -- q-series frequencies -----------------------------------------------------

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


# -- verification -------------------------------------------------------------

def fejer_identity_check(pair: FSPair, w: complex, z: complex,
                         T: float) -> VerificationReport:
    """Tapered coefficient sum against the kernel sum of the measure.

    lhs = sum_{|lambda|<T} a(lambda) g(w,z,lambda)(1-|lambda|/T) with
    g(w,z,x) = (e^{-2 pi i conj(w)|x|} [x<0] + e^{2 pi i z|x|} [x>=0])/(z - conj w);
    rhs = (1/2 pi i) sum w_gamma/((gamma-z)(gamma-conj w)).  The reported
    lhs tail is the O(1/T) taper scale, the rhs tail the window bound of
    the kernel integrand (`herglotz_tail_bound`).  An empty measure gives
    "inconclusive".
    """
    w = complex(w)
    z = complex(z)
    if w.imag <= 0 or z.imag <= 0:
        raise ValueError("both points must lie in the upper half-plane")
    if T <= 0:
        raise ValueError("T must be positive")
    wb = w.conjugate()
    inside = np.abs(pair.a.x) < T
    lam = pair.a.x[inside]
    aw = pair.a.w[inside]
    ax = np.abs(lam)
    gval = np.where(lam < 0, np.exp(-2j * math.pi * wb * ax),
                    np.exp(2j * math.pi * z * ax)) / (z - wb)
    lhs = complex(np.sum(aw * gval * (1 - ax / T)))
    taper_scale = float(np.sum(np.abs(aw) * np.abs(gval) * ax / T))
    g = pair.mu.x
    rhs = complex(np.sum(pair.mu.w / ((g - z) * (g - wb)))) / (2j * math.pi)
    # the taper error of an isolated atom is O(lambda/T); report its scale
    return _report(lhs, rhs, (taper_scale, herglotz_tail_bound(pair.mu, w, z)),
                   len(pair.mu), max(10 * taper_scale, 1e-12),
                   {"check": "fejer-kernel", "T": T, "w": [w.real, w.imag],
                    "z": [z.real, z.imag]})
