"""Discrete measures, summation pairs, and the Herglotz kernel residual.

A DiscreteMeasure is a finite, window-truncated set of weighted atoms on
the real line, built from position and weight arrays and stored sorted.
Atoms closer than MERGE_TOL are one atom: the measures of the paper's
application have uniformly discrete support, so position alone decides.
Positions may carry an exact symbolic tag (sqrt(n/(b*sqrt(N)))) that is
written out with them but never compared.  A tail model
|w| <= C (1+|x|)^p with an atom density is fitted from the populated
window.  `window_tail` integrates it against a test function's envelope
past the window edges; that is the truncation error bar of every
verification report, never a decision about correctness.

An FSPair couples an atom measure mu with a coefficient atom list a; for
the real-antipodal pairs built from a validated Hermite-Biehler sum, mu
sits at the roots of B with the residue weights 2 pi A(gamma)/B'(gamma)
and a is the one-sided spectrum of iA/B reflected by conjugation.  The
same roots with weights A/B' = 1/phi' carry the de Branges kernel
expansion; `phase_points` finds them for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .freqalg import complex_from_json
from .hermite import HermiteBiehler, RootFindingError, real_root_scan
from .spectra import exact_spectrum

MERGE_TOL = 1e-10


@dataclass(frozen=True)
class SqrtProvenance:
    """Exact tag for a position +-sqrt(n/(b*sqrt(N))), integers n, b, N."""

    n: int
    b: int
    N: int

    def __post_init__(self):
        if not (all(type(v) is int for v in (self.n, self.b, self.N))
                and self.n >= 0 and self.b >= 1 and self.N >= 1):
            raise ValueError(f"{self} needs integers n >= 0, b >= 1 and N >= 1")

    def value(self) -> float:
        return math.sqrt(self.n / (self.b * math.sqrt(self.N)))

    def to_json_dict(self):
        return {"form": "sqrt", "n": self.n, "b": self.b, "N": self.N}


@dataclass(frozen=True)
class TailModel:
    """Power-law envelope |w| <= C (1+|x|)^p with atoms per unit `density`."""

    C: float
    p: float
    density: float

    def to_json_dict(self):
        return {"C": self.C, "p": self.p, "density": self.density}


def fit_tail_model(x, w) -> TailModel | None:
    """Least-squares power-law fit on the outer third of the window."""
    if len(x) < 4:
        return None
    xs = np.abs(x)
    ws = np.abs(w)
    xmax = xs.max()
    outer = (xs >= xmax / 3.0) & (ws > 0)
    if np.count_nonzero(outer) < 3 or xmax <= 1.0:
        outer = ws > 0
    if np.count_nonzero(outer) < 2:
        return None
    lx = np.log1p(xs[outer])
    lw = np.log(ws[outer])
    p = float(np.polyfit(lx, lw, 1)[0]) if np.ptp(lx) > 0 else 0.0
    with np.errstate(over="ignore", divide="ignore"):
        C = float(np.max(ws[outer] / (1 + xs[outer]) ** p)) * 1.05
    if not 0 < C < math.inf:
        return None  # (1+|x|)^p overflowed: window_tail takes the flat model
    # atoms per unit on each side: window_tail applies it at both edges
    span = xs[outer].max() - xs[outer].min()
    sides = max(int(np.any(x[outer] < 0)) + int(np.any(x[outer] > 0)), 1)
    density = float(np.count_nonzero(outer) / span / sides) if span > 0 else 1.0
    return TailModel(C, p, density)


_TAIL_POINTS = 6000  # samples per window edge in window_tail


def window_tail(measure: DiscreteMeasure, env) -> float:
    """Bound sum |w| env(x) over the atoms beyond the window from the tail model.

    Integrates C (1+|t|)^p density env(t) past each window edge, on the
    grid X + [0, geomspace(1e-6, 1e12 (1+X))] geometric in the distance
    from the edge, so a steep envelope is resolved at the edge and a slow
    one is followed far out.  The product is formed in log space: a steep
    fitted exponent would overflow (1+t)^p long before the envelope wins.
    A measure too small to fit a model gets the flat one: C = max |w|,
    p = 0, and its atoms per unit of window as the density.
    """
    tm = measure.tail_model or TailModel(
        C=float(np.max(np.abs(measure.w), initial=0.0)), p=0.0,
        density=max(len(measure), 1)
        / max(measure.window[1] - measure.window[0], 1.0))
    total = 0.0
    for edge, sign in ((measure.window[0], -1.0), (measure.window[1], 1.0)):
        X = abs(edge)
        # exp of a linspace, not np.geomspace: the same grid, but geomspace's
        # first call costs the CLI a third of a megabyte of peak RSS
        ts = X + np.concatenate(([0.0], np.exp(np.linspace(
            math.log(1e-6), math.log(1e12 * (1 + X)), _TAIL_POINTS - 1))))
        with np.errstate(divide="ignore"):
            log_env = np.log(np.maximum(env(sign * ts), 0.0))
            log_int = (math.log(max(tm.C, 1e-300)) + tm.p * np.log1p(ts)
                       + math.log(max(tm.density, 1e-300)) + log_env)
        integrand = np.exp(np.minimum(log_int, 700.0))
        integrand[log_env == -np.inf] = 0.0
        total += float(np.trapezoid(integrand, ts))
    return total


class DiscreteMeasure:
    """Atoms on a window, stored as sorted arrays, with duplicate merging.

    `x` (float) and `w` (complex) are matching arrays of positions and
    weights, and `prov` an optional matching sequence of SqrtProvenance or
    None.  One stable sort orders the atoms; an atom at most MERGE_TOL
    above its left neighbour joins the neighbour's group, whose weights are
    summed onto its first weight in position order.  A group keeps its
    first position and its first non-null tag (tags are carried, never
    compared), and a lone atom keeps its weight bit for bit.  Groups whose
    summed weight is zero are dropped.  The stored `x`, `w` are read-only
    and `prov` is a tuple.
    """

    def __init__(self, x, w, window, prov=None, nonneg=False, dual_sign=None):
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=complex)
        tags = np.full(x.shape, None, object) if prov is None \
            else np.array(prov, dtype=object)
        if x.ndim != 1 or w.shape != x.shape or tags.shape != x.shape:
            raise ValueError(f"positions {x.shape}, weights {w.shape} and tags "
                             f"{tags.shape} must be matching 1-d arrays")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"atom position {x[~np.isfinite(x)][0]} is not finite")
        order = np.argsort(x, kind="stable")
        x, w, tags = x[order], w[order], tags[order]
        head = np.ones(x.size, dtype=bool)
        head[1:] = np.diff(x) > MERGE_TOL
        group = np.cumsum(head) - 1
        merged = w[head]
        np.add.at(merged, group[~head], w[~head])
        tagged = np.flatnonzero(tags != None)  # noqa: E711 (elementwise on objects)
        gid, first = np.unique(group[tagged], return_index=True)
        kept_tags = np.full(merged.size, None, object)
        kept_tags[gid] = tags[tagged[first]]
        keep = merged != 0
        self.x, self.w = x[head][keep], merged[keep]
        self.x.flags.writeable = self.w.flags.writeable = False
        self.prov = tuple(kept_tags[keep])
        self.window = (float(window[0]), float(window[1]))
        if self.x.size and not (self.window[0] <= self.x[0]
                                and self.x[-1] <= self.window[1]):
            raise ValueError("window does not cover the atom support")
        self.nonneg = bool(nonneg)
        if self.nonneg:
            bad = (np.abs(self.w.imag) > 1e-12 * (1 + np.abs(self.w))) \
                | (self.w.real < 0)
            if np.any(bad):
                raise ValueError(f"atom at {self.x[np.argmax(bad)]} "
                                 "violates the nonneg flag")
        self.dual_sign = dual_sign
        self.tail_model = fit_tail_model(self.x, self.w)

    # -- views ----------------------------------------------------------

    def __len__(self):
        return len(self.x)

    def positions(self):
        return self.x

    def weights(self):
        return self.w

    def weight_at(self, x):
        """Weight of the first atom within MERGE_TOL of x, or 0j."""
        lo = int(np.searchsorted(self.x, x - MERGE_TOL)) - 1
        hi = int(np.searchsorted(self.x, x + MERGE_TOL, side="right")) + 1
        for i in range(max(lo, 0), min(hi, len(self.x))):
            if abs(self.x[i] - x) <= MERGE_TOL:
                return complex(self.w[i])
        return 0j

    def to_json_dict(self):
        out = {"atoms": [], "window": list(self.window), "nonneg": self.nonneg}
        for x, w, prov in zip(self.x.tolist(), self.w.tolist(), self.prov):
            rec = {"x": x, "w": [w.real, w.imag]}
            if prov is not None:
                rec["prov"] = prov.to_json_dict()
            out["atoms"].append(rec)
        if self.dual_sign is not None:
            out["dual_sign"] = self.dual_sign
        if self.tail_model is not None:
            out["tail_model"] = self.tail_model.to_json_dict()
        return out

    @classmethod
    def from_json_dict(cls, d):
        def number(v):
            if type(v) not in (int, float) or not math.isfinite(v):
                raise ValueError(f"expected a finite JSON number, got {v!r}")
            return float(v)
        def tag(rec):
            if "prov" not in rec:
                return None
            p = rec["prov"]
            return SqrtProvenance(p["n"], p["b"], p["N"])
        atoms = d["atoms"]
        x = [number(rec["x"]) for rec in atoms]
        w = [complex_from_json(rec["w"]) for rec in atoms]
        w = [complex(number(c.real), number(c.imag)) for c in w]
        sign = d.get("dual_sign")
        if not (sign is None or type(sign) is int and sign in (1, -1)):
            raise ValueError(f"dual_sign must be 1, -1 or null, got {sign!r}")
        lo, hi = map(number, d["window"])
        if not lo < hi:
            raise ValueError(f"window must have lo < hi, got {[lo, hi]}")
        return cls(x, w, (lo, hi), [tag(rec) for rec in atoms],
                   d.get("nonneg", False), sign)


@dataclass
class FSPair:
    """Measure/coefficient pair with construction metadata.

    For real-antipodal pairs the mu weights are real and a(-lambda) equals
    conj(a(lambda)) exactly by construction.
    """

    mu: DiscreteMeasure
    a: DiscreteMeasure
    meta: dict = field(default_factory=dict)
    real_antipodal: bool = False

    def __post_init__(self):
        if self.real_antipodal and np.any(self.mu.w.imag != 0.0):
            raise ValueError("real-antipodal pair needs real mu weights")

    def to_json_dict(self):
        return {"mu": self.mu.to_json_dict(), "a": self.a.to_json_dict(),
                "meta": self.meta}

    @classmethod
    def from_json_dict(cls, d):
        meta = d.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError(f"meta must be a JSON object, got {meta!r}")
        antipodal = meta.get("real_antipodal", False)
        if not isinstance(antipodal, bool):
            raise ValueError(f"real_antipodal must be true or false, got {antipodal!r}")
        return cls(DiscreteMeasure.from_json_dict(d["mu"]),
                   DiscreteMeasure.from_json_dict(d["a"]), meta, antipodal)


# -- construction from Hermite-Biehler data ----------------------------------

def phase_points(H: HermiteBiehler, alpha: float, window):
    """Real roots gamma of B_alpha in the window, with A_alpha(gamma), B_alpha'(gamma).

    phi is the phase of e^{i alpha}E, and 1/phi'(gamma) = A_alpha/B_alpha'
    at each root, which is strictly positive for a validated
    Hermite-Biehler input.  The root scan certifies every root simple and
    skips none; it raises RootFindingError on a multiple root or on roots
    too close to separate, and so does a nonpositive A_alpha/B_alpha'.
    Callers form their weights from the returned arrays (2 pi av/bpv for
    the measure, av/bpv for the kernel; rescaling one into the other would
    change the last bit of some weights).
    """
    A, B = H.rotated(alpha)
    roots = real_root_scan(B, window).roots
    av = A.eval(roots).real
    bpv = B.derivative().eval(roots).real
    ratio = av / bpv
    if np.any(ratio <= 0):
        bad = roots[np.argmin(ratio)]
        raise RootFindingError(f"nonpositive residue weight at {bad}")
    return roots, av, bpv


def measure_from_phase(H: HermiteBiehler, alpha: float, window) -> DiscreteMeasure:
    """Atoms 2 pi/phi'(gamma) = 2 pi A_alpha/B_alpha' at the phase points."""
    if not 0.0 <= alpha < math.pi:
        raise ValueError("alpha must lie in [0, pi)")
    roots, av, bpv = phase_points(H, alpha, window)
    return DiscreteMeasure(roots, 2 * math.pi * av / bpv, window, nonneg=True)


def pair_from_hb(H: HermiteBiehler, cutoff, window) -> FSPair:
    """Real-antipodal pair: mu from phase data, a from the exact spectrum.

    a(lambda) = E(iA/B)(lambda) for lambda > 0, a(-lambda) = conj(a(lambda)),
    and a(0) = 2 Re E(iA/B)(0), the merge of the atom at 0 with its
    reflection.
    """
    mu = measure_from_phase(H, 0.0, window)
    spec = exact_spectrum(H, cutoff)
    cutoff_value = spec.meta["requested_cutoff"]
    lam, c = spec.sorted_arrays()
    a = DiscreteMeasure(np.concatenate((lam, -lam)), np.concatenate((c, c.conj())),
                        (-cutoff_value - 1e-9, cutoff_value + 1e-9))
    meta = {"source": "hermite-biehler", "cutoff": cutoff_value,
            "window": list(mu.window), "y_valid": spec.y_valid,
            "real_antipodal": True}
    return FSPair(mu, a, meta, real_antipodal=True)


# -- Herglotz representation -------------------------------------------------

def herglotz_kernel_residual(mu: DiscreteMeasure, f, w: complex,
                             z: complex) -> float:
    """| (f(z)+conj(f(w)))/(z-conj w) - (1/2 pi i) sum w_g/((z-g)(conj w-g)) |.

    A small value certifies the kernel form of the Poisson representation
    of f by mu on the truncation window.
    """
    w = complex(w)
    z = complex(z)
    if w.imag <= 0 or z.imag <= 0:
        raise ValueError("both points must lie in the upper half-plane")
    g = mu.positions()
    if g.size and min(np.min(np.abs(g - z)), np.min(np.abs(g - w))) < 1e-9:
        raise ValueError("evaluation point too close to an atom")
    wt = mu.weights()
    wb = w.conjugate()
    lhs = (f(z) + complex(f(w)).conjugate()) / (z - wb)
    rhs = np.sum(wt / ((z - g) * (wb - g))) / (2j * math.pi) if g.size else 0j
    return abs(lhs - rhs)


def herglotz_tail_bound(mu: DiscreteMeasure, w: complex, z: complex) -> float:
    """Window tail of the kernel sum: window_tail against 1/(2 pi |t-z| |t-conj w|)."""
    z = complex(z)
    wb = complex(w).conjugate()
    return window_tail(
        mu, lambda t: 1.0 / (np.abs(t - z) * np.abs(t - wb)) / (2 * math.pi))


# -- splittings ---------------------------------------------------------------

def antipodal_split(mu: DiscreteMeasure, a: DiscreteMeasure):
    """Split a complex pair into two real-antipodal pairs.

    a1(l) = (a(l) + conj(a(-l)))/2,  a2(l) = (conj(a(-l)) - a(l))/(2i),
    mu1 = Re mu,  mu2 = -Im mu,  so that a = a1 - i a2 and mu = mu1 - i mu2.
    Each of a1, a2 is built from the atoms of a and of its conjugate
    reflection; the measure's merge pairs them and drops zero sums.
    """
    x = np.concatenate((a.x, -a.x))
    win = (min(a.window[0], -a.window[1]), max(a.window[1], -a.window[0]))

    def half_sum(c, c_reflected):
        return DiscreteMeasure(x, np.concatenate((c, c_reflected)), win, a.prov * 2)

    mu1 = DiscreteMeasure(mu.x, mu.w.real, mu.window, mu.prov)
    mu2 = DiscreteMeasure(mu.x, -mu.w.imag, mu.window, mu.prov)
    return ((mu1, half_sum(0.5 * a.w, 0.5 * a.w.conj())),
            (mu2, half_sum(0.5j * a.w, -0.5j * a.w.conj())))
