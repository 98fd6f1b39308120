"""Hermite-Biehler structure for exponential sums.

A sum E is of Hermite-Biehler class when |E*(z)| < |E(z)| throughout the
upper half-plane, with E*(z) = conj(E(conj z)).  We always split
E = A - iB with A = (E* + E)/2 and B = (E* - E)/(2i); both are real on
the real axis and, for genuine Hermite-Biehler E without real zeros,
real-rooted with strictly interlacing zeros.

Validation here is sampled, not proven: |E*| < |E| and the positivity of
Re(iA/B) are checked on a rectangular grid in the upper half-plane, and a
certificate records the grid and the observed margins.  Deciding the
inequality globally is equivalent to real-rootedness, which admits no
finite certificate once the frequencies are irrationally related.

Two generators of valid inputs are provided: E = Q' - iQ for a real-rooted
real trigonometric polynomial Q, and the determinant family
det(U + diag(e^{2 pi i l_j z})) for a unitary U, which is real-rooted for
every unitary U (if (U + D)v = 0 with all |D_jj| < 1 then |Uv| = |Dv| < |v|,
impossible for unitary U; same argument after inversion for |D_jj| > 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .freqalg import ExpSum, FreqBasis


class HermiteBiehlerError(ValueError):
    """Validation failed; carries the witness point when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RootFindingError(RuntimeError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Sampling rectangle [x_min,x_max] x [y_min,y_max] with nx*ny points."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int = 400
    ny: int = 50

    def __post_init__(self):
        if not (self.x_min < self.x_max and 0 < self.y_min < self.y_max):
            raise ValueError("grid must satisfy x_min < x_max, 0 < y_min < y_max")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid must have at least 2x2 points")

    def mesh(self):
        xs = np.linspace(self.x_min, self.x_max, self.nx)
        ys = np.linspace(self.y_min, self.y_max, self.ny)
        return xs, ys

    def to_json_dict(self):
        return {"x": [self.x_min, self.x_max], "y": [self.y_min, self.y_max],
                "nx": self.nx, "ny": self.ny}


def default_grid(E: ExpSum) -> GridSpec:
    """400x50 grid over [-X, X] x [0.05, 5], X = 4 periods of the slowest mode."""
    freqs = [abs(val) for _, val, _ in E.sorted_terms() if val != 0.0]
    slowest = min(freqs) if freqs else 1.0
    X = 4.0 / slowest
    return GridSpec(-X, X, 0.05, 5.0, 400, 50)


@dataclass(frozen=True)
class HBCertificate:
    """Record of the sampled validation: grid plus observed margins.

    margin_modulus = min (|E| - |E*|)/|E| over the grid; margin_herglotz =
    min Re(iA/B) over non-degenerate grid points.  Both must be positive
    for an accepted certificate.
    """

    grid: GridSpec
    margin_modulus: float
    margin_herglotz: float
    degeneracy_floor: float

    def to_json_dict(self):
        return {"grid": self.grid.to_json_dict(),
                "margin_modulus": self.margin_modulus,
                "margin_herglotz": self.margin_herglotz,
                "degeneracy_floor": self.degeneracy_floor}


@dataclass(frozen=True)
class HBVerdict:
    accepted: bool
    witness: complex | None = None
    reason: str | None = None
    certificate: HBCertificate | None = None


def split_AB(E: ExpSum):
    """A = (E* + E)/2 and B = (E* - E)/(2i); both star-fixed."""
    Es = E.star()
    A = (Es + E) * 0.5
    B = (Es - E) * (-0.5j)
    return A, B


_FLOOR_REL = 1e-8  # |B| below this fraction of |E| skips the Re(iA/B) test


def is_hermite_biehler(E: ExpSum, grid: GridSpec | None = None) -> HBVerdict:
    """Sampled check that E is Hermite-Biehler on the grid rectangle.

    Accepts iff |E*(z)| < |E(z)| at every grid point and Re(iA/B) > 0 at
    every grid point where |B| clears a degeneracy floor.  A preflight scan
    of the real axis rejects inputs whose A and B nearly vanish together
    (real zero of E), which the downstream residue weights cannot handle.
    Rejections carry the worst witness point.
    """
    if not E:
        return HBVerdict(False, None, "empty sum")
    if grid is None:
        grid = default_grid(E)
    A, B = split_AB(E)
    xs, ys = grid.mesh()

    # preflight: simultaneous near-vanishing of A and B on the real axis
    av = np.abs(A.eval(xs)) if A else np.zeros_like(xs)
    bv = np.abs(B.eval(xs)) if B else np.zeros_like(xs)
    joint = np.maximum(av, bv)
    scale_real = float(np.max(joint)) if joint.size else 0.0
    if scale_real == 0.0:
        return HBVerdict(False, complex(xs[0]), "A and B vanish identically")
    j = int(np.argmin(joint))
    if joint[j] < 1e-7 * scale_real:
        return HBVerdict(False, complex(xs[j]),
                         "A and B nearly vanish together (real zero of E)")

    Z = xs[None, :] + 1j * ys[:, None]
    Ev = E.eval(Z)
    Esv = E.star().eval(Z)
    absE = np.abs(Ev)
    absEs = np.abs(Esv)
    tiny = 1e-300
    margin_mod = (absE - absEs) / np.maximum(absE, tiny)
    i_flat = int(np.argmin(margin_mod))
    worst_mod = float(margin_mod.flat[i_flat])
    if worst_mod <= 0.0:
        return HBVerdict(False, complex(Z.flat[i_flat]),
                         f"|E*| >= |E| (ratio {absEs.flat[i_flat] / max(absE.flat[i_flat], tiny):.4g})")

    Av = A.eval(Z)
    Bv = B.eval(Z)
    floor = _FLOOR_REL * absE
    ok = np.abs(Bv) > floor
    herg = np.where(ok, (1j * Av / np.where(ok, Bv, 1.0)).real, np.inf)
    i_flat = int(np.argmin(herg))
    worst_herg = float(herg.flat[i_flat])
    if worst_herg <= 0.0:
        return HBVerdict(False, complex(Z.flat[i_flat]),
                         f"Re(iA/B) = {worst_herg:.4g} <= 0")

    cert = HBCertificate(grid, worst_mod,
                         worst_herg if math.isfinite(worst_herg) else 0.0,
                         _FLOOR_REL)
    return HBVerdict(True, None, None, cert)


@dataclass(frozen=True)
class HermiteBiehler:
    """Validated pair E = A - iB with its sampling certificate."""

    E: ExpSum
    A: ExpSum
    B: ExpSum
    certificate: HBCertificate

    @classmethod
    def validate(cls, E: ExpSum, grid: GridSpec | None = None) -> "HermiteBiehler":
        verdict = is_hermite_biehler(E, grid)
        if not verdict.accepted:
            raise HermiteBiehlerError(
                f"not Hermite-Biehler: {verdict.reason} at z = {verdict.witness}",
                witness=verdict.witness)
        A, B = split_AB(E)
        recon = A - 1j * B
        if recon.terms != E.terms:
            scale = max(abs(c) for _, _, c in E.sorted_terms())
            diff = recon - E
            err = max((abs(c) for _, _, c in diff.sorted_terms()), default=0.0)
            if err > 1e-14 * scale:
                raise HermiteBiehlerError("A - iB does not reconstruct E")
        return cls(E, A, B, verdict.certificate)

    def rotated(self, alpha: float):
        """A_alpha, B_alpha for E_alpha = e^{i alpha} E.

        A_alpha = A cos(alpha) + B sin(alpha),
        B_alpha = B cos(alpha) - A sin(alpha).
        """
        ca, sa = math.cos(alpha), math.sin(alpha)
        if alpha == 0.0:
            return self.A, self.B
        return self.A * ca + self.B * sa, self.B * ca - self.A * sa

    def to_json_dict(self):
        return {"E": self.E.to_json_dict(), "A": self.A.to_json_dict(),
                "B": self.B.to_json_dict(),
                "certificate": self.certificate.to_json_dict()}

    @classmethod
    def from_json_dict(cls, d):
        E = ExpSum.from_json_dict(d["E"])
        g = d.get("certificate", {}).get("grid")
        grid = None
        if g:
            grid = GridSpec(g["x"][0], g["x"][1], g["y"][0], g["y"][1],
                            g["nx"], g["ny"])
        return cls.validate(E, grid)


@dataclass(frozen=True)
class PhasePoint:
    """Real point gamma with phase = alpha (mod pi) and its residue weight.

    weight = 1/phi'(gamma) = A_alpha(gamma)/B_alpha'(gamma) > 0.
    """

    gamma: float
    weight: float
    alpha: float = 0.0


def ks_from_Q(Q: ExpSum, grid: GridSpec | None = None) -> HermiteBiehler:
    """Lift a real-rooted, real trigonometric polynomial Q to E = Q' - iQ.

    Validation is a posteriori: if the sampled Hermite-Biehler check
    rejects, Q was not real-rooted (up to sampling resolution) and the
    witness is propagated.
    """
    if not Q.is_star_fixed(tol=1e-12):
        raise HermiteBiehlerError("Q must be real on the real axis")
    E = Q.derivative() - 1j * Q
    return HermiteBiehler.validate(E, grid)


def leeyang_trigpoly(U, length_vecs, basis: FreqBasis) -> ExpSum:
    """det(U + diag(e^{2 pi i l_j z})) expanded over principal minors.

    U is a unitary matrix (tolerance 1e-10); length_vecs are the l_j as
    integer vectors over `basis`.  The expansion is
    P = sum_{S subset [n]} det(U restricted off S) e^{2 pi i (sum_{j in S} l_j) z}.
    The result is real-rooted after Hadamard normalization
    (see leeyang_real_form).
    """
    U = np.asarray(U, dtype=complex)
    n = U.shape[0]
    if U.shape != (n, n):
        raise ValueError("U must be square")
    if n != len(length_vecs):
        raise ValueError("need one length per matrix dimension")
    err = np.max(np.abs(U.conj().T @ U - np.eye(n)))
    if err > 1e-10:
        raise ValueError(f"U is not unitary (defect {err:.3g})")
    vecs = [tuple(int(k) for k in v) for v in length_vecs]
    for v in vecs:
        if basis.value(v) <= 0:
            raise ValueError("lengths must be positive in the chosen basis")
    zero = basis.zero_vec()
    terms = {}
    idx = list(range(n))
    for size in range(n + 1):
        for S in combinations(idx, size):
            rest = [j for j in idx if j not in S]
            if rest:
                minor = complex(np.linalg.det(U[np.ix_(rest, rest)]))
            else:
                minor = 1.0 + 0j
            v = zero
            for j in S:
                v = tuple(a + b for a, b in zip(v, vecs[j]))
            terms[v] = terms.get(v, 0j) + minor
    return ExpSum(basis, terms)


def leeyang_real_form(U, length_vecs, basis: FreqBasis) -> ExpSum:
    """Star-fixed (real on R) normalization of the Lee-Yang determinant.

    Multiplies by e^{-pi i L z} (L = sum l_j, representable after doubling
    the basis denominator) and by the unimodular constant e^{-i arg(det U)/2},
    then symmetrizes away rounding so the result is exactly star-fixed.
    """
    P = leeyang_trigpoly(U, length_vecs, basis)
    total = basis.zero_vec()
    for v in length_vecs:
        total = tuple(a + int(b) for a, b in zip(total, v))
    basis2 = FreqBasis(basis.base, 2 * basis.denominator)
    terms2 = {tuple(2 * k for k in v): c for v, c in P.terms.items()}
    P2 = ExpSum(basis2, terms2)
    detU = complex(np.linalg.det(np.asarray(U, dtype=complex)))
    c = cmath.exp(-0.5j * cmath.phase(detU))
    Q = (P2 * c).shift(tuple(-k for k in total))
    Q = Q.hermitize()
    if not Q:
        raise ValueError("normalized determinant vanished")
    return Q


@dataclass(frozen=True)
class RootScan:
    """Result of a real-axis root scan: simple roots plus flagged doubles."""

    roots: list
    double_roots: list


def real_root_scan(B: ExpSum, interval, tol: float = 1e-12) -> RootScan:
    """All real roots of a star-fixed sum on [x0, x1].

    Sign-change scan at step 1/(8*span) (span = frequency spread of B, a
    Bernstein-type density bound), bisection to bracket width <= tol, then
    a short Newton polish.  Sign-preserving dips of |B| below 1e-9 of the
    scan scale are flagged as double-root candidates, not returned as roots.
    """
    if not B:
        raise RootFindingError("cannot scan an identically zero sum")
    if not B.is_star_fixed(tol=1e-9):
        raise RootFindingError("root scan requires a sum that is real on R")
    x0, x1 = float(interval[0]), float(interval[1])
    if not x0 < x1:
        raise RootFindingError("empty scan interval")
    span = B.freq_span()
    if span <= 0.0:
        return RootScan([], [])  # nonzero monomial never vanishes on R
    step = 1.0 / (8.0 * span)
    n = max(int(math.ceil((x1 - x0) / step)), 8)
    if n > 50_000_000:
        raise RootFindingError("scan step underflow for this interval")
    xs = np.linspace(x0, x1, n + 1)
    vals = B.eval(xs).real
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        raise RootFindingError("B vanished on the whole scan grid")

    exact = np.abs(vals) < 1e-14 * scale
    s = np.sign(vals)
    s[exact] = 0.0

    roots = []
    touch_points = []  # exact zeros with no sign change: double candidates
    for i in np.nonzero(exact)[0]:
        left = i - 1
        while left >= 0 and s[left] == 0.0:
            left -= 1
        right = i + 1
        while right <= n and s[right] == 0.0:
            right += 1
        if left < 0 or right > n:
            roots.append(float(xs[i]))  # one-sided at the window edge
        elif s[left] * s[right] > 0:
            touch_points.append(float(xs[i]))
        else:
            roots.append(float(xs[i]))
    prod = s[:-1] * s[1:]
    bracket_idx = np.nonzero(prod < 0)[0]
    lo = xs[bracket_idx].astype(float)
    hi = xs[bracket_idx + 1].astype(float)
    if lo.size:
        flo = vals[bracket_idx]
        # bracket width tol is clamped at the local ulp; a fixed iteration
        # cap guards against stalling once mid rounds onto an endpoint
        for _ in range(64):
            if np.max(hi - lo) <= tol:
                break
            mid = 0.5 * (lo + hi)
            fmid = B.eval(mid).real
            left = flo * fmid <= 0.0
            hi = np.where(left, mid, hi)
            lo = np.where(left, lo, mid)
            flo = np.where(left, flo, fmid)
        found = 0.5 * (lo + hi)
        # Newton polish to machine precision (weights feed quadratic forms)
        Bp = B.derivative()
        for _ in range(3):
            f = B.eval(found).real
            fp = Bp.eval(found).real
            safe = np.abs(fp) > 1e-300
            cand = np.where(safe, found - f / np.where(safe, fp, 1.0), found)
            ok = (np.abs(cand - found) < 2 * step) & \
                 (np.abs(B.eval(cand).real) <= np.abs(f))
            found = np.where(ok, cand, found)
        roots.extend(float(x) for x in found)

    roots.sort()
    merged = []
    for r in roots:
        if merged and abs(r - merged[-1]) <= 16 * max(tol, 1e-15):
            continue
        if r < x0 - step or r > x1 + step:
            continue
        merged.append(r)

    # sign-preserving dips: local minima of |B| without a crossing
    doubles = list(touch_points)
    absv = np.abs(vals)
    interior = np.nonzero((absv[1:-1] < absv[:-2]) & (absv[1:-1] <= absv[2:])
                          & (absv[1:-1] < 1e-5 * scale))[0] + 1
    for i in interior:
        if s[i - 1] * s[i + 1] < 0 or s[i] == 0.0:
            continue  # genuine crossing or exact zero, already handled
        a, b2 = xs[i - 1], xs[i + 1]
        for _ in range(200):
            m1 = a + (b2 - a) / 3
            m2 = b2 - (b2 - a) / 3
            if abs(B.eval(m1)) < abs(B.eval(m2)):
                b2 = m2
            else:
                a = m1
            if b2 - a < tol:
                break
        xm = 0.5 * (a + b2)
        if abs(B.eval(xm)) < 1e-9 * scale:
            if all(abs(xm - r) > 16 * tol for r in merged):
                doubles.append(float(xm))
    return RootScan(merged, doubles)


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
