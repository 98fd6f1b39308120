"""Hermite-Biehler structure for exponential sums.

A sum E is of Hermite-Biehler class when |E*(z)| < |E(z)| throughout the
upper half-plane, with E*(z) = conj(E(conj z)).  We always split
E = A - iB with A = (E* + E)/2 and B = (E* - E)/(2i); both are real on
the real axis and, for genuine Hermite-Biehler E without real zeros,
real-rooted with strictly interlacing zeros.

Validation here is sampled, not proven: |E*| < |E| is checked on a
rectangular grid in the upper half-plane, and a certificate records the
grid and the observed margins.  That one inequality is also the positivity
of the Herglotz function iA/B = (E + E*)/(E - E*), whose real part is
(|E|^2 - |E*|^2)/|E - E*|^2 (de Branges, Hilbert Spaces of Entire
Functions, 1968), so both margins come from the samples of E and E*.
Deciding the inequality globally is equivalent to real-rootedness, which
admits no finite certificate once the frequencies are irrationally related.

The real-root scan is certified: each root it returns is simple, none is
skipped, and a multiple root or roots too close to separate raise.

Two generators of valid inputs are provided: E = Q' - iQ for a real-rooted
real trigonometric polynomial Q, and the determinant family
det(U + diag(e^{2 pi i l_j z})) for a unitary U, which is real-rooted for
every unitary U (if (U + D)v = 0 with all |D_jj| < 1 then |Uv| = |Dv| < |v|,
impossible for unitary U; same argument after inversion for |D_jj| > 1).
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .freqalg import ExpSum, FreqBasis, Grid


class HermiteBiehlerError(ValueError):
    """Validation failed; carries the witness point when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RootFindingError(RuntimeError):
    pass


MAX_GRID_POINTS = 10 ** 6  # the most samples a validation grid may ask for


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
        bounds = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in bounds) \
                or not math.isfinite(self.x_max - self.x_min):
            raise ValueError(f"grid bounds must be finite numbers, got {bounds}")
        if not (self.x_min < self.x_max and 0 < self.y_min < self.y_max):
            raise ValueError("grid must satisfy x_min < x_max, 0 < y_min < y_max")
        if not all(isinstance(n, numbers.Integral) for n in (self.nx, self.ny)):
            raise ValueError(f"grid sizes must be integers, got {self.nx!r} x {self.ny!r}")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid must have at least 2x2 points")
        if self.nx * self.ny > MAX_GRID_POINTS:
            raise ValueError(f"grid of {self.nx} x {self.ny} points exceeds the "
                             f"{MAX_GRID_POINTS} allowed")

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
    min Re(iA/B) over the grid (0 if B vanishes at every grid point).  Both
    are positive for an accepted certificate.
    """

    grid: GridSpec
    margin_modulus: float
    margin_herglotz: float

    def to_json_dict(self):
        return {"grid": self.grid.to_json_dict(),
                "margin_modulus": self.margin_modulus,
                "margin_herglotz": self.margin_herglotz}


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


def is_hermite_biehler(E: ExpSum, grid: GridSpec | None = None) -> HBVerdict:
    """Sampled check that E is Hermite-Biehler on the grid rectangle.

    Accepts iff |E*(z)| < |E(z)| at every grid point, which is Re(iA/B) > 0
    there.  E and E* are each evaluated once, on one freqalg.Grid with row
    heads 0 and i*y and column offsets x, so they share its exponential
    tables: per generator ny + 1 + nx exponentials, not one per point.  Its
    first row is the real axis, where A = Re E and B = -Im E: a preflight
    there rejects inputs whose A and B nearly vanish together (real zero of
    E), which the downstream residue weights cannot handle.  Rejections
    carry the worst witness point; a non-finite coefficient rejects before
    any evaluation.
    """
    if not E:
        return HBVerdict(False, None, "empty sum")
    if not all(cmath.isfinite(c) for c in E.terms.values()):
        return HBVerdict(False, None, "non-finite coefficient")
    if grid is None:
        grid = default_grid(E)
    xs, ys = grid.mesh()
    Z = Grid(1j * np.concatenate(([0.0], ys)), xs, (grid.ny + 1) * grid.nx)
    Ev, Esv = E.eval(Z), E.star().eval(Z)

    # preflight: simultaneous near-vanishing of A and B on the real axis
    Ex, Ev, Esv = Ev[:grid.nx], Ev[grid.nx:], Esv[grid.nx:]
    joint = np.maximum(np.abs(Ex.real), np.abs(Ex.imag))
    scale_real = float(np.max(joint))
    if scale_real == 0.0:
        return HBVerdict(False, complex(xs[0]), "A and B vanish identically")
    j = int(np.argmin(joint))
    if joint[j] < 1e-7 * scale_real:
        return HBVerdict(False, complex(xs[j]),
                         "A and B nearly vanish together (real zero of E)")

    absE = np.abs(Ev)
    absEs = np.abs(Esv)
    tiny = 1e-300
    margin_mod = (absE - absEs) / np.maximum(absE, tiny)
    i = int(np.argmin(margin_mod))
    worst_mod = float(margin_mod[i])
    if not worst_mod > 0.0:  # a NaN margin rejects too
        return HBVerdict(False, complex(Z.rows[1 + i // grid.nx] + xs[i % grid.nx]),
                         f"|E*| >= |E| (ratio {absEs[i] / max(absE[i], tiny):.4g})")

    # Re(iA/B) = (|E|^2 - |E*|^2)/|E - E*|^2, infinite where B = 0
    with np.errstate(divide="ignore"):
        herg = (absE - absEs) * (absE + absEs) / np.abs(Ev - Esv) ** 2
    worst_herg = float(np.min(herg))
    cert = HBCertificate(grid, worst_mod,
                         worst_herg if math.isfinite(worst_herg) else 0.0)
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
            where = "" if verdict.witness is None else f" at z = {verdict.witness}"
            raise HermiteBiehlerError(f"not Hermite-Biehler: {verdict.reason}{where}",
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
            minor = complex(np.linalg.det(U[np.ix_(rest, rest)])) if rest else 1 + 0j
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


ROOT_TOL = 1e-12  # root scan: narrowest open cell, and least |x| whose ulp ends Newton
MAX_SCAN_POINTS = 50_000_000  # most points of the root scan's first grid


@dataclass(frozen=True)
class RootScan:
    """Result of a real-axis root scan: the sorted float array of the
    roots, each certified simple."""

    roots: np.ndarray


def scan_step(B: ExpSum) -> float:
    """Step of the root scan's first grid: 1/(8*span), span = frequency
    spread of B (a Bernstein-type density bound); inf for a monomial."""
    span = B.freq_span()
    return 1.0 / (8.0 * span) if span > 0.0 else math.inf


def real_root_scan(B: ExpSum, interval) -> RootScan:
    """All real roots of a star-fixed sum on [x0, x1], or RootFindingError.

    The first grid samples [x0, x1] at steps of at most `scan_step(B)`,
    both ends exact: a freqalg.Grid of rows x0 + 512 h m and columns h k,
    then x1.  With L1 = sum |c| 2 pi |lam| >= sup|B'| and
    L2 = sum |c| (2 pi lam)^2 >= sup|B''|, a cell [a, b] of width h holds no
    root when |B(a)| + |B(b)| > L1 h, and is monotone, so holds one root
    exactly when B changes sign, when |B'(a)| + |B'(b)| > L2 h; both tests
    also clear twice the rounding floor of B or B' on the window.  Any other
    cell is halved.  A sample with |B| at most its floor is a root itself
    when |B'| > 2 sqrt(floor L2) + floor' there (no point that close to a
    double root reaches that slope); otherwise it keeps its cells open.  An
    open cell of width ROOT_TOL, an open cell with both samples in the
    noise, or more open cells than the first grid had means a multiple root
    or roots too close to separate, and raises with the place.  In each
    monotone sign-change cell one safeguarded Newton iteration (rtsafe:
    Press et al., Numerical Recipes, 3rd ed., 2007, sec. 9.4), run on all
    cells at once, finds the root to within an ulp or so.
    """
    if not B:
        raise RootFindingError("cannot scan an identically zero sum")
    if not B.is_star_fixed(tol=1e-9):
        raise RootFindingError("root scan requires a sum that is real on R")
    x0, x1 = float(interval[0]), float(interval[1])
    if not -math.inf < x0 < x1 < math.inf:
        raise RootFindingError(
            f"scan interval must be finite and nonempty, got [{x0}, {x1}]")
    step = scan_step(B)
    if step == math.inf:
        return RootScan(np.empty(0))  # nonzero monomial never vanishes on R
    steps = (x1 - x0) / step
    if not steps <= MAX_SCAN_POINTS:
        raise RootFindingError(
            f"scan of [{x0:g}, {x1:g}] needs {steps + 1:.3g} grid points at step "
            f"{step:.3g}, more than the {MAX_SCAN_POINTS:,} allowed")
    n = max(int(math.ceil(steps)), 8)
    vs, lams, cs = (np.array(t) for t in zip(*B.sorted_terms()))
    mod, freq = np.abs(cs), 2 * math.pi * np.abs(lams)
    L1, L2 = float(mod @ freq), float(mod @ freq**2)
    # rounding floors of B and B': evaluation puts a phase error of about
    # eps 2 pi |x| sum_j |k_j| base_j/D on term k, not eps 2 pi |x lam|
    lam_norm = np.abs(vs) @ np.array(B.basis.base) / B.basis.denominator
    grow = 1 + 2 * math.pi * max(-x0, x1) * lam_norm
    floor_b, floor_d = 1e-14 * float(mod @ grow), 1e-14 * float(mod @ (freq * grow))
    min_slope = 2.0 * math.sqrt(floor_b * L2) + floor_d
    Bp = B.derivative()

    # the first grid: x0 + h j for j < n as a Grid, then x1 itself
    h = (x1 - x0) / n
    cols = h * np.arange(min(n, 512))
    heads = x0 + cols.size * h * np.arange(-(-n // cols.size))
    buf = np.empty(heads.size * cols.size + 1)
    np.add(heads[:, None], cols, out=buf[:-1].reshape(heads.size, cols.size))
    xs, fx = buf[:n + 1], np.empty(n + 1)
    xs[n] = x1
    fx[:n] = B.eval(Grid(heads, cols, n)).real
    fx[n] = B.eval(x1).real
    absf = np.abs(fx)
    # the no-root test on the first grid comes before any B' is evaluated
    i = np.nonzero(absf[:-1] + absf[1:] <= L1 * np.diff(xs) + 2 * floor_b)[0]
    need = absf <= floor_b
    need[i] = need[i + 1] = True
    dx = np.zeros_like(fx)
    dx[need] = Bp.eval(xs[need]).real
    found = [xs[(absf <= floor_b) & (np.abs(dx) > min_slope)]]
    cells = [xs[i], xs[i + 1], fx[i], fx[i + 1], dx[i], dx[i + 1]]
    del buf, xs, fx, absf, need, dx  # the open cells keep what they need
    brackets = [(np.empty(0),) * 6]
    while cells[0].size:
        a, b, fa, fb, da, db = cells
        h = b - a
        za, zb = np.abs(fa) <= floor_b, np.abs(fb) <= floor_b
        mono = np.abs(da) + np.abs(db) > L2 * h + 2 * floor_d
        cross = mono & ~za & ~zb & (fa * fb < 0)
        brackets.append(tuple(v[cross] for v in cells))
        settled = (np.abs(fa) + np.abs(fb) > L1 * h + 2 * floor_b) | (mono & ~(za & zb))
        weak = (za & (np.abs(da) <= min_slope)) | (zb & (np.abs(db) <= min_slope))
        keep = weak | ~settled
        if np.count_nonzero(keep) > n or np.any(keep & (za & zb | (h <= ROOT_TOL))):
            # the open cell with the smallest samples is nearest the trouble
            j = np.argmin(np.where(keep, np.abs(fa) + np.abs(fb), np.inf))
            raise RootFindingError(
                "multiple root or roots too close to separate "
                f"near x = {float(0.5 * (a[j] + b[j]))!r}")
        a, b, fa, fb, da, db = (v[keep] for v in cells)
        if not a.size:
            break
        m = 0.5 * (a + b)
        fm, dm = B.eval(m).real, Bp.eval(m).real
        found.append(m[(np.abs(fm) <= floor_b) & (np.abs(dm) > min_slope)])
        cells = [np.concatenate(p) for p in
                 ((a, m), (m, b), (fa, fm), (fm, fb), (da, dm), (dm, db))]

    # rtsafe in every bracket: Newton steps from the endpoint with the
    # smaller |B|, halving where a step leaves the bracket.  Once a step's
    # error bound L2 dx^2/(2|B'|) is within an ulp, the root is within an ulp
    # of its target: of the iterate there, evaluated last, or of the endpoint
    # the target passed, already evaluated.  The smallest |B| wins.
    lo, hi, flo, fhi, dlo, dhi = (np.concatenate(p) for p in zip(*brackets))
    sign_lo = np.sign(flo)
    near = np.abs(flo) <= np.abs(fhi)
    f, d, x = np.where(near, flo, fhi), np.where(near, dlo, dhi), np.where(near, lo, hi)
    best_x, best_f = x.copy(), np.abs(f)
    todo = np.arange(x.size)
    while True:
        dx = f / d
        xn = x - dx
        ulp = np.spacing(np.maximum(np.abs(xn), ROOT_TOL))
        close = L2 * dx**2 <= 2 * np.abs(d) * ulp
        inside = (lo[todo] < xn) & (xn < hi[todo])
        mid = 0.5 * (lo[todo] + hi[todo])
        x = np.where(inside, xn, mid)
        # a bracket whose midpoint rounds onto an endpoint cannot shrink
        moving = inside | (~close & (lo[todo] < mid) & (mid < hi[todo]))
        todo, x, last = todo[moving], x[moving], close[moving]
        if not todo.size:
            break
        f = B.eval(x).real
        better = np.abs(f) < best_f[todo]
        best_x[todo[better]], best_f[todo[better]] = x[better], np.abs(f[better])
        go = ~last & (f != 0)
        todo, x, f = todo[go], x[go], f[go]
        if not todo.size:
            break
        d = Bp.eval(x).real
        up = np.sign(f) == sign_lo[todo]
        lo[todo[up]], hi[todo[~up]] = x[up], x[~up]
    found.append(best_x)
    return RootScan(np.sort(np.concatenate(found)))
