"""Two-sided verification of summation identities against test functions.

The primary test class is the gaussians e^{pi i z (t-x0)^2 + 2 pi i xi0 t}
(Im z > 0): their transforms are closed-form and their super-exponential
decay makes the window-truncation tails computable.  Smooth compactly
supported bumps are provided to honor the literal smooth-compact test
class, with quadrature-backed transforms carrying explicit error bars.

Every check produces a VerificationReport with both window-tail bounds,
each from `measures.window_tail`: the fitted tail model of the measure
integrated against the test function's envelope past the window edges.
`check_pair` and `check_selfdual` share one core that sums phi over one
measure and phihat over another and bounds both tails; a self-dual
measure is simply both.  "inconclusive" is a first-class verdict: when a
truncation tail dominates the residual target, or the measure has no
atoms, neither pass nor fail would be honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import DiscreteMeasure, FSPair, window_tail
from .selfdual import sqrt_i_over_z


@dataclass(frozen=True)
class TestFunction:
    """Gaussian e^{pi i z (t-x0)^2 + 2 pi i xi0 t} or a smooth plateau bump.

    Gaussians: z in the upper half-plane, real shift x0, modulation xi0.
    Bumps: exp(-exponent/(1-u^2)) on |u| < 1 with u = (t-center)/halfwidth.
    """

    kind: str
    z: complex = 1j
    x0: float = 0.0
    xi0: float = 0.0
    center: float = 0.0
    halfwidth: float = 1.0
    exponent: float = 1.0

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self):
        if self.kind not in ("gaussian", "bump"):
            raise ValueError("kind must be 'gaussian' or 'bump'")
        if not np.all(np.isfinite([self.z, self.x0, self.xi0, self.center,
                                   self.halfwidth, self.exponent])):
            raise ValueError("test function parameters must be finite")
        if self.kind == "gaussian" and complex(self.z).imag <= 0:
            raise ValueError("gaussian parameter needs Im z > 0")
        if self.kind == "bump" and (self.halfwidth <= 0 or self.exponent <= 0):
            raise ValueError("bump needs positive halfwidth and exponent")

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "gaussian":
            u = t - self.x0
            out = np.exp(1j * np.pi * self.z * u * u + 2j * np.pi * self.xi0 * t)
        else:
            u = (t - self.center) / self.halfwidth
            out = np.zeros(t.shape, dtype=complex) if t.shape else 0j
            inside = np.abs(u) < 1
            vals = np.exp(-self.exponent / (1 - u[inside] ** 2))
            if t.shape:
                out[inside] = vals
            else:
                out = complex(vals[0]) if inside else 0j
        return out if np.ndim(t) else complex(out)

    def envelope(self, t):
        """Pointwise bound on |phi(t)| (used by window-tail estimates)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "gaussian":
            v = complex(self.z).imag
            return np.exp(-np.pi * v * (t - self.x0) ** 2)
        u = np.abs(t - self.center) / self.halfwidth
        return np.where(u < 1, 1.0, 0.0)

    def transform_envelope(self, xi):
        """Pointwise bound on |phihat(xi)|."""
        xi = np.asarray(xi, dtype=float)
        if self.kind == "gaussian":
            z = complex(self.z)
            vp = (-1 / z).imag
            return abs(sqrt_i_over_z(z)) * np.exp(-np.pi * vp * (xi - self.xi0) ** 2)
        # |phihat| <= min(||phi||_1, ||phi''||_1/(2 pi xi)^2)
        l1 = self._bump_l1()
        l1pp = self._bump_l1_second_derivative()
        flat = np.full_like(xi, l1)
        with np.errstate(divide="ignore"):
            dec = l1pp / np.maximum((2 * np.pi * np.abs(xi)) ** 2, 1e-300)
        return np.minimum(flat, dec)

    def _bump_l1(self):
        ts = np.linspace(self.center - self.halfwidth,
                         self.center + self.halfwidth, 4001)
        return float(np.trapezoid(np.abs(self.eval(ts)), ts))

    def _bump_l1_second_derivative(self):
        ts = np.linspace(self.center - self.halfwidth,
                         self.center + self.halfwidth, 8001)
        vals = self.eval(ts).real
        d2 = np.gradient(np.gradient(vals, ts), ts)
        return float(np.trapezoid(np.abs(d2), ts))


def gaussian_ft(tf: TestFunction, xi) -> complex:
    """Closed-form transform of the gaussian test function.

    For g_z(t) = e^{pi i z t^2} the transform is sqrt(i/z) g_{-1/z}; the
    shift x0 multiplies by e^{-2 pi i (xi - xi0) x0} and the modulation xi0
    translates the frequency argument.
    """
    if tf.kind != "gaussian":
        raise ValueError("gaussian_ft needs a gaussian test function")
    z = complex(tf.z)
    xi = np.asarray(xi, dtype=float)
    u = xi - tf.xi0
    out = sqrt_i_over_z(z) * np.exp(1j * np.pi * (-1 / z) * u * u) \
        * np.exp(-2j * np.pi * u * tf.x0)
    return out if np.ndim(xi) else complex(out)


def bump_ft(tf: TestFunction, xi, tol: float = 1e-10):
    """Quadrature transform of a bump: (value, error bound).

    Adaptive composite Gauss-Legendre: panel counts double until two
    consecutive refinements agree within tol/2, separately for each
    frequency; errors if the panel budget cannot reach the tolerance.  The
    bump is sampled once per refinement level for all frequencies.  A
    scalar xi gives (complex, float), an array xi two arrays of its shape.
    """
    if tf.kind != "bump":
        raise ValueError("bump_ft needs a bump test function")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    a = tf.center - tf.halfwidth
    b = tf.center + tf.halfwidth
    nodes, weights = np.polynomial.legendre.leggauss(12)
    freqs = np.asarray(xi, dtype=float)
    flat = freqs.ravel()

    def level(n_panels, idx):
        edges = np.linspace(a, b, n_panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        T = (mids[:, None] + half * nodes[None, :]).ravel()
        W = np.broadcast_to(half * weights[None, :],
                            (n_panels, 12)).ravel()
        f = tf.eval(T)
        return np.array([np.sum(W * (f * np.exp(-2j * np.pi * T * x)))
                         for x in flat[idx]], dtype=complex)

    value = np.empty(flat.size, dtype=complex)
    error = np.empty(flat.size)
    todo = np.arange(flat.size)
    prev = level(8, todo)
    n = 16
    while todo.size and n <= 16384:
        cur = level(n, todo)
        err = np.abs(cur - prev)
        ok = err <= tol / 2
        value[todo[ok]] = cur[ok]
        error[todo[ok]] = np.maximum(err[ok], 1e-16)
        todo, prev = todo[~ok], cur[~ok]
        n *= 2
    if todo.size:
        raise RuntimeError(f"bump transform did not reach tol={tol:g} "
                           "within the panel budget")
    if freqs.ndim == 0:
        return complex(value[0]), float(error[0])
    return value.reshape(freqs.shape), error.reshape(freqs.shape)


def transform(tf: TestFunction, xi, tol: float = 1e-10):
    """(phihat(xi), error bound): closed form for gaussians, quadrature for bumps.

    The bound is 0.0 for gaussians; for bumps it has the shape of xi.
    """
    if tf.kind == "gaussian":
        return gaussian_ft(tf, xi), 0.0
    return bump_ft(tf, xi, tol)


@dataclass
class VerificationReport:
    lhs: complex
    rhs: complex
    residual: float
    tail_lhs: float
    tail_rhs: float
    verdict: str
    params: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {"lhs": [self.lhs.real, self.lhs.imag],
                "rhs": [self.rhs.real, self.rhs.imag],
                "residual": self.residual,
                "tails": [self.tail_lhs, self.tail_rhs],
                "verdict": self.verdict,
                "params": self.params}


def _report(lhs, rhs, tails, atoms, tol, params) -> VerificationReport:
    """Report with verdict "inconclusive" when a tail exceeds tol or is not
    finite, the residual is not finite, or atoms is 0."""
    residual = abs(lhs - rhs)
    if not all(t <= tol for t in tails) or not np.isfinite(residual) or not atoms:
        verdict = "inconclusive"
    else:
        verdict = "pass" if residual <= tol else "fail"
    return VerificationReport(lhs, rhs, residual, *tails, verdict, params)


def _sides(phi_m: DiscreteMeasure, hat_m: DiscreteMeasure, tf: TestFunction,
           quad_tol: float):
    """(sum w phi over phi_m, sum w phihat over hat_m, and their window tails).

    A bump's quadrature error bound is folded into the phihat tail.
    """
    hat, quad_err = transform(tf, hat_m.x, quad_tol)
    return (complex(np.sum(phi_m.w * tf.eval(phi_m.x))),
            complex(np.sum(hat_m.w * hat)),
            window_tail(phi_m, tf.envelope),
            window_tail(hat_m, tf.transform_envelope) + float(np.sum(quad_err)))


def check_pair(pair: FSPair, tf: TestFunction, tol: float = 1e-6,
               quad_tol: float = 1e-10) -> VerificationReport:
    """Both sides of the summation identity for one test function.

    lhs = sum over coefficient atoms a(lambda) phi(lambda); rhs = sum over
    measure atoms w phihat(gamma).  Each tail is `window_tail` of its
    measure against the envelope of phi or phihat; a bump's quadrature
    error bound is folded into the rhs tail.  A pair whose measure has no
    atoms is "inconclusive".
    """
    phi, hat, tail_phi, tail_hat = _sides(pair.a, pair.mu, tf, quad_tol)
    return _report(phi, hat, (tail_phi, tail_hat), len(pair.mu), tol,
                   {"check": "pair", "tol": tol,
                    "test_function": _tf_params(tf)})


def check_selfdual(m: DiscreteMeasure, suite, tol: float = 1e-6,
                   quad_tol: float = 1e-10):
    """sum w phihat(x) = sign sum w phi(x) for each test function.

    Every report on a measure with no atoms is "inconclusive".
    """
    if m.dual_sign is None:
        raise ValueError("measure carries no duality sign tag")
    reports = []
    for tf in suite:
        phi, hat, tail_phi, tail_hat = _sides(m, m, tf, quad_tol)
        reports.append(_report(
            hat, m.dual_sign * phi, (tail_hat, tail_phi), len(m), tol,
            {"check": "selfdual", "sign": m.dual_sign, "tol": tol,
             "test_function": _tf_params(tf)}))
    return reports


_SUITE_Y = (0.5, 3.0)       # range of Im z in gaussian_suite
_SUITE_SHIFT = (-2.0, 2.0)  # range of the shift x0 in gaussian_suite


def gaussian_suite(count: int = 10, seed: int = 0):
    """Deterministic suite of pure-decay gaussians with random shifts."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        y = float(rng.uniform(*_SUITE_Y))
        x0 = float(rng.uniform(*_SUITE_SHIFT))
        out.append(TestFunction("gaussian", z=1j * y, x0=x0))
    return out


def _tf_params(tf: TestFunction) -> dict:
    if tf.kind == "gaussian":
        return {"kind": "gaussian", "z": [complex(tf.z).real, complex(tf.z).imag],
                "x0": tf.x0, "xi0": tf.xi0}
    return {"kind": "bump", "center": tf.center, "halfwidth": tf.halfwidth,
            "exponent": tf.exponent}
