import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest

from crystalsum.cli import FE_HEIGHTS
from crystalsum.measures import DiscreteMeasure
from crystalsum.qmodular import EtaProductSpec, family_l, family_spec, fplus
from crystalsum.selfdual import (
    _evaluate,
    _float_view,
    _tail_bound,
    functional_equation_residual,
    selfdual_measure,
    sqrt_i_over_z,
)
from crystalsum.verifier import TestFunction, check_selfdual

POISSON = EtaProductSpec(4, {1: -2, 2: 5, 4: -2})
GUINAND = EtaProductSpec(4, {1: F(2, 3), 2: F(-1, 3), 4: F(2, 3)})


def test_sqrt_branch():
    assert sqrt_i_over_z(1j) == pytest.approx(1.0)
    assert sqrt_i_over_z(2j) == pytest.approx(1 / math.sqrt(2))
    # continuity on a small arc through the imaginary axis
    vals = [sqrt_i_over_z(complex(x, 1.0)) for x in np.linspace(-1, 1, 41)]
    steps = np.abs(np.diff(vals))
    assert steps.max() < 0.1


def test_poisson_measure_is_doubled_integer_comb():
    s = fplus(POISSON, F(120))
    m = selfdual_measure(s, (-10.5, 10.5))
    assert np.allclose(m.positions(), np.arange(-10, 11), atol=1e-12)
    assert np.allclose(m.weights().real, 2.0)         # incl. the merged 0
    assert m.dual_sign == +1


def test_guinand_measure_nodes():
    s = fplus(GUINAND, F(40))
    m = selfdual_measure(s, (0.0, 6.0))
    expected = [math.sqrt(k + 1 / 9) for k in range(36)
                if math.sqrt(k + 1 / 9) <= 6.0]
    assert np.allclose(m.positions(), expected, atol=1e-12)
    # support contains the arithmetic progression 3m + 1/3 (n = 9m^2 + 2m)
    for mm in (0, 1):
        assert any(abs(x - (3 * mm + 1 / 3)) < 1e-12 for x in m.positions())


def test_empty_series_empty_measure():
    s = fplus(GUINAND, F(1, 24))
    assert len(selfdual_measure(s, (-5, 5))) == 0


def tail_bound(s, z):
    return _tail_bound(s, *_float_view(s), z)


def loop_value(s, z):
    """The per-entry loop that the array view replaced, kept as its reference."""
    scale = 2j * math.pi / (s.denom * math.sqrt(s.N))
    total = 0j
    for n, c in s.entries:
        total += float(c) * cmath.exp(scale * n * z)
    return total


@pytest.mark.parametrize("which", ["guinand-300", "minus-200"])
def test_array_value_is_the_loop_bit_for_bit(which):
    # the README eta series; np.sum in place of the left-to-right sum moves
    # the last bits
    s = fplus(GUINAND, F(300)) if which == "guinand-300" else family_l(F(1), F(200))[2]
    n, c = _float_view(s)
    for z in (0.3j, 0.8j, 1.25j, 1.5j, 2j / 3, 0.35 + 1.1j, -1 / (0.35 + 1.1j)):
        assert _evaluate(s, n, c, z) == loop_value(s, z)


def test_functional_equation_poisson():
    # not at z = i, the fixed point of z -> -1/z, where the residual is 0
    # for any plus-family coefficients
    s = fplus(POISSON, F(300))
    assert functional_equation_residual(s, 0.8j) <= 1e-10


def test_functional_equation_guinand():
    s = fplus(GUINAND, F(300))
    assert functional_equation_residual(s, 0.8j) <= 1e-8
    assert functional_equation_residual(s, 0.35 + 1.1j) <= 1e-8


def test_functional_equation_minus_family():
    _, _, minus = family_l(F(1), F(60))
    assert minus.sign == -1
    assert functional_equation_residual(minus, 1j * math.sqrt(2)) <= 1e-8


def test_residual_monotone_in_order():
    # at a low line the truncation tail dominates and must shrink with order
    z = 0.05j
    res = [functional_equation_residual(fplus(GUINAND, F(o)), z)
           for o in (100, 200, 400)]
    assert res[1] <= 1.1 * res[0]
    assert res[2] <= 1.1 * res[1]


def test_tail_cap_rejects_small_order():
    s = fplus(GUINAND, F(30))
    with pytest.raises(ValueError):
        functional_equation_residual(s, 0.01j, tail_cap=1e-12)


@pytest.mark.parametrize("order", [F(1, 2), F(2), F(5)])
def test_tail_cap_refuses_a_series_too_short_to_bound_its_tail(order):
    # 1 to 3 entries: no block of coefficients to estimate the growth from,
    # so the tail is unknown (these residuals read 0.04 to 1.8e-7)
    s = fplus(family_spec(1), order)
    assert 1 <= len(s.entries) < 4 and tail_bound(s, 1.25j) == math.inf
    for y in FE_HEIGHTS:
        with pytest.raises(ValueError, match="truncation tail inf exceeds"):
            functional_equation_residual(s, 1j * y, tail_cap=1e-6)


def _pairing_residuals(m, ys):
    """check_selfdual residuals against e^{-pi y t^2}, i.e. z = iy."""
    suite = [TestFunction("gaussian", z=1j * y) for y in ys]
    return [rep.residual for rep in check_selfdual(m, suite)]


def test_tail_bound_of_a_sparse_series_is_finite():
    # 110 entries up to n = 47961 with gaps in the thousands: growth^gap
    # overflowed while rho1^n underflowed
    s = fplus(family_spec(1), F(6000))
    assert math.isfinite(tail_bound(s, 1j)) and math.isfinite(tail_bound(s, 0.3j))


# tail_bound at the README orders as the direct product m2 growth^gap rho1^n
# gave it, wherever that product is a normal double
@pytest.mark.parametrize("which, z, direct", [
    ("plus", 0.3j, 3.3852323014227064e-118),
    ("plus", 0.1 + 0.5j, 9.31132477041493e-201),
    ("minus", 1j, 1.605148301381343e-228),
    ("minus", 0.8j, 6.478486584807137e-174),
    ("minus", 0.3j, math.inf),
])
def test_tail_bound_in_log_space_equals_the_direct_product(which, z, direct):
    s = fplus(GUINAND, F(300)) if which == "plus" else family_l(F(1), F(200))[2]
    assert tail_bound(s, z) == pytest.approx(direct, rel=1e-12)


def test_gaussian_pairing_guinand():
    s = fplus(GUINAND, F(1000))          # 2000 atoms (both signs)
    m = selfdual_measure(s, (-40.0, 40.0))
    assert len(m) == 2000                # no zero node (k=1), so no merge
    for res in _pairing_residuals(m, (0.5, 1.0, 2.0)):
        assert res <= 1e-6


def test_gaussian_pairing_minus_family():
    _, _, minus = family_l(F(1), F(500))
    m = selfdual_measure(minus, (-40.0, 40.0))
    assert m.dual_sign == -1
    for res in _pairing_residuals(m, (0.5, 1.0, 2.0)):
        assert res <= 1e-6


def test_pairing_requires_sign_tag():
    m = DiscreteMeasure([0.0], [1.0], (-1, 1))
    with pytest.raises(ValueError):
        _pairing_residuals(m, (1.0,))
