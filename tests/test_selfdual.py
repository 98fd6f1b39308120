import math
from fractions import Fraction as F

import numpy as np
import pytest

from crystalsum.qmodular import EtaProductSpec, family_l, family_spec, fplus
from crystalsum.selfdual import (
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


def test_functional_equation_poisson():
    s = fplus(POISSON, F(300))
    assert functional_equation_residual(s, 1j) <= 1e-10


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


def _pairing_residuals(m, ys):
    """check_selfdual residuals against e^{-pi y t^2}, i.e. z = iy."""
    suite = [TestFunction("gaussian", z=1j * y) for y in ys]
    return [rep.residual for rep in check_selfdual(m, suite)]


def test_tail_bound_of_a_sparse_series_is_finite():
    # 110 entries up to n = 47961 with gaps in the thousands: growth^gap
    # overflowed while rho1^n underflowed
    s = fplus(family_spec(1), F(6000))
    assert math.isfinite(s.tail_bound(1j)) and math.isfinite(s.tail_bound(0.3j))


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
    assert s.tail_bound(z) == pytest.approx(direct, rel=1e-12)


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
    from crystalsum.measures import DiscreteMeasure
    m = DiscreteMeasure([0.0], [1.0], (-1, 1))
    with pytest.raises(ValueError):
        _pairing_residuals(m, (1.0,))
