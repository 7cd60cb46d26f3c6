import math
from fractions import Fraction

import pytest

from km2d.regulator import (
    HeatSum,
    UnresolvedPrescriptionError,
    delta_reg_zero,
    heat_sum_finite_part,
    hurwitz_zeta_at_zero,
    richardson_finite_part,
    solve_a_m,
)
from oracles import (
    delta_eps_pairing,
    heat_sum_numeric,
    sphere_degree_sum,
    sphere_degree_sum_model,
    torus_delta_eps,
)


# ---------------------------------------------------------------------------
# zeta values and analytic finite parts
# ---------------------------------------------------------------------------

def test_zeta_at_zero():
    assert 2 * hurwitz_zeta_at_zero(0.0) == 1.0
    assert 2 * hurwitz_zeta_at_zero(-0.5) - 1 == 1.0
    assert hurwitz_zeta_at_zero(0.5) == 0.0


@pytest.mark.parametrize("offset,expected", [(0.0, 0.5), (-0.5, 1.0), (1.0, -0.5)])
def test_heat_sum_step1(offset, expected):
    pole, finite = heat_sum_finite_part(HeatSum(1, offset))
    assert pole == 0.5
    assert finite == expected
    assert finite == hurwitz_zeta_at_zero(offset)


def test_heat_sum_step2():
    pole, finite = heat_sum_finite_part(HeatSum(2, 0.6))
    assert pole == 0.25
    assert finite == hurwitz_zeta_at_zero(0.3)


def test_heat_sum_rejects_bad_step():
    with pytest.raises(ValueError):
        HeatSum(0, 0.0)


@pytest.mark.parametrize("eps0", [0.1, 0.05, 0.025])
@pytest.mark.parametrize("offset", [0.0, -0.5, 1.0, 0.37])
def test_richardson_matches_analytic(eps0, offset):
    hs = HeatSum(1, offset)
    pole, finite = richardson_finite_part(
        lambda e: heat_sum_numeric(hs, e), eps0=eps0)
    apole, afinite = heat_sum_finite_part(hs)
    assert pole == pytest.approx(apole, abs=1e-9)
    assert finite == pytest.approx(afinite, abs=1e-8)


def test_richardson_step2():
    hs = HeatSum(2, 1.3)
    pole, finite = richardson_finite_part(
        lambda e: heat_sum_numeric(hs, e), eps0=0.05)
    assert pole == pytest.approx(0.25, abs=1e-9)
    assert finite == pytest.approx(hurwitz_zeta_at_zero(0.65), abs=1e-8)


# ---------------------------------------------------------------------------
# torus coincident-point function
# ---------------------------------------------------------------------------

def test_delta_eps_closed_forms():
    assert torus_delta_eps(0.0, 0.1, "NS") == pytest.approx(
        2 / (1 - math.exp(-0.2)), abs=1e-12)
    assert torus_delta_eps(0.0, 0.1, "R") == pytest.approx(
        math.exp(0.1) * (1 + math.exp(-0.2)) / (1 - math.exp(-0.2)), abs=1e-12)


def test_delta_eps_requires_positive_eps():
    with pytest.raises(ValueError):
        torus_delta_eps(0.0, 0.0, "NS")


@pytest.mark.parametrize("sector,nvals", [
    ("NS", [Fraction(k, 2) for k in (-7, -3, -1, 1, 3, 7)]),
    ("R", [-3, -1, 0, 1, 2, 3]),
])
def test_delta_eps_pairing(sector, nvals):
    for eps in (0.1, 0.05):
        for n in nvals:
            got = delta_eps_pairing(n, eps, sector)
            expected = math.exp(-2 * eps * (abs(float(n)) - 0.5))
            assert got == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# regularized multiplicities
# ---------------------------------------------------------------------------

def test_delta_reg_is_one_everywhere_supported():
    assert delta_reg_zero("torus", "NS") == 1.0
    assert delta_reg_zero("torus", "R") == 1.0
    for m in (0, 1, 2, 5):
        assert delta_reg_zero("sphere", "R", m) == pytest.approx(1.0, abs=1e-12)


def test_sphere_ns_prescription_unresolved():
    with pytest.raises(UnresolvedPrescriptionError):
        delta_reg_zero("sphere", "NS")


def test_solve_a_m_is_linear_solve():
    # finite part is affine in the offset, so the solution is closed-form
    for m in (0, 1, 2, 3):
        assert solve_a_m(m) == pytest.approx(1 - 2 * abs(m) - math.pi / 2,
                                             abs=1e-12)


def test_solve_a_m_defining_property():
    for m in (0, 1, 2):
        a_m = solve_a_m(m)
        val = (4 / math.pi) * heat_sum_finite_part(
            HeatSum(2, 2 * abs(m) + a_m))[1]
        assert val == pytest.approx(1.0, abs=1e-12)


def test_sphere_degree_sum_matches_asymptote():
    # partial sums at two eps values give consistent constant offsets,
    # validating the geometric large-degree model within 1 percent
    for m in (0, 1, 2):
        eps_a, eps_b = 0.05, 0.07
        s_a = sphere_degree_sum(m, eps_a, 400)
        c_a = s_a - sphere_degree_sum_model(m, eps_a)
        c_b = sphere_degree_sum(m, eps_b, 400) - sphere_degree_sum_model(m, eps_b)
        assert abs(c_a - c_b) <= 0.01 * s_a
