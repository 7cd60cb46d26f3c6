import numpy as np
import pytest

from km2d.lie_core import (LieAlgebraRep, _levi_civita3, build_so_adjoint,
                            get_rep, validate_rep)
from oracles import levi_civita3_reference, so_adjoint_reference


def test_so3_golden_values(so3):
    assert so3.C_M == 2
    assert so3.d == 3
    assert so3.dim_g == 3
    # (M_a)_{ij} = -eps_{aij}
    assert so3.M[0][1, 2] == -1
    assert so3.M[0][2, 1] == 1


def test_so3_commutator_oracle(so3):
    # [M_1, M_2] = M_3 with f_12^3 = 1, by direct matrix arithmetic
    comm = so3.M[0] @ so3.M[1] - so3.M[1] @ so3.M[0]
    assert np.array_equal(comm, so3.M[2])
    assert so3.f[0, 1, 2] == 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_validate_clean(n):
    rep = build_so_adjoint(n)
    out = validate_rep(rep)
    assert out.passed
    assert out.max_residual == 0.0


def test_reject_small_n():
    with pytest.raises(ValueError):
        build_so_adjoint(2)


def test_symmetrized_generator_fails(so3):
    M = so3.M.copy()
    M[0] = np.abs(M[0])          # no longer antisymmetric
    bad = LieAlgebraRep("bad", 3, 3, so3.f.copy(), M, 2.0)
    out = validate_rep(bad)
    assert out.antisymmetry > 0
    assert not out.passed


def test_flipped_structure_constant_fails(so3):
    f = so3.f.copy()
    f[0, 1, 2] = -1
    f[1, 0, 2] = 1
    bad = LieAlgebraRep("bad", 3, 3, f, so3.M.copy(), 2.0)
    out = validate_rep(bad)
    # residual of [M_1, M_2] - f_12^c M_c is 2 ||M_3||
    assert out.commutation == pytest.approx(2 * np.linalg.norm(so3.M[2]))
    assert not out.passed


def test_dimension_mismatch_is_structural(so3):
    bad = LieAlgebraRep("bad", 4, 3, so3.f.copy(), so3.M.copy(), 2.0)
    out = validate_rep(bad)
    assert out.structural_errors
    assert not out.passed


def test_registry():
    rep = get_rep("so3-adjoint")
    assert rep.C_M == 2
    assert get_rep("so4-adjoint").d == 6
    with pytest.raises(KeyError):
        get_rep("su2-fundamental")


@pytest.mark.parametrize("n", range(3, 9))
def test_so_adjoint_matches_loop_reference(n):
    rep = build_so_adjoint(n)
    f, M, C_M = so_adjoint_reference(n)
    for got, want in ((rep.f, f), (rep.M, M)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    assert rep.C_M == C_M and isinstance(rep.C_M, float)
    assert rep.dim_g == rep.d == n * (n - 1) // 2


def test_levi_civita3_is_the_permutation_table():
    got = _levi_civita3()
    assert got.dtype == np.int64
    assert np.array_equal(got, levi_civita3_reference())

