import pytest

from km2d.lie_core import build_so_adjoint
from km2d.harmonics import structure_table


def _matrix(op, basis) -> dict:
    inside = set(basis)
    return {(t, s): complex(c) for s in basis
            for t, c in op.apply_state(s).items()
            if t in inside and complex(c) != 0}


@pytest.fixture(scope="session")
def matrix():
    """matrix(op, basis): the nonzero <t|op|s> on basis, keyed (t, s)."""
    return _matrix


@pytest.fixture(scope="session")
def so3():
    return build_so_adjoint(3)


@pytest.fixture(scope="session")
def table4():
    return structure_table(4)


@pytest.fixture(scope="session")
def table8():
    return structure_table(8)
