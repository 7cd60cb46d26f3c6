"""Compact Lie algebras in real antisymmetric matrix representations.

Provides the structure constants f^{ab}_c, the generator matrices M_a and the
trace normalization C_M > 0 defined by Tr(M_a M_b) = -C_M delta_{ab}.  The
built-in family is so(n) in its adjoint representation, which has exact
integer matrix entries, so downstream anticommutator and commutator tests can
be exact rather than tolerance-based.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LieAlgebraRep:
    """A compact Lie algebra with real antisymmetric generators.

    dim_g: number of generators.
    d:     representation dimension (number of fermion flavours).
    f:     structure constants, f[a, b, c] = f^{ab}_c.
    M:     generator matrices, M[a] of shape (d, d), integer-valued here.
    C_M:   positive normalization, Tr(M_a M_b) = -C_M delta_{ab}.
    """

    name: str
    dim_g: int
    d: int
    f: np.ndarray
    M: np.ndarray
    C_M: float

    def __post_init__(self):
        self.f.setflags(write=False)
        self.M.setflags(write=False)


@dataclass
class RepValidation:
    antisymmetry: float
    commutation: float
    jacobi: float
    trace_norm: float
    structural_errors: list = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max(self.antisymmetry, self.commutation, self.jacobi,
                   self.trace_norm)

    @property
    def passed(self) -> bool:
        return not self.structural_errors and self.max_residual <= 1e-12


def _so_defining_basis(n: int) -> np.ndarray:
    """Basis E_ab - E_ba, a < b, of n x n antisymmetric matrices, (g, n, n)."""
    a, b = np.triu_indices(n, 1)
    basis = np.zeros((len(a), n, n), dtype=np.int64)
    basis[np.arange(len(a)), a, b] = 1
    return basis - basis.transpose(0, 2, 1)


def _levi_civita3() -> np.ndarray:
    a, b, c = np.indices((3, 3, 3))
    return (a - b) * (b - c) * (c - a) // 2


def build_so_adjoint(n: int) -> LieAlgebraRep:
    """Adjoint representation of so(n), n >= 3.

    For n = 3 the generators are (M_a)_{ij} = -eps_{aij}, dim_g = d = 3 and
    C_M = 2. All entries are exact integers.
    """
    if n < 3:
        raise ValueError(f"so({n}) adjoint not supported, need n >= 3")
    if n == 3:
        eps = _levi_civita3()
        rep = LieAlgebraRep(name="so3-adjoint", dim_g=3, d=3, f=eps, M=-eps,
                            C_M=2.0)
    else:
        A = _so_defining_basis(n)
        # f^{ab}_c from [A_a, A_b] = f^{ab}_c A_c; the defining basis is
        # trace-orthogonal with Tr(A_a A_b) = -2 delta_ab, and t[a, b, c] is
        # Tr(A_a A_b A_c)
        t = np.einsum("aij,bjk,cki->abc", A, A, A, optimize=True)
        f = -(t - t.transpose(1, 0, 2)) // 2
        M = f.transpose(0, 2, 1)          # (M_a)_{cb} = f^{ab}_c
        cm = int(np.sum(M[0] * M[0]))   # -Tr(M M) for antisymmetric M
        rep = LieAlgebraRep(name=f"so{n}-adjoint", dim_g=len(A), d=len(A),
                            f=f, M=M, C_M=float(cm))
    check = validate_rep(rep)
    if not check.passed:
        raise AssertionError(f"so({n}) adjoint construction failed: {check}")
    return rep


def validate_rep(rep: LieAlgebraRep) -> RepValidation:
    """Residuals of the four defining invariants of a LieAlgebraRep."""
    errors = []
    f = np.asarray(rep.f, dtype=float)
    M = np.asarray(rep.M, dtype=float)
    if f.shape != (rep.dim_g,) * 3:
        errors.append(f"f has shape {f.shape}, expected {(rep.dim_g,) * 3}")
    if M.shape != (rep.dim_g, rep.d, rep.d):
        errors.append(
            f"M has shape {M.shape}, expected {(rep.dim_g, rep.d, rep.d)}")
    if errors:
        return RepValidation(np.inf, np.inf, np.inf, np.inf, errors)

    antisym = max(float(np.abs(M[a] + M[a].T).max()) for a in range(rep.dim_g))

    comm = 0.0
    for a in range(rep.dim_g):
        for b in range(rep.dim_g):
            lhs = M[a] @ M[b] - M[b] @ M[a]
            rhs = np.tensordot(f[a, b], M, axes=(0, 0))
            comm = max(comm, float(np.linalg.norm(lhs - rhs)))

    jac = float(np.abs(f + np.swapaxes(f, 0, 1)).max())
    # Jacobi: f^{ab}_e f^{ec}_d + f^{bc}_e f^{ea}_d + f^{ca}_e f^{eb}_d = 0
    j = (np.einsum("abe,ecd->abcd", f, f)
         + np.einsum("bce,ead->abcd", f, f)
         + np.einsum("cae,ebd->abcd", f, f))
    jac = max(jac, float(np.abs(j).max()))

    gram = -np.einsum("aij,bji->ab", M, M)
    trace = float(np.abs(gram - rep.C_M * np.eye(rep.dim_g)).max())

    return RepValidation(antisym, comm, jac, trace, errors)


_REGISTRY: dict[str, LieAlgebraRep] = {}

# The largest n of a built-in so(n).  get_rep in a fresh process on a 2-vCPU
# machine, n = 6..12: 0.004, 0.010, 0.030, 0.088, 0.26, 0.63 and 1.4 s, at a
# peak RSS of 30, 33, 40, 57, 95, 174 and 328 MiB.  validate_rep's Jacobi sum
# holds dim_g^4 float64 values per term: 549 MB at so(14), 10 GB at so(20).
MAX_SO_N = 10


def get_rep(name: str) -> LieAlgebraRep:
    """Look up a representation by CLI name 'so<n>-adjoint', n an ASCII
    decimal with no sign, space or leading zero; n above MAX_SO_N raises
    ValueError before anything is built."""
    if name not in _REGISTRY:
        match = re.fullmatch(r"so([1-9][0-9]*)-adjoint", name)
        if match is None:
            raise KeyError(f"unknown representation {name!r}")
        if int(match[1]) > MAX_SO_N:
            raise ValueError(f"so({match[1]}) is larger than so({MAX_SO_N}), "
                             f"the largest built in")
        _REGISTRY[name] = build_so_adjoint(int(match[1]))
    return _REGISTRY[name]
