"""Current-algebra and Virasoro generators as normal-ordered bilinears.

One mode-space form for both geometries (targets live on integer lattices):

    T^a = (i/2) M^a_{ij} sum_{x,y} c_{xy} :b^i_x b^j_y:
    L   = (1/2) sum_i sum_{x,y} (-z_x) c_{xy} :b^i_x b^i_y:  + lam * d at 0

The pairs (x, y) add up to the target, z_x is the z mode of x (n on the
torus, m1 on the sphere), and only the pair coefficient c differs:

torus, x = (n, q), y = (m-n, p-q):  c = w(q) w(p-q), w(q) = exp(-eps(|q| - 1/2))
sphere R, x = (l1, m1), y = (l2, m2):  c = c_{l1,m1,l2,m2}^{l,m}, the
    triple-product table of the Legendre family
sphere NS:  not built (ValueError), as its degree sums have no finite-part
    prescription and the certifier stops before them

Bilinear sums run over lattice points with BOTH factors inside the cutoffs;
out-of-range terms are dropped here (the verifier's window rule guarantees
exactness where it is claimed).  Coefficients are complex or float; at
eps = 0 every torus coefficient is a dyadic rational, which they carry
without rounding.
"""

from __future__ import annotations

import math

from .fock import Mode, ModeOperator, SectorConfig, add_normal_ordered
from .harmonics import StructureTable
from .lie_core import LieAlgebraRep

__all__ = [
    "lam_constant",
    "torus_T",
    "torus_L",
    "sphere_T",
    "sphere_L",
    "TableCoverageError",
]


class TableCoverageError(Exception):
    """A structure table does not cover a required degree."""

    def __init__(self, degree, l_max):
        self.degree = degree
        self.l_max = l_max
        super().__init__(
            f"structure table covers degrees <= {l_max}, need {degree}")


def lam_constant(cfg: SectorConfig) -> float:
    """Ground-level constant per flavour: 1/16 for R, 0 for NS (z direction)."""
    return 1 / 16 if cfg.z_sector == "R" else 0.0


def _weight(k2: int, eps: float) -> float:
    return math.exp(-eps * (abs(k2) / 2.0 - 0.5))


def _nonzero_entries(rep: LieAlgebraRep, a: int):
    out = []
    for i in range(rep.d):
        for j in range(rep.d):
            v = int(rep.M[a - 1][i, j])
            if v:
                out.append((i + 1, j + 1, v))
    return out


def _current(rep: LieAlgebraRep, a: int, cfg: SectorConfig,
             pairs) -> ModeOperator:
    if rep.d != cfg.d:
        raise ValueError(f"rep has d={rep.d}, sector has d={cfg.d}")
    entries = _nonzero_entries(rep, a)
    terms: dict = {}
    for x, y, _, c in pairs:
        for i, j, mij in entries:
            add_normal_ordered(terms, cfg, Mode(i, *x), Mode(j, *y),
                               complex(0.0, 0.5 * mij * c))
    return ModeOperator(cfg, terms)


def _virasoro(cfg: SectorConfig, pairs, at_zero: bool) -> ModeOperator:
    terms: dict = {}
    for x, y, z, c in pairs:
        if z == 0:
            continue
        coeff = 0.5 * (-z) * c
        for i in range(1, cfg.d + 1):
            add_normal_ordered(terms, cfg, Mode(i, *x), Mode(i, *y), coeff)
    lam = lam_constant(cfg)
    if at_zero and lam:
        terms[()] = lam * cfg.d
    return ModeOperator(cfg, terms)


# ---------------------------------------------------------------------------
# Torus
# ---------------------------------------------------------------------------

def _torus_pairs(cfg: SectorConfig, m: int, p: int, eps: float):
    """(x, y, z, c) of the bilinear at (m, p): x = (n, q), y = (m-n, p-q)."""
    m2, p2 = 2 * int(m), 2 * int(p)
    for n2 in cfg.z_lattice():
        if abs(m2 - n2) > cfg.m2_cut:
            continue
        for q2 in cfg.angular_lattice():
            if abs(p2 - q2) > cfg.p2_cut:
                continue
            c = 1.0 if eps == 0.0 else _weight(q2, eps) * _weight(p2 - q2, eps)
            yield (n2, q2, 0), (m2 - n2, p2 - q2, 0), n2 / 2, c


def torus_T(rep: LieAlgebraRep, a: int, m: int, p: int, cfg: SectorConfig,
            eps: float = 0.0) -> ModeOperator:
    """Current generator T^a at bilinear mode (m, p) on the torus."""
    return _current(rep, a, cfg, _torus_pairs(cfg, m, p, eps))


def torus_L(m: int, p: int, cfg: SectorConfig,
            eps: float = 0.0) -> ModeOperator:
    """Virasoro generator at bilinear mode (m, p) on the torus."""
    return _virasoro(cfg, _torus_pairs(cfg, m, p, eps), (m, p) == (0, 0))


# ---------------------------------------------------------------------------
# Sphere
# ---------------------------------------------------------------------------

def _check_coverage(cfg: SectorConfig, table: StructureTable, l: int, m: int):
    """Raise unless the table reaches target (l, m) and the sector's modes."""
    if l < abs(m):
        raise ValueError(f"target needs l >= |m|, got ({l}, {m})")
    need = max(l, cfg.l2_cut // 2)
    if table.L_max < need:
        raise TableCoverageError(need, table.L_max)


def _sphere_pairs(cfg: SectorConfig, table: StructureTable, l: int, m: int):
    """(x, y, z, c) of the bilinear at target (l, m); z is the m of x."""
    if cfg.z_sector != "R":
        raise ValueError("the NS sphere has no finite-part prescription")
    _check_coverage(cfg, table, l, m)
    l2cut = cfg.l2_cut
    for l1 in range(l2cut // 2 + 1):
        for m1 in range(-l1, l1 + 1):
            m2 = m - m1
            for l2 in range(abs(m2), l2cut // 2 + 1):
                c = table.get(l1, m1, l2, m2, l)
                if c != 0.0:
                    yield (2 * l1, 2 * m1, 0), (2 * l2, 2 * m2, 0), m1, c


def sphere_T(rep: LieAlgebraRep, a: int, l: int, m: int, cfg: SectorConfig,
             table: StructureTable) -> ModeOperator:
    """Current generator T^a at target (l, m) on the sphere."""
    return _current(rep, a, cfg, _sphere_pairs(cfg, table, l, m))


def sphere_L(l: int, m: int, cfg: SectorConfig,
             table: StructureTable) -> ModeOperator:
    """Virasoro generator at target (l, m) on the sphere."""
    return _virasoro(cfg, _sphere_pairs(cfg, table, l, m), (l, m) == (0, 0))
