"""Current-algebra and Virasoro generators as normal-ordered bilinears.

Mode-space forms (targets always live on integer lattices):

torus, with w(q) = exp(-eps(|q| - 1/2)):
    T^a_{mp} = (i/2) M^a_{ij} sum_{n,q} w(q) w(p-q) :b^i_{nq} b^j_{m-n,p-q}:
    L_{mp}   = (1/2) sum_i sum_{n,q} (-n) w(q) w(p-q) :b^i_{nq} b^i_{m-n,p-q}:
               + lam * d  on (m,p) = (0,0)

sphere (R), with c the triple-product table of the Legendre family:
    T^a_{lm} = (i/2) M^a_{ij} sum c_{l1,m1,l2,m2}^{l,m} :b^i_{l1m1} b^j_{l2m2}:
    L_{lm}   = (1/2) sum_i sum (-m1) c :b^i b^i: + lam * d on (0,0)

sphere (NS): same shape with quadrature projections of the half-integer
basis-function pairs onto Q_{lm}, including the 1/2 from the field's
1/sqrt2 normalization and the sum over both eta branches.

Bilinear sums run over lattice points with BOTH factors inside the cutoffs;
out-of-range terms are dropped here (the verifier's window rule guarantees
exactness where it is claimed).  Coefficients are complex or float; at
eps = 0 every torus coefficient is a dyadic rational, which they carry
without rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .fock import (Mode, ModeOperator, SectorConfig, TableCoverageError,
                   add_normal_ordered)
from .harmonics import StructureTable, triple_product_ns
from .lie_core import LieAlgebraRep

__all__ = [
    "lam_constant",
    "torus_T",
    "torus_L",
    "torus_symbol",
    "sphere_T",
    "sphere_L",
    "TableCoverageError",
]


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


# ---------------------------------------------------------------------------
# Torus
# ---------------------------------------------------------------------------

def _torus_bilinear_lattice(cfg: SectorConfig, m2: int, p2: int):
    for n2 in cfg.z_lattice():
        if abs(m2 - n2) > cfg.m2_cut:
            continue
        for q2 in cfg.angular_lattice():
            if abs(p2 - q2) > cfg.p2_cut:
                continue
            yield n2, q2


def torus_T(rep: LieAlgebraRep, a: int, m: int, p: int, cfg: SectorConfig,
            eps: float = 0.0) -> ModeOperator:
    """Current generator T^a at bilinear mode (m, p) on the torus.

    All eps = 0 coefficients are dyadic rationals, so complex floats carry
    them without rounding.
    """
    if rep.d != cfg.d:
        raise ValueError(f"rep has d={rep.d}, sector has d={cfg.d}")
    m2, p2 = 2 * int(m), 2 * int(p)
    entries = _nonzero_entries(rep, a)
    terms: dict = {}
    for n2, q2 in _torus_bilinear_lattice(cfg, m2, p2):
        scale0 = 1.0 if eps == 0.0 else _weight(q2, eps) * _weight(p2 - q2, eps)
        for i, j, mij in entries:
            coeff = complex(0.0, 0.5 * mij * scale0)
            x = Mode(i, n2, q2, 0)
            y = Mode(j, m2 - n2, p2 - q2, 0)
            add_normal_ordered(terms, cfg, x, y, coeff)
    return ModeOperator(cfg, terms)


def torus_L(m: int, p: int, cfg: SectorConfig,
            eps: float = 0.0) -> ModeOperator:
    """Virasoro generator at bilinear mode (m, p) on the torus."""
    m2, p2 = 2 * int(m), 2 * int(p)
    lam = lam_constant(cfg)
    terms: dict = {}
    for n2, q2 in _torus_bilinear_lattice(cfg, m2, p2):
        if n2 == 0:
            continue
        if eps == 0.0:
            coeff = -n2 / 4.0
        else:
            coeff = (-n2 / 4.0) * _weight(q2, eps) * _weight(p2 - q2, eps)
        for i in range(1, cfg.d + 1):
            x = Mode(i, n2, q2, 0)
            y = Mode(i, m2 - n2, p2 - q2, 0)
            add_normal_ordered(terms, cfg, x, y, coeff)
    if m2 == 0 and p2 == 0 and lam:
        terms[()] = lam * cfg.d
    return ModeOperator(cfg, terms)


def torus_symbol(kind: str, rep: LieAlgebraRep, a, n2: int):
    """(F, scale) of the torus generators' pair coefficients, as matrices.

    torus_T and torus_L put scale * F_{ij} w(q) w(p-q) on the pair
    :b^i_{n,q} b^j_{m-n,p-q}: with doubled z index n2 = 2n: T^a has
    F = i M^a and scale 1/2, L has F = -n2 times the identity and scale
    1/4.  F has Gaussian-integer entries; the scale is a dyadic float.
    """
    if kind == "T":
        return 1j * rep.M[a - 1], 0.5
    return -n2 * np.eye(rep.d), 0.25


# ---------------------------------------------------------------------------
# Sphere
# ---------------------------------------------------------------------------

def _require_coverage(cfg: SectorConfig, table: StructureTable, l: int):
    need = max(l, cfg.l2_cut // 2 if cfg.z_sector == "R" else
               (cfg.l2_cut + 1) // 2)
    if table.L_max < need:
        raise TableCoverageError(need, table.L_max)


def _sphere_r_pairs(cfg: SectorConfig, table: StructureTable, l: int, m: int):
    lcut = cfg.l2_cut // 2
    for l1 in range(lcut + 1):
        for m1 in range(-l1, l1 + 1):
            m2 = m - m1
            for l2 in range(abs(m2), lcut + 1):
                c = table.get(l1, m1, l2, m2, l)
                if c != 0.0:
                    yield l1, m1, l2, m2, c


def sphere_T(rep: LieAlgebraRep, a: int, l: int, m: int, cfg: SectorConfig,
             table: StructureTable) -> ModeOperator:
    """Current generator T^a at target (l, m) on the sphere."""
    if rep.d != cfg.d:
        raise ValueError(f"rep has d={rep.d}, sector has d={cfg.d}")
    if l < abs(m):
        raise ValueError(f"target needs l >= |m|, got ({l}, {m})")
    _require_coverage(cfg, table, l)
    entries = _nonzero_entries(rep, a)
    terms: dict = {}
    if cfg.z_sector == "R":
        for l1, m1, l2, m2, c in _sphere_r_pairs(cfg, table, l, m):
            for i, j, mij in entries:
                coeff = complex(0.0, 0.5 * mij * c)
                add_normal_ordered(terms, cfg, Mode(i, 2 * l1, 2 * m1, 0),
                                   Mode(j, 2 * l2, 2 * m2, 0), coeff)
    else:
        for l1d, m1d, e1, l2d, m2d, e2, c in _sphere_ns_pairs(cfg, l, m):
            for i, j, mij in entries:
                coeff = complex(0.0, 0.25 * mij * c)
                add_normal_ordered(terms, cfg, Mode(i, l1d, m1d, e1),
                                   Mode(j, l2d, m2d, e2), coeff)
    return ModeOperator(cfg, terms)


def sphere_L(l: int, m: int, cfg: SectorConfig,
             table: StructureTable) -> ModeOperator:
    """Virasoro generator at target (l, m) on the sphere."""
    if l < abs(m):
        raise ValueError(f"target needs l >= |m|, got ({l}, {m})")
    _require_coverage(cfg, table, l)
    lam = lam_constant(cfg)
    terms: dict = {}
    if cfg.z_sector == "R":
        for l1, m1, l2, m2, c in _sphere_r_pairs(cfg, table, l, m):
            if m1 == 0:
                continue
            coeff = 0.5 * (-m1) * c
            for i in range(1, cfg.d + 1):
                add_normal_ordered(terms, cfg, Mode(i, 2 * l1, 2 * m1, 0),
                                   Mode(i, 2 * l2, 2 * m2, 0), coeff)
    else:
        for l1d, m1d, e1, l2d, m2d, e2, c in _sphere_ns_pairs(cfg, l, m):
            coeff = 0.25 * (-m1d / 2.0) * c
            for i in range(1, cfg.d + 1):
                add_normal_ordered(terms, cfg, Mode(i, l1d, m1d, e1),
                                   Mode(i, l2d, m2d, e2), coeff)
    if l == 0 and m == 0 and lam:
        terms[()] = lam * cfg.d
    return ModeOperator(cfg, terms)


def _sphere_ns_pairs(cfg: SectorConfig, l: int, m: int):
    """Half-integer mode pairs and their projection coefficients onto Q_{lm}."""
    l2cut = cfg.l2_cut
    for l1d in range(1, l2cut + 1, 2):
        for m1d in range(-l1d, l1d + 1, 2):
            m2d = 2 * m - m1d
            for l2d in range(abs(m2d), l2cut + 1, 2):
                for e1 in (1, -1):
                    for e2 in (1, -1):
                        c = triple_product_ns(
                            Fraction(l1d, 2), Fraction(m1d, 2), e1,
                            Fraction(l2d, 2), Fraction(m2d, 2), e2, l, m)
                        if abs(c) > 1e-14:
                            yield l1d, m1d, e1, l2d, m2d, e2, c
