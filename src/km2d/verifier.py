"""Certification of the mode algebras on truncated Fock spaces.

Operator parts of brackets are checked exactly on *safe windows*: probe
states far enough below the mode cutoffs that every contributing lattice
term of the commutator survives truncation.  The rule is stated once, as
the adapters' ``compare_bounds`` margins: the ``guard`` keeps every probe
mode inside them, and a term is compared when the modes it touches lie
inside them, the only terms a probe can see.  The engine of the geometry
decides every bracket from one-particle coefficients, on the pairs of modes
inside the margins (on the sphere, those with a nonzero weight: the others
have a zero coefficient on every flavour): its residual is the largest
compared coefficient of [Q(A), Q(B)] - rhs, exactly 0.0 for a true torus
bracket and quadrature round-off on the sphere.  The engine decides a group
at a time, a family with fixed flavour indices, in one reduction for both
geometries over its brackets' compared points laid end to end; on the torus
it is exact, as every torus coefficient is a dyadic rational times a
Gaussian integer.  A failing bracket names a state on which its largest
term of smallest flat mode pair acts, whether or not a probe holds it.  At
zero total the raw central is the oscillator vacuum trace of the bracket.
The Fock path, ``_bracket_job``, applies the bilinears to the probe states,
filters with ``_exact_terms`` and reports the largest probe amplitude; it
certifies nothing and is the engines' oracle in the tests.  Central terms
are never read from raw truncated commutators (their coincident-point
multiplicity grows with the angular cutoff); they come from the regulated
pipeline:

    central = (one-dimensional mode anomaly, an exact one-particle vacuum
               trace on a degenerate single-angular-mode sector)
            * (regularized multiplicity, which is 1)
            * (on the sphere, the overlap of the two degree labels,
               which is (-1)^m delta_{l1 l2})

The raw divergence remains available as a documented diagnostic.

What the sweep covers, on both geometries: the current family TT only as
``[T^1, T^2]``, the mixed family LT only with ``a = b = 1``, and LL.  No
swept bracket carries a level term; the level ``k`` is certified once, at
m = 1, in the charges block, which reads its centrals from the sweep's memo.

The three bracket families' relations live in one place, the adapters' base
``_Algebra``: each adapter supplies ``_targets``, the target modes and
coefficients of a product of two mode functions, and ``_overlap``, the
central factor.  ``check_sphere_abstract`` checks the Jacobi identity on
those same relations: its brackets are ``SphereAlgebra``'s ``rhs_terms``
plus its ``central_unit``, the central term in units of c or k.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .currents import (_check_coverage, lam_constant, sphere_L, sphere_T,
                       torus_L, torus_T)
from .fock import (ZERO_MODE_SQUARE, FockState, ModeOperator, SectorConfig,
                   _apply_b, accumulate, enumerate_states, render_state,
                   torus_sector, vacuum_states)
from .halfints import fmt_half, to_doubled
from .harmonics import StructureTable, legendre_Q, quadrature
from .lie_core import LieAlgebraRep
from .regulator import delta_reg_zero, richardson_finite_part

__all__ = [
    "Window",
    "WindowViolationError",
    "BracketResult",
    "CommutatorReport",
    "probe_states",
    "measure_central",
    "central_raw_scan",
    "check_torus_algebra",
    "check_sphere_realization",
    "check_sphere_abstract",
]


class WindowViolationError(Exception):
    """Probe states and operator modes do not satisfy the exactness bound."""


@dataclass(frozen=True)
class Window:
    """Probe-state generating rule (all bounds doubled internally).

    w_z2: max doubled z-level; w_a2: max doubled |angular charge| and
    per-mode angular bound (torus) or doubled per-mode degree bound
    (sphere); n_max: max particle number.
    """

    w_z2: int
    w_a2: int
    n_max: int

    @staticmethod
    def of(w_z, w_a, n) -> "Window":
        return Window(to_doubled(w_z), to_doubled(w_a), int(n))

    def describe(self) -> str:
        return f"(z<={fmt_half(self.w_z2)}, a<={fmt_half(self.w_a2)}, N<={self.n_max})"


def _window_sigmas(cfg: SectorConfig):
    dim = cfg.spinor_dim()
    return tuple(range(dim)) if dim <= 4 else (0, dim - 1)


def probe_states(cfg: SectorConfig, window: Window) -> list:
    """Probe states of the window, in deterministic order."""
    states = enumerate_states(cfg, window.w_z2, window.n_max,
                              _window_sigmas(cfg))
    a2 = window.w_a2
    if cfg.geometry == "torus":
        return [s for s in states if abs(cfg.grade2(s)[1]) <= a2
                and all(abs(m.k2) <= a2 for m in s.occ)]
    return [s for s in states if all(m.k1 <= a2 for m in s.occ)]


# ---------------------------------------------------------------------------
# Geometry adapters: operator construction and expected bracket structure
# ---------------------------------------------------------------------------

def _probe_reach(probes) -> tuple:
    """The probes' largest doubled k1 and |k2|, the reach the guards check."""
    occ = [m for s in probes for m in s.occ]
    return (max((m.k1 for m in occ), default=0),
            max((abs(m.k2) for m in occ), default=0))


class _Algebra:
    """The bracket relations of both geometries, written once.

    Current-current closes with i f^{abc}, Virasoro-Virasoro with (m - n)
    and the mixed bracket with -n, in the z modes; the central terms are
    k m and c m (m^2 - 1)/12 times an overlap.  An adapter supplies the z
    mode of its mode labels and two geometry hooks: ``_targets``, the
    (target mode, coefficient) pairs of the product of two mode functions,
    and ``_overlap``, the factor of a central term of zero total z mode.
    The sweep and the abstract Jacobi check both read these relations.
    """

    def __init__(self, cfg: SectorConfig, rep: LieAlgebraRep):
        self.cfg = cfg
        self.rep = rep
        self._ops: dict = {}

    def lt_variant(self, kappas, tol) -> dict:
        return {}

    def rhs_terms(self, family: str, a, b, mode1, mode2):
        """[(scale, kind, generator index, mode), ...] of the expected RHS."""
        targets = self._targets(mode1, mode2)
        if family == "TT":
            f_ab = [int(x) for x in self.rep.f[a - 1, b - 1]]
            return [(complex(0.0, fabc * coeff), "T", c, target)
                    for target, coeff in targets
                    for c, fabc in enumerate(f_ab, 1) if fabc]
        if family == "LL":
            scale, kind, c = self.z_mode(mode1) - self.z_mode(mode2), "L", None
        elif family == "LT":
            # minus the z-mode of the current T^b
            scale, kind, c = -self.z_mode(mode2), "T", b
        else:
            raise ValueError(f"unknown family {family!r}")
        if not scale:
            return []
        return [(scale * coeff, kind, c, target) for target, coeff in targets]

    def central_unit(self, family: str, a, b, mode1, mode2) -> float:
        """The central term in units of k (TT) or c (LL)."""
        m = self.z_mode(mode1)
        overlap = (self._overlap(mode1, mode2) if m + self.z_mode(mode2) == 0
                   else 0)
        if not overlap or family == "LT" or (family == "TT" and a != b):
            return 0.0          # the product 0 * ... * m is -0.0 for m < 0
        if family == "TT":
            return float(overlap) * m
        # in float: m = -1 and m = 0 give the -0.0 that the reports print
        return float(overlap) * m * (m * m - 1) / 12.0

    def central_expected(self, family: str, a, b, mode1, mode2) -> float:
        charge = self.rep.C_M / 2.0 if family == "TT" else self.cfg.d / 2.0
        return self.central_unit(family, a, b, mode1, mode2) * charge


class TorusAlgebra(_Algebra):
    """Builds torus generators; mode functions multiply by adding labels."""

    kappa_bound = 1e-9          # least bound on the [L, T] refit deviation

    def engine(self, probes) -> "TorusEngine":
        return TorusEngine(self, probes)

    def modes(self, max_mode: int) -> list:
        rng = range(-max_mode, max_mode + 1)
        return [(m, p) for m in rng for p in rng]

    def header(self) -> dict:
        cfg = self.cfg
        return {"task": "verify-torus", "geometry": "torus",
                "sectors": f"{cfg.z_sector},{cfg.angular_sector}",
                "cutoffs": {"m": fmt_half(cfg.m2_cut),
                            "p": fmt_half(cfg.p2_cut)}}

    def z_mode(self, mode) -> int:
        return mode[0]

    def central_key(self, family, a, b, mode1, mode2, method) -> tuple:
        """(family, m, a, b, p, degrees) of ``measure_central`` for the
        bracket's central; the analytic method reads no angular mode."""
        p = 0 if method == "analytic" else mode1[1]
        return family, mode1[0], a, b, p, None

    def charges(self, central):
        """Report block of c and k, and the (measured, expected) pairs, from
        ``central``, the sweep's lookup of a bracket's central."""
        cfg, rep = self.cfg, self.rep
        k_val = central("TT", 1, 1, (1, 0), (-1, 0))
        c_val = 2.0 * central("LL", None, None, (2, 0), (-2, 0))
        charges = {"c_measured": c_val, "k_measured": k_val,
                   "c_expected": cfg.d / 2.0, "k_expected": rep.C_M / 2.0}
        return charges, [(c_val, cfg.d / 2.0), (k_val, rep.C_M / 2.0)]

    def lt_variant(self, kappas, tol) -> dict:
        """Whether the printed rule -(angular mode of L) fits the refit."""
        return {"printed_variant": "-(angular mode of L)",
                # no claim when no pair was measured
                "printed_variant_matches": all(abs(k - (-m1[1])) <= tol
                                               for m1, _, k in kappas)
                if kappas else None}

    def op(self, kind: str, a, mode) -> ModeOperator:
        key = (kind, a, mode)
        if key not in self._ops:
            m, p = mode
            if kind == "T":
                o = torus_T(self.rep, a, m, p, self.cfg)
            else:
                o = torus_L(m, p, self.cfg)
            self._ops[key] = o
        return self._ops[key]

    def _targets(self, mode1, mode2) -> list:
        # an int coefficient keeps the [L, L] and [L, T] scales ints
        return [((mode1[0] + mode2[0], mode1[1] + mode2[1]), 1)]

    def _overlap(self, mode1, mode2) -> int:
        return int(mode1[1] + mode2[1] == 0)

    def zero_total(self, mode1, mode2) -> bool:
        return mode1[0] + mode2[0] == 0 and mode1[1] + mode2[1] == 0

    def guard(self, reach, mode1, mode2) -> None:
        """Reject a window whose probes reach past a cutoff in this bracket.

        reach is the probes' ``_probe_reach``.  Within reach, every probe
        mode lies inside compare_bounds, which is what the term filter
        _exact_terms and the engine's box need.
        """
        cfg = self.cfg
        mA2, pA2 = 2 * abs(mode1[0]), 2 * abs(mode1[1])
        mB2, pB2 = 2 * abs(mode2[0]), 2 * abs(mode2[1])
        max_k1, max_k2 = reach
        if max_k1 + mA2 + mB2 > cfg.m2_cut:
            raise WindowViolationError(
                f"z reach {fmt_half(max_k1 + mA2 + mB2)} exceeds cutoff "
                f"{fmt_half(cfg.m2_cut)}")
        if max_k2 + pA2 + pB2 > cfg.p2_cut:
            raise WindowViolationError(
                f"angular reach {fmt_half(max_k2 + pA2 + pB2)} exceeds cutoff "
                f"{fmt_half(cfg.p2_cut)}")

    def compare_bounds(self, mode1, mode2):
        """Doubled (|z|, |angular|) margins, one operator strength inside;
        the mode labels may be arrays over brackets."""
        reach = 2 * np.maximum(np.abs(mode1), np.abs(mode2))
        return self.cfg.m2_cut - reach[0], self.cfg.p2_cut - reach[1]

    def mode_label(self, kind, a, mode) -> str:
        tag = f"T{a}" if kind == "T" else "L"
        return f"{tag}[{mode[0]},{mode[1]}]"


class SphereAlgebra(_Algebra):
    """Builds sphere generators; mode functions multiply by the table."""

    kappa_bound = 1e-8          # table entries carry quadrature round-off

    def __init__(self, cfg: SectorConfig, rep: LieAlgebraRep,
                 table: StructureTable):
        super().__init__(cfg, rep)
        self.table = table

    def engine(self, probes) -> "SphereEngine":
        return SphereEngine(self, probes)

    def modes(self, max_l: int) -> list:
        return [(l, m) for l in range(max_l + 1) for m in range(-l, l + 1)]

    def header(self) -> dict:
        return {"task": "verify-sphere", "geometry": "sphere",
                "sectors": self.cfg.z_sector,
                "cutoffs": {"l": fmt_half(self.cfg.l2_cut),
                            "table_L_max": self.table.L_max}}

    def z_mode(self, mode) -> int:
        return mode[1]

    def central_key(self, family, a, b, mode1, mode2, method) -> tuple:
        return family, mode1[1], a or 1, b or 1, 0, (mode1[0], mode2[0])

    def charges(self, central):
        """Report block of c, k and the Virasoro centrals at m = 1, 2, from
        ``central``, the sweep's lookup of a bracket's central.

        The diagonal current bracket at l = m = 1 carries (-1)^1 k; both
        Virasoro centrals are read at degree 2, so a degree cutoff below 2
        is rejected with ValueError, after k.
        """
        cfg, rep = self.cfg, self.rep
        k_val = -central("TT", 1, 1, (1, 1), (1, -1))
        if cfg.l2_cut < 4:
            raise ValueError("c is read from the m = 2 Virasoro central, "
                             "which needs a degree cutoff of at least 2")
        c_col = {m: (central("LL", None, None, (2, m), (2, -m)),
                     self.central_expected("LL", None, None, (2, m), (2, -m)))
                 for m in (1, 2)}
        c_val = 2.0 * c_col[2][0]
        charges = {
            "c_measured": c_val, "k_measured": k_val,
            "c_expected": cfg.d / 2.0, "k_expected": rep.C_M / 2.0,
            "virasoro_centrals": {str(m): {"measured": v[0], "expected": v[1]}
                                  for m, v in c_col.items()},
        }
        return charges, [(k_val, rep.C_M / 2.0)] + list(c_col.values())

    def op(self, kind: str, a, mode) -> ModeOperator:
        key = (kind, a, mode)
        if key not in self._ops:
            l, m = mode
            if kind == "T":
                o = sphere_T(self.rep, a, l, m, self.cfg, self.table)
            else:
                o = sphere_L(l, m, self.cfg, self.table)
            self._ops[key] = o
        return self._ops[key]

    def _targets(self, mode1, mode2) -> list:
        # the modes' block in the table's index, l3 = lo + 2k; entries below
        # 1e-15 are quadrature noise (78 of the L = 6 table's stored ones)
        (l1, m1), (l2, m2), index = mode1, mode2, self.table.index
        r1, r2 = l1 * l1 + l1 + m1, l2 * l2 + l2 + m2
        at, lo = index.start[r1, r2], int(index.lo[r1, r2])
        values = self.table.values[at:at + index.count[r1, r2]].tolist()
        return [((lo + 2 * k, m1 + m2), c)
                for k, c in enumerate(values) if abs(c) >= 1e-15]

    def _overlap(self, mode1, mode2) -> float:
        """(-1)^m delta_{l1 l2}, the overlap of the two degree labels."""
        if mode1[0] != mode2[0]:
            return 0.0
        return -1.0 if mode1[1] % 2 else 1.0

    def zero_total(self, mode1, mode2) -> bool:
        return mode1[1] + mode2[1] == 0

    def guard(self, reach, mode1, mode2) -> None:
        lA2, lB2 = 2 * mode1[0], 2 * mode2[0]
        max_l = reach[0]
        if max_l + lA2 + lB2 > self.cfg.l2_cut:
            raise WindowViolationError(
                f"degree reach {fmt_half(max_l + lA2 + lB2)} exceeds cutoff "
                f"{fmt_half(self.cfg.l2_cut)}")
        if self.table.L_max < (lA2 + lB2) // 2:
            raise WindowViolationError(
                f"structure table degree {self.table.L_max} below bracket "
                f"target {(lA2 + lB2) // 2}")

    def compare_bounds(self, mode1, mode2):
        """Doubled margins for (degree, |m|); |m| <= l makes them equal."""
        margin_l = self.cfg.l2_cut - 2 * max(mode1[0], mode2[0])
        return margin_l, margin_l

    def mode_label(self, kind, a, mode) -> str:
        tag = f"T{a}" if kind == "T" else "L"
        return f"{tag}[l={mode[0]},m={mode[1]}]"


# ---------------------------------------------------------------------------
# Central-term measurements
# ---------------------------------------------------------------------------

def _one_dim_reduction(z_sector: str, d: int, m: int) -> SectorConfig:
    """Single-angular-mode sector isolating the z-direction anomaly."""
    m2 = 2 * abs(int(m))
    m2_cut = m2 + (1 if z_sector == "NS" else 2)
    return torus_sector(z_sector, "R", d, Fraction(m2_cut, 2), 0)


def _z_weight(kind, n2, m2):
    """The z factor of a torus generator's mode weight g at doubled z index
    n2 and doubled z mode m2: 1 for T, (m2 - 2 n2)/8 for L, exact in float."""
    return 1.0 if kind == "T" else (m2 - 2 * n2) / 8


def _theta2(n2: int, q2: np.ndarray) -> np.ndarray:
    """Twice the vacuum weight theta of b_{n,q}: 2 annihilator, 1 zero mode."""
    if n2:
        return np.full_like(q2, 2 if n2 > 0 else 0)
    return 2 * (q2 > 0) + (q2 == 0)


def _vacuum_trace(family: str, rep: LieAlgebraRep, a: int, b: int, m: int,
                  p: int, cfg: SectorConfig, eps: float = 0.0,
                  rhs: Optional[list] = None) -> float:
    """<0| [X_{m,p}, X_{-m,-p}] - rhs |0> from one-particle coefficients.

    Up to c-numbers :b_x b_y: is (1/2)[b_x, b_y], so the commutator sees only
    the antisymmetrized coefficients A, B of the two generators, and in the
    quasi-free vacuum, <b_x b_{conj x}> = theta_x (1 annihilator, 1/2 zero
    mode, 0 creator; Araki, Publ. RIMS 6 (1970) 385):

        <[Q(A), Q(B)]>
            = 2 sum_{x,y} A_{xy} (theta_x + theta_y - 1) B_{conj y, conj x}.

    A generator's coefficient on x = (i, n, q), y = (j, m-n, p-q) is the
    engines' F (x) g, damped: F_{ij} g(n) w(q) w(p-q), with g(n) the
    ``_z_weight``.  So the sum is trace(F_A F_B) g_A g_B per z index n times
    the angular sum of w(q)^2 w(p-q)^2 (theta_x + theta_y - 1), in float64.
    At eps = 0 the weights are exactly 1 and every term is a dyadic
    rational, so the value is exact.  The right-hand side X_{0,0} has vacuum
    value equal to its identity term: off the z = 0 line the normal order
    has vacuum value 0, and on it the pair coefficient vanishes (L: g = 0;
    T: trace M^c = 0 for antisymmetric M^c).

    The value subtracts ``rhs``, the caller's right-hand side terms, by
    default those of ``TorusAlgebra``.  Raises AssertionError for a value
    with an imaginary part, or one that would differ across the vacuum
    multiplet: a nonzero antisymmetric zero-mode block of [A, B] minus the
    ``TorusAlgebra`` right-hand side, read from F (x) g as well.  This check
    does not depend on how the zero modes are paired into spinor labels.
    """
    if family not in ("TT", "LL"):
        raise ValueError("central terms exist for TT and LL only")
    kind = family[0]
    m2, p2 = 2 * m, 2 * p
    own = TorusAlgebra(cfg, rep).rhs_terms(family, a, b, (m, p), (-m, -p))
    rhs = own if rhs is None else rhs
    F = _flavours(rep)
    FA, FB = (F[kind, c if kind == "T" else None] for c in (a, b))
    # trace(FA FB), summed elementwise: a BLAS product of these small
    # matrices would cost its buffers in peak memory
    trace = np.sum(FA * FB.T)

    def w(k2):
        # the damping weight of torus_T and torus_L
        return np.exp(-eps * (np.abs(k2) / 2.0 - 0.5))

    q2 = np.array(cfg.angular_lattice())
    q2 = q2[np.abs(p2 - q2) <= cfg.p2_cut]
    ww = (w(q2) * w(p2 - q2)) ** 2
    flavour_angular = 0j
    for n2 in cfg.z_lattice():
        if abs(m2 - n2) > cfg.m2_cut:
            continue
        # A's pair (x, y) meets B's pair (conj y, conj x)
        theta2 = _theta2(n2, q2) + _theta2(m2 - n2, p2 - q2) - 2
        flavour_angular += (trace * _z_weight(kind, n2, m2)
                            * _z_weight(kind, n2 - m2, -m2)
                            * np.sum(ww * theta2))

    if cfg.zero_modes:
        # the zero modes u_i = (i, 0, 0) pair with (k, m, p) in A and with
        # (k, -m, -p) in B, if those lie inside the cutoffs; the rhs pairs
        # them among themselves
        w0 = float(w(0))
        block = np.zeros((rep.d, rep.d))
        if abs(m2) <= cfg.m2_cut and abs(p2) <= cfg.p2_cut:
            block = (2 * _z_weight(kind, 0, m2) * _z_weight(kind, 0, -m2)
                     * (w0 * float(w(p2))) ** 2
                     * (np.einsum("ik,jk->ij", FB, FA)
                        - np.einsum("ik,jk->ij", FA, FB)))
        for scale, kind_c, c, _ in own:
            block = block - (scale * _z_weight(kind_c, 0, 0) * w0 ** 2
                             * F[kind_c, c])
        spread = float(np.abs(block).max())
        if spread > 1e-10:
            raise AssertionError(f"central value varies across the vacuum "
                                 f"multiplet: zero-mode block {spread:.3e}")

    # the sum's factor 2 cancels the doubling of theta; of the rhs only the
    # identity term lam * d of L_{0,0} has a vacuum value
    if abs(flavour_angular.imag) > 1e-10:
        raise AssertionError(f"central value has imaginary part "
                             f"{flavour_angular.imag:.3e}")
    identity = sum(scale for scale, kind_c, _, _ in rhs if kind_c == "L")
    return float(flavour_angular.real - identity * lam_constant(cfg) * cfg.d)


def _legendre_overlap(l1: int, l2: int, m: int) -> float:
    """(1/2) int Q_{l1 m} Q_{l2 -m} du = (-1)^m delta_{l1 l2}, by quadrature."""
    nodes, weights = quadrature((l1 + l2) // 2 + 1)
    vals = legendre_Q(l1, m, nodes) * legendre_Q(l2, -m, nodes)
    return 0.5 * float(np.dot(weights, vals))


def measure_central(family: str, m: int, *, rep: LieAlgebraRep,
                    cfg: SectorConfig, a: int = 1, b: Optional[int] = None,
                    p: int = 0, degrees: Optional[tuple] = None,
                    method: str = "analytic", eps0: float = 0.1,
                    levels: int = 7) -> float:
    """Regulated (or raw) central value of <0|[X_{m,.}, X_{-m,.}]|0>.

    family "TT" or "LL"; on the sphere, degrees = (l1, l2) gives the two
    degree labels.  Methods: "analytic" (exact z anomaly times regularized
    multiplicity), "eps_extrapolated" (damped sums plus finite part, torus
    with an NS z sector only), "raw" (the truncated value on the torus
    sector itself, which diverges with the angular cutoff).  Each is a
    one-particle vacuum trace (``_vacuum_trace``).
    """
    if b is None:
        b = a
    if method == "analytic":
        anomaly = _vacuum_trace(family, rep, a, b, m, 0,
                                _one_dim_reduction(cfg.z_sector, rep.d, m))
        if cfg.geometry == "torus":
            return anomaly * delta_reg_zero("torus", cfg.angular_sector)
        mult = delta_reg_zero("sphere", cfg.z_sector, m)
        l1, l2 = degrees
        return anomaly * _legendre_overlap(l1, l2, m) * mult
    if method not in ("raw", "eps_extrapolated"):
        raise ValueError(f"unknown method {method!r}")
    if cfg.geometry != "torus":
        raise ValueError(f"the {method} method is implemented for the torus")
    if method == "raw":
        return _vacuum_trace(family, rep, a, b, m, p, cfg)
    if cfg.z_sector != "NS":
        # the damped z = 0 line leaves a finite part linear in p, and on R,R
        # a zero-mode block that does not cancel
        raise ValueError("eps extrapolation needs an NS z sector")
    return _central_eps_extrapolated(family, m, p, rep, cfg, a, b,
                                     eps0, levels)


def _central_eps_extrapolated(family, m, p, rep, cfg, a, b, eps0, levels):
    """Finite part of the damped trace (Richardson extrapolation; Sidi,
    Practical Extrapolation Methods, 2003)."""
    z_cut = Fraction(2 * abs(m) + (1 if cfg.z_sector == "NS" else 2), 2)

    def value(eps: float) -> float:
        # the damping weight w(q)^2 is about e^-36 at this angular cutoff
        p2 = int(np.ceil(36.0 / eps))
        if p2 % 2 != (1 if cfg.angular_sector == "NS" else 0):
            p2 += 1
        cfge = torus_sector(cfg.z_sector, cfg.angular_sector, cfg.d,
                            z_cut, Fraction(p2, 2))
        return _vacuum_trace(family, rep, a, b, m, p, cfge, eps)

    _, finite = richardson_finite_part(value, eps0=eps0, levels=levels)
    return finite


def central_raw_scan(z_sector: str, angular_sector: str, d: int,
                     rep: LieAlgebraRep, m_cut, p_cuts, family: str = "TT",
                     m: int = 1) -> list:
    """Raw central values against the angular cutoff (documents divergence)."""
    rows = []
    for p_cut in p_cuts:
        cfg = torus_sector(z_sector, angular_sector, d, m_cut, p_cut)
        val = measure_central(family, m, rep=rep, cfg=cfg, method="raw")
        count = len(cfg.angular_lattice())
        rows.append({"p_cut": fmt_half(cfg.p2_cut), "angular_modes": count,
                     "raw_central": val})
    return rows


# ---------------------------------------------------------------------------
# Bracket checks on windows
# ---------------------------------------------------------------------------

def _assemble_rhs(alg, family, a, b, mode1, mode2) -> Optional[ModeOperator]:
    rhs = None
    for scale, kind, c, mode in alg.rhs_terms(family, a, b, mode1, mode2):
        piece = alg.op(kind, c, mode).scaled(scale)
        rhs = piece if rhs is None else rhs + piece
    return rhs


@dataclass
class BracketResult:
    lhs: str
    rhs: str
    residual: float
    raw_central: Optional[float]
    central_measured: Optional[float]
    central_expected: Optional[float]
    passed: bool
    kappa: Optional[float] = None
    offending_state: Optional[str] = None

    def to_dict(self) -> dict:
        out = {"lhs": self.lhs, "rhs": self.rhs, "residual": self.residual}
        if self.raw_central is not None:
            out["raw_central"] = self.raw_central
        out["central_measured"] = self.central_measured
        out["central_expected"] = self.central_expected
        if self.kappa is not None:
            out["kappa_measured"] = self.kappa
        if self.offending_state is not None:
            out["offending_state"] = self.offending_state
        out["pass"] = self.passed
        return out


@dataclass
class CommutatorReport:
    task: str
    geometry: str
    sectors: str
    d: int
    rep: str
    cutoffs: dict
    window: str
    tol: float
    brackets: list = field(default_factory=list)
    charges: dict = field(default_factory=dict)
    lt_summary: dict = field(default_factory=dict)
    passed: bool = True

    def to_dict(self) -> dict:
        head = ("task", "geometry", "sectors", "d", "rep", "cutoffs",
                "window", "tol")
        return {**{key: getattr(self, key) for key in head},
                "brackets": [b.to_dict() for b in self.brackets],
                "charges": self.charges, "lt_coefficient": self.lt_summary,
                "pass": self.passed}

    @property
    def max_residual(self) -> float:
        return max((b.residual for b in self.brackets), default=0.0)


def _exact_terms(op: ModeOperator, margins) -> ModeOperator:
    """The terms of a bilinear that truncation cannot touch on the probes.

    This is the one truncation rule of the comparison.  A term is kept when
    every oscillator it leaves created and every zero mode it acts with has
    (k1, |k2|) within the doubled margins of compare_bounds.  The oscillators
    a term annihilates on a probe are occupied there, and the guard keeps
    those inside the margins too.  A mode inside the margins lies one
    operator strength below each cutoff, so every contraction route behind
    a kept term's coefficient survives truncation and its matrix elements
    on the probes are those of the untruncated algebra.  Dropped terms touch
    a mode where truncation cuts routes off; they are not compared.
    """
    cfg = op.cfg
    margin_z, margin_a = margins

    def inside(m):
        return m.k1 <= margin_z and abs(m.k2) <= margin_a

    def exact(key):
        created = set()
        for mode in reversed(key):
            kind = cfg.classify(mode)
            if kind == "cre":
                created.add(cfg.conj(mode))
            elif kind == "ann":
                created.discard(mode)
            elif not inside(mode):
                return False
        return all(inside(m) for m in created)

    return ModeOperator(cfg, {k: c for k, c in op.terms.items() if exact(k)})


def _generators(family, a, b):
    """(kind, flavour index) of the two generators of a bracket."""
    return (("T", a) if family == "TT" else ("L", None),
            ("L", None) if family == "LL" else ("T", b))


def _flavours(rep) -> dict:
    """F of each generator by (kind, a): (i/2) M^a for T^a, 1 for L."""
    return {("L", None): np.eye(rep.d), **dict(zip(
        [("T", a) for a in range(1, rep.dim_g + 1)], 0.5j * rep.M))}


class _Engine:
    """Decides every bracket of one geometry from one-particle coefficients.

    ``jobs`` yields the BracketResult of each pair of a group, one family
    with fixed flavour indices.  A generator is a flavour matrix times a
    mode weight, so the compared coefficients of [Q(A), Q(B)] - rhs are
    D = C B: B the flavour basis F_A F_B, SWAPPED and each rhs F_c, C the
    weights of each compared point from the geometry's ``_points``.  A
    point whose weights are all 0.0 has D = 0 exactly, so ``_points`` may
    leave it out: no residual, tie-break or refit reads it.
    ``_group``, the one reduction, gives per bracket the residual, the
    largest |D|; the [L, T] refit's shift field Re<R, D> / |R|^2, R the rhs
    part of D, or None where ``refit_has_probe`` finds no probe; and the
    flat mode indices (x, y) of b_x b_y, the smallest of a largest |D|.  A
    bracket passes iff its residual is at most tol; a failing one names a
    state that this term reaches, whether or not a probe holds it.
    ``_vacuum_value`` gives a zero-total bracket's raw central.
    """

    def __init__(self, alg, probes):
        modes = alg.cfg.all_modes()        # flavour first, then the mode
        self.alg, self.modes, self.F = alg, modes, _flavours(alg.rep)
        # an annihilator acts on a probe holding its oscillator, a creator
        # on one leaving its conjugate free, a zero mode on every probe
        index = {m: k for k, m in enumerate(modes)}
        held = np.zeros((len(probes), len(modes)), bool)
        for s, probe in enumerate(probes):
            held[s, [index[m] for m in probe.occ]] = True
        kind = np.array([alg.cfg.classify(m) for m in modes])
        conj = [index[alg.cfg.conj(m)] for m in modes]
        acts = np.where(kind == "ann", held, (kind != "cre") | ~held[:, conj])
        self.zero = kind == "zero"
        # per mode: the probes it acts on, and the squared amplitude it
        # leaves there, ZERO_MODE_SQUARE for a zero mode (b_z = gamma_z/sqrt2)
        self.acts = acts.T.copy()
        self.weight = np.where(self.zero, ZERO_MODE_SQUARE, 1.0)
        # a zero-mode bilinear acts on the spinor alone: the signs its two
        # modes take past the oscillators cancel
        self.sigmas = [p.sigma for p in probes]

    def refit_has_probe(self, rows, cols, coeffs, seg, n) -> np.ndarray:
        """Whether each of n [L, T] refits of the Fock path has a probe.

        Refit k's operator is w = sum coeffs[e] b_{rows[e]} b_{cols[e]} over
        the entries e with seg[e] = k, the compared pairs of the right-hand
        side, an antisymmetric coefficient listed in both orders.  It has a
        probe when the images w|probe> have a squared norm above 1e-12 in
        sum, as in ``_bracket_job``.  A term with both its modes acting
        moves a probe by 2 |coeff|, times 1/sqrt2 per zero mode.  Distinct
        pairs reach distinct states, up to two zero modes of one spinor bit,
        whose real and imaginary Clifford units are orthogonal on the purely
        imaginary coefficients of T; so the squared norms add.  At zero total
        the zero modes pair only with each other, a spin rotation of the
        probe's spinor whose terms can cancel on a basis spinor (so(4) on the
        torus R,R): it is applied to the spinors, one refit at a time.
        """
        spin = self.zero[rows] & self.zero[cols]
        moves = (self.weight[rows] * self.weight[cols]
                 * (self.acts[rows] & self.acts[cols]).sum(axis=1))
        norm2 = 2 * np.bincount(seg, (moves * np.abs(coeffs) ** 2)
                                * ~spin, minlength=n)
        for k in set(seg[spin].tolist()):
            own = spin & (seg == k)
            rotation = ModeOperator(self.alg.cfg, {
                (self.modes[r], self.modes[c]): complex(w)
                for r, c, w in zip(rows[own], cols[own], coeffs[own])})
            spinor = {s: rotation.apply_state(FockState(s, ())).norm2()
                      for s in set(self.sigmas)}
            norm2[k] += sum(spinor[s] for s in self.sigmas)
        return norm2 > 1e-12

    def jobs(self, family, a, b, pairs, tol, central_lookup, central_tol):
        alg, cfg = self.alg, self.alg.cfg
        rhss = [alg.rhs_terms(family, a, b, *pair) for pair in pairs]
        # the rule's field coefficient of each refitted [L, T] bracket, else 0
        fields = [-alg.z_mode(mode2) if family == "LT" and rhs else 0
                  for (_, mode2), rhs in zip(pairs, rhss)]
        for (mode1, mode2), rhs, field, (residual, shift, worst) in zip(
                pairs, rhss, fields,
                self._group(family, a, b, pairs, rhss, fields)):
            kappa = None if shift is None else field + shift
            raw_central = (self._vacuum_value(family, a, b, mode1, mode2, rhs)
                           if alg.zero_total(mode1, mode2) else None)
            res = _result(alg, family, a, b, mode1, mode2, rhs, residual,
                          raw_central, kappa, tol, central_lookup, central_tol)
            if not res.passed and residual:
                # b_x b_y|s> of the largest coefficient, spinor 0, s holding
                # the oscillators the pair annihilates: they act first, so
                # the state exists (the orders differ by a c-number, a sign)
                pair = [self.modes[k] for k in worst]
                ann = [m for m in pair if cfg.classify(m) == "ann"]
                state = FockState(0, tuple(sorted(ann)))
                for mode in ann + [m for m in pair if m not in ann]:
                    state = _apply_b(cfg, mode, state)[1]
                res.offending_state = render_state(state, cfg)
            yield res

    def _group(self, family, a, b, pairs, rhss, fields):
        d, n = self.alg.cfg.d, len(pairs)
        points = len(self.modes) // d       # the flat index: flavour major
        FA, FB = (self.F[key] for key in _generators(family, a, b))
        # the rhs flavour keys (kind, c), in order of first use
        keys = list(dict.fromkeys((kind, c) for rhs in rhss
                                  for _, kind, c, _ in rhs))
        # einsum, not BLAS: the round-off the report prints does not depend
        # on the machine's BLAS kernel, and no BLAS buffer adds to peak memory
        products = [np.einsum(s, FA, FB) for s in ("ij,jk->ik", self.SWAPPED)]
        B = np.array(products + [self.F[key] for key in keys],
                     complex).reshape(-1, d * d)
        field_of = np.array(fields)
        residual, shift, worst = np.zeros(n), [None] * n, [None] * n
        for seg, C, x0, y0 in self._points(family, a, b, pairs, rhss, keys):
            # D[f, point] = (F_A F_B c_0 + SWAPPED c_1) - R, R the rhs part
            R = 0
            for F, c in zip(B[2:], C[2:]):
                R = R - F[:, None] * c
            D = B[0][:, None] * C[0]
            D += B[1][:, None] * C[1]
            D -= R
            field, nonzero = field_of[seg], D.any()
            if not (nonzero or field.any()):    # a true TT or LL chunk
                continue
            # a chunk holds whole brackets k0 .. k1 - 1
            k0, k1 = seg[0], seg[-1] + 1
            if nonzero:     # a true torus group's D is exactly 0
                absD = np.abs(D)
                top = absD.max(axis=0)
                np.maximum.at(residual, seg, top)
                # of each bracket's largest coefficients, the smallest (x, y):
                # at a point, the first in flavour order
                p = np.flatnonzero((top == residual[seg]) & (top > 0))
                f = (absD[:, p] == top[p]).argmax(axis=0)
                x, y = x0[p] + f // d * points, y0[p] + f % d * points
                k, first = seg[p], np.lexsort((y, x, seg[p]))
                for i in first[np.diff(k[first], prepend=-1) > 0]:
                    worst[k[i]] = x[i], y[i]
                del absD                # before the refit's arrays
            if not field.any():
                continue
            f, p = np.nonzero((R != 0) & (field != 0))
            has = self.refit_has_probe(
                x0[p] + f // d * points, y0[p] + f % d * points,
                R[f, p] / field[p] * self.AMPLITUDE, seg[p] - k0, k1 - k0)
            for k in np.flatnonzero(has) + k0:
                shift[k] = 0.0          # a zero D adds 0
            # least squares of D + field W on W = R / field
            for k in np.flatnonzero(has & (residual[k0:k1] > 0)) + k0:
                R_k, D_k = R[:, seg == k], D[:, seg == k]
                shift[k] = float(fields[k] * np.vdot(R_k, D_k).real
                                 / np.vdot(R_k, R_k).real)
        return zip(residual.tolist(), shift, worst)


# The coefficients an engine forms at once, d^2 per compared point.  Of 2^12
# to 2^14, on the sphere's nonzero points, 2^13 gave sphere R l=8 its least
# peak RSS and l=6 0.2 MB above its least (2^12); the torus is flat.
GROUP_CHUNK = 1 << 13


def _chunks(size, per_point):
    """Brackets of size[k] points, per_point coefficients each, in chunks of
    about GROUP_CHUNK coefficients: each point's bracket and index in it."""
    start = np.cumsum(size) - size
    cut = np.flatnonzero(np.diff(start // max(1, GROUP_CHUNK // per_point)))
    for k0, k1 in zip([0, *(cut + 1)], [*(cut + 1), len(size)]):
        seg = np.repeat(np.arange(k0, k1), size[k0:k1])
        yield seg, np.arange(len(seg)) - start[seg] + start[k0]


class TorusEngine(_Engine):
    """Decides torus brackets from one-particle flavour and mode weights.

    A torus generator X of mode t is sum_{x,y} S_{xy} b_x b_y plus a
    c-number, with S antisymmetric and nonzero only on pairs y = t - x that
    lie inside the cutoffs.  Over the lattice point x = (n, q) of the first
    mode, S = F (x) g: F the flavour matrix, g the 0/1 mask of a partner
    inside the cutoffs, times ``_z_weight`` for L.  The CAR give
    [Q(A), Q(B)] = Q(2 (P - P^T)) plus a c-number, where P[x] =
    A[x] B[x - t_A] = F_A F_B h(x), h(x) = g_A(x) g_B(x - t_A); so the
    residual of a bracket of total mode T, with the rhs R = sum_c s_c F_c
    (x) g_c at T (the one target of ``TorusAlgebra._targets``), is

        D = 2 (F_A F_B (x) h(x) - (F_A F_B)^T (x) h(T - x)) - R.

    The transpose is not the sphere's F_B F_A: [L, T] pairs a symmetric F
    with an antisymmetric one.  At T = 0 the c-number is ``_vacuum_trace``.
    D is compared on the box of x with x and T - x inside compare_bounds,
    which holds every term the Fock path can see on a probe
    (``_exact_terms``); on it, truncation cuts no contraction route, and
    every partner lies inside the cutoffs, so each g is its z weight.

    ``_points`` lays a group's boxes end to end, each row-major in (z, q),
    with the points' weights C = (2 h(x), -2 h(T - x), -s_c g_c(x)).  Every
    coefficient is a dyadic rational times a Gaussian integer, so every
    product and sum is exact in complex128 and no reduction order shows: a
    true bracket's residual is exactly 0.0, and the [L, T] refit rounds
    once.
    """

    # (F_A F_B)^T as einsum subscripts of (F_A, F_B); a pair's amplitude per
    # unit of its coefficient
    SWAPPED, AMPLITUDE = "ij,jk->ki", 1

    def _points(self, family, a, b, pairs, rhss, keys):
        cfg, n = self.alg.cfg, len(pairs)
        (kind_a, _), (kind_b, _) = _generators(family, a, b)
        mode1, mode2 = np.array(pairs).reshape(n, 2, 2).transpose(1, 2, 0)
        # doubled t_A (z) and T; the box of x, T - x inside the margins
        tA, T = 2 * mode1[0], 2 * (mode1 + mode2).T
        margin = np.stack(self.alg.compare_bounds(mode1, mode2), axis=1)
        lo = np.maximum(-margin, T - margin)
        side = np.maximum((np.minimum(margin, T + margin) - lo) // 2 + 1, 0)
        scales = np.array([[sum(s for s, kind, c, _ in rhs
                                if (kind, c) == key) for rhs in rhss]
                           for key in keys], complex).reshape(-1, n)
        for seg, at in _chunks(side[:, 0] * side[:, 1], cfg.d ** 2):
            iz, iq = np.divmod(at, side[seg, 1])
            z2, q2 = lo[seg, 0] + 2 * iz, lo[seg, 1] + 2 * iq
            tz, tq, ta = T[seg, 0], T[seg, 1], tA[seg]
            C = np.empty((len(keys) + 2, len(seg)), complex)
            for row, sign, z in zip(C, (2, -2), (z2, tz - z2)):
                row[:] = sign * _z_weight(kind_a, z, ta) * _z_weight(
                    kind_b, z - ta, tz - ta)
            for row, (kind, _), scale in zip(C[2:], keys, scales):
                row[:] = -scale[seg] * _z_weight(kind, z2, tz)
            # the flat mode indices of x and of T - x at the first flavour;
            # a lattice row holds p2_cut + 1 points
            yield (seg, C, *((u + cfg.m2_cut) // 2 * (cfg.p2_cut + 1)
                             + (v + cfg.p2_cut) // 2
                             for u, v in ((z2, q2), (tz - z2, tq - q2))))

    def _vacuum_value(self, family, a, b, mode1, mode2, rhs) -> float:
        # 0.0 for [L, T], as the trace of M^a vanishes
        return 0.0 if family == "LT" else _vacuum_trace(
            family, self.alg.rep, a or 1, b or 1, *mode1, self.alg.cfg,
            rhs=rhs)


class SphereEngine(_Engine):
    """Decides sphere brackets from one-particle matrices.

    Over the flat index x = (flavour, mode function (l, m)), a sphere
    generator is (1/2) sum_{x,y} S_{xy} b_x b_y plus a c-number, with S an
    antisymmetric flavour matrix times mode-function matrix, F (x) G.  With
    C_{xy} the pair coefficients of ``_sphere_pairs`` and m the m of x:

        T^a:  F = (i/2) M^a,  G = C + C^T
        L:    F = 1,          G = A - A^T,  A = -(m/2) C.

    K pairs (l, m) with (l, -m), twisted by (-1)^m: the CAR {b_x, b_y} =
    K_{xy}.  They give [Q(S_A), Q(S_B)] = Q(S_A K S_B - S_B K S_A), so the
    residual of a bracket is

        D = F_A F_B (x) G_A K G_B - F_B F_A (x) G_B K G_A - sum of the rhs.

    Its coefficient D_{xy} of x != y is the amplitude of b_x b_y, compared
    where x and y lie inside compare_bounds, the torus engine's box rule:
    a mode inside the margins pairs only with modes inside the cutoffs, so
    truncation cuts no contraction route there.  Mode functions multiply as
    Q_{l1 m1} Q_{l2 m2} = sum c Q_{l3, m1+m2}, so every weight of a true
    bracket vanishes off m_u + m_v = m_A + m_B, about 95 % of the block: the
    compared points are the pairs (u, v) of mode functions in that leading
    block where some weight is nonzero.  They are read from the weights, not
    from the rule, so a right-hand side off the line still shows.  The table
    carries quadrature round-off: a true bracket's residual is of order
    1e-14.  At zero total the raw central is the oscillator vacuum trace

        sum_{x ann} N_{x, conj x} K_x - (identity of the rhs),

    N = (F_A F_B (x) G_A K G_B - F_B F_A (x) G_B K G_A) / 2, over every
    mode inside the cutoffs; the torus's ``_vacuum_trace`` is the same sum.
    """

    # F_B F_A, einsum subscripts of (F_A, F_B); a pair's amplitude is half
    SWAPPED, AMPLITUDE = "ij,ki->kj", 0.5

    def __init__(self, alg: SphereAlgebra, probes):
        super().__init__(alg, probes)
        cfg = alg.cfg
        # the mode functions (l, m), R sector, in the table index's row
        # order r = l^2 + l + m: those inside a margin are a leading block
        funcs = [m for m in self.modes if m.i == 1]
        self._k1 = np.array([m.k1 for m in funcs])
        self._m = np.array([m.k2 / 2 for m in funcs])
        # K maps row conj(x) = (l, -m) to row x, with the twist of x
        self._conj = np.arange(len(funcs)) - 2 * self._m.astype(int)
        self._twist = np.array([cfg.car_pairing(m, cfg.conj(m))
                                for m in funcs])
        self._ann = np.nonzero(self._m > 0)[0]
        # each pair's block in the table index; mode_matrix checks its reach
        n, ix = len(funcs), alg.table.index
        self._blocks = [a[:n, :n] for a in (ix.start, ix.lo, ix.count)]
        self._G: dict = {}

    def mode_matrix(self, kind, mode) -> np.ndarray:
        """G of a generator; C is one masked gather of the table values."""
        if (kind, mode) not in self._G:
            _check_coverage(self.alg.cfg, self.alg.table, *mode)
            start, lo, count = self._blocks
            d = mode[0] - lo                    # twice the slot, if even
            hit = ((d >= 0) & (d < 2 * count) & (d % 2 == 0)
                   & (self._m[:, None] + self._m == mode[1]))
            at = np.where(hit, start + d // 2, 0)
            C = np.where(hit, self.alg.table.values[at], 0.0)
            if kind == "L":
                C = -(self._m[:, None] / 2) * C
            self._G[kind, mode] = C + C.T if kind == "T" else C - C.T
        return self._G[kind, mode]

    def _products(self, family, mode1, mode2):
        """G_A, G_B, K G_A and K G_B of a bracket."""
        (kind_a, _), (kind_b, _) = _generators(family, None, None)
        G = self.mode_matrix(kind_a, mode1), self.mode_matrix(kind_b, mode2)
        return (*G, *(self._twist[:, None] * g[self._conj] for g in G))

    def _points(self, family, a, b, pairs, rhss, keys):
        kept = []
        for pair, rhs in zip(pairs, rhss):
            # m mode functions inside the margins; of their m^2 pairs, the
            # points with a nonzero weight
            m = np.count_nonzero(self._k1 <= self.alg.compare_bounds(*pair)[0])
            GA, GB, KGA, KGB = self._products(family, *pair)
            # C: G_A K G_B, -G_B K G_A and -sum s G of each flavour key
            block = np.zeros((len(keys) + 2, m * m), complex)
            block[0] = np.einsum("uv,vw->uw", GA[:m], KGB[:, :m]).ravel()
            block[1] = -np.einsum("uv,vw->uw", GB[:m], KGA[:, :m]).ravel()
            for s, kind, c, mode in rhs:
                block[2 + keys.index((kind, c))] -= (
                    s * self.mode_matrix(kind, mode)[:m, :m]).ravel()
            at = np.flatnonzero(block.any(axis=0))
            kept.append((block[:, at], *np.divmod(at, m)))
        size = np.array([len(u) for _, u, _ in kept])
        for seg, _ in _chunks(size, self.alg.cfg.d ** 2):
            if len(seg):        # brackets with no weight anywhere are skipped
                yield seg, *(np.concatenate(part, axis=-1) for part in
                             zip(*kept[seg[0]:seg[-1] + 1]))

    def _vacuum_value(self, family, a, b, mode1, mode2, rhs) -> float:
        FA, FB = (self.F[key] for key in _generators(family, a, b))
        GA, GB, KGA, KGB = self._products(family, mode1, mode2)
        ann, twist = self._ann, self._twist[self._ann]
        bar = self._conj[ann]
        lhs = (np.einsum("u,uv,vu->", twist, GA[ann], KGB[:, bar])
               - np.einsum("u,uv,vu->", twist, GB[ann], KGA[:, bar]))
        trace = np.trace(np.einsum("ij,jk->ik", FA, FB)) * lhs / 2
        identity = sum(scale for scale, kind, _, mode in rhs
                       if kind == "L" and mode == (0, 0))
        # + 0.0 turns the -0.0 an LT trace can read into 0.0
        return (float(trace.real) - identity * lam_constant(self.alg.cfg)
                * self.alg.cfg.d) + 0.0


def _bracket_job(alg, family, a, b, mode1, mode2, probes, tol,
                 central_lookup, central_tol):
    (kind_a, ia), (kind_b, ib) = _generators(family, a, b)
    A = alg.op(kind_a, ia, mode1)
    B = alg.op(kind_b, ib, mode2)
    rhs = _assemble_rhs(alg, family, a, b, mode1, mode2)
    full = A.commutator(B)
    if rhs is not None:
        full = full - rhs
    margins = alg.compare_bounds(mode1, mode2)
    D = _exact_terms(full, margins)
    zero_tot = alg.zero_total(mode1, mode2)

    # independent refit of the [L, T] coefficient against the unit RHS
    field_coeff = -alg.z_mode(mode2)
    w_op = None
    if family == "LT" and rhs is not None and field_coeff != 0:
        w_op = _exact_terms(rhs.scaled(1.0 / field_coeff), margins)

    residual = 0.0
    worst_state = None
    diags = []
    knum, kden = 0j, 0.0
    for probe in probes:
        out = D.apply_state(probe)
        diag = out.pop(probe, 0)
        for s, amp in out.items():
            mag = abs(amp)
            if mag > residual:
                residual = mag
                worst_state = s
        if zero_tot:
            diags.append(diag)
        else:
            residual = max(residual, abs(diag))
        if w_op is not None:
            wp = w_op.apply_state(probe)
            out.add_term(probe, diag)
            knum += wp.inner(out)
            kden += wp.norm2()

    kappa = None
    if w_op is not None and kden > 1e-12:
        # [A,B]|probe> = D|probe> + field_coeff * w|probe>
        kappa = (knum / kden).real + field_coeff

    raw_central = None
    if zero_tot:
        mean = sum(diags) / len(diags) if diags else 0j
        spread = max((abs(v - mean) for v in diags), default=0.0)
        residual = max(residual, spread, abs(mean.imag))
        # the vacuum value of every term: on the spinors 0 and last the zero
        # modes' diagonal bilinears cancel, as in the multiplet's trace
        vacua = vacuum_states(alg.cfg)
        raw_central = sum(full.apply_state(v).get(v, 0).real
                          for v in (vacua[0], vacua[-1])) / 2
    return _result(alg, family, a, b, mode1, mode2,
                   alg.rhs_terms(family, a, b, mode1, mode2), residual,
                   raw_central, kappa, tol, central_lookup, central_tol,
                   worst_state)


def _result(alg, family, a, b, mode1, mode2, rhs, residual, raw_central,
            kappa, tol, central_lookup, central_tol,
            worst_state=None) -> BracketResult:
    """The BracketResult; a raw central marks a zero-total bracket.  ``rhs``
    is the adapter's ``rhs_terms`` of the bracket."""
    central_measured = central_expected = None
    passed = residual <= tol
    if raw_central is not None:
        central_expected = alg.central_expected(family, a, b, mode1, mode2)
        central_measured = central_lookup(family, a, b, mode1, mode2)
        passed = passed and abs(central_measured - central_expected) <= central_tol
    offender = (render_state(worst_state, alg.cfg)
                if (not passed and worst_state is not None) else None)
    return BracketResult(_lhs_label(alg, family, a, b, mode1, mode2),
                         _rhs_label(alg, rhs),
                         residual, raw_central, central_measured,
                         central_expected, passed, kappa, offender)


def _lhs_label(alg, family, a, b, mode1, mode2) -> str:
    (kind_a, ia), (kind_b, ib) = _generators(family, a, b)
    return (f"[{alg.mode_label(kind_a, ia, mode1)}, "
            f"{alg.mode_label(kind_b, ib, mode2)}]")


def _rhs_label(alg, rhs) -> str:
    parts = []
    for scale, kind, c, mode in rhs:
        if isinstance(scale, complex):
            txt = f"({scale.real:+.6g}{scale.imag:+.6g}i)"
        else:
            txt = f"{float(scale):+.6g}"
        parts.append(f"{txt}*{alg.mode_label(kind, c, mode)}")
    return " + ".join(parts) if parts else "0"


# The most brackets one sweep may hold: torus max-mode 5 at cutoffs 21/2
# (36,663 brackets) takes 2.4-2.5 s and a peak RSS of 102 MB on a 2-vCPU
# machine, most of it the report.
MAX_SWEEP_BRACKETS = 100_000

# The most modes one sector may hold: torus --max-mode 0 --window 0,0,0 at
# cutoffs 3333/2, 9/2 (100,020 modes) takes 0.9 s at a 64 MB peak on the same
# machine, 20001/2 (600,060) 3.9 s at 210 MB; each sector lists its modes.
MAX_SECTOR_MODES = 100_000

# The most oscillator combinations times spinor labels one window may list:
# so4-adjoint --max-mode 0 --window 5/2,9/2,3 at cutoffs 9/2 (972,151) takes
# 1.9 s at a 221 MB peak on the same machine.
MAX_PROBE_SCAN = 1_000_000

# The most probes times modes one window may hold, the shape of the engine's
# boolean arrays: --max-mode 0 --cutoff-m 93/2 --window 23/2,9/2,2 (21,115 x
# 2,820 = 59,544,300; the window above holds 59,182,200) takes 1.2-1.5 s at a
# 205 MB peak on the same machine, 1001/2 (634,716,900) 18.7 s at 1.86 GB.
MAX_ENGINE_CELLS = 60_000_000


def _certify(alg, window: Window, size: int, tol: float, central_method: str,
             central_tol: float) -> CommutatorReport:
    """Certify the bracket relations of one geometry on a safe window.

    Sweeps all pairs of the adapter's mode grid of the given size for the
    three bracket families, measures the regulated central charges, and
    refits the [L, T] coefficient independently.  A sector of more than
    MAX_SECTOR_MODES modes, a sweep of more than MAX_SWEEP_BRACKETS
    brackets, a window whose listing scans more than MAX_PROBE_SCAN
    combinations, or probes times modes above MAX_ENGINE_CELLS, raises
    ValueError.
    """
    modes = alg.modes(size)
    if not modes:
        raise ValueError(f"empty bracket sweep at size {size}")
    cfg, rep = alg.cfg, alg.rep
    if cfg.mode_count() > MAX_SECTOR_MODES:
        raise ValueError(f"sector {cfg.describe()} holds {cfg.mode_count()} "
                         f"modes, above the limit of {MAX_SECTOR_MODES}")
    # every mode of a probe is on its own a probe of the same window, so the
    # window of at most one particle has the full window's reach, and is
    # empty with it: the checks below run before the full window is built
    single = probe_states(cfg, Window(window.w_z2, window.w_a2,
                                      min(window.n_max, 1)))
    if not single:
        raise ValueError(f"window {window.describe()} holds no probe state")
    n = len(modes)
    n_brackets = 2 * n * n + n * (n + 1) // 2       # TT, LT; LL for i <= j
    if n_brackets > MAX_SWEEP_BRACKETS:
        raise ValueError(f"a sweep of {n_brackets} brackets at size {size} "
                         f"exceeds the limit of {MAX_SWEEP_BRACKETS}")
    # the groups' pairs are modes x modes: guard them before the groups
    # exist, so a window that fails does so at once
    reach = _probe_reach(single)
    for mode1 in modes:
        for mode2 in modes:
            alg.guard(reach, mode1, mode2)
    # enumerate_states tries every set of at most n_max oscillators within
    # the window's z bound, for each sampled spinor label
    n_osc = sum(cfg.z_index2(m) <= window.w_z2 for m in cfg.oscillator_modes())
    scan = len(_window_sigmas(cfg)) * sum(
        math.comb(n_osc, k) for k in range(min(window.n_max, n_osc) + 1))
    if scan > MAX_PROBE_SCAN:
        raise ValueError(f"window {window.describe()} scans {scan} "
                         f"combinations, above the limit of {MAX_PROBE_SCAN}")
    pairs = [(m1, m2) for m1 in modes for m2 in modes]
    groups = [("TT", 1, 2, pairs), ("LL", None, None, [
        (m1, m2) for i1, m1 in enumerate(modes) for m2 in modes[i1:]]),
        ("LT", 1, 1, pairs)]

    @functools.cache
    def central(family, m, a, b, p, degrees):
        return measure_central(family, m, rep=rep, cfg=cfg, a=a, b=b, p=p,
                               degrees=degrees, method=central_method)

    def central_lookup(family, a, b, mode1, mode2):
        if family == "LT":
            return 0.0
        return central(*alg.central_key(family, a, b, mode1, mode2,
                                        central_method))

    # a configuration that cannot measure its charges fails here, before
    # any bracket is checked; the charges read the sweep's memo
    charges, charge_pairs = alg.charges(central_lookup)
    report = CommutatorReport(d=cfg.d, rep=rep.name, window=window.describe(),
                              tol=tol, charges=charges, **alg.header())
    probes = probe_states(cfg, window)
    cells = len(probes) * cfg.mode_count()
    if cells > MAX_ENGINE_CELLS:
        raise ValueError(f"window {window.describe()} holds {len(probes)} "
                         f"probes times {cfg.mode_count()} modes = {cells}, "
                         f"above the limit of {MAX_ENGINE_CELLS}")
    engine = alg.engine(probes)
    report.brackets = [res for family, a, b, group in groups for res in
                       engine.jobs(family, a, b, group, tol, central_lookup,
                                   central_tol)]
    kappas = [(m1, m2, r.kappa) for r, (m1, m2)
              in zip(report.brackets[-len(pairs):], pairs)  # [L, T] last
              if r.kappa is not None]
    max_dev = max((abs(k - (-alg.z_mode(m2))) for _, m2, k in kappas),
                  default=0.0)
    report.lt_summary = {
        "rule": "-(z mode of T)",
        "max_deviation_from_rule": max_dev,
        **alg.lt_variant(kappas, tol),
        "pairs_measured": len(kappas),
    }

    charges_ok = all(abs(v - e) <= central_tol for v, e in charge_pairs)
    report.passed = (all(r.passed for r in report.brackets) and charges_ok
                     and max_dev <= max(tol, alg.kappa_bound))
    return report


def check_torus_algebra(cfg: SectorConfig, rep: LieAlgebraRep, window: Window,
                        tol: float = 1e-9, max_mode: int = 2,
                        central_method: str = "analytic") -> CommutatorReport:
    """Certify the torus bracket relations for all |m|, |p| <= max_mode;
    the central charges are checked at tol too."""
    return _certify(TorusAlgebra(cfg, rep), window, max_mode, tol,
                    central_method, tol)


def check_sphere_realization(cfg: SectorConfig, rep: LieAlgebraRep,
                             table: StructureTable, window: Window,
                             tol: float = 1e-9, max_l: int = 1,
                             central_tol: float = 1e-8) -> CommutatorReport:
    """Certify the sphere bracket relations for all degrees l <= max_l."""
    return _certify(SphereAlgebra(cfg, rep, table), window, max_l, tol,
                    "analytic", central_tol)


# ---------------------------------------------------------------------------
# Abstract sphere algebra (free module over generator symbols)
# ---------------------------------------------------------------------------

def _abstract_bracket(alg: SphereAlgebra, x, y) -> dict:
    """Bracket of two generator symbols in the abstract sphere algebra.

    Symbols: ("L", l, m), ("T", a, l, m), ("C",), ("K",).  Central symbols
    commute with everything.  The operator part is the adapter's
    ``rhs_terms`` and the central part its ``central_unit``, in units of c
    (``("C",)``) or k (``("K",)``).
    """
    if x[0] in ("C", "K") or y[0] in ("C", "K"):
        return {}
    if x[0] == "T" and y[0] == "L":
        return {s: -c for s, c in _abstract_bracket(alg, y, x).items()}
    family = x[0] + y[0]
    a, b = (s[1] if s[0] == "T" else None for s in (x, y))
    mode1, mode2 = x[-2:], y[-2:]
    out = {(kind, c, *target) if c else (kind, *target): scale
           for scale, kind, c, target
           in alg.rhs_terms(family, a, b, mode1, mode2)}
    unit = alg.central_unit(family, a, b, mode1, mode2)
    if unit:
        out[("K",) if family == "TT" else ("C",)] = unit
    return out


def _jacobi(bracket, x, y, z) -> dict:
    """[[x, y], z] + [[y, z], x] + [[z, x], y], each term summed apart."""
    total: dict = {}
    for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
        term: dict = {}
        for s, c in bracket(u, v).items():
            for sz, cz in bracket(s, w).items():
                accumulate(term, sz, c * cz)
        for sz, c in term.items():
            accumulate(total, sz, c)
    return total


def check_sphere_abstract(table: StructureTable, rep: LieAlgebraRep,
                          l_probe: int = 2, tol: float = 1e-10) -> dict:
    """Max Jacobi residual over generator triples with degree <= l_probe.

    The brackets are those the sweep certifies, ``SphereAlgebra``'s
    relations on ``table``; the abstract algebra reads no Fock sector.
    """
    if table.L_max < 3 * l_probe:
        raise ValueError(f"need table degree >= {3 * l_probe}, "
                         f"have {table.L_max}")
    alg = SphereAlgebra(None, rep, table)
    # a run asks for each pair many times: 51,756 brackets of 3,600 pairs
    # for so(3) at l_probe 2
    bracket = functools.cache(functools.partial(_abstract_bracket, alg))
    modes = alg.modes(l_probe)
    gens = [("L", *mode) for mode in modes]
    gens += [("T", a, *mode) for a in range(1, rep.dim_g + 1)
             for mode in modes]
    worst = 0.0
    worst_triple = None
    n_checked = 0
    for triple in itertools.combinations_with_replacement(gens, 3):
        n_checked += 1
        res = max(map(abs, _jacobi(bracket, *triple).values()), default=0.0)
        if res > worst:
            worst, worst_triple = res, triple
    return {
        "task": "sphere-abstract",
        "l_probe": l_probe,
        "table_L_max": table.L_max,
        "rep": rep.name,
        "triples_checked": n_checked,
        "max_jacobi_residual": worst,
        "worst_triple": None if worst_triple is None else repr(worst_triple),
        "tol": tol,
        "pass": worst <= tol,
    }
