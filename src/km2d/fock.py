"""Truncated fermionic Fock spaces on the two-torus and the two-sphere.

Mode conventions
----------------
All half-integer indices are stored doubled (see :mod:`km2d.halfints`).  A
:class:`Mode` is ``(i, k1, k2, eta)`` with flavour ``i`` starting at 1:

* torus:      k1 = 2m (z index), k2 = 2p (angular index), eta = 0
* sphere R:   k1 = 2l, k2 = 2m, eta = 0
* sphere NS:  k1 = 2l, k2 = 2m (both half-odd), eta = +-1

States are kept as a spinor label into the zero-mode Clifford module plus a
sorted tuple of *occupied oscillators*: the oscillator labels are the modes
that are strictly positive under the ordering (z > 0, or z = 0 and angular
> 0 on the torus).  Physical operators b_mode translate into oscillator
creation/annihilation with the reality twists of each geometry:

* torus:      {b_{mp}, b_{nq}} = d^{ij} d_{m+n} d_{p+q},  b^+ = b_{-m,-p}
* sphere R:   {b_{lm}, b_{l'm'}} = (-1)^m d^{ij} d_{ll'} d_{m+m'}
* sphere NS:  {b^{e}_{lm}, b^{e'}_{l'm'}} = d^{ij} d_{ll'} d_{m+m'} d_{e+e'}

Self-conjugate modes (m = p = 0 on the torus R,R; m = 0 on the sphere R)
generate a Clifford algebra realized on a 2^{floor(G/2)}-dimensional module
by pairing consecutive generators into fermionic oscillators; an unpaired
last generator acts diagonally as the parity operator, +-1.  A zero mode is
b_z = gamma_z / sqrt2, its 1/sqrt2 applied once per product (ZERO_MODE_SQUARE).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

from .halfints import fmt_half, lattice_range, to_doubled

__all__ = [
    "Mode",
    "FockState",
    "StateVector",
    "SectorConfig",
    "torus_sector",
    "sphere_sector",
    "ModeOperator",
    "vacuum_states",
    "check_car",
    "enumerate_states",
    "render_state",
]


class Mode(NamedTuple):
    i: int
    k1: int
    k2: int
    eta: int


class FockState(NamedTuple):
    sigma: int
    occ: tuple  # sorted tuple of oscillator Modes


# gamma_z maps a basis spinor to one spinor times one of these units: index
# 2 * (imaginary) + (negative) gives +-1, +-i
CLIFFORD_UNITS = (1, -1, 1j, -1j)

# b_z b_z = 1/2, so b_z = gamma_z / sqrt2 (Lawson & Michelsohn, Spin Geometry,
# 1989, ch. I).  k zero modes in one product are scaled once, by this to the
# k/2: two give 1/2 exactly, not the 0.5000000000000001 of two rounded 1/sqrt2.
ZERO_MODE_SQUARE = 0.5


@dataclass(frozen=True)
class SectorConfig:
    """Geometry, boundary-condition sectors, flavour count and cutoffs."""

    geometry: str               # "torus" | "sphere"
    z_sector: str               # "R" | "NS"
    d: int
    angular_sector: Optional[str] = None   # torus only
    m2_cut: int = 0             # torus z cutoff, doubled
    p2_cut: int = 0             # torus angular cutoff, doubled
    l2_cut: int = 0             # sphere degree cutoff, doubled

    def __post_init__(self):
        if self.geometry not in ("torus", "sphere"):
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.z_sector not in ("R", "NS"):
            raise ValueError(f"unknown z sector {self.z_sector!r}")
        if self.d < 1:
            raise ValueError("need at least one flavour")
        if self.geometry == "torus":
            if self.angular_sector not in ("R", "NS"):
                raise ValueError("torus needs an angular sector R or NS")
            if self.m2_cut <= 0 or self.p2_cut < 0:
                raise ValueError("torus cutoffs must be positive")
            # p2_cut == 0 (R only) is the degenerate single-angular-mode
            # sector used internally to isolate the z-direction anomaly
            if self.m2_cut % 2 != (1 if self.z_sector == "NS" else 0):
                raise ValueError(
                    f"z cutoff {fmt_half(self.m2_cut)} has wrong parity for "
                    f"{self.z_sector} modes")
            if self.p2_cut % 2 != (1 if self.angular_sector == "NS" else 0):
                raise ValueError(
                    f"angular cutoff {fmt_half(self.p2_cut)} has wrong parity "
                    f"for {self.angular_sector} modes")
        else:
            if self.angular_sector is not None:
                raise ValueError("sphere has a single sector label")
            if self.l2_cut < 0:
                raise ValueError("sphere cutoff must be nonnegative")
            if self.l2_cut % 2 != (1 if self.z_sector == "NS" else 0):
                raise ValueError(
                    f"degree cutoff {fmt_half(self.l2_cut)} has wrong parity "
                    f"for {self.z_sector} modes")

    # -- descriptions ------------------------------------------------------

    def describe(self) -> str:
        if self.geometry == "torus":
            return (f"torus({self.z_sector},{self.angular_sector}) d={self.d} "
                    f"|m|<={fmt_half(self.m2_cut)} |p|<={fmt_half(self.p2_cut)}")
        return (f"sphere({self.z_sector}) d={self.d} "
                f"l<={fmt_half(self.l2_cut)}")

    # -- ordering, conjugation, pairing ------------------------------------

    def z_index2(self, mode: Mode) -> int:
        return mode.k1 if self.geometry == "torus" else mode.k2

    def classify(self, mode: Mode) -> str:
        """'ann' for strictly positive modes, 'cre' for negatives, 'zero'."""
        if self.geometry == "torus":
            if mode.k1 > 0 or (mode.k1 == 0 and mode.k2 > 0):
                return "ann"
            if mode.k1 == 0 and mode.k2 == 0:
                return "zero"
            return "cre"
        if mode.k2 > 0:
            return "ann"
        if mode.k2 == 0:
            return "zero"
        return "cre"

    def conj(self, mode: Mode) -> Mode:
        if self.geometry == "torus":
            return Mode(mode.i, -mode.k1, -mode.k2, 0)
        return Mode(mode.i, mode.k1, -mode.k2, -mode.eta)

    def car_pairing(self, x: Mode, y: Mode):
        """c-number {b_x, b_y}; exact int."""
        if y != self.conj(x):
            return 0
        if self.geometry == "sphere" and self.z_sector == "R":
            return -1 if (x.k2 // 2) % 2 else 1
        return 1

    @functools.cached_property
    def conj_pairing(self) -> dict:
        """mode -> (conj(mode), {b_mode, b_conj(mode)}) for every mode.

        The pairing is also the reality twist t of (b_mode)^+ = t b_conj(mode).
        Built on first use, by the first commutator or creator applied: a
        sector whose central terms are traces never builds it.
        """
        out = {}
        for mode in self.all_modes():
            conj = self.conj(mode)
            out[mode] = (conj, self.car_pairing(mode, conj))
        return out

    # -- zero-mode Clifford module ------------------------------------------

    @functools.cached_property
    def zero_modes(self) -> tuple:
        if self.geometry == "torus":
            if self.z_sector == "R" and self.angular_sector == "R":
                return tuple(Mode(i, 0, 0, 0) for i in range(1, self.d + 1))
            return ()
        if self.z_sector == "R":
            lmax = self.l2_cut // 2
            return tuple(Mode(i, 2 * l, 0, 0)
                         for i in range(1, self.d + 1)
                         for l in range(lmax + 1))
        return ()

    def zero_mode_index(self, mode: Mode) -> int:
        if self.geometry == "torus":
            return mode.i - 1
        lmax = self.l2_cut // 2
        return (mode.i - 1) * (lmax + 1) + mode.k1 // 2

    def spinor_dim(self) -> int:
        return 1 << (len(self.zero_modes) // 2)

    def clifford_action(self, gen: int, sigma: int, odd: int = 0):
        """Action of gamma for zero-mode generator #gen: (unit, sigma').

        ``odd`` is 1 when the generator first anticommutes past an odd
        number of oscillators, which negates the unit.  The unit is one of
        ``CLIFFORD_UNITS``, picked by bit parities.
        """
        n_gen = len(self.zero_modes)
        if n_gen % 2 and gen == n_gen - 1:
            return CLIFFORD_UNITS[(sigma.bit_count() + odd) & 1], sigma
        k, r = divmod(gen, 2)
        neg = (sigma & ((1 << k) - 1)).bit_count() + odd
        if r:
            # -i(a - a^+): +i on empty, -i on occupied
            neg += (sigma >> k) & 1
        return CLIFFORD_UNITS[2 * r + (neg & 1)], sigma ^ (1 << k)

    # -- lattices ------------------------------------------------------------

    def z_lattice(self) -> list:
        if self.geometry == "torus":
            return lattice_range(self.m2_cut, self.z_sector == "NS")
        raise ValueError("sphere modes are enumerated by (l, m)")

    def angular_lattice(self) -> list:
        return lattice_range(self.p2_cut, self.angular_sector == "NS")

    def all_modes(self) -> list:
        """Every mode within cutoffs, in deterministic order."""
        out = []
        if self.geometry == "torus":
            for i in range(1, self.d + 1):
                for k1 in self.z_lattice():
                    for k2 in self.angular_lattice():
                        out.append(Mode(i, k1, k2, 0))
            return out
        par = 1 if self.z_sector == "NS" else 0
        etas = (1, -1) if self.z_sector == "NS" else (0,)
        for i in range(1, self.d + 1):
            for k1 in range(par, self.l2_cut + 1, 2):
                for k2 in range(-k1, k1 + 1, 2):
                    for eta in etas:
                        out.append(Mode(i, k1, k2, eta))
        return out

    def mode_count(self) -> int:
        """len(all_modes()), counted from the lattice sizes alone."""
        if self.geometry == "torus":
            # a lattice of doubled cutoff c holds c + 1 points in either sector
            return self.d * (self.m2_cut + 1) * (self.p2_cut + 1)
        # n degrees; the one of doubled degree k1 holds k1 + 1 values of m
        par = self.l2_cut % 2
        n = (self.l2_cut - par) // 2 + 1
        return self.d * n * (n + par) * (1 + par)

    def oscillator_modes(self) -> list:
        return [m for m in self.all_modes() if self.classify(m) == "ann"]

    # -- grading ---------------------------------------------------------

    def grade2(self, state: FockState):
        """(doubled z-level, doubled charge); charge decreases under b_{.,q}."""
        if self.geometry == "torus":
            z2 = sum(m.k1 for m in state.occ)
            c2 = sum(m.k2 for m in state.occ)
        else:
            z2 = sum(m.k2 for m in state.occ)
            c2 = z2
        return z2, c2


def torus_sector(z: str, angular: str, d: int, m_cut, p_cut) -> SectorConfig:
    return SectorConfig(geometry="torus", z_sector=z, angular_sector=angular,
                        d=d, m2_cut=to_doubled(m_cut), p2_cut=to_doubled(p_cut))


def sphere_sector(z: str, d: int, l_cut) -> SectorConfig:
    return SectorConfig(geometry="sphere", z_sector=z, d=d,
                        l2_cut=to_doubled(l_cut))


# ---------------------------------------------------------------------------
# States and state vectors
# ---------------------------------------------------------------------------

def accumulate(terms: dict, key, coeff) -> None:
    """Add coeff into a sparse dict; a key whose sum is exactly 0 is dropped."""
    cur = terms.get(key)
    if cur is None:
        terms[key] = coeff
    else:
        s = cur + coeff
        if s == 0:
            del terms[key]
        else:
            terms[key] = s


class StateVector(dict):
    """Sparse map FockState -> amplitude (a Python number)."""

    add_term = accumulate

    def inner(self, other: "StateVector") -> complex:
        """<self|other> with conjugation on self."""
        if len(self) > len(other):
            return other.inner(self).conjugate()
        acc = 0j
        for s, a in self.items():
            b = other.get(s)
            if b is not None:
                acc += a.conjugate() * b
        return acc

    def norm2(self) -> float:
        return sum(abs(a) ** 2 for a in self.values())


def vacuum_states(cfg: SectorConfig) -> list:
    """The vacuum multiplet: one state per spinor label."""
    return [FockState(s, ()) for s in range(cfg.spinor_dim())]


def _apply_b(cfg: SectorConfig, mode: Mode, state: FockState):
    """Apply physical b_mode to a basis state; (coeff, state') or None.
    A zero mode's coeff is its unit gamma_z, without the 1/sqrt2."""
    kind = cfg.classify(mode)
    occ = state.occ
    if kind == "ann":
        try:
            j = occ.index(mode)
        except ValueError:
            return None
        sign = -1 if j % 2 else 1
        return sign, FockState(state.sigma, occ[:j] + occ[j + 1:])
    if kind == "cre":
        osc, twist = cfg.conj_pairing[mode]
        if osc in occ:
            return None
        j = 0
        while j < len(occ) and occ[j] < osc:
            j += 1
        sign = -1 if j % 2 else 1
        return sign * twist, FockState(state.sigma, occ[:j] + (osc,) + occ[j:])
    # zero mode: anticommute past all explicit creators, then act on sigma
    gen = cfg.zero_mode_index(mode)
    coeff, sigma = cfg.clifford_action(gen, state.sigma, len(occ) & 1)
    return coeff, FockState(sigma, occ)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

class ModeOperator:
    """Finite combination of ordered products of b operators (lazy action).

    terms maps a tuple of modes (applied right to left) to a coefficient;
    the empty tuple is a multiple of the identity.  Supports addition,
    scaling, exact bilinear commutators via the canonical anticommutation
    relations, and application to basis states.
    """

    __slots__ = ("cfg", "terms", "_groups")

    def __init__(self, cfg: SectorConfig, terms: dict):
        self.cfg = cfg
        self.terms = terms
        self._groups = None

    # -- algebraic combinations -------------------------------------------

    def _merged(self, other_terms, scale=1):
        out = dict(self.terms)
        for key, c in other_terms.items():
            accumulate(out, key, c * scale)
        return out

    def __add__(self, other: "ModeOperator") -> "ModeOperator":
        return ModeOperator(self.cfg, self._merged(other.terms))

    def __sub__(self, other: "ModeOperator") -> "ModeOperator":
        return ModeOperator(self.cfg, self._merged(other.terms, -1))

    def scaled(self, c) -> "ModeOperator":
        return ModeOperator(self.cfg,
                            {k: v * c for k, v in self.terms.items()})

    def commutator(self, other: "ModeOperator") -> "ModeOperator":
        """[self, other] for bilinear operators, exact via the CAR.

        [b1 b2, b3 b4] = {b2,b3} b1 b4 - {b1,b3} b2 b4
                       + {b2,b4} b3 b1 - {b1,b4} b3 b2
        """
        cfg = self.cfg
        pairing = cfg.conj_pairing
        by_first: dict = {}
        by_second: dict = {}
        for key, c in other.terms.items():
            if len(key) == 0:
                continue        # identity component commutes
            if len(key) != 2:
                raise ValueError("commutator needs bilinear operators")
            by_first.setdefault(key[0], []).append((key, c))
            by_second.setdefault(key[1], []).append((key, c))
        out: dict = {}
        for key_a, ca in self.terms.items():
            if len(key_a) == 0:
                continue        # identity component commutes
            if len(key_a) != 2:
                raise ValueError("commutator needs bilinear operators")
            x, y = key_a
            # a mode pairs only with its conjugate, so {b_y, b_z} with
            # z = conj(y) is ky, and likewise kx
            cx, kx = pairing[x]
            cy, ky = pairing[y]
            for (z, w), cb in by_first.get(cy, ()):
                accumulate(out, (x, w), ca * cb * ky)
            for (z, w), cb in by_first.get(cx, ()):
                accumulate(out, (y, w), ca * cb * -kx)
            for (z, w), cb in by_second.get(cy, ()):
                accumulate(out, (z, x), ca * cb * ky)
            for (z, w), cb in by_second.get(cx, ()):
                accumulate(out, (z, y), ca * cb * -kx)
        return ModeOperator(cfg, out)

    # -- application -------------------------------------------------------

    def _term_requirement(self, key):
        """Oscillators the term annihilates that it did not create itself."""
        cfg = self.cfg
        required, created = set(), set()
        for mode in reversed(key):
            kind = cfg.classify(mode)
            if kind == "ann":
                if mode in created:
                    created.discard(mode)
                else:
                    required.add(mode)
            elif kind == "cre":
                created.add(cfg.conj(mode))
        return frozenset(required)

    def _build_groups(self):
        groups: dict = {}
        depth = 0
        for key, c in self.terms.items():
            zeros = sum(self.cfg.classify(m) == "zero" for m in key)
            if zeros:
                c = c * ZERO_MODE_SQUARE ** (zeros / 2)
            req = self._term_requirement(key)
            depth = max(depth, len(req))
            groups.setdefault(req, []).append((key, c))
        self._groups = (groups, depth)
        return self._groups

    def _apply_term(self, key, coeff, state: FockState, out: StateVector):
        c, s = coeff, state
        for mode in reversed(key):
            res = _apply_b(self.cfg, mode, s)
            if res is None:
                return
            f, s = res
            c = c * f
        out.add_term(s, c)

    def apply_state(self, state: FockState) -> StateVector:
        """Image of a basis state on the truncated space.

        Only terms whose annihilated oscillators are all occupied in the
        state are tried.  Which terms may be compared with the untruncated
        algebra is the caller's decision (see ``verifier``).
        """
        groups, depth = self._groups or self._build_groups()
        out = StateVector()
        occ = state.occ
        subsets = {frozenset()}
        for n in range(1, min(depth, len(occ)) + 1):
            subsets.update(frozenset(c) for c in itertools.combinations(occ, n))
        for req in subsets:
            for key, coeff in groups.get(req, ()):
                self._apply_term(key, coeff, state, out)
        return out


def add_normal_ordered(terms: dict, cfg: SectorConfig, mode_a: Mode,
                       mode_b: Mode, scale) -> None:
    """Accumulate scale * :b_a b_b: into a term dict.

    The case split is on the z index of the first factor: reversed with a
    sign for positive z, untouched for negative z, and the antisymmetrized
    half-difference on the z = 0 line.
    """
    z = cfg.z_index2(mode_a)
    # -1 * x, not -x: on complex x the two can differ in the sign of a
    # zero real part, and reports are pinned byte for byte
    if z > 0:
        items = (((mode_b, mode_a), -1 * scale),)
    elif z < 0:
        items = (((mode_a, mode_b), scale),)
    else:
        half = scale * Fraction(1, 2)
        items = (((mode_a, mode_b), half),
                 ((mode_b, mode_a), -1 * half))
    for key, c in items:
        accumulate(terms, key, c)


# ---------------------------------------------------------------------------
# Enumeration, CAR checks, rendering
# ---------------------------------------------------------------------------

def enumerate_states(cfg: SectorConfig, max_z2: int, max_particles: int,
                     sigmas: Optional[Iterable[int]] = None) -> list:
    """All states with doubled z-level <= max_z2 and <= max_particles."""
    osc = sorted(m for m in cfg.oscillator_modes()
                 if cfg.z_index2(m) <= max_z2)
    sig = list(sigmas) if sigmas is not None else list(range(cfg.spinor_dim()))
    out = []
    # combinations(osc, n) allocates n indices even when osc is shorter
    for n in range(min(max_particles, len(osc)) + 1):
        for combo in itertools.combinations(osc, n):
            if sum(map(cfg.z_index2, combo)) > max_z2:
                continue
            for s in sig:
                out.append(FockState(s, combo))
    out.sort()
    return out


# The most work one CAR check may take, in ordered mode pairs times basis
# states.  In-process on a 2-vCPU Intel Xeon a unit costs 2.8 us without
# zero modes and up to 5 us with only zero modes (sphere R d=16 l=0, 65,536
# units, 0.33 s); the README's torus R,R d=3 example (62,694) takes 0.2 s.
MAX_CAR_WORK = 100_000


def check_car(cfg: SectorConfig) -> float:
    """Max residual of {b_x, b_y} against the postulated c-number.

    Every ordered mode pair of the sector is checked on the states of
    doubled z-level <= 2 max(1, d // 2) with at most two particles: b_y and
    then b_x, and b_x and then b_y, are applied to each state in turn, so
    two zero modes meet as two Clifford units, scaled once as a pair.  The
    residual is exactly zero; any nonzero return signals a sign or
    normalisation error in the fermionic bookkeeping.  A check of more than
    MAX_CAR_WORK pairs times states raises ValueError.
    """
    pairs = cfg.mode_count() ** 2
    # every spinor label's vacuum is a basis state: pairs times labels is a
    # floor on the work, refused before any zero mode or state is built
    work = pairs if pairs > MAX_CAR_WORK else pairs * cfg.spinor_dim()
    if work <= MAX_CAR_WORK:
        basis = enumerate_states(cfg, max_z2=2 * max(1, cfg.d // 2),
                                 max_particles=2)
        work = pairs * len(basis)
    if work > MAX_CAR_WORK:
        raise ValueError(f"a CAR check of {cfg.describe()} takes at least "
                         f"{work} mode pairs times states, above the limit of "
                         f"{MAX_CAR_WORK}")
    modes = cfg.all_modes()
    zero = [cfg.classify(mode) == "zero" for mode in modes]
    worst = 0.0
    for state in basis:
        images = [_apply_b(cfg, mode, state) for mode in modes]
        for x, zx, bx in zip(modes, zero, images):
            for y, zy, by in zip(modes, zero, images):
                scale = ZERO_MODE_SQUARE ** ((zx + zy) / 2)
                out = StateVector()
                for mode, image in ((x, by), (y, bx)):
                    res = image and _apply_b(cfg, mode, image[1])
                    if res:
                        out.add_term(res[1], scale * image[0] * res[0])
                out.add_term(state, -cfg.car_pairing(x, y))
                worst = max([worst, *map(abs, out.values())])
    return worst


def render_state(state: FockState, cfg: SectorConfig) -> str:
    """Deterministic text form, physical creation labels inside the ket."""
    parts = []
    for osc in state.occ:
        phys = cfg.conj(osc)
        if cfg.geometry == "torus":
            parts.append(f"({phys.i},{fmt_half(phys.k1)},{fmt_half(phys.k2)})")
        elif cfg.z_sector == "R":
            parts.append(f"({phys.i},{phys.k1 // 2},{phys.k2 // 2})")
        else:
            sgn = "+" if phys.eta > 0 else "-"
            parts.append(f"({phys.i},{fmt_half(phys.k1)},{fmt_half(phys.k2)},{sgn})")
    body = ",".join(parts)
    if body:
        return f"|sigma={state.sigma}; {body}>"
    return f"|sigma={state.sigma}>"
