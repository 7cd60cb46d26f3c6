"""Heat-kernel sums, finite-part extraction and regularized multiplicities.

The divergent mode sums that multiply the central terms are damped by a
regulator eps and assigned their Laurent finite part at eps -> 0.  For the
lattice sums appearing here this is the Hurwitz value zeta(0, a) = 1/2 - a,
so every supported angular multiplicity regularizes to exactly 1:

    NS:  2 * sum_{k>=0} e^{-2 eps k}            ->  2 zeta(0, 0)      = 1
    R:   2 * sum_{k>=0} e^{-2 eps (k - 1/2)} - 1 ->  2 zeta(0,-1/2) - 1 = 1

On the sphere the degree sums carry a free constant a_m in the damped basis
functions; a_m is fixed by a one-dimensional linear solve so that the finite
part of the degree sum is 1 as well.  The analogous half-integer-basis sum
diverges logarithmically and its finite part cannot be tuned by a_m; asking
for it raises :class:`UnresolvedPrescriptionError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "HeatSum",
    "UnresolvedPrescriptionError",
    "hurwitz_zeta_at_zero",
    "heat_sum_finite_part",
    "richardson_finite_part",
    "delta_reg_zero",
    "solve_a_m",
]


class UnresolvedPrescriptionError(Exception):
    """No finite-part prescription exists for the requested descriptor."""


def hurwitz_zeta_at_zero(a: float) -> float:
    """Analytic continuation value zeta(0, a) = 1/2 - a."""
    return 0.5 - a


@dataclass(frozen=True)
class HeatSum:
    """The damped lattice sum sum_{k>=0} exp(-2 eps (k*step + offset))."""

    step: int
    offset: float

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")


def heat_sum_finite_part(s: HeatSum) -> tuple:
    """(pole coefficient, finite part) of the Laurent expansion at eps -> 0.

    From the closed geometric form: the pole is 1/(2*step) (coefficient of
    1/eps) and the finite part is zeta(0, offset/step).
    """
    return 1.0 / (2 * s.step), hurwitz_zeta_at_zero(s.offset / s.step)


def _neville_at_zero(xs, ys) -> float:
    tab = [float(y) for y in ys]
    n = len(tab)
    for k in range(1, n):
        for i in range(n - k):
            tab[i] = ((xs[i + k] * tab[i] - xs[i] * tab[i + 1])
                      / (xs[i + k] - xs[i]))
    return tab[0]


def richardson_finite_part(fn: Callable[[float], float], eps0: float = 0.1,
                           levels: int = 8) -> tuple:
    """Extrapolated (pole coefficient, finite part) of fn(eps) ~ A/eps + B.

    Samples at eps0 / 2^k; first extrapolates g(eps) = eps * fn(eps) to get
    the pole, then the pole-subtracted values for the finite part.
    """
    xs = [eps0 / 2 ** k for k in range(levels)]
    vals = [fn(x) for x in xs]
    pole = _neville_at_zero(xs, [x * v for x, v in zip(xs, vals)])
    finite = _neville_at_zero(xs, [v - pole / x for x, v in zip(xs, vals)])
    return pole, finite


# ---------------------------------------------------------------------------
# Regularized multiplicities
# ---------------------------------------------------------------------------

def solve_a_m(m: int) -> float:
    """Damping offset making the sphere degree-sum finite part equal 1.

    The divergent part of the degree sum is (4/pi) * sum_j e^{-2 eps (2j +
    2|m| + a_m)}; its finite part is affine in a_m, so the defining condition
    is a one-dimensional linear equation with a unique solution.
    """
    base = 2 * abs(int(m))

    def fp(a):
        return (4.0 / math.pi) * heat_sum_finite_part(HeatSum(2, base + a))[1]

    f0, f1 = fp(0.0), fp(1.0)
    return (1.0 - f0) / (f1 - f0)


def delta_reg_zero(geometry: str, sector: str, m: int = 0) -> float:
    """Regularized coincident-point multiplicity; 1 for every supported case
    (on the sphere |m| <= MAX_TABLE_DEGREE: it drifts from 1 past m = 404)."""
    if geometry == "torus":
        if sector == "NS":
            return 2.0 * heat_sum_finite_part(HeatSum(1, 0.0))[1]
        if sector == "R":
            # m = 0 term tends to 1; the rest pairs into offset-1/2 sums
            return 1.0 + 2.0 * heat_sum_finite_part(HeatSum(1, 0.5))[1]
        raise ValueError(f"unknown sector {sector!r}")
    if geometry == "sphere":
        if sector == "R":
            a_m = solve_a_m(m)
            return (4.0 / math.pi) * heat_sum_finite_part(
                HeatSum(2, 2 * abs(int(m)) + a_m))[1]
        if sector == "NS":
            raise UnresolvedPrescriptionError(
                "sphere NS degree sums diverge logarithmically; their finite "
                "part cannot be normalized by the damping offset")
        raise ValueError(f"unknown sector {sector!r}")
    raise ValueError(f"unknown geometry {geometry!r}")
