"""Exact scalar arithmetic over the ring Q(i, sqrt2).

Fock-space matrix elements of the mode operators only ever involve rational
numbers, factors of i from the paired zero-mode construction, and factors of
1/sqrt(2) from self-conjugate modes.  Keeping these exact makes the canonical
anticommutator checks return residual 0 rather than 1e-16.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Number = Union[int, Fraction, float, complex, "SqrtTwoScalar"]


class SqrtTwoScalar:
    """Element (ra + rb*sqrt2) + i*(ia + ib*sqrt2) with Fraction components."""

    __slots__ = ("ra", "rb", "ia", "ib")

    def __init__(self, ra=0, rb=0, ia=0, ib=0):
        self.ra = Fraction(ra)
        self.rb = Fraction(rb)
        self.ia = Fraction(ia)
        self.ib = Fraction(ib)

    @staticmethod
    def _coerce(x) -> "SqrtTwoScalar | None":
        if isinstance(x, SqrtTwoScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return SqrtTwoScalar(ra=x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) + other
        return SqrtTwoScalar(self.ra + o.ra, self.rb + o.rb,
                             self.ia + o.ia, self.ib + o.ib)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) * other
        # (r1 + i*s1)(r2 + i*s2) with r, s in Q(sqrt2)
        def qmul(x1, y1, x2, y2):
            return x1 * x2 + 2 * y1 * y2, x1 * y2 + y1 * x2

        rr_a, rr_b = qmul(self.ra, self.rb, o.ra, o.rb)
        ss_a, ss_b = qmul(self.ia, self.ib, o.ia, o.ib)
        rs_a, rs_b = qmul(self.ra, self.rb, o.ia, o.ib)
        sr_a, sr_b = qmul(self.ia, self.ib, o.ra, o.rb)
        return SqrtTwoScalar(rr_a - ss_a, rr_b - ss_b, rs_a + sr_a, rs_b + sr_b)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is not None:
            return ((self.ra, self.rb, self.ia, self.ib)
                    == (o.ra, o.rb, o.ia, o.ib))
        if isinstance(other, (float, complex)):
            # exact: a nonzero sqrt2 part is irrational and equals no float
            return (not (self.rb or self.ib) and self.ra == other.real
                    and self.ia == other.imag)
        return NotImplemented

    def __complex__(self):
        s = 2 ** 0.5
        return complex(float(self.ra) + float(self.rb) * s,
                       float(self.ia) + float(self.ib) * s)

    def __repr__(self):
        return (f"SqrtTwoScalar({self.ra}, {self.rb}, {self.ia}, {self.ib})")


def scalar_mul(x: Number, y: Number) -> Number:
    """x * y.  No km2d code calls it; perfbench/tracer.py counts it by name."""
    return x * y
