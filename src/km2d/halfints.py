"""Half-integer lattice indices, stored as doubled integers.

A mode index m in Z (R sector) or Z+1/2 (NS sector) is stored as the exact
integer 2m.  Parsing accepts "3/2", "-1/2", "4", "4.5", 1.5, Fraction(3,2).
"""

from __future__ import annotations

from fractions import Fraction


def to_doubled(x) -> int:
    """Convert a half-integer (number or string) to its doubled-int form."""
    if isinstance(x, str):
        x = Fraction(x)
    f = Fraction(x)
    d = f * 2
    if d.denominator != 1:
        raise ValueError(f"{x!r} is not a half-integer")
    return int(d)


def fmt_half(d: int) -> str:
    """Render a doubled index as '3', '-1/2', ..."""
    if d % 2 == 0:
        return str(d // 2)
    return f"{d}/2"


def lattice_range(cut2: int, parity_odd: bool):
    """Doubled indices k with |k| <= cut2 on the requested sublattice.

    parity_odd=True gives the NS lattice (odd doubled values, i.e. Z+1/2),
    False the R lattice (even doubled values).
    """
    return list(range(-cut2 + (cut2 - parity_odd) % 2, cut2 + 1, 2))
