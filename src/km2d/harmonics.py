"""Orthonormal Legendre functions on [-1, 1] and their product structure.

Everything here uses the inner product (f, g) = (1/2) * integral_{-1}^{1} f g du.

``legendre_Q(l, m, u)`` is the normalized associated Legendre function with
integer indices l >= |m|: orthonormal within fixed m, and
Q_{l,-m} = (-1)^m Q_{lm}.

The product of two Legendre-family elements expands exactly in the family of
the summed azimuthal index; the expansion coefficients form the
:class:`StructureTable` that drives the sphere mode algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "legendre_Q",
    "quadrature",
    "StructureTable",
    "structure_table",
]


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def quadrature(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], exact to degree 2n-1."""
    if n < 1:
        raise ValueError("need at least one node")
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# ---------------------------------------------------------------------------
# Normalized associated Legendre functions
# ---------------------------------------------------------------------------

def _legendre_rows(m: int, L: int, u: np.ndarray) -> np.ndarray:
    """Q_{l,m} at the points u for l = m..L, one row each, at one m >= 0:
    the diagonal start Q_mm, then the stable three-term recurrence in l."""
    rows = np.zeros((L - m + 2, len(u)))            # row 0 is Q_{m-1,m} = 0
    ratio = math.prod((2 * k - 1) / (2 * k) for k in range(1, m + 1))
    rows[1] = ((-1) ** m) * math.sqrt((2 * m + 1) * ratio) * (1 - u * u) ** (m / 2)
    for i, ll in enumerate(range(m, L), 1):
        a = math.sqrt((2 * ll + 1) * (2 * ll + 3)
                      / ((ll + 1 - m) * (ll + 1 + m)))
        b = math.sqrt((2 * ll + 3) / (2 * ll - 1) * (ll - m) * (ll + m)
                      / ((ll + 1 - m) * (ll + 1 + m))) if ll > m else 0.0
        rows[i + 1] = a * u * rows[i] - b * rows[i - 1]
    return rows[1:]


def legendre_Q(l: int, m: int, u):
    """Normalized associated Legendre function, (1/2)int Q_{lm}Q_{l'm} = d_{ll'}.

    The last row of ``_legendre_rows(|m|, l, u)``; supports scalar or
    ndarray u.  Negative m via Q_{l,-m} = (-1)^m Q_{lm}.
    """
    l, m = int(l), int(m)
    if l < abs(m):
        raise ValueError(f"need l >= |m|, got l={l}, m={m}")
    sign = -1 if m < 0 and m % 2 else 1
    u = np.asarray(u, dtype=float)
    out = sign * _legendre_rows(abs(m), l, np.atleast_1d(u))[-1]
    return float(out[0]) if u.ndim == 0 else out


def _legendre_table(L: int, u: np.ndarray) -> np.ndarray:
    """Q_{lm} at the points u in row r = l^2 + l + m, for all l <= L."""
    q = np.empty(((L + 1) ** 2, len(u)))
    for m in range(L + 1):
        rows, l = _legendre_rows(m, L, u), np.arange(m, L + 1)
        q[l * l + l + m] = rows
        q[l * l + l - m] = -rows if m % 2 else rows
    return q


# ---------------------------------------------------------------------------
# Structure constants of the Legendre-family product expansion
# ---------------------------------------------------------------------------

class _OrbitIndex:
    """Where each entry of the degree-L table sits, and where its orbit starts.

    Rows a = (l1, m1) and b = (l2, m2), numbered r = l^2 + l + m, meet in
    block (a, b): its ``count[a, b]`` entries have l3 = lo[a, b],
    lo[a, b] + 2, ... up to min(l1 + l2, L) and fill the CSV from position
    ``start[a, b]``, blocks in row-major order.  Swap (a, b) -> (b, a) and
    mirror (l, m) -> (l, -m) of both rows keep lo and count and fix every
    value bit for bit, so an entry's orbit is the same slot k of its block's
    images.  Its first member, the head, is slot k of the earliest image,
    which starts at ``first[a, b]``; heads are numbered in CSV order from
    ``orbit[a, b]`` + k.  All four are views of one int32 array ``table``.
    """

    def __init__(self, L: int):
        # int16 and int32 keep these (L+1)^4-element arrays small
        ls = np.repeat(np.arange(L + 1, dtype=np.int16),
                       2 * np.arange(L + 1) + 1)
        ms = np.arange(len(ls), dtype=np.int16) - ls * ls - ls
        lsum = ls[:, None] + ls
        lo = np.maximum(abs(ls[:, None] - ls), abs(ms[:, None] + ms))
        lo += (lo + lsum) % 2                        # l1 + l2 + l3 even
        count = np.maximum((np.minimum(lsum, L) - lo) // 2 + 1, 0)
        self.table = np.empty((4, len(ls), len(ls)), np.int32)
        self.start, self.first, self.orbit, self.lo = self.table
        self.lo[:] = lo
        self.start[:] = np.cumsum(count, dtype=np.int32).reshape(
            count.shape) - count
        neg = np.arange(len(ls)) - 2 * ms            # row of (l, -m)

        def earliest(x):
            # positions and head numbers both grow in row-major order
            mirror = x[neg][:, neg]
            return np.minimum(np.minimum(x, x.T), np.minimum(mirror, mirror.T))

        self.first[:] = earliest(self.start)
        heads = np.where(self.first == self.start, count, 0)
        self.orbit[:] = earliest(np.cumsum(heads, dtype=np.int32).reshape(
            count.shape) - heads)
        self.ls, self.ms, self.count = ls, ms, count
        self.size = int(count.sum())

    def rows(self):
        """Per row r1, one ``repeat`` of ``table[:, r1]``: its entries' slice,
        rows r2, degrees l3, and heads' positions and numbers."""
        for r1, n in enumerate(self.count):
            start, first, orbit, lo = np.repeat(self.table[:, r1], n, axis=1)
            r2 = np.repeat(np.arange(len(n)), n)
            k = np.arange(len(r2)) + (start[0] - start)
            yield (r1, slice(start[0], start[0] + len(r2)), r2, lo + 2 * k,
                   first + k, orbit + k)


# 10^(16 - e) for the decimal exponents e = -4..-1 of the numpy path, exact
_SCALES = np.array([float(10 ** (16 - e)) for e in range(-4, 0)])


def _format_17g(x: np.ndarray) -> np.ndarray:
    """``%.17g`` and a newline of each double in x, as ``S25`` text whose
    NUL bytes the CSV writer drops (24 characters hold ``%.17g`` of any
    double, as -2.2250738585072014e-308).

    Magnitudes in [1e-4, 1) print as ``0.``, -e - 1 zeros and the 17 digits
    of round(|x| * 10^(16 - e)) for e = floor(log10|x|), trailing zeros
    dropped; numpy forms them.  Below 10^17 < 2^57, that product in the
    extended type (64-bit mantissa) is within 2^-8 of its exact value, so
    it rounds to the same integer unless its fraction lies within 2^-7 of
    one half.  Those, products outside (10^16, 10^17 - 1), other
    magnitudes, and platforms without the extended type take Python's
    ``%`` operator.  The integer splits into int32 halves of 8 and 9
    digits, and the digit loop, the last digit first, works in place on
    them: ``floor_divide`` by 10 (numpy divides int32 by a scalar fast
    there, not in ``divmod``) and a multiply-subtract for the digit.
    """
    a = abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    fast = (e >= -4) & (e <= -1) & (np.finfo(np.longdouble).nmant >= 63)
    e = np.where(fast, e, -1).astype(int)
    y = np.where(fast, a, 0.5).astype(np.longdouble) * _SCALES[e + 4]
    n = y.astype(np.int64)
    frac = (y - n).astype(float)
    fast &= (y > 1e16 + 1) & (y < 1e17 - 1) & (abs(frac - 0.5) > 2.0 ** -7)
    n += frac > 0.5
    out = np.zeros((len(x), 25), np.uint8)
    out[:, 0] = np.signbit(x) * ord("-")
    out[:, 1], out[:, 2] = ord("0"), ord(".")
    out[:, 3:6] = (np.arange(3) < -1 - e[:, None]) * ord("0")
    high, low = (h.astype(np.int32) for h in np.divmod(n, 10 ** 9))
    digit, quot = np.empty_like(low), np.empty_like(low)
    nonzero = np.zeros(len(x), bool)
    for col in range(22, 5, -1):            # the last digit first
        if col == 13:                       # the 8 digits of the upper half
            low = high
        np.floor_divide(low, 10, out=quot)
        np.multiply(quot, -10, out=digit)
        digit += low                        # low % 10
        low, quot = quot, low
        np.logical_or(nonzero, digit, out=nonzero)
        digit += ord("0")
        digit *= nonzero
        out[:, col] = digit
    out[:, 23] = ord("\n")
    text = out.view("S25").ravel()
    slow = np.flatnonzero(~fast)
    rest = x[slow].tolist()
    text[slow] = ("%.17g\n" * len(rest) % tuple(rest)).encode().splitlines(
        keepends=True)
    return text


@dataclass(eq=False)
class StructureTable:
    """Coefficients c of Q_{l1 m1} Q_{l2 m2} = sum_{l3} c * Q_{l3, m1+m2}.

    The table is one float64 array ``values`` plus the orbit index
    (``_OrbitIndex``) that places its entries: only the
    triangle-and-parity-allowed entries are stored, in lexicographic key
    order, and the target azimuthal index is always m1 + m2.  ``get`` reads
    the index; ``keys`` (int8, shape (K, 5), rows ``(l1, m1, l2, m2, l3)``)
    and the dict ``entries`` are views derived from it on first use; of
    the commands, only the JSON export reads one.  ``to_csv`` writes bytes to a
    binary file: it formats each orbit's head once, as ``%.17g`` does
    (``_format_17g``), into a fixed-width bytes array, then walks the rows
    of the index and writes every member of the orbit from that string,
    each row as one array of records with the ``l,m,`` fields from small
    string tables.  It raises ``ValueError`` if any entry differs in any
    bit from its head.
    """

    L_max: int
    values: np.ndarray      # float64, shape (K,)

    @cached_property
    def index(self) -> _OrbitIndex:
        # structure_table stores the index it built the values from
        return _OrbitIndex(self.L_max)

    @cached_property
    def keys(self) -> np.ndarray:
        ls, ms = self.index.ls, self.index.ms
        keys = np.empty((self.index.size, 5), dtype=np.int8)
        for r1, block, r2, l3, *_ in self.index.rows():
            keys[block, :2] = ls[r1], ms[r1]
            keys[block, 2:] = np.column_stack((ls[r2], ms[r2], l3))
        return keys

    @cached_property
    def entries(self) -> dict:
        return dict(zip(zip(*self.keys.T.tolist()), self.values.tolist()))

    def get(self, l1: int, m1: int, l2: int, m2: int, l3: int) -> float:
        if -l1 <= m1 <= l1 <= self.L_max and -l2 <= m2 <= l2 <= self.L_max:
            r1, r2 = l1 * l1 + l1 + m1, l2 * l2 + l2 + m2
            k, odd = divmod(l3 - int(self.index.lo[r1, r2]), 2)   # the slot
            if not odd and 0 <= k < self.index.count[r1, r2]:
                return self.values.item(self.index.start[r1, r2] + k)
        return 0.0

    def to_csv(self, fh) -> None:
        L, index = self.L_max, self.index
        ls, ms = index.ls, index.ms
        lm = np.array([f"{l},{m}," for l, m in zip(ls.tolist(), ms.tolist())],
                      dtype=bytes)
        lm3 = np.array([f"{l3},{m3}," for l3 in range(L + 1)
                        for m3 in range(-2 * L, 2 * L + 1)], dtype=bytes)
        # the heads in head-number order: the entries of each block that is
        # the earliest image of its orbit; chunks bound the temporaries
        heads = self.values[np.repeat((index.first == index.start).ravel(),
                                      index.count.ravel())]
        text, chunk = np.empty(len(heads), dtype="S25"), 1 << 16
        for i in range(0, len(heads), chunk):
            text[i:i + chunk] = _format_17g(heads[i:i + chunk])
        record = np.dtype([("lm1", lm.dtype), ("lm2", lm.dtype),
                           ("lm3", lm3.dtype), ("value", text.dtype)])
        bits = self.values.view(np.int64)
        fh.write(b"l1,m1,l2,m2,l3,m3,value\n")
        for r1, block, r2, l3, head, orbit in index.rows():
            if not np.array_equal(bits[block], bits[head]):
                raise ValueError(f"structure table row ({ls[r1]}, {ms[r1]}) "
                                 f"differs from its swap or mirror image")
            cells = np.empty(len(r2), record)
            cells["lm1"] = lm[r1]
            cells["lm2"] = lm[r2]
            cells["lm3"] = lm3[l3 * (4 * L + 1) + ms[r1] + ms[r2] + 2 * L]
            cells["value"] = text[orbit]
            fh.write(cells.tobytes().translate(None, b"\0"))


# structure-constants --lmax 32 has 8,958,473 entries (growing as L^5): its
# table builds in 0.40-0.45 s and its CSV takes 2.0-2.7 s in all, at a 199 MB
# peak, in one process on 2 vCPUs; int8 keys need l <= 127
MAX_TABLE_DEGREE = 32


@lru_cache(maxsize=8)
def structure_table(L_max: int) -> StructureTable:
    """Triple-product table for all l1, l2, l3 <= L_max by exact quadrature.

    Each row of the orbit index lists its entries in lexicographic key
    order; the build fills their values only, and the table keeps the index.
    The head blocks (a block that is the earliest image of its orbit) are
    taken by block length k, in chunks of about 2^13 entries: each block
    forms p = q1 * q2 * weights once, and one ``vecdot`` of p against the
    block's k rows q3 gives its values, one ``ddot`` per entry,
    bit-identical to ``np.dot``.  Every other entry copies its head's value,
    at its own position plus first - start, in one gather per 16 rows:
    c(l1,m1,l2,m2,l3) = c(l2,m2,l1,m1,l3) = c(l1,-m1,l2,-m2,l3) exactly,
    since q1 * q2 commutes in IEEE arithmetic and Q_{l,-m} = (-1)^m Q_{lm}.
    A degree outside 0..MAX_TABLE_DEGREE raises ValueError before anything
    is allocated.
    """
    if not 0 <= L_max <= MAX_TABLE_DEGREE:
        raise ValueError(f"structure table degree {L_max} is not in "
                         f"0..{MAX_TABLE_DEGREE}")
    nodes, weights = quadrature(3 * L_max // 2 + 1)     # exact to degree 3L
    index = _OrbitIndex(L_max)
    ms, q = index.ms, _legendre_table(L_max, nodes)
    values = np.empty(index.size)
    r1, r2 = np.nonzero((index.first == index.start) & (index.count > 0))
    length = index.count[r1, r2]
    for k in range(1, int(length.max()) + 1):    # head blocks of k entries
        of_k, step = np.flatnonzero(length == k), (1 << 13) // k
        for i in range(0, len(of_k), step):
            a, b = r1[of_k[i:i + step]], r2[of_k[i:i + step]]
            l3 = index.lo[a, b][:, None] + 2 * np.arange(k)
            r3 = l3 * l3 + l3 + (ms[a] + ms[b])[:, None]
            p = q[a] * q[b] * weights
            at = index.start[a, b][:, None] + np.arange(k)
            values[at] = 0.5 * np.vecdot(p[:, None], q[r3])
    for i in range(0, len(q), 16):              # the rest, 16 rows at a time
        at, rows = index.start[i, 0], slice(i, i + 16)
        src = np.repeat((index.first[rows] - index.start[rows]).ravel(),
                        index.count[rows].ravel())
        src += np.arange(at, at + len(src), dtype=np.int32)
        values[at:at + len(src)] = values[src]
    table = StructureTable(L_max, values)
    table.index = index
    return table
