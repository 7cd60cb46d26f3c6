"""The four benchmark workloads and the checks on their outputs.

Every workload is a fixed configuration; the seed only chooses which table
entries the `tables` check samples.  The expected values are written out
here rather than read from the program, so that a wrong program cannot
also supply a wrong expectation: for so3-adjoint, d = 3 and C_M = 2, so
c = d/2 = 3/2 and k = C_M/2 = 1.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

REP = "so3-adjoint"
C_EXPECTED = 1.5
K_EXPECTED = 1.0
TABLE_LMAX = 24


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Optional[tuple]       # km2d CLI arguments, without --output
    rep: Optional[str]          # representation built during set-up
    check: Callable             # (output path, seed) -> list of error strings


def _load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _check_closure(path, n_brackets, exact, central_tol):
    report = _load_json(path)
    errors = []
    if report.get("pass") is not True:
        errors.append("report does not pass")
    brackets = report.get("brackets", [])
    if len(brackets) != n_brackets:
        errors.append(f"{len(brackets)} brackets, expected {n_brackets}")
    worst = max((b["residual"] for b in brackets), default=float("nan"))
    if exact and worst != 0.0:
        errors.append(f"max residual {worst!r} is not exactly 0")
    if not exact and not worst <= report.get("tol", 0.0):
        errors.append(f"max residual {worst!r} above tol")
    charges = report.get("charges", {})
    for key, want in (("c_measured", C_EXPECTED), ("k_measured", K_EXPECTED)):
        got = charges.get(key)
        if got is None or not abs(got - want) <= central_tol:
            errors.append(f"{key} = {got!r}, expected {want}")
    return errors


def check_torus(path, seed):
    return _check_closure(path, 1575, exact=True, central_tol=1e-9)


def check_sphere(path, seed):
    return _check_closure(path, 207, exact=False, central_tol=1e-8)


def check_central(path, seed):
    out = _load_json(path)
    errors = []
    for key, want in (("c", C_EXPECTED), ("k", K_EXPECTED)):
        got = out.get(key)
        if got is None or not abs(got - want) <= 1e-6:
            errors.append(f"{key} = {got!r}, expected {want} within 1e-6")
    return errors


def charge_error(name, path) -> float:
    """max(|c - d/2|, |k - C_M/2|) of a checked output; 0 where none."""
    if name == "tables":
        return 0.0
    out = _load_json(path)
    if name == "central-eps":
        c, k = out["c"], out["k"]
    else:
        c, k = out["charges"]["c_measured"], out["charges"]["k_measured"]
    return max(abs(c - C_EXPECTED), abs(k - K_EXPECTED))


def table_entry_count(lmax: int) -> int:
    """Number of (l1, m1, l2, m2, l3) keys the structure table stores.

    Counted from the selection rules alone: |l1 - l2| <= l3 <= l1 + l2,
    l3 <= lmax, |m1 + m2| <= l3 and l1 + l2 + l3 even.
    """
    total = 0
    for l1 in range(lmax + 1):
        for l2 in range(lmax + 1):
            hi = min(l1 + l2, lmax)
            for m3 in range(-(l1 + l2), l1 + l2 + 1):
                pairs = min(l1, m3 + l2) - max(-l1, m3 - l2) + 1
                if pairs <= 0:
                    continue
                lo = max(abs(l1 - l2), abs(m3))
                first = lo + (lo + l1 + l2) % 2
                if first <= hi:
                    total += pairs * ((hi - first) // 2 + 1)
    return total


def _table_row(data: bytes, key) -> Optional[tuple]:
    l1, m1, l2, m2, l3 = key
    prefix = f"\n{l1},{m1},{l2},{m2},{l3},".encode()
    at = data.find(prefix)
    if at < 0:
        return None
    end = data.index(b"\n", at + 1)
    fields = data[at + len(prefix):end].split(b",")
    return int(fields[0]), float(fields[1])


def _sample_keys(rng: random.Random, lmax: int, n: int):
    """n random stored keys of the table (triangle, parity and |m3| rules)."""
    keys = []
    while len(keys) < n:
        l1, l2 = rng.randint(0, lmax), rng.randint(0, lmax)
        m1, m2 = rng.randint(-l1, l1), rng.randint(-l2, l2)
        l3 = rng.randint(abs(l1 - l2), min(l1 + l2, lmax))
        if (l1 + l2 + l3) % 2 == 0 and abs(m1 + m2) <= l3:
            keys.append((l1, m1, l2, m2, l3))
    return keys


def check_tables(path, seed, lmax=TABLE_LMAX, samples=6):
    with open(path, "rb") as fh:
        data = fh.read()
    errors = []
    if not data.startswith(b"l1,m1,l2,m2,l3,m3,value\n"):
        errors.append("missing CSV header")
    rows = data.count(b"\n") - 1
    want = table_entry_count(lmax)
    if rows != want:
        errors.append(f"{rows} rows, expected {want}")
    rng = random.Random(seed)
    for _ in range(samples):
        l = rng.randint(0, lmax)
        m = rng.randint(-l, l)
        row = _table_row(data, (0, 0, l, m, l))
        if row is None or row[0] != m or not abs(row[1] - 1.0) <= 1e-12:
            errors.append(f"c_(0,0,{l},{m})^{l} = {row!r}, expected 1")
    for key in _sample_keys(rng, lmax, samples):
        l1, m1, l2, m2, l3 = key
        row, swapped = _table_row(data, key), _table_row(data, (l2, m2, l1, m1, l3))
        if row is None or swapped is None or row[0] != m1 + m2:
            errors.append(f"entry {key} or its swap is missing")
        elif not abs(row[1] - swapped[1]) <= 1e-12:
            errors.append(f"entry {key} = {row[1]!r} but its swap = {swapped[1]!r}")
    return errors


WORKLOADS = {
    w.name: w for w in (
        Workload("torus-closure",
                 ("verify-torus", "--rep", REP, "--sectors", "NS,NS",
                  "--cutoff-m", "9/2", "--cutoff-p", "9/2", "--window", "1,1,2",
                  "--max-mode", "2", "--method", "analytic", "--tol", "1e-9"),
                 REP, check_torus),
        Workload("sphere-closure",
                 ("verify-sphere", "--rep", REP, "--sectors", "R",
                  "--cutoff-l", "6", "--max-l", "2", "--window", "1,1,2",
                  "--method", "analytic", "--tol", "1e-9",
                  "--central-tol", "1e-8"),
                 REP, check_sphere),
        # library call: `verify-torus --method eps` exits 2 at its default
        # tolerance, so the charges are measured directly and checked at 1e-6
        Workload("central-eps", None, REP, check_central),
        Workload("tables",
                 ("structure-constants", "--lmax", str(TABLE_LMAX)),
                 None, check_tables),
    )
}
