"""Reference computations that only the tests read.

Each one checks a km2d result by an independent route: numeric heat sums,
the closed-form torus delta function, sphere degree sums against their
large-degree model, the Rodrigues formula for the Legendre family, the
reproducing kernel of a truncated basis, the so(n) adjoint built by explicit
loops over the defining basis, the structure-table CSV formatted
row by row, the Fock-space vacuum sandwich of a pair of generators
behind a central value, and a sweep whose every bracket is decided on the
probe states by the Fock path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from km2d.currents import torus_L, torus_T
from km2d.fock import ZERO_MODE_SQUARE, ModeOperator, _apply_b, vacuum_states
from km2d.harmonics import legendre_Q, quadrature
from km2d.regulator import HeatSum, solve_a_m
from km2d.verifier import _bracket_job, _certify, measure_central

__all__ = [
    "heat_sum_numeric",
    "torus_delta_eps",
    "delta_eps_pairing",
    "sphere_degree_sum",
    "sphere_degree_sum_model",
    "legendre_Q_reference",
    "levi_civita3_reference",
    "so_adjoint_reference",
    "delta_partial_residual",
    "structure_csv",
    "measure_virasoro_shape",
    "torus_pair",
    "vacuum_sandwich",
    "fock_sweep",
]


# ---------------------------------------------------------------------------
# Regulator diagnostics
# ---------------------------------------------------------------------------

def heat_sum_numeric(s: HeatSum, eps: float, cutoff: int | None = None) -> float:
    """Truncated evaluation of the damped sum at fixed eps > 0."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if cutoff is None:
        cutoff = int(math.ceil(22.0 / (eps * s.step))) + 1
    k = np.arange(cutoff)
    return float(np.exp(-2.0 * eps * (k * s.step + s.offset)).sum())


def torus_delta_eps(theta: float, eps: float, sector: str) -> float:
    """Closed form of sum_m e^{-i m theta} e^{-2 eps (|m|-1/2)} on the lattice."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    z = complex(math.cos(theta), -math.sin(theta)) * math.exp(-2.0 * eps)
    if sector == "NS":
        # m = +-(k + 1/2), k >= 0
        half = complex(math.cos(theta / 2), -math.sin(theta / 2))
        return 2.0 * (half / (1.0 - z)).real
    if sector == "R":
        return math.exp(eps) * (1.0 + 2.0 * (z / (1.0 - z)).real)
    raise ValueError(f"unknown sector {sector!r}")


def delta_eps_pairing(n, eps: float, sector: str, grid: int = 4096) -> float:
    """(1/2pi) int_0^{2pi} delta_eps(theta) e^{i n theta} dtheta.

    Evaluated by the uniform-grid rule, which is exact for lattice Fourier
    modes up to aliasing of order exp(-2 eps grid).
    """
    theta = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    dvals = np.array([torus_delta_eps(t, eps, sector) for t in theta])
    phase = np.exp(1j * float(n) * theta)
    return float((dvals * phase).mean().real)


@lru_cache(maxsize=None)
def _legendre_at_zero_sq(l: int, m: int) -> float:
    return legendre_Q(l, m, 0.0) ** 2


def sphere_degree_sum(m: int, eps: float, l_max: int,
                      a_m: float | None = None) -> float:
    """Partial sum over l <= l_max of the damped squared basis values at u=0.

    The damped function at the equator factorizes exactly as
    e^{-eps(l + m + a_m)} Q_{lm}(0), so only undamped values are tabulated.
    """
    if a_m is None:
        a_m = solve_a_m(m)
    m = int(m)
    total = 0.0
    for l in range(abs(m), l_max + 1):
        q2 = _legendre_at_zero_sq(l, m)
        if q2:
            total += q2 * math.exp(-2.0 * eps * (l + m + a_m))
    return total


def sphere_degree_sum_model(m: int, eps: float, a_m: float | None = None) -> float:
    """Large-degree model of the damped sum, up to the constant offset C_m:
    (4/pi) e^{-2 eps (2|m| + a_m)} / (1 - e^{-4 eps})."""
    if a_m is None:
        a_m = solve_a_m(m)
    return (4.0 / math.pi) * math.exp(-2.0 * eps * (2 * abs(int(m)) + a_m)) \
        / (1.0 - math.exp(-4.0 * eps))


# ---------------------------------------------------------------------------
# Harmonics
# ---------------------------------------------------------------------------

def legendre_Q_reference(l: int, m: int, u: float) -> float:
    """Direct Rodrigues-formula evaluation with exact rational coefficients.

    Independent of the recurrence path; intended as an oracle for l up to ~20
    where raw differentiation is still well conditioned.
    """
    l, m = int(l), int(m)
    if l < abs(m):
        raise ValueError(f"need l >= |m|, got l={l}, m={m}")
    sign = 1
    if m < 0:
        m = -m
        sign = -1 if m % 2 else 1
    # d^{l+m}/du^{l+m} (1-u^2)^l, exact polynomial coefficients
    coeffs = {2 * k: Fraction(math.comb(l, k) * (-1) ** k) for k in range(l + 1)}
    for _ in range(l + m):
        coeffs = {p - 1: c * p for p, c in coeffs.items() if p > 0}
    poly = sum(float(c) * u ** p for p, c in coeffs.items())
    norm = (math.sqrt(2 * l + 1)
            * math.sqrt(math.factorial(l - m) / math.factorial(l + m))
            / (2 ** l * math.factorial(l)))
    return sign * ((-1) ** (l + m)) * norm * (1 - u * u) ** (m / 2) * poly


def levi_civita3_reference() -> np.ndarray:
    """eps_{abc} from its six nonzero entries."""
    eps = np.zeros((3, 3, 3), dtype=np.int64)
    for (a, b, c), s in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                         ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        eps[a, b, c] = s
    return eps


def so_adjoint_reference(n: int) -> tuple:
    """(f, M, C_M) of the so(n) adjoint, n >= 3, by loops over matrices.

    n = 3 takes f = eps and M = -eps; otherwise f^{ab}_c = -Tr([A_a, A_b]
    A_c) / 2 over the basis E_ab - E_ba, a < b, and (M_a)_{cb} = f^{ab}_c.
    """
    if n == 3:
        eps = levi_civita3_reference()
        return eps, -eps, 2.0
    basis = []
    for a in range(n):
        for b in range(a + 1, n):
            m = np.zeros((n, n), dtype=np.int64)
            m[a, b], m[b, a] = 1, -1
            basis.append(m)
    g = len(basis)
    f = np.zeros((g, g, g), dtype=np.int64)
    for a in range(g):
        for b in range(g):
            comm = basis[a] @ basis[b] - basis[b] @ basis[a]
            for c in range(g):
                f[a, b, c] = -np.trace(comm @ basis[c]) // 2
    M = np.zeros((g, g, g), dtype=np.int64)
    for a in range(g):
        M[a] = f[a].T
    return f, M, float(np.sum(M[0] * M[0]))


def delta_partial_residual(m: int, test_fn_degree: int, L_max: int) -> float:
    """Worst-case error of the truncated reproducing kernel on a basis element.

    The kernel K(u, v) = sum_{l <= L_max} Q_{lm}(u) Q_{lm}(v) must reproduce
    Q_{l'm} exactly for l' <= L_max; returns the max deviation over nodes u.
    """
    lp = test_fn_degree
    if lp > L_max:
        raise ValueError(f"test degree {lp} exceeds kernel cutoff {L_max}")
    if lp < abs(m):
        raise ValueError(f"need test degree >= |m| = {abs(m)}")
    nodes, weights = quadrature((2 * L_max + lp) // 2 + 1)
    target = legendre_Q(lp, m, nodes)
    acc = np.zeros_like(nodes)
    for l in range(abs(m), L_max + 1):
        ql = legendre_Q(l, m, nodes)
        proj = 0.5 * float(np.dot(weights, ql * target))
        acc += ql * proj
    return float(np.max(np.abs(acc - target)))


def structure_csv(table, fh) -> None:
    """``StructureTable.to_csv`` with every field formatted per row, written
    as bytes to the binary file ``fh``."""
    fh.write(b"l1,m1,l2,m2,l3,m3,value\n")
    for (l1, m1, l2, m2, l3), v in zip(table.keys.tolist(),
                                       table.values.tolist()):
        fh.write(f"{l1},{m1},{l2},{m2},{l3},{m1 + m2},{v:.17g}\n".encode())


# ---------------------------------------------------------------------------
# Central terms
# ---------------------------------------------------------------------------

def measure_virasoro_shape(cfg, rep, ms=(1, 2, 3), method: str = "analytic",
                           degrees=None) -> dict:
    """Central values of the Virasoro bracket at several mode numbers."""
    out = {}
    for m in ms:
        deg = degrees(m) if callable(degrees) else degrees
        out[m] = measure_central("LL", m, rep=rep, cfg=cfg, method=method,
                                 degrees=deg)
    return out


def _routes(op, state):
    """(state', zero modes, amplitude) of each term of op that maps the basis
    state to a basis state, with the Clifford units left unscaled."""
    cfg = op.cfg
    for key, amp in op.terms.items():
        image = state
        for mode in reversed(key):
            res = _apply_b(cfg, mode, image)
            if res is None:
                break
            amp, image = amp * res[0], res[1]
        else:
            yield image, sum(cfg.classify(m) == "zero" for m in key), amp


def _expectation(ops, vac):
    """<vac| X_1 ... X_n |vac>, each route's zero modes scaled once."""
    routes = [(vac, 0, 1)]
    for op in reversed(ops):
        routes = [(s, k + j, a * b) for t, k, a in routes
                  for s, j, b in _routes(op, t)]
    return sum(a * ZERO_MODE_SQUARE ** (k / 2) for s, k, a in routes if s == vac)


def vacuum_sandwich(A: ModeOperator, B: ModeOperator, rhs, cfg):
    """<0| [A, B] - rhs |0>, exact on the truncated space, per vacuum label.

    The Fock-space oracle of ``verifier._vacuum_trace``: it applies the
    operators to the vacuum multiplet instead of tracing their one-particle
    coefficients.  Each route through the terms of A B, B A or rhs is scaled
    once by its zero modes' 1/sqrt2, so at eps = 0 every torus value is a
    sum of exact dyadic products.
    """
    vals = []
    vacs = vacuum_states(cfg)
    sample = vacs if len(vacs) <= 4 else vacs[:1]
    for vac in sample:
        r = _expectation([rhs], vac) if rhs is not None else 0
        vals.append(complex(_expectation([A, B], vac)
                            - _expectation([B, A], vac) - r))
    spread = max(abs(v - vals[0]) for v in vals)
    if spread > 1e-10:
        raise AssertionError(f"central value varies across the vacuum "
                             f"multiplet by {spread:.3e}")
    if abs(vals[0].imag) > 1e-10:
        raise AssertionError(f"central value has imaginary part {vals[0]:.3e}")
    return vals[0].real


def torus_pair(family: str, rep, a: int, b: int, m: int, p: int, cfg,
               eps: float = 0.0):
    """Fock operators X_{m,p}, X_{-m,-p} and the operator part of their bracket."""
    if family == "TT":
        A = torus_T(rep, a, m, p, cfg, eps)
        B = torus_T(rep, b, -m, -p, cfg, eps)
        rhs = None
        for c in range(1, rep.dim_g + 1):
            fabc = int(rep.f[a - 1, b - 1, c - 1])
            if fabc:
                piece = torus_T(rep, c, 0, 0, cfg, eps).scaled(
                    complex(0.0, fabc))
                rhs = piece if rhs is None else rhs + piece
    elif family == "LL":
        A = torus_L(m, p, cfg, eps)
        B = torus_L(-m, -p, cfg, eps)
        rhs = torus_L(0, 0, cfg, eps).scaled(2 * m) if m else None
    else:
        raise ValueError("central terms exist for TT and LL only")
    return A, B, rhs


# ---------------------------------------------------------------------------
# Bracket sweeps
# ---------------------------------------------------------------------------

def fock_sweep(alg, window, size, tol, central_method, central_tol):
    """``verifier._certify`` with every bracket decided by ``_bracket_job``.

    The Fock path applies the generators to the window's probe states, so it
    sees only the terms some probe reaches; the engines see every compared
    coefficient.
    """
    class FockPath:
        def __init__(self, probes):
            self.probes = probes

        def jobs(self, family, a, b, pairs, *rest):
            return [_bracket_job(alg, family, a, b, mode1, mode2,
                                 self.probes, *rest) for mode1, mode2 in pairs]

    alg.engine = FockPath
    try:
        return _certify(alg, window, size, tol, central_method, central_tol)
    finally:
        del alg.engine
