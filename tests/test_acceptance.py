"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with -s to see the summary table.
"""

import json
import math
import time
from fractions import Fraction

import pytest

from km2d.cli import main as cli_main
from km2d.fock import check_car, sphere_sector, torus_sector, vacuum_states
from km2d.harmonics import structure_table
from km2d.lie_core import build_so_adjoint
from km2d.regulator import (HeatSum, heat_sum_finite_part,
                            hurwitz_zeta_at_zero, richardson_finite_part,
                            solve_a_m)
from km2d.verifier import (Window, central_raw_scan, check_sphere_abstract,
                           check_sphere_realization, check_torus_algebra)
from oracles import heat_sum_numeric, measure_virasoro_shape

H = Fraction(1, 2)
NINE_HALVES = Fraction(9, 2)


def _report(num, text, ok):
    print(f"ACCEPTANCE {num}: {text}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def so3():
    return build_so_adjoint(3)


@pytest.fixture(scope="module")
def torus_report(so3):
    cfg = torus_sector("NS", "NS", 3, NINE_HALVES, NINE_HALVES)
    t0 = time.time()
    report = check_torus_algebra(cfg, so3, Window.of(1, 1, 2), tol=1e-9,
                                 max_mode=2)
    report.runtime = time.time() - t0
    return report


def test_criterion_1_torus_charges(torus_report):
    ch = torus_report.charges
    ok = (abs(ch["c_measured"] - 1.5) <= 1e-9
          and abs(ch["k_measured"] - 1.0) <= 1e-9
          and torus_report.max_residual <= 1e-9
          and all(b.passed for b in torus_report.brackets))
    print(f"  (c, k) = ({ch['c_measured']}, {ch['k_measured']}), "
          f"max residual {torus_report.max_residual:.3e}, "
          f"{len(torus_report.brackets)} brackets, "
          f"runtime {torus_report.runtime:.1f}s (target < 60s)")
    _report(1, "torus charges (c,k)=(d/2,C_M/2) and bracket closure", ok)
    assert torus_report.runtime < 300


def test_criterion_2_virasoro_anomaly_shape(so3):
    ok = True
    for z, m_cut in (("NS", NINE_HALVES), ("R", 4)):
        cfg = torus_sector(z, "NS", 3, m_cut, NINE_HALVES)
        shape = measure_virasoro_shape(cfg, so3, ms=(1, 2, 3))
        c = 1.5
        dev = max(abs(shape[m] - (c / 12) * m * (m * m - 1)) for m in (1, 2, 3))
        ok = ok and dev <= 1e-9 and shape[1] == 0.0
        print(f"  ({z},NS): centrals {shape}, max dev {dev:.2e}, "
              f"m=1 exactly {shape[1] == 0.0}")
    _report(2, "Virasoro anomaly fits (c/12)m(m^2-1), m=1 exactly 0", ok)


def test_criterion_3_car_exactness():
    residuals = {}
    for z, ang, mc, pc in [("R", "R", 1, 1), ("R", "NS", 1, Fraction(3, 2)),
                           ("NS", "R", Fraction(3, 2), 1),
                           ("NS", "NS", Fraction(3, 2), Fraction(3, 2))]:
        cfg = torus_sector(z, ang, 2, mc, pc)
        residuals[f"torus({z},{ang})"] = check_car(cfg)
    residuals["sphere(R)"] = check_car(sphere_sector("R", 2, 2))
    residuals["sphere(NS)"] = check_car(sphere_sector("NS", 2, Fraction(3, 2)))
    ok = all(r == 0.0 for r in residuals.values())
    print(f"  residuals: {residuals}")
    _report(3, "anticommutators exact in all six sectors", ok)


def test_criterion_4_zero_mode_multiplets():
    n3 = len(vacuum_states(torus_sector("R", "R", 3, 1, 1)))
    n4 = len(vacuum_states(torus_sector("R", "R", 4, 1, 1)))
    print(f"  (R,R) vacua: d=3 -> {n3}, d=4 -> {n4}")
    _report(4, "(R,R) vacuum multiplets 2^[d/2]", n3 == 2 and n4 == 4)


def test_criterion_5_regularization_identities(so3):
    ok = (2 * hurwitz_zeta_at_zero(0.0) == 1.0
          and 2 * hurwitz_zeta_at_zero(-0.5) - 1 == 1.0)
    worst = 0.0
    for eps0 in (0.1, 0.05, 0.025):
        for step, off in [(1, 0.0), (1, -0.5), (1, 1.0), (2, 0.6)]:
            hs = HeatSum(step, off)
            _, fin = richardson_finite_part(
                lambda e: heat_sum_numeric(hs, e), eps0=eps0)
            worst = max(worst, abs(fin - heat_sum_finite_part(hs)[1]))
    ok = ok and worst <= 1e-8
    rows = central_raw_scan("NS", "NS", 3, so3, Fraction(5, 2),
                            [Fraction(5, 2), NINE_HALVES, Fraction(13, 2)])
    print("  raw central-term divergence scan (before regularization):")
    for r in rows:
        print(f"    |p| <= {r['p_cut']:<5} angular modes {r['angular_modes']:>3}"
              f"  raw central {r['raw_central']:.6g}")
    vals = [r["raw_central"] for r in rows]
    affine = abs((vals[2] - vals[1]) - (vals[1] - vals[0])) <= 1e-9
    growing = vals[0] < vals[1] < vals[2]
    print(f"  zeta identities exact, Richardson worst dev {worst:.2e}, "
          f"affine growth {affine}")
    _report(5, "zeta identities, finite parts to 1e-8, affine raw divergence",
            ok and affine and growing)


def test_criterion_6_sphere_abstract(so3):
    table = structure_table(8)
    report = check_sphere_abstract(table, so3, l_probe=2, tol=1e-10)
    golden = (abs(table.get(1, 0, 1, 0, 0) - 1.0) <= 1e-12
              and abs(table.get(1, 0, 1, 0, 2) - 2 / math.sqrt(5)) <= 1e-12)
    assoc = _associativity_residual(table)
    ok = report["pass"] and golden and assoc <= 1e-10
    print(f"  Jacobi residual {report['max_jacobi_residual']:.2e} over "
          f"{report['triples_checked']} triples, associativity {assoc:.2e}, "
          f"golden coefficients ok {golden}")
    _report(6, "abstract sphere algebra (Jacobi, associativity, goldens)", ok)


def _associativity_residual(table):
    worst = 0.0
    cases = [((1, 0), (1, 1), (2, -1)), ((2, 1), (1, 0), (1, -1)),
             ((2, 2), (2, -1), (2, 0)), ((1, 1), (1, 1), (1, -1)),
             ((3, 0), (2, 1), (2, 1))]
    for (l1, m1), (l2, m2), (l3, m3) in cases:
        my = m1 + m2 + m3
        for ly in range(abs(my), l1 + l2 + l3 + 1):
            lhs = sum(table.get(l1, m1, l2, m2, lx)
                      * table.get(lx, m1 + m2, l3, m3, ly)
                      for lx in range(l1 + l2 + 1))
            rhs = sum(table.get(l2, m2, l3, m3, lx)
                      * table.get(l1, m1, lx, m2 + m3, ly)
                      for lx in range(l2 + l3 + 1))
            worst = max(worst, abs(lhs - rhs))
    return worst


def test_criterion_7_sphere_realization(so3):
    cfg = sphere_sector("R", 3, 4)
    table = structure_table(4)
    report = check_sphere_realization(cfg, so3, table, Window.of(1, 1, 2),
                                      tol=1e-9, central_tol=1e-8)
    ch = report.charges
    cen = ch["virasoro_centrals"]
    ok = (report.max_residual <= 1e-9
          and abs(ch["k_measured"] - 1.0) <= 1e-8
          and all(abs(v["measured"] - v["expected"]) <= 1e-8
                  for v in cen.values())
          and report.passed)
    print(f"  closure residual {report.max_residual:.2e}, k = "
          f"{ch['k_measured']}, Virasoro centrals {cen}")
    _report(7, "sphere realization closure and twisted central values", ok)


def test_criterion_8_lt_coefficient(torus_report):
    lt = torus_report.lt_summary
    ok = (lt["max_deviation_from_rule"] <= 1e-9
          and lt["pairs_measured"] > 100
          and lt["printed_variant_matches"] is False)
    print(f"  measured coefficient = -(z mode of T) to "
          f"{lt['max_deviation_from_rule']:.2e} over {lt['pairs_measured']} "
          f"pairs; printed variant matches: {lt['printed_variant_matches']} "
          f"(discrepancy flagged, not fatal)")
    _report(8, "[L,T] coefficient resolved to -(z mode of T)", ok)


def test_criterion_9_determinism(tmp_path):
    args = ["verify-torus", "--rep", "so3-adjoint", "--sectors", "NS,NS",
            "--cutoff-m", "9/2", "--cutoff-p", "9/2", "--window", "1,1,2",
            "--tol", "1e-9"]
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    c1 = cli_main(args + ["--output", str(f1)])
    c2 = cli_main(args + ["--output", str(f2)])
    same = f1.read_bytes() == f2.read_bytes()
    payload = json.loads(f1.read_text())
    ok = c1 == 0 and c2 == 0 and same and payload["pass"]
    print(f"  two runs byte-identical: {same}")
    _report(9, "byte-identical JSON reports", ok)
