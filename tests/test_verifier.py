import functools
import hashlib
import itertools
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from km2d.currents import torus_L, torus_T
from km2d.fock import (FockState, Mode, ModeOperator, sphere_sector,
                       torus_sector, vacuum_states)
from km2d.harmonics import structure_table
from km2d.lie_core import build_so_adjoint
from km2d.regulator import UnresolvedPrescriptionError
from km2d.verifier import (
    SphereAlgebra,
    _Algebra,
    TorusAlgebra,
    Window,
    WindowViolationError,
    _certify,
    _probe_reach,
    central_raw_scan,
    check_sphere_abstract,
    check_sphere_realization,
    check_torus_algebra,
    measure_central,
    probe_states,
)
from oracles import (fock_sweep, measure_virasoro_shape, torus_pair,
                     vacuum_sandwich)

H = Fraction(1, 2)
SO3, SO4 = build_so_adjoint(3), build_so_adjoint(4)


def _job(engine, family, a, b, mode1, mode2, *rest):
    """The BracketResult of one bracket, decided as a group of one."""
    return next(engine.jobs(family, a, b, [(mode1, mode2)], *rest))


@pytest.fixture(scope="module")
def nsns():
    return torus_sector("NS", "NS", 3, Fraction(9, 2), Fraction(9, 2))


# ---------------------------------------------------------------------------
# central-term measurements
# ---------------------------------------------------------------------------

def test_level_charge_analytic(so3, nsns):
    assert measure_central("TT", 1, rep=so3, cfg=nsns) == 1.0
    assert measure_central("TT", 2, rep=so3, cfg=nsns) == 2.0
    # off-diagonal generator pair carries no central term
    assert measure_central("TT", 1, rep=so3, cfg=nsns, a=1, b=2) == 0.0


def test_virasoro_shape_analytic(so3, nsns):
    shape = measure_virasoro_shape(nsns, so3, ms=(1, 2, 3))
    c = nsns.d / 2
    assert shape[1] == 0.0           # exactly, not approximately
    assert shape[2] == c / 12 * 2 * 3
    assert shape[3] == c / 12 * 3 * 8


def test_virasoro_shape_ramond(so3):
    cfg = torus_sector("R", "NS", 3, 4, Fraction(9, 2))
    shape = measure_virasoro_shape(cfg, so3, ms=(1, 2, 3))
    assert shape[1] == 0.0
    assert shape[2] == 0.75
    assert shape[3] == 3.0


def test_central_window_independence(so3, nsns):
    # the regulated value is independent of any probe window by
    # construction; the raw diagonal is probe-independent inside a window
    v1 = measure_central("LL", 2, rep=so3, cfg=nsns)
    cfg2 = torus_sector("NS", "NS", 3, Fraction(11, 2), Fraction(13, 2))
    v2 = measure_central("LL", 2, rep=so3, cfg=cfg2)
    assert v1 == v2


def test_central_eps_extrapolated(so3, nsns):
    # the default 7 levels reach k within the default --tol of verify-torus
    val = measure_central("TT", 1, rep=so3, cfg=nsns,
                          method="eps_extrapolated")
    assert val == pytest.approx(1.0, abs=1e-10)
    # at 5 levels the trace gives the value of the Fock-space sandwich
    val5 = measure_central("TT", 1, rep=so3, cfg=nsns,
                           method="eps_extrapolated", eps0=0.1, levels=5)
    assert val5 == pytest.approx(0.9999999611662126, abs=1e-12)


def test_central_traces_apply_no_fock_operator(so3, nsns, monkeypatch):
    # every method reads one-particle coefficients only
    import km2d.verifier as verifier

    def fock_path(*args, **kwargs):
        raise RuntimeError("the Fock path was used")

    monkeypatch.setattr(ModeOperator, "apply_state", fock_path)
    monkeypatch.setattr(verifier, "torus_T", fock_path)
    monkeypatch.setattr(verifier, "torus_L", fock_path)
    assert measure_central("LL", 2, rep=so3, cfg=nsns) == 0.75
    k = measure_central("TT", 1, rep=so3, cfg=nsns, method="eps_extrapolated")
    assert k == pytest.approx(1.0, abs=1e-10)
    # k per angular mode, 10 of them at 9/2
    assert measure_central("TT", 1, rep=so3, cfg=nsns, method="raw") == 10.0


def test_charges_read_only_the_central_lookup(so3, nsns, table4,
                                             monkeypatch):
    # the charges block reads the sweep's memoized lookup, which maps each
    # bracket to measure_central's arguments; it calls measure_central never
    import km2d.verifier as verifier

    def measured(*args, **kwargs):
        raise RuntimeError("measure_central was called")

    monkeypatch.setattr(verifier, "measure_central", measured)
    asked = []

    def lookup(family, a, b, mode1, mode2):
        asked.append((family, a, b, mode1, mode2))
        return {"TT": 0.25, "LL": 0.5 + mode1[-1]}[family]

    charges, pairs = TorusAlgebra(nsns, so3).charges(lookup)
    assert asked == [("TT", 1, 1, (1, 0), (-1, 0)),
                     ("LL", None, None, (2, 0), (-2, 0))]
    assert (charges["k_measured"], charges["c_measured"]) == (0.25, 1.0)
    assert pairs == [(1.0, 1.5), (0.25, 1.0)]

    asked.clear()
    charges, pairs = SphereAlgebra(sphere_sector("R", 3, 2), so3,
                                   table4).charges(lookup)
    assert asked == [("TT", 1, 1, (1, 1), (1, -1)),
                     ("LL", None, None, (2, 1), (2, -1)),
                     ("LL", None, None, (2, 2), (2, -2))]
    assert (charges["k_measured"], charges["c_measured"]) == (-0.25, 5.0)
    assert charges["virasoro_centrals"] == {
        "1": {"measured": 1.5, "expected": -0.0},
        "2": {"measured": 2.5, "expected": 0.75}}
    assert pairs == [(-0.25, 1.0), (1.5, -0.0), (2.5, 0.75)]


@pytest.mark.parametrize("cfg,method", [
    (torus_sector("R", "NS", 3, 4, Fraction(9, 2)), "eps_extrapolated"),
    (torus_sector("R", "R", 3, 2, 2), "eps_extrapolated"),
    (sphere_sector("R", 3, 4), "eps_extrapolated"),
    (sphere_sector("R", 3, 4), "raw"),
], ids=["eps-R,NS", "eps-R,R", "eps-sphere", "raw-sphere"])
def test_central_method_outside_its_domain_is_rejected(so3, cfg, method,
                                                       monkeypatch):
    # rejected before any Richardson level or trace is evaluated
    import km2d.verifier as verifier

    def evaluated(*args, **kwargs):
        raise RuntimeError("a central value was evaluated")

    monkeypatch.setattr(verifier, "_vacuum_trace", evaluated)
    with pytest.raises(ValueError):
        measure_central("TT", 1, rep=so3, cfg=cfg, degrees=(1, 1),
                        method=method)


def test_central_raw_diverges_affinely(so3):
    rows = central_raw_scan("NS", "NS", 3, so3, Fraction(5, 2),
                            [Fraction(5, 2), Fraction(9, 2), Fraction(13, 2)])
    vals = [r["raw_central"] for r in rows]
    d1, d2 = vals[1] - vals[0], vals[2] - vals[1]
    assert d1 > 0.5                          # genuinely divergent
    assert d2 == pytest.approx(d1, abs=1e-9)  # affine in the cutoff
    counts = [r["angular_modes"] for r in rows]
    slope = d1 / (counts[1] - counts[0])
    assert slope == pytest.approx(1.0, abs=1e-9)  # anomaly per angular mode


def test_sphere_central_twist(so3, table4):
    cfg = sphere_sector("R", 3, 4)
    val = measure_central("TT", 1, rep=so3, cfg=cfg, degrees=(1, 1))
    assert val == pytest.approx(-1.0, abs=1e-12)       # (-1)^1 k m
    off = measure_central("TT", 1, rep=so3, cfg=cfg, degrees=(1, 2))
    assert off == pytest.approx(0.0, abs=1e-12)        # delta_{l1 l2}
    val2 = measure_central("LL", 2, rep=so3, cfg=cfg, degrees=(2, 2))
    assert val2 == pytest.approx(0.75, abs=1e-12)      # (-1)^2 (c/12) 2 (4-1)


def test_sphere_ns_central_unresolved(so3):
    cfg = sphere_sector("NS", 3, Fraction(3, 2))
    with pytest.raises(UnresolvedPrescriptionError):
        measure_central("TT", 1, rep=so3, cfg=cfg, degrees=(1, 1))


# ---------------------------------------------------------------------------
# window machinery
# ---------------------------------------------------------------------------

def test_probe_states_window(nsns):
    probes = probe_states(nsns, Window.of(1, 1, 2))
    assert len(probes) == 22
    for s in probes:
        z2, c2 = nsns.grade2(s)
        assert z2 <= 2 and abs(c2) <= 2 and len(s.occ) <= 2


def test_self_commutator_is_zero(so3, nsns):
    # the CAR commutator of a generator with itself cancels term by term
    L00 = torus_L(0, 0, nsns)
    assert L00.commutator(L00).terms == {}
    T00 = torus_T(so3, 1, 0, 0, nsns)
    assert T00.commutator(T00).terms == {}


def test_window_guard_in_check(so3):
    cfg = torus_sector("NS", "NS", 3, Fraction(5, 2), Fraction(5, 2))
    with pytest.raises(WindowViolationError):
        check_torus_algebra(cfg, so3, Window.of(1, 1, 2), max_mode=2)


def test_empty_sweep_is_rejected(so3, nsns, table4):
    # a sweep without brackets certifies nothing, so it must not pass
    with pytest.raises(ValueError, match="empty"):
        check_torus_algebra(nsns, so3, Window.of(1, 1, 2), max_mode=-1)
    with pytest.raises(ValueError, match="empty"):
        check_sphere_realization(sphere_sector("R", 3, 4), so3, table4,
                                 Window.of(1, 1, 2), max_l=-1)


# ---------------------------------------------------------------------------
# full torus certification
# ---------------------------------------------------------------------------

def test_torus_algebra_small_grid(so3, nsns):
    report = check_torus_algebra(nsns, so3, Window.of(1, 1, 2), tol=1e-9,
                                 max_mode=1)
    assert report.passed
    assert report.max_residual == 0.0
    assert report.charges["c_measured"] == 1.5
    assert report.charges["k_measured"] == 1.0
    assert report.lt_summary["max_deviation_from_rule"] <= 1e-12
    assert report.lt_summary["printed_variant_matches"] is False


def test_printed_variant_unclaimed_without_kappa_pairs(so3, nsns):
    # at max-mode 0 the one [L, T] bracket has no refit: no κ pair is
    # measured, so the report makes no claim about the printed variant
    report = check_torus_algebra(nsns, so3, Window.of(1, 1, 2), max_mode=0)
    assert report.passed
    assert report.lt_summary["pairs_measured"] == 0
    assert report.lt_summary["printed_variant_matches"] is None


def test_torus_specific_bracket(so3, nsns):
    # [L_00, T^a_{1,0}] = -T^a_{1,0} on the window
    from km2d.verifier import TorusAlgebra, _bracket_job

    alg = TorusAlgebra(nsns, so3)
    probes = probe_states(nsns, Window.of(1, 1, 2))
    res = _bracket_job(alg, "LT", 1, 1, (0, 0), (1, 0), probes,
                       1e-12, lambda *a: 0.0, 1e-12)
    assert res.residual == 0.0
    assert res.kappa == pytest.approx(-1.0, abs=1e-12)


def test_torus_tt_closure_example(so3, nsns):
    # [T^1_{1,1}, T^2_{-1,0}] closes on i f_12^3 T^3_{0,1} exactly
    from km2d.verifier import TorusAlgebra, _bracket_job

    alg = TorusAlgebra(nsns, so3)
    probes = probe_states(nsns, Window.of(1, 1, 2))
    res = _bracket_job(alg, "TT", 1, 2, (1, 1), (-1, 0), probes,
                       1e-12, lambda *a: 0.0, 1e-12)
    assert res.residual == 0.0


def test_antisymmetry_of_commutator(so3, nsns):
    A = torus_T(so3, 1, 1, 1, nsns)
    B = torus_T(so3, 2, -1, 0, nsns)
    ab = A.commutator(B)
    ba = B.commutator(A)
    total = ab + ba
    vac = vacuum_states(nsns)[0]
    probe = vac._replace(occ=(Mode(1, -1, 1, 0), Mode(2, -1, -1, 0)))
    assert not total.apply_state(probe)


def test_operator_part_cutoff_stable(so3):
    # growing the cutoffs beyond the exactness bound leaves window matrix
    # elements bitwise identical: the filtered closure residual vanishes on
    # the probes, and the commutator's terms inside the smallest cutoff's
    # margins act alike at every cutoff
    from km2d.verifier import _exact_terms

    w = Window.of(1, 1, 2)
    outs = []
    first_margins = None
    for cut in (Fraction(9, 2), Fraction(11, 2), Fraction(13, 2)):
        cfg = torus_sector("NS", "NS", 3, cut, cut)
        probes = probe_states(cfg, w)
        A = torus_T(so3, 1, 2, 1, cfg)
        B = torus_T(so3, 2, -1, -1, cfg)
        rhs = torus_T(so3, 3, 1, 0, cfg).scaled(1j)
        AB = A.commutator(B)
        margins = (cfg.m2_cut - 4, cfg.p2_cut - 2)
        first_margins = first_margins or margins
        D = _exact_terms(AB - rhs, margins)
        assert D.terms and not any(D.apply_state(p) for p in probes)
        part = _exact_terms(AB, first_margins)
        outs.append([sorted((s, complex(c))
                            for s, c in part.apply_state(p).items())
                     for p in probes])
    assert any(outs[0])
    assert outs[0] == outs[1] == outs[2]


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------

def test_sphere_realization(so3, table4):
    cfg = sphere_sector("R", 3, 4)
    report = check_sphere_realization(cfg, so3, table4, Window.of(1, 1, 2),
                                      tol=1e-9)
    assert report.passed
    assert report.max_residual <= 1e-12
    assert report.charges["k_measured"] == pytest.approx(1.0, abs=1e-8)
    assert report.charges["c_measured"] == pytest.approx(1.5, abs=1e-8)


def test_sphere_report_holds_builtin_types(so3, table4):
    # the pinned `sphere` configuration: its report is written as it is, and
    # np.float64 would pass an isinstance check for float
    report = check_sphere_realization(sphere_sector("R", 3, 4), so3, table4,
                                      Window.of(1, 1, 2), tol=1e-9, max_l=1)
    assert type(report.passed) is bool

    def leaves(x):
        if isinstance(x, dict):
            x = list(x.values())
        if isinstance(x, list):
            for v in x:
                yield from leaves(v)
        else:
            yield x

    types = {type(x) for x in leaves(report.to_dict())}
    assert all(t in (str, int, float, bool, type(None)) for t in types), types


def test_sphere_lt_constant_coefficient(so3, table4):
    # [L_00, T^a_{l,m}] = -m T^a_{l,m}: the l3 expansion collapses since
    # c_{0,0,l,m}^{l',m} = delta_{l l'}
    for l, m in [(1, 1), (1, -1)]:
        for l3 in range(table4.L_max + 1):
            expected = 1.0 if l3 == l else 0.0
            assert table4.get(0, 0, l, m, l3) == pytest.approx(
                expected, abs=1e-12)


def test_sphere_targets_read_the_table_blocks(so3):
    # _targets reads the block of (l1, m1, l2, m2) from the table's index:
    # every stored l3 of the pair with a value of at least 1e-15, in order,
    # as Python ints that the report can print
    L = 6
    table = structure_table(L)
    alg = SphereAlgebra(None, so3, table)
    modes = alg.modes(L)
    for mode1, mode2 in itertools.product(modes, modes):
        if mode1[0] + mode2[0] > L:
            continue
        m3 = mode1[1] + mode2[1]
        want = [((l3, m3), c) for l3 in range(L + 1)
                if abs(c := table.get(*mode1, *mode2, l3)) >= 1e-15]
        got = alg._targets(mode1, mode2)
        assert got == want and all(type(l3) is int for (l3, _), _ in got)


def test_sphere_abstract_jacobi(so3, table8):
    report = check_sphere_abstract(table8, so3, l_probe=1, tol=1e-10)
    assert report["pass"]
    assert report["max_jacobi_residual"] <= 1e-12


def test_sphere_abstract_requires_headroom(so3, table4):
    with pytest.raises(ValueError):
        check_sphere_abstract(table4, so3, l_probe=2)


def test_sphere_central_jacobi_cancellation(so3, table8):
    # triple with m1+m2+m3 = 0 and equal degrees: the central parts cancel
    from km2d.verifier import _abstract_bracket, _jacobi

    bracket = functools.partial(_abstract_bracket,
                                SphereAlgebra(None, so3, table8))
    total = _jacobi(bracket, ("L", 2, 1), ("L", 2, 1), ("L", 2, -2))
    assert max((abs(v) for v in total.values()), default=0.0) <= 1e-12


def _shifted_lt(alg, family, a, b, mode1, mode2):
    # [L_m, T_n] = -(n + 1) T_{m+n}: a density module on its own, but not a
    # derivation of the current bracket
    if family != "LT":
        return _Algebra.rhs_terms(alg, family, a, b, mode1, mode2)
    scale = -(alg.z_mode(mode2) + 1)
    return [(scale * coeff, "T", b, target)
            for target, coeff in alg._targets(mode1, mode2)]


def _no_ll(alg, family, a, b, mode1, mode2):
    if family == "LL":
        return []
    return _Algebra.rhs_terms(alg, family, a, b, mode1, mode2)


@pytest.mark.parametrize("rhs_terms", [_shifted_lt, _no_ll],
                         ids=["shifted-lt", "no-ll"])
def test_sphere_abstract_reads_the_adapter_relations(so3, table4, rhs_terms):
    # the Jacobi check sees the relations the sweep certifies, so a wrong
    # one in SphereAlgebra fails it
    with mock.patch.object(SphereAlgebra, "rhs_terms", rhs_terms):
        report = check_sphere_abstract(table4, so3, l_probe=1)
    assert not report["pass"]
    assert report["max_jacobi_residual"] > 1.0


@pytest.mark.parametrize("z,ang,mc,pc", [
    ("R", "NS", 5, Fraction(9, 2)),
    ("R", "R", 5, 4),
    ("NS", "R", Fraction(9, 2), 4),
])
def test_torus_algebra_other_sectors(so3, z, ang, mc, pc):
    # closure in the sectors with zero-mode lines and Clifford vacua
    cfg = torus_sector(z, ang, 3, mc, pc)
    report = check_torus_algebra(cfg, so3, Window.of(1, 1, 2), tol=1e-9,
                                 max_mode=1)
    assert report.passed
    assert report.max_residual <= 1e-12
    assert report.charges["c_measured"] == 1.5
    assert report.charges["k_measured"] == 1.0


def test_raw_central_window_independent(so3, nsns):
    # the commutator's diagonal c-number is the same on disjoint windows
    from km2d.verifier import TorusAlgebra, _bracket_job

    alg = TorusAlgebra(nsns, so3)
    raws = []
    for window in (Window.of(1, 1, 1), Window.of(1, 1, 2)):
        probes = probe_states(nsns, window)
        res = _bracket_job(alg, "TT", 1, 1, (1, 0), (-1, 0), probes,
                           1e-9, lambda *a: 0.0, 1e9)
        raws.append(res.raw_central)
    assert raws[0] == pytest.approx(raws[1], abs=1e-10)


def test_sphere_closure_stable_under_cutoff_growth(so3):
    # enlarging the degree cutoff (and the zero-mode module with it) keeps
    # the window residuals at zero and the charges unchanged
    table = structure_table(5)
    cfg = sphere_sector("R", 3, 5)
    report = check_sphere_realization(cfg, so3, table, Window.of(1, 1, 2),
                                      tol=1e-9)
    assert report.passed
    assert report.max_residual <= 1e-12
    assert report.charges["k_measured"] == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# guard soundness
# ---------------------------------------------------------------------------

@st.composite
def torus_brackets(draw, rep=SO3):
    """A torus sector with cutoffs up to 9/2, a window and one bracket."""
    def cutoff(sector):
        first = 1 if sector == "NS" else 2
        return Fraction(draw(st.sampled_from(range(first, 10, 2))), 2)

    sectors = st.sampled_from(["R", "NS"])
    z, ang = draw(sectors), draw(sectors)
    cfg = torus_sector(z, ang, rep.d, cutoff(z), cutoff(ang))
    window = Window(draw(st.integers(0, 3)), draw(st.integers(0, 3)),
                    draw(st.integers(0, 2)))
    family = draw(st.sampled_from(["TT", "LL", "LT"]))
    a, b = draw(st.integers(1, rep.dim_g)), draw(st.integers(1, rep.dim_g))
    if family == "LL":
        a = b = None
    mode = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
    return cfg, window, family, a, b, draw(mode), draw(mode)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("R", "R"), ("R", "NS"), ("NS", "R"), ("NS", "NS"),
                        ("R", None)]),
       st.integers(1, 7), st.integers(1, 7),
       st.integers(-1, 8), st.integers(-1, 8), st.integers(0, 3))
def test_one_particle_window_has_the_full_reach(sectors, cut1, cut2, w_z2,
                                                w_a2, n_max):
    # _certify guards on the one-particle window before it enumerates the
    # full one: both must be empty together and reach equally far
    z, ang = sectors
    if ang is None:
        cfg = sphere_sector(z, 2, cut1)
    else:
        cfg = torus_sector(z, ang, 2, Fraction(2 * cut1 - (z == "NS"), 2),
                           Fraction(2 * cut2 - (ang == "NS"), 2))
    full = probe_states(cfg, Window(w_z2, w_a2, n_max))
    single = probe_states(cfg, Window(w_z2, w_a2, min(n_max, 1)))
    assert bool(full) == bool(single)
    assert _probe_reach(full) == _probe_reach(single)


@settings(max_examples=40, deadline=None)
@given(torus_brackets())
# the guard rejects these; accepted, their residuals would be 1, 1/7 and 0.40
@example(bracket=(torus_sector("NS", "NS", 3, H, H), Window(2, 2, 2),
                  "TT", 1, 2, (0, -1), (1, 1)))
@example(bracket=(torus_sector("R", "R", 3, 2, 2), Window(1, 4, 1),
                  "LL", None, None, (1, 1), (-1, -1)))
@example(bracket=(torus_sector("NS", "NS", 3, 5 * H, 3 * H), Window(3, 3, 2),
                  "TT", 2, 2, (1, -1), (-1, 1)))
# an R,R zero-total bracket whose zero-mode squares read 1.1e-16 when applied
# as two rounded factors 1/sqrt2
@example(bracket=(torus_sector("R", "R", 3, 2, 1), Window(1, 3, 2),
                  "LL", None, None, (-1, 0), (1, 0)))
def test_guard_accepts_only_exact_brackets(so3, bracket):
    # whenever the guard accepts, truncation leaves no residual, also with
    # Clifford zero modes, whose 1/sqrt2 the Fock path applies once per term
    from km2d.verifier import TorusAlgebra, _bracket_job, _probe_reach

    cfg, window, family, a, b, mode1, mode2 = bracket
    alg = TorusAlgebra(cfg, so3)
    probes = probe_states(cfg, window)
    try:
        alg.guard(_probe_reach(probes), mode1, mode2)
    except WindowViolationError:
        assume(False)
    res = _bracket_job(alg, family, a, b, mode1, mode2, probes, 0.0,
                       lambda *args: 0.0, 1e9)
    assert res.residual == 0.0


# ---------------------------------------------------------------------------
# the engine's normal-ordered torus residual against the Fock path
# ---------------------------------------------------------------------------

@st.composite
def rep_brackets(draw):
    """A torus bracket of so(3) or so(4) (d = 6), drawn by torus_brackets."""
    rep = draw(st.sampled_from([SO3, SO4]))
    return (rep,) + draw(torus_brackets(rep))


@settings(max_examples=60, deadline=None)
@given(rep_brackets())
# the R,R bracket whose Fock diagonal differs by one rounding across probes
@example(bracket=(SO3, torus_sector("R", "R", 3, 2, 1), Window.of(0, 1, 1),
                  "LL", None, None, (-1, 0), (1, 0)))
# so(4) on R,R: six zero modes, a measured [L, T] refit
@example(bracket=(SO4, torus_sector("R", "R", 6, 2, 2), Window.of(0, 0, 2),
                  "LT", 5, 5, (0, 1), (-1, -1)))
# a probe holding both the annihilated mode and the conjugate of the created
# one: the only term of T^1_{1,0} that would reach it is blocked
@example(bracket=(SO3, torus_sector("NS", "NS", 3, 9 * H, 9 * H),
                  Window.of(2, 1, 2), "LT", 1, 1, (0, 0), (1, 0)))
# a zero-total [L, T] bracket with a measured refit
@example(bracket=(SO3, torus_sector("NS", "NS", 3, 5 * H, 5 * H),
                  Window.of(1, 1, 2), "LT", 2, 2, (1, 0), (-1, 0)))
# so(4) on R,R at zero total with only the spinors 0 and 7 as probes: the
# zero modes' spin rotation by T^3 cancels on both, so nothing is refitted
@example(bracket=(SO4, torus_sector("R", "R", 6, 2, 1), Window(0, 0, 1),
                  "LT", 3, 3, (-1, 0), (1, 0)))
# [L, T^2] closes on T^2, whatever the unused index a of L
@example(bracket=(SO3, torus_sector("NS", "NS", 3, 9 * H, 9 * H),
                  Window.of(1, 1, 2), "LT", 1, 2, (0, 1), (1, 0)))
def test_normal_ordered_residual_matches_fock_path(bracket):
    # _bracket_job is the oracle of the engine, on every bracket the guard
    # accepts, zero-total ones with their raw centrals included
    from km2d.verifier import (_assemble_rhs, _bracket_job, _exact_terms,
                               _probe_reach, _vacuum_trace)

    rep, cfg, window, family, a, b, mode1, mode2 = bracket
    alg = TorusAlgebra(cfg, rep)
    probes = probe_states(cfg, window)
    try:
        alg.guard(_probe_reach(probes), mode1, mode2)
    except WindowViolationError:
        assume(False)
    args = (family, a, b, mode1, mode2)
    lookup = (lambda *args: 0.0, 1e9)
    fock = _bracket_job(alg, *args, probes, 1e-12, *lookup)
    # on the true algebra every compared coefficient is exactly 0
    got = _job(alg.engine(probes), *args, 1e-12, *lookup)
    assert got.residual == 0.0
    assert (got.kappa is None) == (fock.kappa is None)
    if alg.zero_total(mode1, mode2):
        # the raw central is the one-particle vacuum trace
        trace = 0.0 if family == "LT" else _vacuum_trace(
            family, rep, a or 1, b or 1, mode1[0], mode1[1], cfg)
        assert repr(got.raw_central) == repr(trace)
    else:
        assert got.raw_central is None
    # the engine's result is the Fock path's, byte for byte in a report
    assert json.dumps(got.to_dict()) == json.dumps(fock.to_dict())
    if fock.kappa is not None:
        # probe by probe, as the refit's w_op sees them: a probe set need
        # not hold every state with one particle taken out
        w_op = _exact_terms(_assemble_rhs(alg, *args).scaled(1.0 / -mode2[0]),
                            alg.compare_bounds(mode1, mode2))
        for probe in probes:
            one = _job(alg.engine([probe]), *args, 1e-12, *lookup)
            assert (one.kappa is not None) == \
                (w_op.apply_state(probe).norm2() > 1e-12)


class _Wrong:
    """Mixed in before an adapter: one corrupted right-hand side, the
    adapter's arguments followed by the corruption."""

    def __init__(self, *args):
        *args, self.corruption = args
        super().__init__(*args)

    def rhs_terms(self, family, a, b, mode1, mode2):
        terms = super().rhs_terms(family, a, b, mode1, mode2)
        if family == "TT" and self.corruption == "double f_abc":
            return [(2 * scale, *rest) for scale, *rest in terms]
        if family == "LT" and self.corruption == "shift LT":
            msum = (mode1[0] + mode2[0], mode1[1] + mode2[1])
            return [(1 - self.z_mode(mode2), "T", b, msum)]
        if self.corruption == "off line":
            # sphere only: every target off the line m = m_A + m_B, where
            # the torus engine reads no target
            return [(s, kind, c, (l + 1, m + 1)) for s, kind, c, (l, m)
                    in terms]
        return terms


class _WrongAlgebra(_Wrong, TorusAlgebra):
    """The torus adapter with one corrupted right-hand side."""


class _WrongSphere(_Wrong, SphereAlgebra):
    """The sphere adapter with one corrupted right-hand side."""


# sha256 of json.dumps of each wrong algebra's failing report
WRONG_ALGEBRA_REPORTS = {
    ("NS", "double f_abc"):
        "81f0139f3fcbfc9ec6cc86417f985d94ec92ed63e83257db8d6b65d0fd12a271",
    ("NS", "shift LT"):
        "f2ae676eb9ce08614655b53ce4b14611c8efa3d5cbf9c059a21fe6ac5b7abb3b",
    ("R", "double f_abc"):
        "f27165c18f8dd41080fe6edfa75c4648717ee82444323328cf229d86e01571b5",
    ("R", "shift LT"):
        "f167bdc01d0114508c30c28b6ae28c00432976d626d8ff3746da2f9c0c308a39",
}


@pytest.mark.parametrize("corruption", ["double f_abc", "shift LT"])
@pytest.mark.parametrize("cfg,window", [
    (torus_sector("NS", "NS", 3, Fraction(9, 2), Fraction(9, 2)),
     Window.of(1, 1, 2)),
    (torus_sector("R", "R", 3, 2, 2), Window.of(0, 0, 2)),
], ids=["NS,NS", "R,R"])
def test_engine_never_passes_a_wrong_algebra(so3, cfg, window, corruption):
    # the engine fails every corrupted bracket that the pure Fock sweep
    # fails on a probe state, and names a state for each bracket it fails
    args = (window, 1, 1e-9, "analytic", 1e-9)
    report = _certify(_WrongAlgebra(cfg, so3, corruption), *args)
    fock = fock_sweep(_WrongAlgebra(cfg, so3, corruption), *args)
    assert [r.lhs for r in report.brackets] == [r.lhs for r in fock.brackets]
    assert all(not r.passed for r, f in zip(report.brackets, fock.brackets)
               if not f.passed)
    assert not fock.passed and not report.passed
    family = "TT" if corruption == "double f_abc" else "LT"
    failed = [r for r in report.brackets if not r.passed]
    assert all(r.lhs.startswith("[T" if family == "TT" else "[L")
               for r in failed)
    assert all(r.residual > 1e-9 and r.offending_state for r in failed)
    # a bracket of nonzero total (no raw central) fails
    assert any(r.raw_central is None for r in failed)
    # the report, with its nonzero residuals and offending states, is pinned
    text = json.dumps(report.to_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == \
        WRONG_ALGEBRA_REPORTS[cfg.z_sector, corruption]


@st.composite
def engine_groups(draw):
    """An adapter of a torus or sphere R sector with so(3) or so(4), true or
    with corrupted right-hand sides; a window; a family with fixed a, b;
    guarded mode pairs with at least one of zero total; and a chunk size of
    the group evaluation."""
    rep = draw(st.sampled_from([SO3, SO4]))
    if draw(st.sampled_from(["torus", "sphere"])) == "torus":
        cfg, window, family, a, b, _, _ = draw(torus_brackets(rep))
        alg = _WrongAlgebra(cfg, rep, draw(st.sampled_from(
            ["none", "double f_abc", "shift LT"])))
        grid = [(m, p) for m in (-1, 0, 1) for p in (-1, 0, 1)]
    else:
        cfg, window, family, a, b, _, _ = draw(sphere_brackets(rep))
        corruption = draw(st.sampled_from(["none", "drop", "double"]))
        adapter = SphereAlgebra if corruption == "none" else \
            _corrupted(SphereAlgebra, corruption)
        alg = adapter(cfg, rep, structure_table(8))
        grid = [(l, m) for l in range(3) for m in range(-l, l + 1)]
    probes = probe_states(cfg, window)
    assume(probes)
    reach = _probe_reach(probes)
    pairs = []
    for mode1 in grid:
        for mode2 in grid:
            try:
                alg.guard(reach, mode1, mode2)
            except WindowViolationError:
                continue
            pairs.append((mode1, mode2))
    zero = [pair for pair in pairs if alg.zero_total(*pair)]
    assume(zero)
    group = draw(st.lists(st.sampled_from(pairs), max_size=12))
    group.insert(draw(st.integers(0, len(group))), draw(st.sampled_from(zero)))
    chunk = draw(st.sampled_from([1, 50, 1 << 14]))
    return alg, window, family, a, b, group, chunk


@settings(max_examples=120, deadline=None)
@given(engine_groups())
def test_group_evaluation_matches_each_bracket_alone(group):
    # an engine decides a group on its brackets' compared points laid end
    # to end; each bracket's report entry is the one it gets as a group of
    # one, on both geometries, also on corrupted right-hand sides and with
    # chunks of one compared point
    import km2d.verifier as verifier

    alg, window, family, a, b, pairs, chunk = group
    engine = alg.engine(probe_states(alg.cfg, window))
    lookup = (lambda *args: 0.0, 1e9)
    with mock.patch.object(verifier, "GROUP_CHUNK", chunk):
        together = list(engine.jobs(family, a, b, pairs, 1e-9, *lookup))
    alone = [_job(engine, family, a, b, *pair, 1e-9, *lookup)
             for pair in pairs]
    assert [json.dumps(r.to_dict()) for r in together] == \
        [json.dumps(r.to_dict()) for r in alone]


@st.composite
def sphere_groups(draw):
    """A sphere R adapter with so(3) or so(4), true or with a corrupted
    right-hand side; a window; a family with fixed a, b; guarded pairs."""
    rep = draw(st.sampled_from([SO3, SO4]))
    cfg, window, family, a, b, _, _ = draw(sphere_brackets(rep))
    corruption = draw(st.sampled_from(
        ["none", "double f_abc", "shift LT", "off line", "drop", "double"]))
    if corruption in ("drop", "double"):
        alg = _corrupted(SphereAlgebra, corruption)(cfg, rep,
                                                    structure_table(8))
    else:
        alg = _WrongSphere(cfg, rep, structure_table(8), corruption)
    probes = probe_states(cfg, window)
    assume(probes)
    reach = _probe_reach(probes)
    grid = [(l, m) for l in range(3) for m in range(-l, l + 1)]
    pairs = []
    for pair in itertools.product(grid, grid):
        try:
            alg.guard(reach, *pair)
        except WindowViolationError:
            continue
        pairs.append(pair)
    assume(pairs)
    group = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8))
    return alg, window, family, a, b, group


@settings(max_examples=60, deadline=None)
@given(sphere_groups())
def test_sphere_engine_skips_only_zero_points(group):
    # the sphere engine compares the pairs (u, v) of each bracket's leading
    # block that carry a nonzero weight; built here in full, every pair it
    # skips has D = 0 on every flavour, also where a corrupted right-hand
    # side puts weight off the line m_u + m_v = m_A + m_B
    from km2d.verifier import _generators

    alg, window, family, a, b, pairs = group
    engine = alg.engine(probe_states(alg.cfg, window))
    rhss = [alg.rhs_terms(family, a, b, *pair) for pair in pairs]
    keys = list(dict.fromkeys((kind, c) for rhs in rhss
                              for _, kind, c, _ in rhs))
    compared = {}
    for seg, C, u, v in engine._points(family, a, b, pairs, rhss, keys):
        for k, x, y, weights in zip(seg, u, v, C.T):
            compared[k, x, y] = weights
    FA, FB = (engine.F[key] for key in _generators(family, a, b))
    B = np.array([FA @ FB, FB @ FA] + [engine.F[key] for key in keys])
    B = B.reshape(len(keys) + 2, -1)
    for k, (pair, rhs) in enumerate(zip(pairs, rhss)):
        m = np.count_nonzero(engine._k1 <= alg.compare_bounds(*pair)[0])
        GA, GB, KGA, KGB = engine._products(family, *pair)
        full = np.zeros((len(keys) + 2, m, m), complex)
        full[0] = np.einsum("uv,vw->uw", GA[:m], KGB[:, :m])
        full[1] = -np.einsum("uv,vw->uw", GB[:m], KGA[:, :m])
        for s, kind, c, mode in rhs:
            full[2 + keys.index((kind, c))] -= (
                s * engine.mode_matrix(kind, mode)[:m, :m])
        D = np.einsum("rf,rxy->fxy", B, full)
        for x, y in itertools.product(range(m), range(m)):
            if (k, x, y) in compared:
                weights = compared.pop((k, x, y))
                assert weights.any()
                assert np.array_equal(weights, full[:, x, y])
            else:
                assert not D[:, x, y].any()
    assert not compared         # no point outside a leading block


def test_sphere_group_without_weight(so3, table8):
    # on sphere R l=2 the leading block of [T1(l=0,m=0), T1(l=2,m=-2)] is
    # one mode function, and its one pair has no weight: with a chunk of one
    # point, the group's second chunk holds no point.  The bracket reads
    # residual 0.0 and no refit, in the group as alone
    import km2d.verifier as verifier

    cfg = sphere_sector("R", 3, 2)
    engine = SphereAlgebra(cfg, so3, table8).engine(
        probe_states(cfg, Window(0, 0, 0)))
    pairs = [((0, 0), (0, 0)), ((0, 0), (2, -2))]
    assert not list(engine._points("TT", 1, 1, pairs[1:], [[]], []))
    lookup = (lambda *args: 0.0, 1e9)
    with mock.patch.object(verifier, "GROUP_CHUNK", 1):
        together = list(engine.jobs("TT", 1, 1, pairs, 1e-9, *lookup))
    alone = [_job(engine, "TT", 1, 1, *pair, 1e-9, *lookup)
             for pair in pairs]
    assert [json.dumps(r.to_dict()) for r in together] == \
        [json.dumps(r.to_dict()) for r in alone]
    assert (together[1].residual, together[1].kappa) == (0.0, None)


@pytest.mark.parametrize("cutoff", [4, 6, 8])
def test_sphere_mode_matrix_is_the_pairs_matrix(so3, cutoff):
    # G gathered from the table's index, bit for bit the matrix filled pair
    # by pair from _sphere_pairs, for every target of the verify-sphere
    # table at this cutoff
    from km2d.currents import _sphere_pairs

    cfg, table = sphere_sector("R", 3, cutoff), structure_table(cutoff)
    engine = SphereAlgebra(cfg, so3, table).engine(
        probe_states(cfg, Window(0, 0, 0)))
    funcs = [m[1:] for m in engine.modes if m.i == 1]
    for l in range(cutoff + 1):
        for m in range(-l, l + 1):
            C = np.zeros((len(funcs),) * 2)
            for x, y, _, c in _sphere_pairs(cfg, table, l, m):
                C[funcs.index(x), funcs.index(y)] = c
            A = -(engine._m[:, None] / 2) * C
            for kind, G in (("T", C + C.T), ("L", A - A.T)):
                assert np.array_equal(
                    engine.mode_matrix(kind, (l, m)).view(np.int64),
                    G.view(np.int64)), (kind, l, m)


def test_torus_check_memory_is_bounded():
    # so5-adjoint, d = 10: a box point carries 100 flavour entries.  The
    # per-bracket torus engine peaked at 4.65 MB of traced memory here; the
    # group evaluation forms GROUP_CHUNK coefficients at a time and stays
    # below that with 10 % to spare (with the whole group at once, 16.4 MB)
    import tracemalloc

    rep = build_so_adjoint(5)
    args = (torus_sector("NS", "NS", rep.d, 9 * H, 9 * H), rep,
            Window.of(1, 1, 2))
    check_torus_algebra(*args, max_mode=1)      # lazy imports and caches
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        report = check_torus_algebra(*args, max_mode=1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert report.passed and len(report.brackets) == 207
    assert peak < 1.1 * 4.65 * 2 ** 20


def test_passing_torus_sweep_never_takes_the_fock_path(so3, nsns,
                                                      monkeypatch):
    # the engine certifies all 207 brackets, the 23 zero-total ones with
    # their centrals, on NS,NS and on R,R with its Clifford zero modes; no
    # generator is built as a Fock operator
    import km2d.verifier as verifier

    def fock_path(*args):
        raise AssertionError("the Fock path ran")

    monkeypatch.setattr(verifier, "_bracket_job", fock_path)
    for cfg, window in ((nsns, Window.of(1, 1, 2)),
                        (torus_sector("R", "R", 3, 2, 2), Window.of(0, 0, 2))):
        alg = TorusAlgebra(cfg, so3)
        report = _certify(alg, window, 1, 1e-9, "analytic", 1e-9)
        assert report.passed and len(report.brackets) == 207
        assert sum(r.raw_central is not None for r in report.brackets) == 23
        assert alg._ops == {}


def test_rr_zero_total_diagonal_is_exact(so3):
    # the engine reads the diagonal as the vacuum trace, exactly -3/4 with
    # residual 0.0; so does the Fock path, which applies the zero modes'
    # squares as 1/2 (two rounded factors 1/sqrt2 read -0.7500000000000001
    # on some of the 8 probes)
    from km2d.verifier import _bracket_job

    cfg = torus_sector("R", "R", 3, 2, 1)
    probes = probe_states(cfg, Window.of(0, 1, 1))
    assert len(probes) == 8
    alg = TorusAlgebra(cfg, so3)
    args = ("LL", None, None, (-1, 0), (1, 0))
    lookup = (lambda *args: 0.0, 1e9)
    for res in (_job(alg.engine(probes), *args, 0.0, *lookup),
                _bracket_job(alg, *args, probes, 0.0, *lookup)):
        assert res.residual == 0.0
        assert res.raw_central == -0.75


def test_sweep_limit_counts_the_brackets(so3, nsns, monkeypatch):
    # the limit is compared with the number of brackets the sweep checks
    import km2d.verifier as verifier

    monkeypatch.setattr(verifier, "MAX_SWEEP_BRACKETS", 207)
    report = check_torus_algebra(nsns, so3, Window.of(1, 1, 2), max_mode=1)
    assert len(report.brackets) == 207
    monkeypatch.setattr(verifier, "MAX_SWEEP_BRACKETS", 206)
    with pytest.raises(ValueError, match="sweep of 207 brackets"):
        check_torus_algebra(nsns, so3, Window.of(1, 1, 2), max_mode=1)


def test_probe_scan_limit_counts_the_combinations(so3, nsns, table8,
                                                  monkeypatch):
    # the default torus window tries the C(30, <=2) = 466 sets of its 30
    # oscillators at z = 1/2; sphere R l=8 the C(24, <=2) = 301 sets of its
    # oscillators at m = 1, for each of its two sampled spinor labels
    import km2d.verifier as verifier

    monkeypatch.setattr(verifier, "MAX_PROBE_SCAN", 465)
    with pytest.raises(ValueError, match="scans 466 combinations"):
        check_torus_algebra(nsns, so3, Window.of(1, 1, 2), max_mode=2)
    monkeypatch.setattr(verifier, "MAX_PROBE_SCAN", 601)
    with pytest.raises(ValueError, match="scans 602 combinations"):
        check_sphere_realization(sphere_sector("R", 3, 8), so3, table8,
                                 Window.of(1, 1, 2), max_l=2)


def test_engine_cell_limit_counts_probes_times_modes(so3, nsns,
                                                     monkeypatch):
    # the default torus window holds 22 probes of a 300-mode sector
    import km2d.verifier as verifier

    monkeypatch.setattr(verifier, "MAX_ENGINE_CELLS", 6599)
    with pytest.raises(ValueError, match="22 probes times 300 modes = 6600"):
        check_torus_algebra(nsns, so3, Window.of(1, 1, 2), max_mode=2)
    monkeypatch.setattr(verifier, "MAX_ENGINE_CELLS", 6600)
    assert check_torus_algebra(nsns, so3, Window.of(1, 1, 2),
                               max_mode=2).passed


def test_window_without_probes_is_rejected(so3, nsns):
    # a negative bound admits no probe state, which would certify nothing
    assert probe_states(nsns, Window(-2, 2, 2)) == []
    with pytest.raises(ValueError, match="no probe state"):
        check_torus_algebra(nsns, so3, Window(-2, 2, 2), max_mode=0)


# ---------------------------------------------------------------------------
# the one-particle vacuum trace against the Fock sandwich
# ---------------------------------------------------------------------------

@st.composite
def torus_centrals(draw):
    """A torus sector with cutoffs up to 5/2 and one zero-total TT or LL pair."""
    def cutoff(sector):
        first = 1 if sector == "NS" else 2
        return Fraction(draw(st.sampled_from(range(first, 6, 2))), 2)

    sectors = st.sampled_from(["R", "NS"])
    z, ang = draw(sectors), draw(sectors)
    cfg = torus_sector(z, ang, 3, cutoff(z), cutoff(ang))
    # (1, 2) has the right-hand side f^{12c} T^c_{0,0}.  The Fock vacua see
    # a zero-mode block only where their spinor label pairs the two modes,
    # and they pair zero modes 1 and 2, the ones [T^1, T^2] = i T^3 couples
    family, a, b = draw(st.sampled_from(
        [("TT", 1, 1), ("TT", 3, 3), ("TT", 1, 2), ("LL", 1, 1)]))
    return cfg, family, a, b, draw(st.integers(-2, 2)), draw(st.integers(-1, 1))


def _value_or_error(fn):
    try:
        return fn()
    except AssertionError:
        return AssertionError


@settings(max_examples=80, deadline=None)
@given(torus_centrals(), st.sampled_from([0.0, 0.3]))
# the zero modes of R,R weigh 1/2; at eps > 0 the damping leaves a
# zero-mode block in the current bracket, and both paths reject it
@example(central=(torus_sector("R", "R", 3, 2, 1), "TT", 1, 1, 1, 1), eps=0.0)
@example(central=(torus_sector("R", "R", 3, 1, 1), "LL", 1, 1, -1, 0), eps=0.3)
@example(central=(torus_sector("R", "R", 3, 2, 1), "TT", 1, 2, 1, 0), eps=0.3)
def test_vacuum_trace_matches_fock_sandwich(so3, central, eps):
    # at eps = 0 the trace is also the raw central of the sector
    from km2d.verifier import _vacuum_trace

    cfg, family, a, b, m, p = central
    trace = _value_or_error(
        lambda: _vacuum_trace(family, so3, a, b, m, p, cfg, eps))
    fock = _value_or_error(lambda: vacuum_sandwich(
        *torus_pair(family, so3, a, b, m, p, cfg, eps), cfg))
    if eps == 0.0:
        raw = _value_or_error(lambda: measure_central(
            family, m, rep=so3, cfg=cfg, a=a, b=b, p=p, method="raw"))
        assert raw == trace == fock
    elif AssertionError in (trace, fock):
        assert trace == fock
    else:
        assert trace == pytest.approx(fock, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# the sphere engine against the Fock path
# ---------------------------------------------------------------------------

def _fock_vacuum_value(alg, family, a, b, mode1, mode2) -> float:
    """Real part of <0|[X, Y] - rhs|0>, every term of the commutator kept."""
    from km2d.verifier import _assemble_rhs, _generators

    (kind_a, ia), (kind_b, ib) = _generators(family, a, b)
    D = alg.op(kind_a, ia, mode1).commutator(alg.op(kind_b, ib, mode2))
    rhs = _assemble_rhs(alg, family, a, b, mode1, mode2)
    if rhs is not None:
        D = D - rhs
    vacuum = FockState(0, ())
    return complex(D.apply_state(vacuum).get(vacuum, 0)).real


def _assert_engine_matches_fock(alg, tasks, got, fock, tol):
    for (family, a, b, mode1, mode2), res, ref in zip(tasks, got, fock):
        assert res.lhs == ref.lhs and res.rhs == ref.rhs
        assert res.passed == ref.passed
        assert res.residual <= tol and ref.residual <= tol
        assert (res.kappa is None) == (ref.kappa is None)
        if ref.kappa is not None:
            assert abs(res.kappa - ref.kappa) <= 1e-12
        assert (res.central_measured, res.central_expected) == \
            (ref.central_measured, ref.central_expected)
        if alg.zero_total(mode1, mode2):
            # the engine's raw central is the oscillator vacuum trace, the
            # unfiltered Fock vacuum value
            assert abs(res.raw_central - _fock_vacuum_value(
                alg, family, a, b, mode1, mode2)) <= 1e-12
        else:
            assert res.raw_central is None


@pytest.mark.parametrize("l_cut,max_l", [(4, 1), (5, 1), (6, 2)])
def test_sphere_engine_matches_fock_sweep(so3, l_cut, max_l):
    # the pinned R sweeps: every bracket has the Fock path's verdict, its
    # [L, T] refit where the Fock path has one, and the unfiltered Fock
    # vacuum value as raw central
    cfg = sphere_sector("R", 3, l_cut)
    table = structure_table(l_cut)
    window = Window.of(1, 1, 2)
    args = (window, max_l, 1e-9, "analytic", 1e-8)
    alg = SphereAlgebra(cfg, so3, table)
    report = _certify(alg, *args)
    fock = fock_sweep(SphereAlgebra(cfg, so3, table), *args)
    modes = alg.modes(max_l)
    tasks = [("TT", 1, 2, m1, m2) for m1 in modes for m2 in modes]
    tasks += [("LL", None, None, m1, m2)
              for i1, m1 in enumerate(modes) for m2 in modes[i1:]]
    tasks += [("LT", 1, 1, m1, m2) for m1 in modes for m2 in modes]
    assert report.passed and fock.passed
    _assert_engine_matches_fock(alg, tasks, report.brackets, fock.brackets,
                                1e-9)
    assert report.lt_summary["pairs_measured"] == \
        fock.lt_summary["pairs_measured"]


@st.composite
def sphere_brackets(draw, rep=SO3):
    """A sphere R sector with degree cutoff 2 to 6, a window, one bracket."""
    cfg = sphere_sector("R", rep.d, draw(st.integers(2, 6)))
    window = Window(draw(st.integers(0, 4)), draw(st.sampled_from([0, 2, 4])),
                    draw(st.integers(0, 2)))
    family = draw(st.sampled_from(["TT", "LL", "LT"]))
    a, b = draw(st.integers(1, rep.dim_g)), draw(st.integers(1, rep.dim_g))
    if family == "LL":
        a = b = None

    def mode():
        l = draw(st.integers(0, 2))
        return l, draw(st.integers(-l, l))

    return cfg, window, family, a, b, mode(), mode()


@settings(max_examples=40, deadline=None)
@given(sphere_brackets())
# a zero-total [L, T] bracket whose refit has probes
@example(bracket=(sphere_sector("R", 3, 4), Window.of(1, 1, 2),
                  "LT", 2, 2, (1, -1), (1, 1)))
# probes that are vacua only: the refit sees the zero modes' spin rotation
@example(bracket=(sphere_sector("R", 3, 4), Window(0, 0, 0),
                  "LT", 1, 1, (2, -1), (1, 1)))
def test_sphere_engine_matches_fock_bracket(so3, table8, bracket):
    from km2d.verifier import _assemble_rhs, _bracket_job, _exact_terms

    cfg, window, family, a, b, mode1, mode2 = bracket
    alg = SphereAlgebra(cfg, so3, table8)
    probes = probe_states(cfg, window)
    try:
        alg.guard(_probe_reach(probes), mode1, mode2)
    except WindowViolationError:
        assume(False)
    args = (family, a, b, mode1, mode2)
    lookup = (lambda *args: 0.0, 1e9)
    got = _job(alg.engine(probes), *args, 1e-9, *lookup)
    fock = _bracket_job(alg, *args, probes, 1e-9, *lookup)
    assert got is not None
    _assert_engine_matches_fock(alg, [args], [got], [fock], 1e-9)
    if fock.kappa is not None:
        # probe by probe, as the refit's w_op sees them
        w_op = _exact_terms(_assemble_rhs(alg, *args).scaled(1.0 / -mode2[1]),
                            alg.compare_bounds(mode1, mode2))
        for probe in probes:
            one = _job(alg.engine([probe]), *args, 1e-9, *lookup)
            assert (one.kappa is not None) == \
                (w_op.apply_state(probe).norm2() > 1e-12)


class _DroppedTerm(SphereAlgebra):
    """The sphere adapter with the first right-hand-side term dropped."""

    def rhs_terms(self, family, a, b, mode1, mode2):
        return super().rhs_terms(family, a, b, mode1, mode2)[1:]


def test_sphere_engine_fails_a_wrong_bracket(so3):
    # [L(2,1), L(2,0)] closes on L(2,1) and L(4,1); without the first the
    # engine fails it and names a state, as the Fock path does on a probe
    from km2d.verifier import _bracket_job

    cfg, table = sphere_sector("R", 3, 6), structure_table(6)
    probes = probe_states(cfg, Window.of(1, 1, 2))
    args = ("LL", None, None, (2, 1), (2, 0))
    lookup = (lambda *args: 0.0, 1e9)
    alg = _DroppedTerm(cfg, so3, table)
    alg.guard(_probe_reach(probes), (2, 1), (2, 0))
    assert len(SphereAlgebra(cfg, so3, table).rhs_terms(*args)) == 2
    got = _job(alg.engine(probes), *args, 1e-9, *lookup)
    assert not got.passed and got.residual > 1e-9
    assert got.offending_state
    fock = _bracket_job(alg, *args, probes, 1e-9, *lookup)
    assert not fock.passed and fock.residual > 1e-9
    assert fock.offending_state


def test_passing_sphere_sweep_never_takes_the_fock_path(so3, monkeypatch):
    # the sphere-closure benchmark's sweep: no bracket goes through
    # _bracket_job, no commutator is taken, no generator is a Fock operator
    import km2d.verifier as verifier

    def fock_path(*args):
        raise AssertionError("the Fock path ran")

    monkeypatch.setattr(verifier, "_bracket_job", fock_path)
    monkeypatch.setattr(ModeOperator, "commutator", fock_path)
    alg = SphereAlgebra(sphere_sector("R", 3, 6), so3, structure_table(6))
    report = _certify(alg, Window.of(1, 1, 2), 2, 1e-9, "analytic", 1e-8)
    assert report.passed and len(report.brackets) == 207
    assert report.max_residual <= 1e-9
    assert alg._ops == {}


# ---------------------------------------------------------------------------
# wrong right-hand sides that no probe state sees
# ---------------------------------------------------------------------------

def _corrupted(adapter, corruption, bracket=None):
    """The adapter with right-hand sides dropped or doubled: every one, or
    only that of bracket = (family, mode1, mode2)."""
    class Corrupted(adapter):
        def rhs_terms(self, family, a, b, mode1, mode2):
            terms = super().rhs_terms(family, a, b, mode1, mode2)
            if bracket not in (None, (family, mode1, mode2)):
                return terms
            if corruption == "drop":
                return []
            return [(2 * scale, *rest) for scale, *rest in terms]
    return Corrupted


@pytest.mark.parametrize("geometry", ["torus", "sphere"])
def test_sweep_fails_a_bracket_no_probe_sees(so3, table4, geometry,
                                             monkeypatch):
    # [L[0,0], L[1,0]] = -L[1,0] on the default torus window at max-mode 1,
    # and [L(1,0), L(1,1)] = -L(1,1) on the sphere R l=4 with window 0,0,1,
    # whose probes are vacua that L(l,1) annihilates.  With the right-hand
    # side dropped, no probe state sees the difference and the Fock sweep
    # passes; the engine fails the bracket and names a state.
    import km2d.verifier as verifier

    if geometry == "torus":
        cfg = torus_sector("NS", "NS", 3, 9 * H, 9 * H)
        bracket = ("LL", (0, 0), (1, 0))
        args = (Window.of(1, 1, 2), 1, 1e-9, "analytic", 1e-9)
        lhs = "[L[0,0], L[1,0]]"

        def adapter():
            return _corrupted(TorusAlgebra, "drop", bracket)(cfg, so3)
    else:
        cfg = sphere_sector("R", 3, 4)
        bracket = ("LL", (1, 0), (1, 1))
        args = (Window.of(0, 0, 1), 1, 1e-9, "analytic", 1e-8)
        lhs = "[L[l=1,m=0], L[l=1,m=1]]"

        def adapter():
            return _corrupted(SphereAlgebra, "drop", bracket)(cfg, so3, table4)

    assert fock_sweep(adapter(), *args).passed

    def fock_path(*args):
        raise AssertionError("the Fock path ran")

    monkeypatch.setattr(verifier, "_bracket_job", fock_path)
    report = _certify(adapter(), *args)
    failed = [r for r in report.brackets if not r.passed]
    assert not report.passed
    assert [(r.lhs, r.rhs) for r in failed] == [(lhs, "0")]
    assert failed[0].residual > 1e-9 and failed[0].offending_state


@st.composite
def swept_brackets(draw):
    """A torus or sphere sector, a window, and a bracket of a swept family:
    TT as [T^1, T^2], LL, and LT with a = b = 1."""
    geometry = draw(st.sampled_from(["torus", "sphere"]))
    draw_bracket = torus_brackets() if geometry == "torus" \
        else sphere_brackets()
    cfg, window, family, _, _, mode1, mode2 = draw(draw_bracket)
    a, b = {"TT": (1, 2), "LL": (None, None), "LT": (1, 1)}[family]
    return cfg, window, family, a, b, mode1, mode2


@settings(max_examples=60, deadline=None)
@given(swept_brackets(), st.sampled_from(["drop", "double"]))
def test_engine_fails_a_wrong_right_hand_side(so3, table8, bracket,
                                              corruption):
    # a right-hand side whose compared coefficients exceed tol plus the true
    # residual cannot be dropped or doubled without the bracket failing
    cfg, window, family, a, b, mode1, mode2 = bracket
    if cfg.geometry == "torus":
        true, wrong = (adapter(cfg, so3) for adapter in
                       (TorusAlgebra, _corrupted(TorusAlgebra, corruption)))
    else:
        true, wrong = (adapter(cfg, so3, table8) for adapter in
                       (SphereAlgebra, _corrupted(SphereAlgebra, corruption)))
    probes = probe_states(cfg, window)
    try:
        true.guard(_probe_reach(probes), mode1, mode2)
    except WindowViolationError:
        assume(False)
    args = (family, a, b, mode1, mode2)
    lookup = (lambda *args: 0.0, 1e9)
    engine = true.engine(probes)
    # the largest compared coefficient of the right-hand side: the engine's
    # weights of each flavour key times its flavour matrix
    rhss = [true.rhs_terms(*args)]
    keys = list(dict.fromkeys((kind, c) for _, kind, c, _ in rhss[0]))
    F = np.array([engine.F[key] for key in keys]).reshape(-1, cfg.d ** 2)
    R = max((np.abs(C[2:].T @ F).max(initial=0.0) for _, C, _, _ in
             engine._points(family, a, b, [(mode1, mode2)], rhss, keys)),
            default=0.0)
    truth = _job(engine, *args, 1e-9, *lookup)
    assert truth.passed
    assume(R > 1e-9 + truth.residual)
    got = _job(wrong.engine(probes), *args, 1e-9, *lookup)
    assert not got.passed and got.residual > 1e-9
    assert got.offending_state


def test_fock_raw_central_is_the_vacuum_value(so3, nsns):
    # [L(1,0), L(-1,0)] on NS,NS 9/2 with its right-hand side 2 L(0,0)
    # dropped: the probes' mean diagonal is 1.636, the vacuum value is the
    # engine's 0.0, and the Fock path reports the vacuum value
    from km2d.verifier import _bracket_job

    bracket = ("LL", (1, 0), (-1, 0))
    alg = _corrupted(TorusAlgebra, "drop", bracket)(nsns, so3)
    probes = probe_states(nsns, Window.of(1, 1, 2))
    args = (bracket[0], None, None, *bracket[1:])
    lookup = (lambda *args: 0.0, 1e9)
    fock = _bracket_job(alg, *args, probes, 1e-9, *lookup)
    got = _job(alg.engine(probes), *args, 1e-9, *lookup)
    assert not fock.passed and not got.passed
    assert fock.raw_central == got.raw_central == \
        _fock_vacuum_value(alg, *args) == 0.0


@pytest.mark.parametrize("corruption", ["drop", "double"])
@pytest.mark.parametrize("geometry", ["torus", "sphere"])
def test_raw_central_subtracts_the_adapters_right_hand_side(
        so3, table4, geometry, corruption):
    # [L(1,0), L(-1,0)] on torus R,NS and [L(1,1), L(1,-1)] on sphere R l=4
    # close on L(0,0), whose vacuum value lam * d is nonzero on a z-R sector.
    # With it dropped or doubled, the engine's raw central is the vacuum
    # value of [X, Y] minus the adapter's right-hand side.  (On NS,NS lam is
    # 0, so no right-hand side moves the vacuum value there.)
    if geometry == "torus":
        cfg = torus_sector("R", "NS", 3, 4, 9 * H)
        bracket = ("LL", (1, 0), (-1, 0))
        alg = _corrupted(TorusAlgebra, corruption, bracket)(cfg, so3)
        true = TorusAlgebra(cfg, so3)
    else:
        cfg = sphere_sector("R", 3, 4)
        bracket = ("LL", (1, 1), (1, -1))
        alg = _corrupted(SphereAlgebra, corruption, bracket)(cfg, so3, table4)
        true = SphereAlgebra(cfg, so3, table4)
    probes = probe_states(cfg, Window.of(1, 1, 2))
    args = (bracket[0], None, None, *bracket[1:])
    lookup = (lambda *args: 0.0, 1e9)
    got = _job(alg.engine(probes), *args, 1e-9, *lookup).raw_central
    assert abs(got - _fock_vacuum_value(alg, *args)) <= 1e-12
    assert abs(got - _job(true.engine(probes), *args, 1e-9, *lookup)
               .raw_central) >= 0.25
