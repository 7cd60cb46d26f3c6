import hashlib
from fractions import Fraction

import pytest

from km2d.currents import (
    TableCoverageError,
    lam_constant,
    sphere_L,
    sphere_T,
    torus_L,
    torus_T,
)
from km2d.fock import Mode, sphere_sector, torus_sector, vacuum_states
from km2d.harmonics import structure_table
from km2d.lie_core import build_so_adjoint
from km2d.verifier import Window, probe_states

H = Fraction(1, 2)


@pytest.fixture(scope="module")
def nsns(so3):
    return torus_sector("NS", "NS", 3, Fraction(9, 2), Fraction(9, 2))


def test_lam_constant():
    assert lam_constant(torus_sector("R", "NS", 1, 1, H)) == Fraction(1, 16)
    assert lam_constant(torus_sector("NS", "R", 1, H, 1)) == 0


def test_vacuum_expectation_vanishes(so3, nsns):
    vac = vacuum_states(nsns)[0]
    for a in (1, 2, 3):
        out = torus_T(so3, a, 0, 0, nsns).apply_state(vac)
        assert abs(complex(out.get(vac, 0))) == 0.0
    out = torus_L(0, 0, nsns).apply_state(vac)
    assert not out       # lam = 0 and normal ordering kill everything


def test_virasoro_level_eigenvalue(so3, nsns):
    # one-particle states are level eigenstates with eigenvalue -m
    vac = vacuum_states(nsns)[0]
    L00 = torus_L(0, 0, nsns)
    for k1, k2 in [(1, 1), (3, -1)]:
        state = vac._replace(occ=(Mode(1, k1, k2, 0),))
        out = L00.apply_state(state)
        assert dict((s, complex(c)) for s, c in out.items()) == {
            state: pytest.approx(k1 / 2)}


def test_ramond_ground_energy(so3):
    # z-R sector: L_00 on the vacuum multiplet is d/16 exactly
    cfg = torus_sector("R", "NS", 3, 2, Fraction(3, 2))
    L00 = torus_L(0, 0, cfg)
    for vac in vacuum_states(cfg):
        out = L00.apply_state(vac)
        assert dict(out) == {vac: 3 / 16}


def test_current_grading_shift(so3, nsns):
    vac = vacuum_states(nsns)[0]
    state = vac._replace(occ=(Mode(1, 1, 1, 0),))
    op = torus_T(so3, 1, 1, 0, nsns)
    base = nsns.grade2(state)
    for s, _ in op.apply_state(state).items():
        g = nsns.grade2(s)
        assert g[0] == base[0] - 2      # z-level drops by m = 1
        assert g[1] == base[1]          # angular charge unchanged (p = 0)


def test_materialized_adjoint(so3, nsns, matrix):
    basis = probe_states(nsns, Window.of(Fraction(3, 2), Fraction(3, 2), 2))
    # L_{2,-1} lowers the z-level past every basis state, so its matrix
    # here is empty; L_{1,-1} is not
    for op, op_adj in ((torus_T(so3, 1, 1, 1, nsns),
                        torus_T(so3, 1, -1, -1, nsns)),
                       (torus_L(2, -1, nsns), torus_L(-2, 1, nsns)),
                       (torus_L(1, -1, nsns), torus_L(-1, 1, nsns))):
        m1, m2 = matrix(op, basis), matrix(op_adj, basis)
        assert m2 == {(s, t): v.conjugate() for (t, s), v in m1.items()}


def test_eps_weights_monotone(so3):
    # NS angular lattice: every damped coefficient shrinks by a factor in (0,1]
    cfg = torus_sector("NS", "NS", 3, Fraction(3, 2), Fraction(5, 2))
    t0 = torus_T(so3, 1, 1, 1, cfg, eps=0.0)
    t1 = torus_T(so3, 1, 1, 1, cfg, eps=0.3)
    assert set(t1.terms) == set(t0.terms)
    for key, c in t1.terms.items():
        ratio = complex(c) / complex(t0.terms[key])
        assert ratio.imag == pytest.approx(0.0, abs=1e-15)
        assert 0 < ratio.real <= 1.0 + 1e-15


def test_sphere_current_charge_bookkeeping(so3, table4):
    cfg = sphere_sector("R", 3, 4)
    vac = vacuum_states(cfg)[0]
    state = vac._replace(occ=(Mode(1, 2, 2, 0),))
    op = sphere_T(so3, 1, 1, 1, cfg, table4)
    base = cfg.grade2(state)[1]
    for s, _ in op.apply_state(state).items():
        assert cfg.grade2(s)[1] == base - 2     # charge shifts by -m = -1


def test_sphere_ns_generators_are_not_built(so3, table4):
    # the NS sphere has no finite-part prescription
    cfg = sphere_sector("NS", 3, Fraction(3, 2))
    with pytest.raises(ValueError, match="NS sphere"):
        sphere_T(so3, 1, 0, 0, cfg, table4)
    with pytest.raises(ValueError, match="NS sphere"):
        sphere_L(0, 0, cfg, table4)


def test_sphere_ramond_ground_energy(so3, table4):
    cfg = sphere_sector("R", 3, 4)
    L00 = sphere_L(0, 0, cfg, table4)
    for vac in vacuum_states(cfg)[:4]:
        out = L00.apply_state(vac)
        assert complex(out.get(vac, 0)) == pytest.approx(3 / 16, abs=1e-13)


def test_sphere_table_coverage_error(so3):
    cfg = sphere_sector("R", 3, 0)
    table0 = structure_table(0)
    with pytest.raises(TableCoverageError):
        sphere_T(so3, 1, 1, 0, cfg, table0)
    cfg4 = sphere_sector("R", 3, 4)
    with pytest.raises(TableCoverageError):
        sphere_L(0, 0, cfg4, table0)


def test_sphere_target_validation(so3, table4):
    cfg = sphere_sector("R", 3, 4)
    with pytest.raises(ValueError):
        sphere_T(so3, 1, 0, 1, cfg, table4)


# sha256 of the eps = 0 generators' terms, one repr line per operator: every
# key, its order and every coefficient bit.
GENERATOR_DIGESTS = {
    (3, "torus", "NS", "NS"): "4e7910e165006a56fccce2a388fbfadbbcde18711b7748628faff05ec9271cf6",
    (3, "torus", "R", "R"): "e286118536ba62032bc9597b92016e682c50362a010262384f01f124e9942a27",
    (3, "torus", "R", "NS"): "b2145540bb0c9ca33530a0f17893418662e26fb20a1986ac4811b6b8300675ff",
    (3, "sphere", "R", 3): "cbff7a422cf1d968a2c480a88e6570c449d02fda0b484b0ea1eb03ec601594fe",
    (4, "torus", "NS", "NS"): "d702560ba3d842aeb715d46f7aec17d0cf4adff157c5158380ff95fa7930fe10",
    (4, "torus", "R", "R"): "1ea772c58cd64d3b2b4748bb573bd5c573edd6a72344fd24ae4d5a22cadac1bf",
    (4, "torus", "R", "NS"): "f3fde51e101cdb20f1ec2e51ae08795348812568d718d4473917dae0e9143b17",
    (4, "sphere", "R", 3): "25707dd2620c71e2337755ba67afc47c855bbd0687538990d94377a5486670ae",
}
TORUS_CUTS = {"NS": H * 5, "R": 2}


@pytest.mark.parametrize("key", GENERATOR_DIGESTS, ids=lambda k: "-".join(map(str, k)))
def test_generator_terms_are_pinned(key):
    n, geometry, z, last = key
    rep = build_so_adjoint(n)
    currents = range(1, len(rep.M) + 1)
    if geometry == "torus":
        cfg = torus_sector(z, last, rep.d, TORUS_CUTS[z], TORUS_CUTS[last])
        modes = [(0, 0), (1, 0), (-1, 1), (2, -1)]
        ops = [torus_T(rep, a, m, p, cfg) for m, p in modes for a in currents]
        ops += [torus_L(m, p, cfg) for m, p in modes]
    else:
        cfg, table = sphere_sector(z, rep.d, last), structure_table(3)
        targets = [(0, 0), (1, 1), (2, -1)]
        ops = [sphere_T(rep, a, l, m, cfg, table) for l, m in targets
               for a in currents]
        ops += [sphere_L(l, m, cfg, table) for l, m in targets]
    text = "\n".join(repr(list(op.terms.items())) for op in ops)
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_DIGESTS[key]
