from fractions import Fraction

import pytest

import km2d.fock as fock
from km2d.fock import (
    FockState,
    Mode,
    ModeOperator,
    accumulate,
    add_normal_ordered,
    check_car,
    enumerate_states,
    render_state,
    sphere_sector,
    torus_sector,
    vacuum_states,
)
from km2d.halfints import lattice_range

H = Fraction(1, 2)


def anticommutator(cfg, x, y):
    terms = {(x, x): 2} if x == y else {(x, y): 1, (y, x): 1}
    return ModeOperator(cfg, terms)


# ---------------------------------------------------------------------------
# vacua
# ---------------------------------------------------------------------------

def test_vacuum_counts():
    assert len(vacuum_states(torus_sector("NS", "NS", 3, H, H))) == 1
    assert len(vacuum_states(torus_sector("NS", "R", 5, H, 1))) == 1
    assert len(vacuum_states(torus_sector("R", "NS", 3, 1, H))) == 1
    assert len(vacuum_states(torus_sector("R", "R", 3, 1, 1))) == 2
    assert len(vacuum_states(torus_sector("R", "R", 4, 1, 1))) == 4
    assert len(vacuum_states(sphere_sector("R", 1, 1))) == 2
    assert len(vacuum_states(sphere_sector("R", 3, 4))) == 128
    assert len(vacuum_states(sphere_sector("NS", 2, Fraction(3, 2)))) == 1


def test_vacuum_annihilated_by_positive_modes():
    cfg = torus_sector("R", "R", 2, 2, 2)
    for vac in vacuum_states(cfg):
        for mode in cfg.all_modes():
            if cfg.classify(mode) == "ann":
                out = ModeOperator(cfg, {(mode,): 1}).apply_state(vac)
                assert not out


# ---------------------------------------------------------------------------
# canonical anticommutation relations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("z,ang,mc,pc", [
    ("R", "R", 1, 1), ("R", "NS", 1, Fraction(3, 2)),
    ("NS", "R", Fraction(3, 2), 1), ("NS", "NS", Fraction(3, 2), Fraction(3, 2)),
])
def test_car_torus_exact(z, ang, mc, pc):
    cfg = torus_sector(z, ang, 2, mc, pc)
    assert check_car(cfg) == 0.0


def test_car_sphere_exact():
    assert check_car(sphere_sector("R", 1, 2)) == 0.0
    assert check_car(sphere_sector("NS", 1, Fraction(3, 2))) == 0.0


@pytest.mark.parametrize("cfg", [torus_sector("R", "R", 2, 1, 1),
                                 sphere_sector("R", 1, 2)],
                         ids=["torus-RR", "sphere-R"])
def test_car_catches_wrongly_normalised_zero_modes(cfg, monkeypatch):
    # a zero mode left as gamma_z, without its 1/sqrt2, squares to 1, so
    # {b_z, b_z} reads 2 against 1; the check applies each b in turn and
    # scales the pair once, so it sees the normalisation, not a rule
    monkeypatch.setattr(fock, "ZERO_MODE_SQUARE", 1)
    assert check_car(cfg) == 1.0


def test_mode_count_is_the_number_of_modes():
    for z, ang in (("R", "R"), ("R", "NS"), ("NS", "R"), ("NS", "NS")):
        for m2, p2 in ((2, 0), (2, 2), (4, 1), (3, 3), (5, 4)):
            m2 += (m2 % 2) != (z == "NS")
            p2 += (p2 % 2) != (ang == "NS")
            if p2 == 0 and ang == "NS":
                continue
            cfg = torus_sector(z, ang, 2, Fraction(m2, 2), Fraction(p2, 2))
            assert cfg.mode_count() == len(cfg.all_modes())
    for z, cuts in (("R", range(0, 5)), ("NS", (H, 3 * H, 5 * H, 7 * H))):
        for l_cut in cuts:
            cfg = sphere_sector(z, 3, l_cut)
            assert cfg.mode_count() == len(cfg.all_modes())


def test_car_work_is_refused_before_it_is_listed(monkeypatch):
    # the README example is 27^2 pairs times 86 states; twice the flavours
    # and cutoffs take 75^2 times 254.  A flavour count whose pairs, or
    # pairs times spinor labels, pass the limit lists no mode or state.
    assert fock.MAX_CAR_WORK >= 27 ** 2 * 86
    with pytest.raises(ValueError, match="at least 1428750 mode pairs"):
        check_car(torus_sector("R", "R", 3, 2, 2))
    monkeypatch.setattr(fock, "enumerate_states", None)
    monkeypatch.setattr(fock.SectorConfig, "all_modes", None)
    with pytest.raises(ValueError, match=f"at least {40 ** 2 << 20} mode"):
        check_car(sphere_sector("R", 40, 0))
    with pytest.raises(ValueError, match=f"at least {(75 * 10 ** 9) ** 2} "):
        check_car(torus_sector("R", "R", 3 * 10 ** 9, 2, 2))


def test_car_torus_values():
    cfg = torus_sector("NS", "NS", 2, Fraction(3, 2), Fraction(3, 2))
    vac = vacuum_states(cfg)[0]
    x = Mode(1, 1, 1, 0)
    y = Mode(1, -1, -1, 0)
    out = anticommutator(cfg, x, y).apply_state(vac)
    assert dict(out) == {vac: 1}
    y2 = Mode(2, -1, -1, 0)
    assert not anticommutator(cfg, x, y2).apply_state(vac)


def test_car_zero_modes():
    cfg = torus_sector("R", "R", 2, 1, 1)
    z1 = Mode(1, 0, 0, 0)
    z2 = Mode(2, 0, 0, 0)
    basis = enumerate_states(cfg, max_z2=2, max_particles=2)
    for s in basis:
        same = anticommutator(cfg, z1, z1).apply_state(s)
        assert dict(same) == {s: 1}
        cross = anticommutator(cfg, z1, z2).apply_state(s)
        assert not cross


def test_zero_mode_square_is_exactly_half():
    # b_z b_z is gamma_z^2 = 1 scaled once by 1/2: a float coefficient halves
    # exactly on both geometries, where two rounded factors 1/sqrt2 read
    # 0.5000000000000001; sphere R's three zero modes include the unpaired one
    for cfg in (torus_sector("R", "R", 3, 1, 1), sphere_sector("R", 1, 2)):
        for s in enumerate_states(cfg, max_z2=2, max_particles=2):
            for z in cfg.zero_modes:
                out = ModeOperator(cfg, {(z, z): 1.0}).apply_state(s)
                assert dict(out) == {s: 0.5}


def test_car_sphere_twist():
    cfg = sphere_sector("R", 1, 2)
    vac = vacuum_states(cfg)[0]
    a = Mode(1, 2, 2, 0)
    b = Mode(1, 2, -2, 0)
    out = anticommutator(cfg, a, b).apply_state(vac)
    assert dict(out) == {vac: -1}
    a2 = Mode(1, 4, 4, 0)
    b2 = Mode(1, 4, -4, 0)
    out2 = anticommutator(cfg, a2, b2).apply_state(vac)
    assert dict(out2) == {vac: 1}


def test_car_sphere_ns_eta_pairing():
    cfg = sphere_sector("NS", 1, Fraction(3, 2))
    vac = vacuum_states(cfg)[0]
    a = Mode(1, 1, 1, 1)
    b = Mode(1, 1, -1, -1)
    assert dict(anticommutator(cfg, a, b).apply_state(vac)) == {vac: 1}
    b_same = Mode(1, 1, -1, 1)
    assert not anticommutator(cfg, a, b_same).apply_state(vac)


# ---------------------------------------------------------------------------
# the zero-mode Clifford module
# ---------------------------------------------------------------------------

# past the small CAR sectors: 18 and 21 sphere generators (the odd count
# runs the unpaired generator) and torus R,R with 3 and 4 generators
CLIFFORD_SECTORS = {
    "sphere-R-d3-l5": sphere_sector("R", 3, 5),
    "sphere-R-d3-l6": sphere_sector("R", 3, 6),
    "torus-RR-d3": torus_sector("R", "R", 3, 1, 1),
    "torus-RR-d4": torus_sector("R", "R", 4, 1, 1),
}


def _spinor_sample(cfg):
    """Every spinor label up to dimension 64, else a fixed sample."""
    dim = cfg.spinor_dim()
    if dim <= 64:
        return range(dim)
    alternating = int("01" * 32, 2) & (dim - 1)
    return sorted({0, dim - 1, alternating, alternating ^ (dim - 1),
                   *range(1, dim, dim // 8 + 1)})


@pytest.mark.parametrize("cfg", CLIFFORD_SECTORS.values(),
                         ids=CLIFFORD_SECTORS.keys())
def test_clifford_generators_anticommute_exactly(cfg):
    n_gen = len(cfg.zero_modes)
    for sigma in _spinor_sample(cfg):
        for a in range(n_gen):
            for b in range(a, n_gen):
                out = {}
                for x, y in ((a, b), (b, a)):
                    cy, mid = cfg.clifford_action(y, sigma)
                    cx, end = cfg.clifford_action(x, mid)
                    product = cx * cy
                    assert product in fock.CLIFFORD_UNITS
                    accumulate(out, end, product)
                # gamma_a gamma_b + gamma_b gamma_a = 2 delta_ab
                assert out == ({sigma: 2} if a == b else {})


@pytest.mark.parametrize("cfg", CLIFFORD_SECTORS.values(),
                         ids=CLIFFORD_SECTORS.keys())
def test_clifford_odd_occupancy_negates_exactly(cfg):
    osc = cfg.oscillator_modes()[0]
    for sigma in _spinor_sample(cfg):
        for gen, mode in enumerate(cfg.zero_modes):
            unit, target = cfg.clifford_action(gen, sigma)
            assert cfg.clifford_action(gen, sigma, 1) == (-unit, target)
            # b_mode anticommutes past the one occupied oscillator
            b = ModeOperator(cfg, {(mode,): 1})
            out = b.apply_state(FockState(sigma, (osc,)))
            assert dict(out) == {
                FockState(target, (osc,)): fock.ZERO_MODE_SQUARE ** 0.5 * -unit}


def test_clifford_action_convention():
    # gamma_2k = a_k + a_k^+ and gamma_2k+1 = -i(a_k - a_k^+) behind the
    # Jordan-Wigner string; the unpaired last generator is the parity of
    # the spinor label.  The units are exact: no 1/sqrt2 rides on them
    cfg = CLIFFORD_SECTORS["sphere-R-d3-l6"]
    assert fock.CLIFFORD_UNITS == (1, -1, 1j, -1j)
    for k in range(10):
        assert cfg.clifford_action(2 * k, 0) == (1, 1 << k)
        assert cfg.clifford_action(2 * k + 1, 0) == (1j, 1 << k)
        assert cfg.clifford_action(2 * k + 1, 1 << k) == (-1j, 0)
    assert cfg.clifford_action(2, 1) == (-1, 3)
    for sigma in (0, 1, 3, 7, 1023):
        sign = -1 if bin(sigma).count("1") % 2 else 1
        assert cfg.clifford_action(20, sigma) == (sign, sigma)


# ---------------------------------------------------------------------------
# adjoints and grading
# ---------------------------------------------------------------------------

def _adjoint_by_reality_map(cfg, mode, basis, matrix):
    """(matrix of b_mode, matrix of t b_conj(mode)) with t = {b_mode, b_conj}.

    The reality map says (b_mode)^+ = t b_conj(mode); applying b at the
    conjugate mode runs ``_apply_b``'s creator branch and ``conj_pairing``.
    """
    conj = cfg.conj(mode)
    twist = cfg.car_pairing(mode, conj)
    return (matrix(ModeOperator(cfg, {(mode,): 1}), basis),
            matrix(ModeOperator(cfg, {(conj,): twist}), basis))


def test_creation_is_adjoint_of_b_operator(matrix):
    cfg = torus_sector("NS", "NS", 2, Fraction(3, 2), Fraction(3, 2))
    basis = enumerate_states(cfg, max_z2=3, max_particles=3)
    mode = Mode(1, 1, -1, 0)
    assert cfg.car_pairing(mode, cfg.conj(mode)) == 1
    mb, mc = _adjoint_by_reality_map(cfg, mode, basis, matrix)
    assert mc and mc == {(s, t): v.conjugate() for (t, s), v in mb.items()}


def test_creation_adjoint_sphere_twist(matrix):
    # (b_{l,m})^+ = (-1)^m b_{l,-m}
    cfg = sphere_sector("R", 1, 2)
    basis = enumerate_states(cfg, max_z2=4, max_particles=2)
    mode = Mode(1, 2, 2, 0)
    assert cfg.car_pairing(mode, cfg.conj(mode)) == -1
    mb, mc = _adjoint_by_reality_map(cfg, mode, basis, matrix)
    assert mc and mc == {(s, t): v.conjugate() for (t, s), v in mb.items()}


def test_grading_shift():
    cfg = torus_sector("NS", "NS", 1, Fraction(3, 2), Fraction(3, 2))
    vac = vacuum_states(cfg)[0]
    mode = Mode(1, -1, 3, 0)
    (state, amp), = ModeOperator(cfg, {(mode,): 1}).apply_state(vac).items()
    z2, c2 = cfg.grade2(state)
    assert z2 == 1            # z-level rises by -m = 1/2
    assert c2 == -3           # charge shifts by -p = -3/2 (doubled)


# ---------------------------------------------------------------------------
# normal ordering
# ---------------------------------------------------------------------------

def normal_ordered(cfg, a, b):
    terms = {}
    add_normal_ordered(terms, cfg, a, b, 1)
    return terms


def test_normal_ordering_positive_z():
    cfg = torus_sector("NS", "NS", 1, Fraction(3, 2), Fraction(3, 2))
    vac = vacuum_states(cfg)[0]
    a = Mode(1, 1, 1, 0)
    b = Mode(1, -1, -1, 0)
    terms = normal_ordered(cfg, a, b)
    assert terms == {(b, a): -1}
    assert not ModeOperator(cfg, terms).apply_state(vac)


def test_normal_ordering_negative_z_untouched():
    cfg = torus_sector("NS", "NS", 1, Fraction(3, 2), Fraction(3, 2))
    a = Mode(1, -1, 1, 0)
    b = Mode(1, 1, -1, 0)
    assert normal_ordered(cfg, a, b) == {(a, b): 1}


def test_normal_ordering_zero_z_symmetrized():
    # the z = 0 line is antisymmetrized as half the commutator; on mixed
    # angular signs this leaves the pair a vacuum expectation of -(1/2)
    cfg = torus_sector("R", "NS", 1, 2, Fraction(3, 2))
    vac = vacuum_states(cfg)[0]
    a = Mode(1, 0, -1, 0)
    b = Mode(1, 0, 1, 0)
    terms = normal_ordered(cfg, a, b)
    assert terms == {(a, b): Fraction(1, 2), (b, a): Fraction(-1, 2)}
    assert dict(ModeOperator(cfg, terms).apply_state(vac))[vac] == Fraction(-1, 2)
    # vacuum expectations of nonzero-z pairs vanish
    for k1 in (2, -2):
        for k2 in (2, -2):
            x, y = Mode(1, k1, 1, 0), Mode(1, k2, -1, 0)
            out = ModeOperator(cfg, normal_ordered(cfg, x, y)).apply_state(vac)
            assert out.get(vac, 0) == 0


def test_particle_bound_past_the_oscillators_enumerates_them_all():
    # combinations(osc, n) allocates n indices, so the particle loop must
    # stop at the oscillator count, not run to a bound of 10^9
    cfg = torus_sector("NS", "NS", 2, Fraction(3, 2), Fraction(3, 2))
    assert enumerate_states(cfg, 0, 10**9) == vacuum_states(cfg)
    n_osc = len([m for m in cfg.oscillator_modes() if m.k1 <= 3])
    assert enumerate_states(cfg, 3, 10**9) == enumerate_states(cfg, 3, n_osc)


@pytest.mark.parametrize("odd", [False, True], ids=["R", "NS"])
def test_lattice_range_is_the_sublattice(odd):
    for cut2 in range(41):
        assert lattice_range(cut2, odd) == [
            k for k in range(-cut2, cut2 + 1) if k % 2 == odd]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_state():
    cfg = torus_sector("NS", "NS", 2, Fraction(3, 2), Fraction(3, 2))
    vac = vacuum_states(cfg)[0]
    s = FockState(0, (Mode(1, 1, 1, 0), Mode(2, 1, -1, 0)))
    assert render_state(vac, cfg) == "|sigma=0>"
    assert render_state(s, cfg) == "|sigma=0; (1,-1/2,-1/2),(2,-1/2,1/2)>"
