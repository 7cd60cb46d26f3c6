import io
import math

import numpy as np
import pytest

from km2d import harmonics
from km2d.harmonics import (
    StructureTable,
    legendre_Q,
    quadrature,
    structure_table,
)
from oracles import (delta_partial_residual, legendre_Q_reference,
                     structure_csv)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quadrature_one_node():
    x, w = quadrature(1)
    assert x[0] == pytest.approx(0.0)
    assert w[0] == pytest.approx(2.0)


def test_quadrature_two_nodes():
    x, w = quadrature(2)
    assert sorted(x) == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)])
    assert list(w) == pytest.approx([1.0, 1.0])


def test_quadrature_quartic_exact():
    x, w = quadrature(3)
    assert np.dot(w, x ** 4) == pytest.approx(2 / 5, abs=1e-15)


def test_quadrature_weight_sum():
    for n in (1, 2, 5, 20):
        _, w = quadrature(n)
        assert w.sum() == pytest.approx(2.0, abs=1e-13)


# ---------------------------------------------------------------------------
# normalized Legendre functions
# ---------------------------------------------------------------------------

def test_legendre_golden_values():
    assert legendre_Q(0, 0, 0.3) == pytest.approx(1.0, abs=1e-15)
    assert legendre_Q(1, 0, 1.0) == pytest.approx(math.sqrt(3), abs=1e-14)
    assert legendre_Q(2, 0, 0.0) == pytest.approx(-math.sqrt(5) / 2, abs=1e-14)


def test_legendre_rejects_bad_indices():
    with pytest.raises(ValueError):
        legendre_Q(1, 2, 0.0)


@pytest.mark.parametrize("m", [0, 1, 2, -1])
def test_legendre_orthonormality(m):
    lmax = 8
    x, w = quadrature(lmax + 2)
    for l1 in range(abs(m), lmax + 1):
        f1 = legendre_Q(l1, m, x)
        for l2 in range(abs(m), lmax + 1):
            f2 = legendre_Q(l2, m, x)
            val = 0.5 * np.dot(w, f1 * f2)
            assert val == pytest.approx(1.0 if l1 == l2 else 0.0, abs=1e-12)


def test_legendre_parity():
    for l in range(6):
        for m in range(-l, l + 1):
            for u in (0.2, 0.7):
                left = legendre_Q(l, m, -u)
                right = (-1) ** (l + m) * legendre_Q(l, m, u)
                assert left == pytest.approx(right, abs=1e-12)


def test_legendre_negative_m_reflection():
    for l in range(5):
        for m in range(1, l + 1):
            u = 0.41
            assert legendre_Q(l, -m, u) == pytest.approx(
                (-1) ** m * legendre_Q(l, m, u), abs=1e-13)


def test_recurrence_matches_direct_formula():
    # both evaluation paths agree well below the instability range
    for l in range(0, 20):
        for m in range(0, l + 1):
            for u in (-0.9, -0.3, 0.1, 0.77):
                a = legendre_Q(l, m, u)
                b = legendre_Q_reference(l, m, u)
                assert a == pytest.approx(b, abs=1e-10 * max(1, abs(b)))


def test_legendre_stable_at_large_degree():
    # recurrence stays normalized far beyond the direct formula's range
    x, w = quadrature(420)
    f = legendre_Q(400, 3, x)
    assert 0.5 * np.dot(w, f * f) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# structure table
# ---------------------------------------------------------------------------

def test_structure_golden_values(table4):
    assert table4.get(1, 0, 1, 0, 0) == pytest.approx(1.0, abs=1e-12)
    assert table4.get(1, 0, 1, 0, 2) == pytest.approx(2 / math.sqrt(5), abs=1e-12)
    assert table4.get(1, 0, 1, 0, 3) == 0.0


def test_structure_symmetry(table4):
    for (l1, m1, l2, m2, l3), v in table4.entries.items():
        assert table4.get(l2, m2, l1, m1, l3) == pytest.approx(v, abs=1e-13)


def test_structure_selection_rules(table4):
    for (l1, m1, l2, m2, l3), v in table4.entries.items():
        assert abs(l1 - l2) <= l3 <= l1 + l2
        assert (l1 + l2 + l3) % 2 == 0
    # outside the triangle the accessor returns zero
    assert table4.get(1, 0, 1, 0, 4) == 0.0
    assert table4.get(2, 1, 1, 1, 0) == 0.0


def test_structure_completeness(table4):
    # sum of squared coefficients reproduces the product norm
    x, w = quadrature(10)
    for (l1, m1, l2, m2) in [(1, 0, 1, 0), (2, 1, 1, -1), (2, 2, 2, -2),
                             (1, 1, 1, 1)]:
        prod = legendre_Q(l1, m1, x) * legendre_Q(l2, m2, x)
        norm = 0.5 * np.dot(w, prod * prod)
        total = sum(table4.get(l1, m1, l2, m2, l3) ** 2
                    for l3 in range(0, l1 + l2 + 1))
        assert total == pytest.approx(norm, abs=1e-12)


def test_structure_associativity(table8):
    # sum_x c_12^x c_x3^y == sum_x c_23^x c_1x^y on complete degrees
    cases = [((1, 0), (1, 1), (2, -1)), ((2, 1), (1, 0), (1, -1)),
             ((2, 2), (2, -1), (2, 0)), ((3, 0), (2, 1), (1, 1))]
    for (l1, m1), (l2, m2), (l3, m3) in cases:
        for ly in range(0, l1 + l2 + l3 + 1):
            my = m1 + m2 + m3
            if abs(my) > ly:
                continue
            lhs = sum(table8.get(l1, m1, l2, m2, lx)
                      * table8.get(lx, m1 + m2, l3, m3, ly)
                      for lx in range(0, l1 + l2 + 1))
            rhs = sum(table8.get(l2, m2, l3, m3, lx)
                      * table8.get(l1, m1, lx, m2 + m3, ly)
                      for lx in range(0, l2 + l3 + 1))
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_structure_csv_format(table4):
    buf = io.BytesIO()
    table4.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == b"l1,m1,l2,m2,l3,m3,value"
    row = next(ln for ln in lines if ln.startswith(b"1,0,1,0,2,0,"))
    assert row.split(b",")[-1].startswith(b"0.894427190999")


@pytest.mark.parametrize("L", [0, 1, 4, 13])
def test_structure_csv_matches_per_row_oracle(L):
    # every L > 0 has m1 < 0 rows, printed from their mirror (l1, -m1):
    # L = 1 is the smallest such table, L = 13 has 126,133 rows
    table = structure_table(L)
    fast, slow = io.BytesIO(), io.BytesIO()
    table.to_csv(fast)
    structure_csv(table, slow)
    got = fast.getvalue().splitlines(keepends=True)
    want = slow.getvalue().splitlines(keepends=True)
    # report the first differing row, not a diff of megabytes of text
    assert next(((i, a, b) for i, (a, b) in enumerate(zip(got, want))
                 if a != b), None) is None
    assert len(got) == len(want)


def test_structure_csv_rejects_a_row_unlike_its_mirror():
    # a perturbed entry of row (l1, m1 < 0), and one of a row (l1, 0) after
    # its swap image's row (l2, m2): each shares its string with another
    table = structure_table(4)
    l1, m1, l2, m2, _ = table.keys.T.astype(np.int64)
    for picks in (m1 < 0, (m1 == 0) & (l1 * l1 + l1 + m1 > l2 * l2 + l2 + m2)):
        values = table.values.copy()
        i = np.flatnonzero(picks)[7]
        values[i] = np.nextafter(values[i], np.inf)
        bad = StructureTable(4, values)
        with pytest.raises(ValueError, match="mirror"):
            bad.to_csv(io.BytesIO())


def test_format_17g_matches_python():
    # the numpy path against Python's %.17g in every decade it serves and
    # beyond, signed; about 0.3 % of those in [1e-4, 1) round to a fraction
    # of exactly one half in the extended type and must take Python's path
    rng = np.random.default_rng(17)
    x = rng.random(200_000) * 10.0 ** rng.integers(-7, 2, 200_000)
    x[::2] *= -1
    edges = np.array([0.0, -0.0, 1.0, 0.1, 1e-4, 1e-5, 0.5, 5e-324,
                      1.7976931348623157e308, np.inf, -np.inf, np.nan])
    x = np.concatenate([x, edges, np.nextafter(edges, 0),
                        np.nextafter(edges, 1)])
    got = harmonics._format_17g(x).tobytes().translate(None, b"\0")
    assert got == ("%.17g\n" * len(x) % tuple(x.tolist())).encode()


def test_structure_csv_reads_no_keys(monkeypatch):
    # the build fills the values only and the writer reuses the build's
    # orbit index; keys and entries stay underived.  A fresh table, as the
    # cached one may have had its keys read by another test.
    built = []

    class CountedIndex(harmonics._OrbitIndex):
        def __init__(self, L):
            built.append(L)
            super().__init__(L)

    monkeypatch.setattr(harmonics, "_OrbitIndex", CountedIndex)
    table = structure_table.__wrapped__(12)
    buf = io.BytesIO()
    table.to_csv(buf)
    assert built == [12]
    assert "keys" not in vars(table) and "entries" not in vars(table)
    slow = io.BytesIO()
    structure_csv(table, slow)
    same = buf.getvalue() == slow.getvalue()     # no diff of megabytes
    assert same


def test_verify_sphere_reads_no_keys(monkeypatch, tmp_path):
    # get and the sphere targets read the orbit index, so a sphere run at a
    # large table degree derives neither keys nor entries
    from km2d import cli

    tables = []

    def fresh_table(L):
        tables.append(structure_table.__wrapped__(L))
        return tables[-1]

    monkeypatch.setattr(cli, "structure_table", fresh_table)
    code = cli.main(["verify-sphere", "--sectors", "R", "--cutoff-l", "4",
                     "--max-l", "1", "--lmax", "16",
                     "--output", str(tmp_path / "r.json")])
    assert code == 0
    assert [t.L_max for t in tables] == [16]
    assert "keys" not in vars(tables[0]) and "entries" not in vars(tables[0])


def test_structure_mirror_rows_match_per_entry_oracle():
    # entries of rows m1 < 0 and of rows after their swap image's row are
    # copies of an earlier entry; check a sample of each past L = 8
    L = 16
    table = structure_table(L)
    key = table.keys.T.astype(np.int64)
    row1 = key[0] * key[0] + key[0] + key[1]         # r = l^2 + l + m
    row2 = key[2] * key[2] + key[2] + key[3]
    rng = np.random.default_rng(16)
    sample = np.concatenate([
        rng.choice(np.flatnonzero(picks), 2000, replace=False)
        for picks in (key[1] < 0, row1 > row2)])
    nodes, weights = quadrature(3 * L // 2 + 1)
    for (l1, m1, l2, m2, l3), value in zip(table.keys[sample].tolist(),
                                          table.values[sample].tolist()):
        prod = (legendre_Q(l1, m1, nodes) * legendre_Q(l2, m2, nodes)
                * weights)
        assert value == 0.5 * float(np.dot(prod, legendre_Q(l3, m1 + m2,
                                                            nodes)))


@pytest.mark.parametrize("L", [8, 12])
def test_structure_exact_symmetries(L):
    # c(l1,m1,l2,m2,l3) = c(l2,m2,l1,m1,l3) = c(l1,-m1,l2,-m2,l3) bit for
    # bit: the product q1 * q2 commutes in IEEE arithmetic, and
    # Q_{l,-m} = (-1)^m Q_{lm} exactly
    table = structure_table(L)
    l1, m1, l2, m2, l3 = table.keys.T.astype(np.int64)
    radix = (L + 1, 2 * L + 1, L + 1, 2 * L + 1, L + 1)
    code = np.ravel_multi_index((l1, m1 + L, l2, m2 + L, l3), radix)
    assert np.all(np.diff(code) > 0)             # keys sorted, so searchable
    bits = table.values.view(np.int64)
    for image in ((l2, m2 + L, l1, m1 + L, l3), (l1, L - m1, l2, L - m2, l3)):
        want = np.ravel_multi_index(image, radix)
        at = np.searchsorted(code, want).clip(max=len(code) - 1)
        assert np.array_equal(code[at], want)
        assert np.array_equal(bits[at], bits)
    # no stored value is +-0, so the CSV never prints "-0"
    assert np.all(table.values != 0)


def _selection_rule_keys(L):
    return {(l1, m1, l2, m2, l3)
            for l1 in range(L + 1) for m1 in range(-l1, l1 + 1)
            for l2 in range(L + 1) for m2 in range(-l2, l2 + 1)
            for l3 in range(L + 1)
            if abs(l1 - l2) <= l3 <= l1 + l2 and (l1 + l2 + l3) % 2 == 0
            and abs(m1 + m2) <= l3}


@pytest.mark.parametrize("L", range(9))
def test_structure_table_matches_per_entry_oracle(L):
    table = structure_table(L)
    keys = [tuple(k) for k in table.keys.tolist()]
    values = table.values.tolist()
    assert all(a < b for a, b in zip(keys, keys[1:]))   # strictly lexicographic
    assert set(keys) == _selection_rule_keys(L)
    assert table.entries == dict(zip(keys, values))
    # each value is the per-entry quadrature sum, bit for bit
    nodes, weights = quadrature(3 * L // 2 + 1)          # exact to degree 3L
    q = {(l, m): legendre_Q(l, m, nodes)
         for l in range(L + 1) for m in range(-l, l + 1)}
    for (l1, m1, l2, m2, l3), value in zip(keys, values):
        prod = q[(l1, m1)] * q[(l2, m2)] * weights
        assert value == 0.5 * float(np.dot(prod, q[(l3, m1 + m2)]))
    # get reads each stored value from the index
    assert all(table.get(*key) == value for key, value in zip(keys, values))


def test_structure_get_is_zero_outside_the_selection_rules(table4):
    # r = l^2 + l + m aliases (1, 2) onto (2, -2), so |m| > l is caught
    # before the index is read; so are degrees outside 0..L_max
    assert table4.get(2, -2, 0, 0, 2) != 0.0
    assert table4.get(1, 2, 0, 0, 2) == 0.0
    assert table4.get(0, 0, 1, 2, 2) == 0.0
    assert table4.get(1, 1, 4, 0, 5) == table4.get(1, 1, 5, 0, 4) == 0.0
    assert table4.get(-1, 0, 1, 0, 0) == table4.get(1, 0, -1, 0, 0) == 0.0
    assert table4.get(1, 0, 1, 0, 1) == 0.0          # l1 + l2 + l3 odd
    assert table4.get(2, 0, 2, 0, -2) == 0.0         # below the triangle
    assert table4.get(3, 0, 3, 0, 6) == 0.0          # above L_max
    assert table4.get(2, 2, 2, 0, 0) == 0.0          # below |m1 + m2|


def test_structure_build_rows_equal_legendre_Q():
    # the build's q and legendre_Q share one recurrence: bit for bit at the
    # largest table's nodes, both signs of m
    L = harmonics.MAX_TABLE_DEGREE
    nodes, _ = quadrature(3 * L // 2 + 1)
    q = harmonics._legendre_table(L, nodes).view(np.int64)
    for l in range(L + 1):
        for m in range(-l, l + 1):
            assert np.array_equal(q[l * l + l + m],
                                  legendre_Q(l, m, nodes).view(np.int64))


# ---------------------------------------------------------------------------
# truncated reproducing kernel
# ---------------------------------------------------------------------------

def test_delta_partial_residual_trivial():
    assert delta_partial_residual(0, 0, 3) <= 1e-13


def test_delta_partial_residual_reproduces():
    assert delta_partial_residual(1, 2, 4) <= 1e-12
    assert delta_partial_residual(0, 3, 3) <= 1e-12


def test_delta_partial_residual_rejects():
    with pytest.raises(ValueError):
        delta_partial_residual(0, 5, 3)

