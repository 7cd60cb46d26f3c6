"""SqrtTwoScalar mixes with Python numbers through the plain operators.

The Fock code multiplies, adds, compares and conjugates coefficients with
``*``, ``+``, ``== 0``, ``.conjugate()`` and ``complex()``, whatever their
type, so each of these must give one result in either operand order.
Equality with a Python number is exact, and equal values hash alike.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from km2d.fock import accumulate
from km2d.scalars import INV_SQRT2, SqrtTwoConstant, SqrtTwoScalar

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=64)
exact_scalars = st.builds(SqrtTwoScalar, fractions, fractions, fractions,
                          fractions)
rationals = st.one_of(st.integers(-50, 50), fractions)
inexact = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                       allow_infinity=False))


@given(exact_scalars, rationals)
def test_rational_operands_stay_exact_in_both_orders(s, x):
    for left, right in ((s * x, x * s), (s + x, x + s)):
        assert isinstance(left, SqrtTwoScalar)
        assert left == right
    assert s * x == SqrtTwoScalar(s.ra * x, s.rb * x, s.ia * x, s.ib * x)
    assert s + x == SqrtTwoScalar(s.ra + x, s.rb, s.ia, s.ib)


@given(exact_scalars, inexact)
def test_inexact_operands_give_complex_in_both_orders(s, x):
    assert type(s * x) is complex and s * x == x * s == complex(s) * x
    assert type(s + x) is complex and s + x == x + s == complex(s) + x


@given(exact_scalars, st.one_of(rationals, exact_scalars, inexact))
def test_constant_multiplies_like_its_exact_value(s, x):
    # a float or complex factor meets the stored complex form, which gives
    # the same bits, signed zeros included, as complex(exact value) * x
    const = SqrtTwoConstant(s.ra, s.rb, s.ia, s.ib)
    assert repr(const.cplx) == repr(complex(s))
    if isinstance(x, (float, complex)):
        assert repr(x * const) == repr(complex(s) * x)
    else:
        assert type(x * const) is SqrtTwoScalar and x * const == x * s
        assert type(const * x) is SqrtTwoScalar and const * x == s * x


@given(exact_scalars, exact_scalars)
def test_exact_products_commute(s, t):
    assert s * t == t * s
    assert s + t == t + s


@given(exact_scalars)
def test_zero_test_conjugate_and_complex(s):
    assert (s == 0) == (not (s.ra or s.rb or s.ia or s.ib))
    assert s - s == 0 and (s - s) * INV_SQRT2 == 0
    conj = s.conjugate()
    assert conj == SqrtTwoScalar(s.ra, s.rb, -s.ia, -s.ib)
    assert complex(conj) == complex(s).conjugate()
    assert s * conj == (s * conj).conjugate()       # |s|^2 is real


@given(rationals)
def test_rationals_embed_exactly(x):
    s = SqrtTwoScalar(ra=x)
    assert s == x and (s == 0) == (x == 0)
    assert s.conjugate() == x.conjugate()
    assert complex(s) == complex(x)


@given(st.one_of(rationals, inexact))
def test_equal_numbers_hash_equal(x):
    s = SqrtTwoScalar(ra=Fraction(x.real), ia=Fraction(x.imag))
    assert s == x and x == s
    assert hash(s) == hash(x)
    assert len({s, x}) == 1


@given(exact_scalars)
def test_float_comparison_is_exact(s):
    # a float equals s only if s is rational with float-exact parts
    z = complex(s)
    exact = (not (s.rb or s.ib) and Fraction(z.real) == s.ra
             and Fraction(z.imag) == s.ia)
    assert (s == z) == (z == s) == exact
    assert (s == z.real) == (exact and not s.ia)


def test_inverse_sqrt_two_squares_to_a_half():
    assert INV_SQRT2 * INV_SQRT2 == Fraction(1, 2)
    assert complex(INV_SQRT2) == complex(2 ** -0.5)


@given(exact_scalars, st.one_of(rationals, exact_scalars))
def test_accumulate_drops_exact_zero_sums(s, x):
    terms = {"other": 1}
    accumulate(terms, "k", s * x)
    assert terms["k"] == s * x      # the first entry is stored as given
    accumulate(terms, "k", -1 * x * s)
    assert "k" not in terms and terms == {"other": 1}


def test_accumulate_keeps_nonzero_sums():
    terms = {}
    accumulate(terms, "k", INV_SQRT2 * INV_SQRT2)
    accumulate(terms, "k", Fraction(1, 4))
    assert terms == {"k": Fraction(3, 4)}
    accumulate(terms, "k", Fraction(-3, 4))
    assert terms == {}
