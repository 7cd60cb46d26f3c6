"""SqrtTwoScalar mixes with Python numbers through the plain operators.

The Fock code multiplies, adds and compares coefficients with ``*``, ``+``,
``== 0`` and ``complex()``, whatever their type, so each of these must give
one result in either operand order.  Equality with a Python number is exact.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from km2d.fock import accumulate
from km2d.scalars import SqrtTwoScalar

HALF_SQRT2 = SqrtTwoScalar(rb=Fraction(1, 2))  # sqrt2/2 == 1/sqrt2

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


@given(exact_scalars, exact_scalars)
def test_exact_products_commute(s, t):
    assert s * t == t * s
    assert s + t == t + s


@given(exact_scalars)
def test_zero_test_and_complex(s):
    assert (s == 0) == (not (s.ra or s.rb or s.ia or s.ib))
    zero = s + -1 * s
    assert zero == 0 and zero * HALF_SQRT2 == 0 and complex(zero) == 0


@given(rationals)
def test_rationals_embed_exactly(x):
    s = SqrtTwoScalar(ra=x)
    assert s == x and (s == 0) == (x == 0)
    assert complex(s) == complex(x)


@given(exact_scalars)
def test_float_comparison_is_exact(s):
    # a float equals s only if s is rational with float-exact parts
    z = complex(s)
    exact = (not (s.rb or s.ib) and Fraction(z.real) == s.ra
             and Fraction(z.imag) == s.ia)
    assert (s == z) == (z == s) == exact
    assert (s == z.real) == (exact and not s.ia)


def test_inverse_sqrt_two_squares_to_a_half():
    assert HALF_SQRT2 * HALF_SQRT2 == Fraction(1, 2)
    assert complex(HALF_SQRT2) == complex(2 ** -0.5)


@given(exact_scalars, st.one_of(rationals, exact_scalars))
def test_accumulate_drops_exact_zero_sums(s, x):
    terms = {"other": 1}
    accumulate(terms, "k", s * x)
    assert terms["k"] == s * x      # the first entry is stored as given
    accumulate(terms, "k", -1 * x * s)
    assert "k" not in terms and terms == {"other": 1}


def test_accumulate_keeps_nonzero_sums():
    terms = {}
    accumulate(terms, "k", HALF_SQRT2 * HALF_SQRT2)
    accumulate(terms, "k", Fraction(1, 4))
    assert terms == {"k": Fraction(3, 4)}
    accumulate(terms, "k", Fraction(-3, 4))
    assert terms == {}
