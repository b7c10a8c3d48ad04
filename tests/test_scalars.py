import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hallalg.scalars import (
    GroundField,
    Scalar,
    is_positive,
    is_prime,
    q_binom,
    q_int,
    v_pow,
)


def test_prime_validation():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert not is_prime(1) and not is_prime(4) and not is_prime(9)
    with pytest.raises(ValueError):
        GroundField(4)
    GroundField(2)


def test_v_pow_examples():
    assert v_pow(2, 2) == Scalar(2, 2)
    assert v_pow(2, -1) == Scalar(2, 0, Fraction(1, 2))
    assert v_pow(2, 0) == Scalar(2, 1)


def test_v_pow_add_law():
    for n in range(-64, 65):
        assert v_pow(2, n) * v_pow(2, -n) == Scalar(2, 1)
        assert v_pow(3, n) * v_pow(3, 5) == v_pow(3, n + 5)


def test_perfect_square_degenerates():
    # Scalar over a square q collapses onto the rational axis.
    assert Scalar(4, 0, 1) == Scalar(4, 2)
    assert q_int(4, 2, 1) == Scalar(4, Fraction(5, 2))


def test_q_int_examples():
    assert q_int(2, 1, 1) == Scalar(2, 1)
    assert q_int(2, 2, 1) == Scalar(2, 0, Fraction(3, 2))
    assert q_int(2, 0, 1) == Scalar(2, 0)


def _q_int_closed_form(q, n, eps):
    # (v_i^n - v_i^-n) / (v_i - v_i^-1), a different code path than the sum.
    num = v_pow(q, eps * n) - v_pow(q, -eps * n)
    den = v_pow(q, eps) - v_pow(q, -eps)
    return num / den


def _q_binom_factorials(q, m, n, eps):
    num = Scalar(q, 1)
    for k in range(1, m + 1):
        num = num * _q_int_closed_form(q, k, eps)
    den = Scalar(q, 1)
    for k in range(1, n + 1):
        den = den * _q_int_closed_form(q, k, eps)
    for k in range(1, m - n + 1):
        den = den * _q_int_closed_form(q, k, eps)
    return num / den


def test_q_binom_against_factorial_quotient():
    for q in (2, 3):
        for eps in (1, 2):
            for m in range(9):
                for n in range(m + 1):
                    assert q_binom(q, m, n, eps) == _q_binom_factorials(q, m, n, eps)


def test_q_binom_examples():
    assert q_binom(2, 2, 1, 1) == Scalar(2, 0, Fraction(3, 2))
    assert q_binom(2, 3, 0, 1) == Scalar(2, 1)
    # [3 choose 1] = [3] = v^2 + 1 + v^-2 = 7/2 at q = 2.
    assert q_binom(2, 3, 1, 1) == Scalar(2, Fraction(7, 2))


def test_q_binom_symmetry_and_domain():
    for m in range(7):
        for n in range(m + 1):
            assert q_binom(3, m, n, 1) == q_binom(3, m, m - n, 1)
    with pytest.raises(ValueError):
        q_binom(2, 2, 3, 1)


def test_is_positive_examples():
    assert not is_positive(Scalar(2, -3, 2))
    assert is_positive(Scalar(2, 0, 1))
    assert not is_positive(Scalar(2, 0, 0))


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


@st.composite
def scalars(draw, q=2):
    return Scalar(q, draw(rationals), draw(rationals))


@given(scalars(), scalars(), scalars())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(scalars())
def test_inverse(x):
    if x:
        assert x * x.inv() == Scalar(2, 1)
    else:
        with pytest.raises(ZeroDivisionError):
            x.inv()


@given(scalars())
def test_positivity_total_order(x):
    if x:
        assert is_positive(x) != is_positive(-x)
    else:
        assert not is_positive(x) and not is_positive(-x)


@given(scalars(), scalars())
def test_positivity_compatible(x, y):
    if is_positive(x) and is_positive(y):
        assert is_positive(x + y)
        assert is_positive(x * y)


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        Scalar(2, 1) + Scalar(3, 1)


def test_str_format():
    assert str(Scalar(2, Fraction(3, 2), Fraction(1, 2))) == "3/2+1/2*v"
    assert str(Scalar(2, 0, -1)) == "0-1*v"


# ----- exact unit factors ---------------------------------------------------


def test_unit_factor_checks_the_field_first():
    with pytest.raises(ValueError):
        Scalar(2, 1) * Scalar(3, 5)
    with pytest.raises(ValueError):
        Scalar(3, 5) * Scalar(2, 1)


def test_one_plus_v_is_not_a_unit():
    # (1 + v)(3 + 5v) = 3 + 5v + 3v + 5q at q = 2.
    one_plus_v = Scalar(2, 1, 1)
    x = Scalar(2, 3, 5)
    assert one_plus_v * x == Scalar(2, 13, 8)
    assert x * one_plus_v == Scalar(2, 13, 8)
    assert one_plus_v * one_plus_v == Scalar(2, 3, 2)


def test_collapsed_square_root_unit_short_circuits():
    # Over q = 4, v/2 is 1: the constructor collapses it onto the rational axis.
    unit = Scalar(4, 0, Fraction(1, 2))
    assert (unit.a, unit.b) == (1, 0)
    x = Scalar(4, Fraction(3, 7))
    assert unit * x is x
    assert x * unit is x


@pytest.mark.parametrize("x", [Scalar(2, Fraction(-3, 4), Fraction(5, 6)), Scalar(3, 0, -1), Scalar(5, 0)])
def test_unit_factors_return_the_other_operand(x):
    one = GroundField(x.q).one
    for product in (x * one, one * x, x * 1, 1 * x, Fraction(1) * x, x * Fraction(1), x**0 * x):
        assert product == x
        assert str(product) == str(x)
        assert hash(product) == hash(x)


# ----- oracle: sympy's Rational + Rational*sqrt(q) --------------------------

ORACLE_FIELDS = (2, 3, 5, 4)  # 4 is a perfect square: v collapses to 2


def _sympy_value(x, q):
    """x as a sympy number; no Scalar arithmetic is used."""
    sympy = pytest.importorskip("sympy")
    if isinstance(x, Scalar):
        return sympy.Rational(x.a.numerator, x.a.denominator) + sympy.Rational(
            x.b.numerator, x.b.denominator
        ) * sympy.sqrt(q)
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def _agrees(result, expected, q):
    """result, a Scalar, is the canonical a + b*sqrt(q) form of expected."""
    sympy = pytest.importorskip("sympy")
    assert isinstance(result, Scalar) and result.q == q
    return _sympy_value(result, q) == sympy.expand(sympy.radsimp(expected))


@st.composite
def oracle_operand(draw, q):
    """A Scalar, an int or a Fraction; exact units and a = 1 with any b are
    drawn often, so the unit short-circuit and its near misses are hit."""
    kind = draw(st.sampled_from(("unit", "near-unit", "scalar", "scalar", "rational")))
    if kind == "unit":
        return draw(st.sampled_from((Scalar(q, 1), Fraction(1), 1)))
    if kind == "near-unit":
        return Scalar(q, 1, draw(rationals))
    if kind == "scalar":
        return Scalar(q, draw(rationals), draw(rationals))
    return draw(st.one_of(st.integers(-20, 20), rationals))


@st.composite
def oracle_scalar(draw):
    """(q, x) with x an oracle operand made a Scalar."""
    q = draw(st.sampled_from(ORACLE_FIELDS))
    x = draw(oracle_operand(q))
    return q, x if isinstance(x, Scalar) else Scalar(q, x)


@st.composite
def oracle_pair(draw):
    """(q, x, y) with at least one Scalar operand, on either side."""
    q, x = draw(oracle_scalar())
    y = draw(oracle_operand(q))
    return (q, y, x) if draw(st.booleans()) else (q, x, y)


@settings(deadline=None)
@given(oracle_pair())
def test_arithmetic_matches_sympy(case):
    q, x, y = case
    ex, ey = _sympy_value(x, q), _sympy_value(y, q)
    for op in (operator.add, operator.sub, operator.mul):
        assert _agrees(op(x, y), op(ex, ey), q), (op, x, y)
    if ey == 0:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert _agrees(x / y, ex / ey, q), (x, y)


@settings(deadline=None)
@given(oracle_scalar(), st.integers(-4, 4))
def test_inv_pow_and_sign_match_sympy(case, n):
    q, x = case
    ex = _sympy_value(x, q)
    assert is_positive(x) == bool(ex.is_positive), x
    if ex == 0:
        with pytest.raises(ZeroDivisionError):
            x.inv()
        if n < 0:
            with pytest.raises(ZeroDivisionError):
                x**n
            return
    else:
        assert _agrees(x.inv(), 1 / ex, q), x
    assert _agrees(x**n, ex**n, q), (x, n)
