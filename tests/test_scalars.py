from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matrange.errors import ParseError
from matrange.scalars import GaussianRational, Qi, parse_scalar, render_scalar

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
scalars = st.builds(GaussianRational, rationals, rationals)


def test_rational_addition():
    assert Qi("1/2") + Qi("1/3") == Qi("5/6")


def test_i_squared():
    assert Qi(0, 1) * Qi(0, 1) == Qi(-1)


def test_division_by_conjugate():
    q = Qi(1, 1) / Qi(1, -1)
    assert q == Qi(0, 1)
    # back-multiplication
    assert q * Qi(1, -1) == Qi(1, 1)


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        Qi(1) / Qi(0)


def test_norm_examples():
    assert Qi(3, 4).norm() == 25
    assert Qi(0).norm() == 0
    assert Qi("1/2", "1/2").norm() == Fraction(1, 2)


@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if not x.is_zero():
        assert x * x.inverse() == Qi(1)


@given(scalars, scalars)
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(scalars)
def test_parse_render_round_trip(x):
    assert parse_scalar(render_scalar(x)) == x


def test_integer_shorthand():
    assert parse_scalar("3") == Qi(3)
    assert parse_scalar(" 3/1 ") == Qi(3)
    assert render_scalar(Qi(3)) == "3"
    assert parse_scalar("0+1i") == Qi(0, 1)
    assert parse_scalar("1/2-3i") == Qi("1/2", -3)


@pytest.mark.parametrize(
    "bad",
    [
        *("", "2/0", "1+/2i", "x", "1.5", "1 + 2"),
        *("\u0663", "1/\u0663+2i", "1\n+2i", pytest.param("1" * 5000, id="5000_digits")),
        *(3, None, ["1"]),  # JSON values that are not strings
    ],
)
def test_malformed_scalars_rejected(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


@given(st.one_of(st.text(), st.text(alphabet="0123456789+-/i \u0663\uff11")))
def test_parse_scalar_returns_a_value_or_raises_parse_error(text):
    try:
        value = parse_scalar(text)
    except ParseError:
        return
    assert isinstance(value, GaussianRational)
