from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from match_ybo.errors import MalformedInputError
from match_ybo.scalars import format_scalar, parse_int, parse_scalar, rational_sqrt


def test_parse_basics():
    assert parse_scalar("3") == 3
    assert parse_scalar("-3") == -3
    assert parse_scalar("2/5") == Fraction(2, 5)
    assert parse_scalar("-7/3") == Fraction(-7, 3)
    assert parse_scalar(4) == 4


@pytest.mark.parametrize("bad", ["", "1/0", "1/-2", "a", "1.5", "2 /3", "+3", "1/00", "1\n", "1/2\n"])
def test_parse_rejects(bad):
    with pytest.raises(MalformedInputError):
        parse_scalar(bad)


@pytest.mark.parametrize("flag", [True, False])
def test_parse_rejects_booleans(flag):
    with pytest.raises(MalformedInputError):
        parse_scalar(flag)


def test_parse_int():
    assert parse_int(3) == 3
    assert parse_int("-12") == -12


@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, "2.0", "1/1", "", " 3", None, [1], "3\n"])
def test_parse_int_rejects(bad):
    with pytest.raises(MalformedInputError):
        parse_int(bad)


@given(st.fractions(min_value=-10**6, max_value=10**6))
def test_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_format_is_reduced():
    assert format_scalar(Fraction(4, 2)) == "2"
    assert format_scalar(Fraction(-6, 4)) == "-3/2"


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(0) == 0
    assert rational_sqrt(2) is None
    assert rational_sqrt(-4) is None
    assert rational_sqrt(Fraction(2, 3)) is None


@given(st.fractions(min_value=0, max_value=10**4))
def test_sqrt_of_square(x):
    assert rational_sqrt(x * x) == abs(x)
