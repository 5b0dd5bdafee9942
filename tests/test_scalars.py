from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from match_ybo.errors import MalformedInputError
from match_ybo.scalars import format_scalar, parse_int, parse_scalar, rational_sqrt, read, scalar


def test_parse_basics():
    assert parse_scalar("3") == 3
    assert parse_scalar("-3") == -3
    assert parse_scalar("2/5") == Fraction(2, 5)
    assert parse_scalar("-7/3") == Fraction(-7, 3)
    assert parse_scalar(4) == 4


@pytest.mark.parametrize("bad", ["", "1/0", "1/-2", "a", "1.5", "2 /3", "+3", "1/00", "1\n", "1/2\n",
                                 "\u0663", "1/\uff12", "\uff11/2"])
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


@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, "2.0", "1/1", "", " 3", None, [1], "3\n",
                                 "\u0663", "-\uff12", "1_0"])
def test_parse_int_rejects(bad):
    with pytest.raises(MalformedInputError):
        parse_int(bad)


@given(st.from_regex(r"-?[0-9]+(/[1-9][0-9]*)?", fullmatch=True))
def test_parse_agrees_with_fraction(text):
    assert parse_scalar(text) == Fraction(text)


SHAPE = {"xs": [{"a": scalar}], "t": (parse_int, scalar)}


def test_read_follows_the_shape():
    assert read({"xs": [{"a": "1/2"}], "t": {"3": 4}}, SHAPE, "f") == (((Fraction(1, 2),),), {3: 4})
    assert read({"xs": []}, SHAPE, "f") == ((), {})  # a table may be left out


@pytest.mark.parametrize("data, error", [
    ({"xs": [{"a": "1"}, {"a": "x"}]}, "f.xs[1].a: bad scalar 'x'"),
    ({"xs": [{"a": "1", "b": "2"}]}, "f.xs[0]: unknown key 'b'"),
    ({"t": {}}, "f: missing key 'xs'"),
    ({"xs": "ab"}, "f.xs: expected a JSON array, got str"),
    ([], "f: expected a JSON object, got list"),
    ({"xs": [], "t": {"1": "2", "01": "3"}}, "f.t: two keys name the same entry"),
    ({"xs": [], "t": {"1.0": "2"}}, "f.t['1.0']: bad integer '1.0'"),
])
def test_read_names_the_path(data, error):
    with pytest.raises(MalformedInputError) as exc:
        read(data, SHAPE, "f")
    assert str(exc.value) == error


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
