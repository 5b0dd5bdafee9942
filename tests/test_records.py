"""Value semantics of the library's record classes: what each constructor
rejects, equality by value, which records hash, and that none can be
changed once built."""

from fractions import Fraction

import pytest

from match_ybo.diagrams import Configuration, County, Nation, Permutation
from match_ybo.errors import MalformedInputError
from match_ybo.matchcat import EdgeBlock, MatchMatrix2, SparseOp
from match_ybo.recipe import Germ, ParamPoint
from match_ybo.ybe import ResidualReport


def nation():
    return Nation((County((1, 2), "first"), County((3,), "second")))


def config():
    return Configuration(3, (nation(),))


def params():
    return ParamPoint(alpha={1: Fraction(2)}, beta={1: Fraction(5)})


def matrix():
    one = Fraction(1)
    return MatchMatrix2(2, (one, Fraction(2)), {(1, 2): EdgeBlock(one, one, one, one)})


def sparse():
    return SparseOp(2, 1, {((1,), (2,)): Fraction(3)})


# name -> builder of a fresh value; two calls give equal, distinct objects
RECORDS = {
    "Permutation": lambda: Permutation((2, 3, 1)),
    "Nation": nation,
    "Configuration": config,
    "MatchMatrix2": matrix,
    "SparseOp": sparse,
    "ParamPoint": params,
    "Germ": lambda: Germ(config(), params()),
    "ResidualReport": lambda: ResidualReport(False, (((1,), (2,), Fraction(1)),)),
}
HASHABLE = {"Permutation", "Nation", "Configuration", "ResidualReport"}

REJECTED = {
    "repeated image": lambda: Permutation((1, 1, 2)),
    "bad county partition": lambda: Configuration(4, (nation(),)),
    "vertex count mismatch": lambda: MatchMatrix2(
        3, (Fraction(1),) * 2, {(1, 2): EdgeBlock(1, 0, 0, 1)}
    ),
    "zero parameter": lambda: ParamPoint(mu={(1, 2): Fraction(0)}),
    "alpha + beta = 0": lambda: ParamPoint(alpha={1: Fraction(2)}, beta={1: Fraction(-2)}),
    "mismatched mu keys": lambda: Germ(
        Configuration(2, (Nation((County((1,), "first"),)), Nation((County((2,), "first"),)))),
        ParamPoint(mu={(1, 3): Fraction(1)}, alpha={1: Fraction(1), 2: Fraction(2)}),
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_constructor_rejects(case):
    with pytest.raises(MalformedInputError):
        REJECTED[case]()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_values_compare_equal(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b
    assert a == b
    assert not a != b
    assert repr(a) == repr(b)
    assert repr(a).startswith(f"{name}(")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_hash_only_where_every_field_hashes(name):
    a, b = RECORDS[name](), RECORDS[name]()
    if name in HASHABLE:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:  # a dict field, or a record holding one
        with pytest.raises(TypeError):
            hash(a)


def test_unequal_values_compare_unequal():
    assert Permutation((2, 3, 1)) != Permutation((3, 1, 2))
    assert config() != Configuration(3, (Nation((County((1, 2, 3), "first"),)),))
    assert matrix() != MatchMatrix2(2, (Fraction(1),) * 2, matrix().edges)
    assert sparse() != SparseOp(2, 1, {})
    assert params() != ParamPoint(alpha={1: Fraction(2)}, beta={1: Fraction(6)})
    assert Germ(config(), params()) != Germ(
        config(), ParamPoint(alpha={1: Fraction(3)}, beta={1: Fraction(5)})
    )
    assert Permutation((1, 2)) != (1, 2)
    assert not ResidualReport(False, ())


# name -> its fields, in tuple order
FIELDS = {
    "Permutation": "images",
    "Nation": "counties",
    "Configuration": "n nations",
    "MatchMatrix2": "n vertices edges",
    "SparseOp": "n level entries",
    "ParamPoint": "mu alpha beta mu_sq",
    "Germ": "config params",
    "ResidualReport": "zero witnesses",
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    record = RECORDS[name]()
    for field in FIELDS[name].split():
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record._fields == tuple(FIELDS[name].split())
