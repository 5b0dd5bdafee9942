"""Value semantics of the library's record classes: what the reader of each
kind rejects and that every record the library builds passes it, equality by
value, which records hash, and that none can be changed once built."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from match_ybo.classify import classify, no_minus_rep
from match_ybo.diagrams import (
    Configuration,
    County,
    Nation,
    book_order,
    canonicalize,
    configuration_from_json,
    configuration_perm,
    configuration_to_json,
    enumerate_multisets,
    flip_configuration,
)
from match_ybo.errors import MalformedInputError
from match_ybo.matchcat import (
    EdgeBlock,
    MatchMatrix2,
    Permutation,
    SparseOp,
    act_flip,
    act_perm,
    matrix_from_json,
    matrix_to_json,
    restrict,
    x_normalize,
)
from match_ybo.recipe import Germ, ParamPoint, generic_point, germ_from_json, germ_to_json, rec
from match_ybo.selftest import SIGNATURE_TABLES
from match_ybo.ybe import ResidualReport

from helpers import draw_point


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
    return SparseOp(2, 1, {(1, 2): Fraction(3)})  # codes of the words (1,), (2,)


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


def two_nations():
    return Configuration(2, (Nation((County((1,), "first"),)), Nation((County((2,), "first"),))))


def reread_config(c):
    return configuration_from_json(configuration_to_json(c))


def reread_matrix(m):
    return matrix_from_json(matrix_to_json(m))


def reread_germ(g):
    return germ_from_json(germ_to_json(g))


# Bad records: each builds, since records check nothing, and the reader of
# its kind refuses its JSON form.
REJECTED = {
    "bad county partition": lambda: reread_config(Configuration(4, (nation(),))),
    "vertex count mismatch": lambda: reread_matrix(
        MatchMatrix2(2, (Fraction(1),), {(1, 2): EdgeBlock(1, 0, 0, 1)})
    ),
    "zero parameter": lambda: reread_germ(Germ(two_nations(), ParamPoint(
        mu={(1, 2): Fraction(0)}, alpha={1: Fraction(1), 2: Fraction(2)}))),
    "alpha + beta = 0": lambda: reread_germ(Germ(config(), ParamPoint(
        alpha={1: Fraction(2)}, beta={1: Fraction(-2)}))),
    "mismatched mu keys": lambda: reread_germ(Germ(two_nations(), ParamPoint(
        mu={(1, 3): Fraction(1)}, alpha={1: Fraction(1), 2: Fraction(2)}))),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_constructor_rejects(case):
    with pytest.raises(MalformedInputError):
        REJECTED[case]()


MULTISETS = [f for n in range(1, 6) for f in enumerate_multisets(n)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_record_the_library_builds_passes_its_reader(data):
    # the readers hold every check, so this is the check on the library's
    # own builders: each record they make reads back from its JSON form
    config = book_order(data.draw(st.sampled_from(MULTISETS)))
    w = Permutation(tuple(data.draw(st.permutations(range(1, config.n + 1)))))
    moved = configuration_perm(config, w)
    configs = [config, moved, flip_configuration(moved), canonicalize(moved)[0],
               no_minus_rep(moved)[0]]
    for c in configs:
        assert reread_config(c) == c
    germs = [Germ(c, generic_point(c, seed=data.draw(st.integers(0, 9)))) for c in configs]
    m = rec(Germ(moved, draw_point(data, moved)))
    germs.append(classify(m))
    for g in germs:
        assert reread_germ(g) == g
    letters = sorted(data.draw(st.sets(st.integers(1, m.n), min_size=1)))
    for built in (m, act_perm(m, w), act_flip(m), x_normalize(m), restrict(m, letters)):
        assert reread_matrix(built) == built


def test_hand_written_configurations_pass_the_reader():
    for c, _ in SIGNATURE_TABLES:
        assert reread_config(c) == c


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
