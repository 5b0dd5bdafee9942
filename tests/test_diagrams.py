import itertools

import pytest

from match_ybo.diagrams import (
    Configuration,
    County,
    Nation,
    book_order,
    canonical_structure_key,
    canonicalize,
    configuration_from_json,
    configuration_perm,
    configuration_to_json,
    enumerate_multisets,
    enumerate_transversal,
    euler_count,
    flip_configuration,
    orbit,
    word_key,
    word_of_nation,
)
from match_ybo.errors import MalformedInputError
from match_ybo.matchcat import Permutation

from helpers import (
    compose_perms,
    enumerate_configurations,
    multiset_of_configuration,
    nation_of,
)

TRANSVERSAL_COUNTS = {1: 1, 2: 4, 3: 13, 4: 46, 5: 154}
CONFIG_COUNTS = {2: 6, 3: 53, 4: 619}


def test_book_order_reads_the_word():
    word = (1, 2, 1, 3, 1, 1)
    config = book_order(((word, 1),))
    assert config == Configuration(7, (Nation((
        County((1, 2), "first"), County((3, 4), "first"), County((5, 6, 7), "second"),
    )),))
    assert word_of_nation(config.nations[0]) == word


def test_all_words_round_trip():
    for length in range(6):
        for word in itertools.product((1, 2, 3), repeat=length):
            (nation,) = book_order(((word, 1),)).nations
            assert word_of_nation(nation) == word


def test_word_order():
    # longer words come first, ties break lexicographically
    assert word_key((1, 1)) < word_key((2,))
    assert word_key((1, 2)) < word_key((1, 3))
    multisets = enumerate_multisets(3)
    assert multisets[0] == (((1, 1), 1),)
    assert multisets[-1] == (((), 3),)
    one_nation = [m[0][0] for m in multisets if len(m) == 1 and m[0][1] == 1]
    assert one_nation[0] == (1, 1)
    assert one_nation[-1] == (3, 3)


def test_shapes_with_boxes_counts():
    # a one-nation multiset is a word of length n-1 over three letters
    for n in range(1, 7):
        one_nation = [m for m in enumerate_multisets(n) if len(m) == 1 and m[0][1] == 1]
        assert len(one_nation) == 3 ** (n - 1)


def test_euler_count_matches_enumeration():
    for n in range(7):
        assert euler_count(n) == len(enumerate_multisets(n))
    for n, expected in TRANSVERSAL_COUNTS.items():
        assert euler_count(n) == expected


def test_transversal_counts():
    for n, expected in TRANSVERSAL_COUNTS.items():
        assert len(enumerate_transversal(n)) == expected


def test_transversal_configs_are_canonical_fixed_points():
    for n in range(1, 5):
        for c in enumerate_transversal(n):
            canon, w = canonicalize(c)
            assert canon == c
            assert w == Permutation(tuple(range(1, n + 1)))


def test_transversal_multisets_are_distinct_and_recovered():
    for n in range(1, 6):
        multisets = enumerate_multisets(n)
        configs = enumerate_transversal(n)
        assert [multiset_of_configuration(c) for c in configs] == multisets


def test_enumerate_configurations_counts():
    for n, expected in CONFIG_COUNTS.items():
        assert len(enumerate_configurations(n)) == expected


def test_configuration_validation():
    # the record checks nothing; its reader refuses each of these
    for bad, error in [
        (Configuration(2, (Nation((County((1,), "first"),)),)), "partition"),
        (Configuration(2, (Nation((County((1,), "first"), County((2,), "third"))),)), "part tag"),
        (Configuration(2, (Nation((County((2, 1), "first"),)),)), "sorted"),
    ]:
        with pytest.raises(MalformedInputError, match=error):
            configuration_from_json(configuration_to_json(bad))


def test_permutation_composition():
    w = Permutation((2, 3, 1))
    assert w.inverse().images == (3, 1, 2)
    assert tuple(w(w.inverse()(i)) for i in (1, 2, 3)) == (1, 2, 3)
    assert len(list(Permutation.all(3))) == 6


def test_configuration_perm_acts():
    for c in enumerate_transversal(3):
        for w in Permutation.all(3):
            moved = configuration_perm(c, w)
            assert multiset_of_configuration(moved) == multiset_of_configuration(c)
            # w(v) sits in a nation of the same size as v's
            for v in range(1, 4):
                a = nation_of(c, v)
                b = nation_of(moved, w(v))
                assert c.nations[a - 1].size == moved.nations[b - 1].size


def test_configuration_perm_is_an_action():
    c = enumerate_transversal(3)[5]
    for w in Permutation.all(3):
        for v in Permutation.all(3):
            left = configuration_perm(configuration_perm(c, v), w)
            assert left == configuration_perm(c, compose_perms(w, v))


def test_canonicalize_invariant_under_relabelling():
    for c in enumerate_transversal(4):
        base, _ = canonicalize(c)
        for w in itertools.islice(Permutation.all(4), 8):
            again, _ = canonicalize(configuration_perm(c, w))
            assert again == base


def test_canonicalize_perm_witnesses():
    for c in enumerate_configurations(3):
        canon, w = canonicalize(c)
        assert configuration_perm(c, w) == canon


def test_flip_is_involution():
    for c in enumerate_transversal(4):
        assert flip_configuration(flip_configuration(c)) == c


def test_orbit_covers_configurations():
    all_keys = {canonical_structure_key(c) for c in enumerate_configurations(3)}
    covered = set()
    for c in enumerate_transversal(3):
        for d in orbit(c):
            covered.add(canonical_structure_key(d))
    # the transversal orbits need not exhaust county orderings, but stay inside
    assert covered <= all_keys


def test_orbit_size_divides_group_order():
    for c in enumerate_transversal(3):
        assert 6 % len(orbit(c)) == 0


def test_orbit_rejects_large_n():
    # a limit on the input, like enumerate --n and fibre --prime: malformed input
    c = Configuration(9, (Nation((County(tuple(range(1, 10)), "first"),)),))
    with pytest.raises(MalformedInputError, match="at most 8, got 9"):
        orbit(c)


def test_configuration_json_round_trip():
    for c in enumerate_transversal(4):
        assert configuration_from_json(configuration_to_json(c)) == c


def test_configuration_json_rejects_junk():
    with pytest.raises(MalformedInputError):
        configuration_from_json({"n": 2})
    with pytest.raises(MalformedInputError):
        configuration_from_json(
            {"n": 2, "nations": [{"counties": [{"vertices": [1], "part": "first"}]}]}
        )
