from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from match_ybo.diagrams import (
    Configuration,
    County,
    Nation,
    configuration_perm,
    enumerate_transversal,
)
from match_ybo.errors import MalformedInputError
from match_ybo.matchcat import Permutation, act_flip, act_perm, invertible, x_equivalent
from match_ybo.recipe import (
    Germ,
    ParamPoint,
    generic_point,
    germ_from_json,
    germ_to_json,
    rec,
)
from match_ybo.ybe import ybe_residual_direct

from helpers import draw_point, flip_germ, permute_germ
from matchcat_oracles import block

TWO_COUNTY = Configuration(
    3,
    (Nation((County((1, 2), "first"), County((3,), "second"))),),
)
TWO_NATION = Configuration(
    3,
    (
        Nation((County((1, 2), "first"),)),
        Nation((County((3,), "first"),)),
    ),
)


def reread(germ):
    return germ_from_json(germ_to_json(germ))


def test_param_point_validation():
    # the record checks nothing; the germ reader refuses each of these
    alpha = {1: Fraction(2), 2: Fraction(3)}
    mu = {(1, 2): Fraction(1)}
    for pp, error in [
        (ParamPoint(mu=mu, alpha={1: Fraction(0), 2: Fraction(3)}), r"alpha\[1\] must be nonzero"),
        (ParamPoint(mu=mu, alpha=alpha, beta={1: Fraction(-2)}), r"alpha\[1\] \+ beta\[1\]"),
        (ParamPoint(mu=mu, alpha=alpha, mu_sq={(1, 2): Fraction(2)}), "disjoint"),
    ]:
        with pytest.raises(MalformedInputError, match=error):
            reread(Germ(TWO_NATION, pp))


def test_germ_validation():
    pp = ParamPoint(alpha={1: Fraction(1)})
    with pytest.raises(MalformedInputError, match="beta must cover"):
        reread(Germ(TWO_COUNTY, pp))  # missing beta for the two-county nation
    with pytest.raises(MalformedInputError, match="mu must cover"):
        reread(Germ(TWO_NATION, ParamPoint(alpha={1: Fraction(1), 2: Fraction(2)})))  # no mu
    g = Germ(
        TWO_NATION,
        ParamPoint(mu={(1, 2): Fraction(3)}, alpha={1: Fraction(1), 2: Fraction(2)}),
    )
    assert reread(g) == g


def test_generic_point_is_deterministic_and_generic():
    for config in enumerate_transversal(4):
        pp = generic_point(config, seed=0)
        assert pp == generic_point(config, seed=0)
        values = list(pp.mu.values()) + list(pp.alpha.values()) + list(pp.beta.values())
        assert all(v > 0 for v in values)
        assert len(set(values)) == len(values)
    a = generic_point(TWO_COUNTY, seed=0)
    b = generic_point(TWO_COUNTY, seed=1)
    assert a != b


def test_rec_blocks():
    pp = ParamPoint(alpha={1: Fraction(2)}, beta={1: Fraction(5)})
    m = rec(Germ(TWO_COUNTY, pp))
    assert m.vertices == (Fraction(2), Fraction(2), Fraction(5))
    # within a county: scalar times identity
    assert m.edges[(1, 2)] == block(2, 0, 0, 2)
    # across counties, county order agreeing with vertex order
    assert m.edges[(1, 3)] == block(7, -10, 1, 0)
    assert m.edges[(2, 3)] == block(7, -10, 1, 0)

    pp2 = ParamPoint(mu={(1, 2): Fraction(3)}, alpha={1: Fraction(1), 2: Fraction(4)})
    m2 = rec(Germ(TWO_NATION, pp2))
    assert m2.edges[(1, 3)] == block(0, 3, 3, 0)
    assert m2.edges[(2, 3)] == block(0, 3, 3, 0)
    assert m2.edges[(1, 2)] == block(1, 0, 0, 1)


def test_rec_reversed_county_order():
    config = Configuration(
        2,
        (Nation((County((2,), "first"), County((1,), "second"))),),
    )
    pp = ParamPoint(alpha={1: Fraction(2)}, beta={1: Fraction(5)})
    m = rec(Germ(config, pp))
    # vertex 1 is in the later county, so the block flips to the lower form
    assert m.edges[(1, 2)] == block(0, -10, 1, 7)


def test_rec_mu_sq_block():
    pp = ParamPoint(
        mu_sq={(1, 2): Fraction(2)}, alpha={1: Fraction(1), 2: Fraction(3)}
    )
    m = rec(Germ(TWO_NATION, pp))
    assert m.edges[(1, 3)] == block(0, 2, 1, 0)


def test_rec_outputs_invertible():
    for n in range(1, 5):
        for config in enumerate_transversal(n):
            m = rec(Germ(config, generic_point(config, seed=0)))
            assert invertible(m)


def test_permute_germ_naturality():
    for config in enumerate_transversal(3):
        g = Germ(config, generic_point(config, seed=0))
        for w in Permutation.all(3):
            moved = permute_germ(g, w)
            assert moved.config == configuration_perm(config, w)
            # operators agree up to the per-edge rescaling gauge
            assert x_equivalent(rec(moved), act_perm(rec(g), w))


def test_flip_germ_naturality():
    for config in enumerate_transversal(4):
        g = Germ(config, generic_point(config, seed=0))
        flipped = flip_germ(g)
        assert flip_germ(flipped) == g
        assert x_equivalent(rec(flipped), act_flip(rec(g)))


def test_germ_json_round_trip():
    for config in enumerate_transversal(3):
        g = Germ(config, generic_point(config, seed=2))
        assert germ_from_json(germ_to_json(g)) == g
    pp = ParamPoint(
        mu_sq={(1, 2): Fraction(2)}, alpha={1: Fraction(1), 2: Fraction(3)}
    )
    g = Germ(TWO_NATION, pp)
    data = germ_to_json(g)
    assert "mu_sq" in data
    assert germ_from_json(data) == g


def test_germ_json_rejects_bad_pair_keys():
    g = Germ(
        TWO_NATION,
        ParamPoint(mu={(1, 2): Fraction(3)}, alpha={1: Fraction(1), 2: Fraction(2)}),
    )
    data = germ_to_json(g)
    data["mu"] = {"2,1": "3"}
    with pytest.raises(MalformedInputError):
        germ_from_json(data)
    data["mu"] = {"x": "3"}
    with pytest.raises(MalformedInputError):
        germ_from_json(data)


ALL_SMALL_CONFIGS = [c for n in range(1, 5) for c in enumerate_transversal(n)]


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_rec_solves_at_any_point(data):
    # classify accepts a matrix by X-equivalence to rec of its germ; that is
    # sound only because rec solves the braid relation at every valid point,
    # not just at generic ones.
    for config in ALL_SMALL_CONFIGS:
        w = Permutation(tuple(data.draw(st.permutations(range(1, config.n + 1)))))
        moved = configuration_perm(config, w)
        germ = Germ(moved, draw_point(data, moved))
        assert ybe_residual_direct(rec(germ)).zero, germ
