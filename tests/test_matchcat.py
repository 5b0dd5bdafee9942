from fractions import Fraction

import pytest

from match_ybo.diagrams import Permutation
from match_ybo.errors import MalformedInputError
from match_ybo.matchcat import (
    act_flip,
    act_perm,
    compose,
    edge_pairs,
    identity_op,
    invertible,
    kron,
    matrix_from_json,
    matrix_to_json,
    restrict,
    sparse_sub,
    to_sparse,
    x_equivalent,
    x_normalize,
)

from helpers import compose_perms
from matchcat_oracles import (
    SingularMatrixError,
    block,
    charge_conserving,
    flip_op,
    from_sparse,
    inverse,
    matrix,
    perm_op,
    sparse,
)


def sample():
    return matrix(
        (1, 2, 3),
        {
            (1, 2): (1, 2, 3, 4),
            (1, 3): (0, 1, 1, 0),
            (2, 3): (2, 0, 0, 5),
        },
    )


def test_edge_pair_listing_order():
    assert edge_pairs(4) == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]


def test_vertex_and_edge_access():
    m = sample()
    assert m.vertex(2) == 2
    assert m.edge(1, 2) == block(1, 2, 3, 4)
    # reversed pair reads the block across the antidiagonal
    assert m.edge(2, 1) == block(4, 3, 2, 1)


def test_construction_validation():
    # the record checks nothing; its reader refuses each of these
    edge = {"i": 1, "j": 2, "a": "1", "b": "0", "c": "0", "d": "1"}
    with pytest.raises(MalformedInputError, match="vertex count mismatch"):
        matrix_from_json({"n": 2, "vertices": ["1"], "edges": [edge]})
    with pytest.raises(MalformedInputError, match="edge set"):
        matrix_from_json({"n": 3, "vertices": ["1"] * 3, "edges": [edge]})


def test_restrict():
    m = sample()
    r = restrict(m, (1, 3))
    assert r.n == 2
    assert r.vertices == (Fraction(1), Fraction(3))
    assert r.edges[(1, 2)] == block(0, 1, 1, 0)


def test_act_perm_matches_sparse_conjugation():
    m = sample()
    for w in Permutation.all(3):
        left = to_sparse(act_perm(m, w))
        right = compose(perm_op(w, 2), compose(to_sparse(m), perm_op(w.inverse(), 2)))
        assert left == right


def test_act_perm_is_an_action():
    m = sample()
    for w in Permutation.all(3):
        for v in Permutation.all(3):
            assert act_perm(act_perm(m, v), w) == act_perm(m, compose_perms(w, v))


def test_act_flip_matches_sparse_conjugation():
    m = sample()
    left = to_sparse(act_flip(m))
    right = compose(flip_op(3), compose(to_sparse(m), flip_op(3)))
    assert left == right
    assert act_flip(act_flip(m)) == m


def test_x_normalize():
    m = sample()
    nm = x_normalize(m)
    assert nm.edges[(1, 2)] == block(1, 6, 1, 4)
    assert x_normalize(nm) == nm
    assert x_equivalent(m, nm)


def test_x_equivalent_distinguishes():
    m = sample()
    other = matrix(
        (1, 2, 3),
        {
            (1, 2): (1, 6, 1, 4),
            (1, 3): (0, 2, 3, 0),  # product differs: 6 vs 1
            (2, 3): (2, 0, 0, 5),
        },
    )
    assert not x_equivalent(m, other)
    zeroed = matrix(
        (1, 2, 3),
        {
            (1, 2): (1, 2, 3, 4),
            (1, 3): (0, 1, 1, 0),
            (2, 3): (2, 1, 0, 5),  # b zero pattern differs
        },
    )
    assert not x_equivalent(m, zeroed)


def test_inverse_round_trip():
    m = sample()
    assert invertible(m)
    assert compose(to_sparse(m), to_sparse(inverse(m))) == kron(identity_op(3), identity_op(3))


def test_inverse_names_singular_part():
    bad_vertex = matrix((1, 0), {(1, 2): (1, 0, 0, 1)})
    with pytest.raises(SingularMatrixError) as info:
        inverse(bad_vertex)
    assert info.value.part == "vertex 2"
    bad_block = matrix((1, 1), {(1, 2): (1, 1, 1, 1)})
    assert not invertible(bad_block)
    with pytest.raises(SingularMatrixError) as info:
        inverse(bad_block)
    assert "block" in info.value.part


def test_kron_convention():
    a = sparse(2, 1, {((1,), (2,)): 3})
    b = sparse(2, 1, {((2,), (1,)): 5})
    prod = kron(a, b)
    # first factor owns the leading letter position
    assert prod.entries == {((1, 2), (2, 1)): Fraction(15)}


def test_compose_and_sub():
    i2 = kron(identity_op(2), identity_op(2))
    m = to_sparse(matrix((1, 1), {(1, 2): (0, 1, 1, 0)}))
    assert compose(m, m) == i2
    assert sparse_sub(m, m).entries == {}
    # vertex entries cancel; the first surviving difference is on the pair span
    assert sorted(sparse_sub(m, i2).entries.items())[0] == (((1, 2), (1, 2)), Fraction(-1))


def test_compose_drops_entries_that_cancel():
    # [[1, 1], [1, -1]] squared is 2*I on the span of (12), (21): both
    # off-diagonal sums are 1 - 1, and neither zero is stored
    h = to_sparse(matrix((0, 0), {(1, 2): (1, 1, 1, -1)}))
    assert compose(h, h).entries == {((1, 2), (1, 2)): 2, ((2, 1), (2, 1)): 2}


def test_charge_conserving():
    assert charge_conserving(to_sparse(sample()))
    off = sparse(2, 2, {((1, 1), (2, 2)): 1})
    assert not charge_conserving(off)


def test_sparse_round_trip():
    m = sample()
    assert from_sparse(to_sparse(m)) == m
    with pytest.raises(MalformedInputError):
        from_sparse(sparse(2, 2, {((1, 1), (2, 2)): 1}))
    with pytest.raises(MalformedInputError):
        from_sparse(sparse(2, 1, {((1,), (1,)): 1}))


def test_json_round_trip():
    m = sample()
    data = matrix_to_json(m)
    assert matrix_from_json(data) == m
    dup = matrix_to_json(m)
    dup["edges"].append(dict(dup["edges"][0]))
    with pytest.raises(MalformedInputError):
        matrix_from_json(dup)
    with pytest.raises(MalformedInputError):
        matrix_from_json({"n": 1, "vertices": ["1"], "edges": [{"i": 0, "j": 1}]})
