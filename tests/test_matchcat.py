from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from match_ybo.errors import MalformedInputError
from match_ybo.matchcat import (
    Permutation,
    act_flip,
    act_perm,
    compose,
    decode_word,
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
    encode,
    flip_op,
    from_sparse,
    inverse,
    matrix,
    perm_op,
    sparse,
    words,
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
    assert words(prod) == {((1, 2), (2, 1)): Fraction(15)}


def test_compose_and_sub():
    i2 = kron(identity_op(2), identity_op(2))
    m = to_sparse(matrix((1, 1), {(1, 2): (0, 1, 1, 0)}))
    assert compose(m, m) == i2
    assert sparse_sub(m, m).entries == {}
    # vertex entries cancel; the first surviving difference is on the pair span
    assert sorted(words(sparse_sub(m, i2)).items())[0] == (((1, 2), (1, 2)), Fraction(-1))


def test_compose_drops_entries_that_cancel():
    # [[1, 1], [1, -1]] squared is 2*I on the span of (12), (21): both
    # off-diagonal sums are 1 - 1, and neither zero is stored
    h = to_sparse(matrix((0, 0), {(1, 2): (1, 1, 1, -1)}))
    assert words(compose(h, h)) == {((1, 2), (1, 2)): 2, ((2, 1), (2, 1)): 2}


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


# -- the kernels on integer codes against the same kernels on tuple words ----

INTS = st.integers(-3, 3)


def word_to_sparse(m):
    s = {((i, i), (i, i)): v for i, v in enumerate(m.vertices, start=1)}
    for (i, j), (a, b, c, d) in m.edges.items():
        s.update({((i, j), (i, j)): a, ((i, j), (j, i)): b, ((j, i), (i, j)): c, ((j, i), (j, i)): d})
    return {k: v for k, v in s.items() if v != 0}


def word_kron(s, t):
    return {(r1 + r2, c1 + c2): v1 * v2 for (r1, c1), v1 in s.items() for (r2, c2), v2 in t.items()}


def word_compose(s, t):
    out = {}
    for (r, mid), v1 in s.items():
        for (mid2, c), v2 in t.items():
            if mid == mid2:
                out[(r, c)] = out.get((r, c), 0) + v1 * v2
    return {k: v for k, v in out.items() if v != 0}


def word_sub(s, t):
    out = {k: s.get(k, 0) - t.get(k, 0) for k in s.keys() | t.keys()}
    return {k: v for k, v in out.items() if v != 0}


def word_operators(n, level):
    """Entries keyed by (row word, column word) at n letters and `level`."""
    word = st.tuples(*[st.integers(1, n)] * level)
    return st.dictionaries(st.tuples(word, word), INTS, max_size=12)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_code_kernels_match_word_kernels(data):
    n = data.draw(st.integers(1, 4), "n")
    vs = data.draw(st.lists(INTS, min_size=n, max_size=n), "vertices")
    m = matrix(vs, {pair: data.draw(st.tuples(INTS, INTS, INTS, INTS)) for pair in edge_pairs(n)})
    assert words(to_sparse(m)) == word_to_sparse(m)
    level = data.draw(st.integers(1, 3), "level")
    op_s, op_t = (sparse(n, level, data.draw(word_operators(n, level))) for _ in range(2))
    s, t = words(op_s), words(op_t)
    assert words(compose(op_s, op_t)) == word_compose(s, t)
    assert words(sparse_sub(op_s, op_t)) == word_sub(s, t)
    left = data.draw(st.integers(1, 2), "left level")
    right = data.draw(st.integers(1, 3 - left), "right level")
    op_s = sparse(n, left, data.draw(word_operators(n, left)))
    op_t = sparse(n, right, data.draw(word_operators(n, right)))
    prod = kron(op_s, op_t)
    assert prod.level == left + right
    assert words(prod) == word_kron(words(op_s), words(op_t))


@st.composite
def word_lists(draw):
    n = draw(st.sampled_from((1, 2, 3, 4, 11)))
    level = draw(st.integers(1, 3))
    return n, level, draw(st.lists(st.tuples(*[st.integers(1, n)] * level), min_size=1))


@settings(max_examples=80, deadline=None)
@given(word_lists())
# letters past 9: a base-10 code or decimal concatenation orders these wrongly
@example((11, 2, [(1, 11), (10, 1), (2, 9), (1, 2)]))
@example((11, 3, [(11, 1, 1), (1, 11, 11), (10, 10, 2), (9, 11, 11)]))
def test_codes_sort_like_words(case):
    n, level, ws = case
    codes = [encode(w, n) for w in ws]
    assert [decode_word(c, n, level) for c in codes] == ws
    assert [decode_word(c, n, level) for c in sorted(codes)] == sorted(ws)
