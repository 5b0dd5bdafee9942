import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from match_ybo.classify import (
    EdgeLabelH,
    EdgeLabelI,
    classify,
    coarsen,
    edge_labels,
    g3_orbits,
    label_edge,
    no_minus_rep,
    orbit_of_triple,
    recover_counties,
    recover_nations,
    six_rule_check,
    triangle_flip,
    triangle_perm,
)
from match_ybo.diagrams import (
    configuration_perm,
    enumerate_transversal,
)
from match_ybo.errors import NotASolutionError
from match_ybo.matchcat import (
    EdgeBlock,
    MatchMatrix2,
    Permutation,
    act_perm,
    edge_pairs,
    invertible,
    x_equivalent,
)
from match_ybo.recipe import Germ, ParamPoint, generic_point, rec
from match_ybo.ybe import is_solution

from helpers import NONZERO, draw_point, permute_germ
from matchcat_oracles import matrix


def germ_of(config, seed=0):
    return Germ(config, generic_point(config, seed=seed))


def test_coarsen():
    assert coarsen(EdgeLabelI.APLUS) is EdgeLabelH.PLUS
    assert coarsen(EdgeLabelH.SLASH) is EdgeLabelH.SLASH
    assert coarsen("f-") is EdgeLabelH.MINUS
    assert coarsen("+") is EdgeLabelH.PLUS
    with pytest.raises(ValueError):
        coarsen("x")


def test_label_edge_cases():
    m = matrix(
        (2, 2, 5, 7),
        {
            (1, 2): (2, 0, 0, 2),    # zero
            (1, 3): (7, -10, 1, 0),  # sign, unequal scalars
            (1, 4): (0, 3, 3, 0),    # slash
            (2, 3): (7, -10, 1, 0),
            (2, 4): (0, 3, 3, 0),
            (3, 4): (0, 3, 3, 0),
        },
    )
    assert label_edge(m, 1, 2) is EdgeLabelI.ZERO
    assert label_edge(m, 1, 3) is EdgeLabelI.APLUS
    assert label_edge(m, 1, 4) is EdgeLabelI.SLASH
    with pytest.raises(ValueError):
        label_edge(m, 2, 1)


def test_label_edge_rejects():
    # b = c = 0 needs a = d = both vertex scalars, all nonzero
    m = matrix((1, 2), {(1, 2): (1, 0, 0, 1)})
    with pytest.raises(NotASolutionError) as info:
        label_edge(m, 1, 2)
    assert str(info.value) == "not labellable: inadmissible edge block (1, 2)"
    m = matrix((1, 1), {(1, 2): (1, 2, 0, 0)})  # only one of b, c zero
    with pytest.raises(NotASolutionError):
        label_edge(m, 1, 2)
    m = matrix((1, 1), {(1, 2): (2, 1, 1, 3)})  # both a, d nonzero with b, c
    with pytest.raises(NotASolutionError):
        label_edge(m, 1, 2)


def test_fine_labels_of_germ_operator():
    found = set()
    for c in enumerate_transversal(3):
        m = rec(germ_of(c))
        found.update(edge_labels(m).values())
    # unlike parts give a-signs, same-part county pairs give f-signs
    assert EdgeLabelI.APLUS in found
    assert EdgeLabelI.FPLUS in found
    assert EdgeLabelI.ZERO in found
    assert EdgeLabelI.SLASH in found


def test_is_solution_cases():
    for c in enumerate_transversal(3):
        assert is_solution(rec(germ_of(c)))
    assert not is_solution(matrix((1, 1), {(1, 2): (1, 1, 1, 1)}))
    assert not is_solution(matrix((1, 2), {(1, 2): (1, 0, 0, 1)}))


def test_triangle_actions():
    t = (EdgeLabelH.ZERO, EdgeLabelH.PLUS, EdgeLabelH.PLUS)
    assert triangle_flip(triangle_flip(t)) == t
    assert triangle_flip((EdgeLabelH.PLUS,) * 3) == (EdgeLabelH.MINUS,) * 3
    ident = Permutation((1, 2, 3))
    assert triangle_perm(t, ident) == t
    swap12 = Permutation((2, 1, 3))
    # swapping letters 1,2 exchanges the 13 and 23 slots
    a = triangle_perm((EdgeLabelH.ZERO, EdgeLabelH.PLUS, EdgeLabelH.MINUS), swap12)
    assert a[1:] == (EdgeLabelH.MINUS, EdgeLabelH.PLUS)


def test_orbit_of_triple_closure():
    for triple in product(EdgeLabelH, repeat=3):
        orb = orbit_of_triple(triple)
        assert triple in orb
        for t in orb:
            assert triangle_flip(t) in orb
            for w in Permutation.all(3):
                assert triangle_perm(t, w) in orb


def test_g3_orbits_partition():
    orbits = g3_orbits()
    assert len(orbits) == 13
    assert sorted(len(o) for o in orbits) == [1, 1, 2, 3, 3, 6, 6, 6, 6, 6, 6, 6, 12]
    assert sum(len(o) for o in orbits) == 64
    union = set().union(*orbits)
    assert len(union) == 64


def test_six_rule():
    assert six_rule_check(("+", "+", "+"))
    assert six_rule_check(("+", "-", "-"))
    assert not six_rule_check(("+", "-", "+"))
    assert not six_rule_check(("0", "-", "+"))
    assert not six_rule_check(("0", "0", "-"))
    assert six_rule_check(("-", "+", "+"))
    with pytest.raises(ValueError):
        six_rule_check(("/", "0", "0"))


def test_six_rule_matches_admissibility():
    # a sign triangle passes the rule iff some labelled solution realizes it
    realized = set()
    for c in enumerate_transversal(3):
        m = rec(germ_of(c))
        labels = edge_labels(m)
        t = tuple(coarsen(labels[p]).value for p in ((1, 2), (1, 3), (2, 3)))
        if "/" not in t:
            realized.add(t)
    for t in product("0+-", repeat=3):
        if t in realized:
            assert six_rule_check(t)


def test_recover_nations_and_counties():
    config = enumerate_transversal(4)[10]
    m = rec(germ_of(config))
    labels = edge_labels(m)
    nations = recover_nations(m, labels)
    assert tuple(sorted(v for nat in nations for v in nat)) == (1, 2, 3, 4)
    for nat, expected in zip(nations, config.nations):
        assert tuple(sorted(nat)) == tuple(sorted(expected.vertices))
        assert recover_counties(nat, labels) == tuple(sorted(c.vertices for c in expected.counties))


def test_classify_rejects_inconsistent_county_order():
    # county {1, 2} comes before {3} on edge 13 and after it on edge 23
    m = matrix(
        (1, 1, 1),
        {
            (1, 2): (1, 0, 0, 1),
            (1, 3): (2, -1, 1, 0),
            (2, 3): (0, -1, 1, 2),
        },
    )
    assert not is_solution(m)
    with pytest.raises(NotASolutionError) as info:
        classify(m)
    assert str(info.value).startswith("constraints fail, first witness ((1, 2, 3), (1, 3, 2), 6,")


def test_classify_round_trip_exact():
    for n in range(1, 5):
        for config in enumerate_transversal(n):
            g = germ_of(config)
            assert classify(rec(g)) == g


def test_classify_commutes_with_relabelling():
    for config in enumerate_transversal(3):
        g = germ_of(config)
        m = rec(g)
        for w in Permutation.all(3):
            got = classify(act_perm(m, w))
            assert got.config == configuration_perm(config, w)
            assert x_equivalent(rec(got), act_perm(m, w))


TRANSVERSAL_UP_TO_5 = [c for n in range(1, 6) for c in enumerate_transversal(n)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_classify_is_a_section_of_rec(data):
    # any valid point, relabelled and X-rescaled edge by edge: classify
    # accepts the matrix, and rec of the germ it returns gives it back
    config = data.draw(st.sampled_from(TRANSVERSAL_UP_TO_5))
    w = Permutation(tuple(data.draw(st.permutations(range(1, config.n + 1)))))
    m = act_perm(rec(Germ(config, draw_point(data, config))), w)
    edges = {}
    for pair, blk in m.edges.items():
        x = data.draw(NONZERO)
        edges[pair] = blk._replace(b=blk.b * x, c=blk.c / x)
    m = MatchMatrix2(m.n, m.vertices, edges)
    assert x_equivalent(rec(classify(m)), m)


def test_classify_recovers_mu_sq():
    m = matrix((1, 3), {(1, 2): (0, 2, 1, 0)})
    g = classify(m)
    assert g.params.mu == {}
    assert g.params.mu_sq == {(1, 2): Fraction(2)}
    assert x_equivalent(rec(g), m)


def test_classify_rejects_non_solutions():
    with pytest.raises(NotASolutionError):
        classify(matrix((1, 0), {(1, 2): (0, 1, 1, 0)}))  # singular vertex
    with pytest.raises(NotASolutionError):
        classify(matrix((1, 1), {(1, 2): (1, 1, 1, 1)}))  # unlabellable
    # labellable but constraints fail: slash products differ across an edge pair
    m = matrix(
        (1, 1, 2),
        {
            (1, 2): (1, 0, 0, 1),
            (1, 3): (0, 2, 2, 0),
            (2, 3): (0, 3, 3, 0),
        },
    )
    with pytest.raises(NotASolutionError):
        classify(m)


VALUES = [Fraction(v) for v in ("1", "-1", "2", "-2", "3", "4", "1/4", "-1/2", "3/2", "-5/3")]


def non_generic_germ(config, rng):
    """Parameters from a few values, so alpha = beta and equal mu are common."""
    m = len(config.nations)
    alpha = {i: rng.choice(VALUES) for i in range(1, m + 1)}
    beta = {}
    for i, nat in enumerate(config.nations, start=1):
        if len(nat.counties) >= 2:
            b = rng.choice((alpha[i], rng.choice(VALUES)))
            beta[i] = b if alpha[i] + b != 0 else alpha[i]
    mu, mu_sq = {}, {}
    for j in range(2, m + 1):
        for i in range(1, j):
            (mu_sq if rng.random() < 0.4 else mu)[(i, j)] = rng.choice(VALUES)
    return Germ(config, ParamPoint(mu=mu, alpha=alpha, beta=beta, mu_sq=mu_sq))


def x_rescaled(m, rng):
    edges = {}
    for pair, blk in m.edges.items():
        x = rng.choice(VALUES)
        edges[pair] = blk._replace(b=blk.b * x, c=blk.c / x)
    return MatchMatrix2(m.n, m.vertices, edges)


def one_entry_corrupted(m, rng):
    delta = rng.choice(VALUES)
    if rng.random() < 0.2:
        vertices = list(m.vertices)
        vertices[rng.randrange(m.n)] += delta
        return MatchMatrix2(m.n, tuple(vertices), m.edges)
    edges = dict(m.edges)
    pair = rng.choice(sorted(edges))
    field = rng.choice("abcd")
    edges[pair] = edges[pair]._replace(**{field: getattr(edges[pair], field) + delta})
    return MatchMatrix2(m.n, m.vertices, edges)


def relabelled_rec(config, rng):
    """rec at a non-generic point, relabelled by a random w and X-rescaled."""
    n = config.n
    w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
    return x_rescaled(act_perm(rec(non_generic_germ(config, rng)), w), rng)


PATTERN_SCALARS = (1, 2, -1)


def label_pattern_matrix(n, rng):
    """Scalars from {1, 2, -1}; each edge a random zero, slash, + or - block.
    Zero edges join equal scalars only, so every edge is labellable."""
    vertices = [rng.choice(PATTERN_SCALARS) for _ in range(n)]
    edges = {}
    for i, j in edge_pairs(n):
        ai, aj = vertices[i - 1], vertices[j - 1]
        kind = rng.choice("0/+-" if ai == aj else "/+-")
        x = rng.choice(PATTERN_SCALARS)
        if kind == "0":
            edges[(i, j)] = (ai, 0, 0, ai)
        elif kind == "/":
            edges[(i, j)] = (0, x, rng.choice(PATTERN_SCALARS), 0)
        else:
            # the signed block of a nation with scalars ai and x
            t, prod = ai + x, -ai * x
            edges[(i, j)] = (t, prod, 1, 0) if kind == "+" else (0, prod, 1, t)
    return matrix(vertices, edges)


def label_mutated(m, rng):
    """One label mutation: reverse a sign block, turn a zero edge into a
    slash, or move a vertex scalar to another value."""
    edges = dict(m.edges)
    kind = rng.choice(("sign", "zero", "vertex"))
    signed = [p for p, blk in edges.items() if blk.b != 0 and (blk.a == 0) != (blk.d == 0)]
    zeros = [p for p, blk in edges.items() if blk.b == 0]
    if kind == "sign" and signed:
        pair = rng.choice(signed)
        blk = edges[pair]
        edges[pair] = blk._replace(a=blk.d, d=blk.a)
    elif kind == "zero" and zeros:
        pair = rng.choice(zeros)
        x = rng.choice(VALUES)
        edges[pair] = EdgeBlock(Fraction(0), x, x, Fraction(0))
    else:
        vertices = list(m.vertices)
        k = rng.randrange(m.n)
        vertices[k] = rng.choice([v for v in VALUES if v != vertices[k]])
        return MatchMatrix2(m.n, tuple(vertices), edges)
    return MatchMatrix2(m.n, m.vertices, edges)


def check_accepts_exactly_the_solutions(pool):
    """classify accepts exactly the solutions in the pool, and rejects every
    invertible, labellable non-solution with a constraint witness.  Returns
    the accepted and witnessed counts."""
    accepted = witnessed = 0
    for m in pool:
        try:
            classify(m)
        except NotASolutionError as exc:
            assert not is_solution(m)
            if invertible(m) and all_labellable(m):
                assert str(exc).startswith("constraints fail, first witness")
                witnessed += 1
        else:
            assert is_solution(m)
            accepted += 1
    return accepted, witnessed


def test_classify_accepts_exactly_the_solutions():
    rng = random.Random(2112)
    pool = []
    for n in range(2, 5):
        for config in enumerate_transversal(n):
            for _ in range(2):
                m = relabelled_rec(config, rng)
                pool.extend((m, one_entry_corrupted(m, rng)))
    accepted, witnessed = check_accepts_exactly_the_solutions(pool)
    assert accepted >= 100 and witnessed >= 50


def test_classify_rejects_label_mutations_with_a_witness():
    # label patterns that no solution has: random ones, and solutions with one
    # or two labels mutated.  classify reads a germ off them without checking
    # the labels, so the X-equivalence certificate alone must reject them.
    rng = random.Random(7)
    pool = [label_pattern_matrix(n, rng) for n in range(2, 7) for _ in range(40)]
    for n in range(2, 5):
        for config in enumerate_transversal(n):
            m = label_mutated(relabelled_rec(config, rng), rng)
            pool.append(label_mutated(m, rng) if rng.random() < 0.5 else m)
    accepted, witnessed = check_accepts_exactly_the_solutions(pool)
    assert accepted >= 20 and witnessed >= 150


def all_labellable(m):
    try:
        edge_labels(m)
    except NotASolutionError:
        return False
    return True


def test_no_minus_rep():
    for n in range(1, 5):
        for config in enumerate_transversal(n):
            for w in Permutation.all(n):
                moved = configuration_perm(config, w)
                fixed, perm = no_minus_rep(moved)
                assert configuration_perm(moved, perm) == fixed
                g = permute_germ(Germ(moved, generic_point(moved, seed=0)), perm)
                labels = edge_labels(rec(g)).values()
                assert EdgeLabelI.FMINUS not in labels
                assert EdgeLabelI.AMINUS not in labels
