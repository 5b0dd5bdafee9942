import random
import types
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from match_ybo.diagrams import (
    Configuration,
    County,
    Nation,
    configuration_perm,
    enumerate_transversal,
)
from match_ybo.matchcat import (
    EdgeBlock,
    MatchMatrix2,
    Permutation,
    SparseOp,
    clear_denominators,
    compose,
    edge_pairs,
    identity_op,
    kron,
    restrict,
    sparse_sub,
    to_sparse,
)
from match_ybo.recipe import Germ, ParamPoint, generic_point, rec
from match_ybo import ybe
from match_ybo.ybe import (
    MAX_WITNESSES,
    PAIR_PERMS,
    PAIR_POLYS,
    PAIR_REINDEX,
    TRIPLE_PERMS,
    TRIPLE_POLYS,
    TRIPLE_REINDEX,
    constraint_residuals,
    entry_vector,
    eval_poly,
    is_solution,
    is_solution_by_subsets,
    ybe_residual_direct,
)

from helpers import base_constraints
from matchcat_oracles import matrix, words


def random_matrix(n, rng):
    vs = [rng.randint(-2, 2) for _ in range(n)]
    es = {
        (i, j): tuple(rng.randint(-2, 2) for _ in range(4))
        for j in range(2, n + 1)
        for i in range(1, j)
    }
    return matrix(vs, es)


def swap_solution(n):
    vs = [1] * n
    es = {
        (i, j): (0, 1, 1, 0)
        for j in range(2, n + 1)
        for i in range(1, j)
    }
    return matrix(vs, es)


def test_eval_poly():
    poly = ((2, (0, 0, 1)), (-1, (2, 2, 2)))
    assert eval_poly(poly, (3, 5, 2)) == 2 * 3 * 3 * 5 - 8


def test_entry_vector_layout():
    m = matrix(
        (1, 2, 3),
        {(1, 2): (4, 5, 6, 7), (1, 3): (8, 9, 10, 11), (2, 3): (12, 13, 14, 15)},
    )
    assert entry_vector(m) == tuple(Fraction(k) for k in range(1, 16))


def test_reindex_maps_are_permutations_of_indices():
    for src in TRIPLE_REINDEX:
        assert sorted(src) == list(range(15))
    for src in PAIR_REINDEX:
        assert sorted(src) == list(range(6))
    assert TRIPLE_REINDEX[0] == tuple(range(15))
    assert PAIR_REINDEX[0] == tuple(range(6))


def test_swap_is_a_solution_every_route():
    for n in (2, 3, 4):
        m = swap_solution(n)
        assert ybe_residual_direct(m).zero
        assert constraint_residuals(m).zero
        assert is_solution_by_subsets(m).zero
        assert is_solution(m)


def test_identity_like_failure_has_witnesses():
    m = matrix((1, 1), {(1, 2): (1, 1, 1, 1)})
    rep = ybe_residual_direct(m)
    assert not rep.zero
    assert rep.witnesses
    row, col, val = rep.witnesses[0]
    assert len(row) == len(col) == 3
    assert val != 0
    crep = constraint_residuals(m)
    assert not crep.zero
    letters, images, k, val = crep.witnesses[0]
    assert letters == (1, 2)
    assert 1 <= k <= len(PAIR_POLYS)
    assert val != 0


def test_base_constraints_vanish_on_solutions():
    for config in enumerate_transversal(3):
        m = rec(Germ(config, generic_point(config, seed=0)))
        assert base_constraints(m) == (Fraction(0),) * len(TRIPLE_POLYS)


def test_routes_agree_on_randoms():
    rng = random.Random(7)
    for trial in range(120):
        m = random_matrix(3 if trial % 2 else 4, rng)
        d = ybe_residual_direct(m).zero
        c = constraint_residuals(m).zero
        s = is_solution_by_subsets(m).zero
        assert d == c == s


def test_subset_witnesses_name_original_letters():
    # solution on letters {1,2,3}, broken on any triple containing 4
    es = {(i, j): (0, 1, 1, 0) for j in range(2, 5) for i in range(1, j)}
    es[(3, 4)] = (1, 1, 1, 1)
    m = matrix((1, 1, 1, 1), {p: es[p] for p in es})
    rep = is_solution_by_subsets(m)
    assert not rep.zero
    for row, col, _ in rep.witnesses:
        assert 4 in row or 4 in col
    # the direct route must agree
    assert not ybe_residual_direct(m).zero


def test_rec_outputs_solve_every_route():
    for n in (2, 3, 4):
        for config in enumerate_transversal(n):
            m = rec(Germ(config, generic_point(config, seed=0)))
            assert is_solution(m)
            assert constraint_residuals(m).zero
            assert is_solution_by_subsets(m).zero


def test_direct_route_composes_three_times(monkeypatch):
    # F1F2 is formed once and used on both sides of the braid relation
    calls = []

    def counted(s, t):
        calls.append((s.level, t.level))
        return compose(s, t)

    monkeypatch.setattr(ybe, "compose", counted)
    assert ybe_residual_direct(swap_solution(4)).zero
    assert calls == [(3, 3)] * 3


def test_report_truthiness():
    good = ybe_residual_direct(swap_solution(2))
    assert good
    bad = ybe_residual_direct(matrix((1, 1), {(1, 2): (1, 1, 1, 1)}))
    assert not bad


# -- the routes against a Fraction-only reference ---------------------------
#
# All three routes clear denominators the same way before they run, so their
# agreement says nothing about that step.  The references below never leave
# Fraction: eval_poly on the entry vectors of each restriction, kron/compose
# on the Fraction operator to_sparse(m).

RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
NONZERO_RATIONAL = RATIONAL.filter(bool)
CONFIGS = {n: enumerate_transversal(n) for n in range(2, 6)}


def entries(m):
    return [*m.vertices, *(x for pair in edge_pairs(m.n) for x in m.edges[pair])]


def from_entries(n, values):
    """Inverse of entries: n vertex scalars, then four per edge in listing order."""
    blocks = values[n:]
    es = {pair: EdgeBlock(*blocks[4 * k:4 * k + 4]) for k, pair in enumerate(edge_pairs(n))}
    return MatchMatrix2(n, tuple(values[:n]), es)


@st.composite
def rational_matrices(draw, min_n=2, max_n=5):
    """Random rational matrices; rec at rational points, X-rescaled by
    rational factors; and one-entry corruptions of those."""
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from(("random", "rec", "corrupted")))
    if kind == "random":
        return from_entries(n, [draw(RATIONAL) for _ in range(n + 4 * len(edge_pairs(n)))])
    config = draw(st.sampled_from(CONFIGS[n]))
    k = len(config.nations)
    alpha = {i: draw(NONZERO_RATIONAL) for i in range(1, k + 1)}
    beta = {
        i: draw(NONZERO_RATIONAL.filter(lambda b, a=alpha[i]: a + b != 0))
        for i, nat in enumerate(config.nations, start=1)
        if len(nat.counties) >= 2
    }
    mu = {(i, j): draw(NONZERO_RATIONAL) for j in range(2, k + 1) for i in range(1, j)}
    m = rec(Germ(config, ParamPoint(mu=mu, alpha=alpha, beta=beta)))
    es = {}
    for pair, blk in m.edges.items():
        x = draw(NONZERO_RATIONAL)
        es[pair] = blk._replace(b=blk.b * x, c=blk.c / x)
    values = entries(MatchMatrix2(n, m.vertices, es))
    if kind == "corrupted":
        values[draw(st.integers(0, len(values) - 1))] += draw(NONZERO_RATIONAL)
    return from_entries(n, values)


def reference_constraints(m):
    if m.n == 2:
        groups = [((1, 2), entry_vector(m), PAIR_PERMS, PAIR_REINDEX, PAIR_POLYS)]
    else:
        groups = [
            (letters, entry_vector(restrict(m, letters)), TRIPLE_PERMS, TRIPLE_REINDEX, TRIPLE_POLYS)
            for letters in combinations(range(1, m.n + 1), 3)
        ]
    witnesses = []
    for letters, v, perms, reindex, polys in groups:
        for perm, src in zip(perms, reindex):
            for k, poly in enumerate(polys, start=1):
                val = eval_poly(poly, [v[s] for s in src])
                if val != 0:
                    witnesses.append((letters, perm.images, k, val))
    witnesses.sort()
    return not witnesses, tuple(witnesses[:MAX_WITNESSES])


def reference_direct(m):
    s = to_sparse(m)
    one = SparseOp(m.n, 1, {(i, i): Fraction(1) for i in range(1, m.n + 1)})
    f1, f2 = kron(s, one), kron(one, s)
    # deliberately (F1F2)F1 - (F2F1)F2, not the route's shared-product form
    diff = sparse_sub(compose(compose(f1, f2), f1), compose(compose(f2, f1), f2))
    items = sorted((row, col, val) for (row, col), val in words(diff).items())
    return not items, tuple(items[:MAX_WITNESSES])


def reference_subsets(m):
    if m.n < 3:
        return reference_direct(m)
    # a set: an entry on two letters is found once per triple holding them
    witnesses = sorted({
        (tuple(letters[t - 1] for t in row), tuple(letters[t - 1] for t in col), val)
        for letters in combinations(range(1, m.n + 1), 3)
        for row, col, val in reference_direct(restrict(m, letters))[1]
    })
    return not witnesses, tuple(witnesses[:MAX_WITNESSES])


ROUTES = (
    (ybe_residual_direct, reference_direct),
    (constraint_residuals, reference_constraints),
    (is_solution_by_subsets, reference_subsets),
)


@settings(max_examples=60, deadline=None)
@given(rational_matrices())
def test_routes_match_fraction_reference(m):
    assert all(type(x) is Fraction for x in entries(m))
    for route, reference in ROUTES:
        rep = route(m)
        assert (rep.zero, rep.witnesses) == reference(m), route.__name__
        assert all(type(w[-1]) is Fraction for w in rep.witnesses)


@settings(max_examples=60, deadline=None)
@given(rational_matrices(min_n=3))
def test_subsets_report_equals_direct_report(m):
    # a level-3 entry lies on at most three letters, so the triples together
    # hold each direct-route entry, and each is reported once
    assert is_solution_by_subsets(m) == ybe_residual_direct(m)


def sample_configs(n, rng):
    """Two configurations on n letters: drawn from the transversal up to n = 8;
    past that, where enumerating it takes half a minute, each is the disjoint
    union of drawn configurations on 5 and n - 5 letters, relabelled at random."""
    if n <= 8:
        return rng.sample(enumerate_transversal(n), 2)
    configs = []
    for _ in range(2):
        low, high = rng.choice(enumerate_transversal(5)), rng.choice(enumerate_transversal(n - 5))
        shifted = tuple(
            Nation(tuple(County(tuple(v + 5 for v in c.vertices), c.part) for c in nat.counties))
            for nat in high.nations
        )
        union = Configuration(n, low.nations + shifted)
        configs.append(configuration_perm(union, Permutation(tuple(rng.sample(range(1, n + 1), n)))))
    return configs


# past nine letters, a word code in the wrong base would mis-order witnesses
@pytest.mark.parametrize("n", [5, 6, 7, 8, 11])
def test_routes_match_fraction_reference_on_rec_outputs(n):
    rng = random.Random(n)
    for config in sample_configs(n, rng):
        m = rec(Germ(config, generic_point(config, seed=n)))
        values = entries(m)
        values[rng.randrange(len(values))] += Fraction(1, 3)
        for mat in (m, from_entries(n, values)):
            assert all(type(x) is Fraction for x in entries(mat))
            for route, reference in ROUTES:
                rep = route(mat)
                assert (rep.zero, rep.witnesses) == reference(mat), route.__name__


def dense_direct(m):
    """The direct route from its definition, with no sparse kernel: dense F1
    and F2 over the n^3 level-3 words, F1[abc, def] = S[ab, de] d(c, f) and
    F2[abc, def] = d(a, d) S[bc, ef], then F1 F2 F1 - F2 F1 F2."""
    n = m.n
    s = {((i, i), (i, i)): m.vertices[i - 1] for i in range(1, n + 1)}
    for (i, j), (a, b, c, d) in m.edges.items():
        s.update({((i, j), (i, j)): a, ((i, j), (j, i)): b, ((j, i), (i, j)): c, ((j, i), (j, i)): d})
    words = list(product(range(1, n + 1), repeat=3))
    zero = Fraction(0)
    f1 = [[s.get((r[:2], c[:2]), zero) * (r[2] == c[2]) for c in words] for r in words]
    f2 = [[s.get((r[1:], c[1:]), zero) * (r[0] == c[0]) for c in words] for r in words]

    def mul(x, y):
        cols = list(zip(*y))
        return [[sum(p * q for p, q in zip(row, col)) for col in cols] for row in x]

    # deliberately (F1F2)F1 - (F2F1)F2, not the route's shared-product form
    lhs, rhs = mul(mul(f1, f2), f1), mul(mul(f2, f1), f2)
    items = sorted(
        (r, c, lhs[i][j] - rhs[i][j])
        for i, r in enumerate(words)
        for j, c in enumerate(words)
        if lhs[i][j] != rhs[i][j]
    )
    return not items, tuple(items[:MAX_WITNESSES])


@settings(max_examples=25, deadline=None)
@given(rational_matrices(max_n=3))
def test_direct_route_matches_dense_definition(m):
    rep = ybe_residual_direct(m)
    assert (rep.zero, rep.witnesses) == dense_direct(m)


@settings(max_examples=40, deadline=None)
@given(rational_matrices())
def test_sparse_operators_store_no_zero(m):
    for mat in (m, clear_denominators(m)[1]):
        s, one = to_sparse(mat), identity_op(mat.n)
        f1, f2 = kron(s, one), kron(one, s)
        lhs = compose(compose(f1, f2), f1)
        rhs = compose(compose(f2, f1), f2)
        for op in (s, one, f1, f2, lhs, rhs, compose(s, s), sparse_sub(lhs, rhs), sparse_sub(s, s)):
            assert all(v != 0 for v in op.entries.values())


@settings(max_examples=40, deadline=None)
@given(rational_matrices(), NONZERO_RATIONAL)
def test_routes_are_cubic_homogeneous(m, lam):
    lm = from_entries(m.n, [lam * x for x in entries(m)])
    for route, _ in ROUTES:
        rep, lrep = route(m), route(lm)
        assert lrep.zero == rep.zero
        assert [w[:-1] for w in lrep.witnesses] == [w[:-1] for w in rep.witnesses]
        assert [w[-1] for w in lrep.witnesses] == [lam**3 * w[-1] for w in rep.witnesses]


# -- what the two 3-subset loops read off the matrix ------------------------


@st.composite
def random_rational_matrices(draw, sizes):
    n = draw(sizes)
    return from_entries(n, [draw(RATIONAL) for _ in range(n + 4 * len(edge_pairs(n)))])


@settings(max_examples=40, deadline=None)
@given(random_rational_matrices(st.integers(3, 7)))
def test_triple_vectors_are_the_restrictions(m):
    subsets = list(combinations(range(1, m.n + 1), 3))
    assert [letters for letters, _ in ybe._triple_vectors(m)] == subsets
    for letters, v in ybe._triple_vectors(m):
        assert v == entry_vector(restrict(m, letters))
    rep = constraint_residuals(m)
    assert (rep.zero, rep.witnesses) == reference_constraints(m)


def test_clear_denominators_keeps_an_int_matrix():
    m = matrix((1, 2, 3), {(1, 2): (4, 5, 6, 7), (1, 3): (8, 9, 0, 1), (2, 3): (2, 3, 4, 5)})
    ints = MatchMatrix2(3, tuple(map(int, m.vertices)),
                        {pair: EdgeBlock(*map(int, blk)) for pair, blk in m.edges.items()})
    lam, cleared = clear_denominators(ints)
    assert lam == 1 and cleared is ints
    lam, cleared = clear_denominators(m)  # Fraction(k, 1) entries
    assert (lam, cleared) == (1, ints)
    assert all(type(x) is int for x in entries(cleared))
    half = from_entries(3, [x / 2 for x in entries(m)])
    lam, cleared = clear_denominators(half)
    assert (lam, cleared) == (2, m)
    assert all(type(x) is int for x in entries(cleared))


def test_a_monomial_that_is_not_cubic_raises_at_import():
    path = Path(ybe.__file__)
    source = path.read_text()
    cubic = "((1, (_A12, _C12, _D12)),),"
    assert source.count(cubic) == 1
    for broken in ("((1, (_A12, _C12)),),", "((1, (_A12, _C12, _D12, _A1)),),"):
        module = types.ModuleType("match_ybo._ybe_variant")
        module.__package__ = "match_ybo"
        code = compile(source.replace(cubic, broken), str(path), "exec")
        with pytest.raises(ValueError, match="three entries"):
            exec(code, vars(module))
