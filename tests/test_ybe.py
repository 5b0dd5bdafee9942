import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from match_ybo.diagrams import enumerate_transversal
from match_ybo.matchcat import (
    EdgeBlock,
    MatchMatrix2,
    SparseOp,
    compose,
    edge_pairs,
    kron,
    restrict,
    sparse_sub,
    to_sparse,
)
from match_ybo.recipe import Germ, ParamPoint, generic_point, rec
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
from matchcat_oracles import matrix


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
    assert rep.source == "subsets"
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
def rational_matrices(draw):
    """Random rational matrices; rec at rational points, X-rescaled by
    rational factors; and one-entry corruptions of those."""
    n = draw(st.integers(2, 5))
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
    one = SparseOp(m.n, 1, {((i,), (i,)): Fraction(1) for i in range(1, m.n + 1)})
    f1, f2 = kron(s, one), kron(one, s)
    diff = sparse_sub(compose(compose(f1, f2), f1), compose(compose(f2, f1), f2))
    items = diff.nonzero_items()
    return not items, tuple(items[:MAX_WITNESSES])


def reference_subsets(m):
    if m.n < 3:
        return reference_direct(m)
    witnesses = sorted(
        (tuple(letters[t - 1] for t in row), tuple(letters[t - 1] for t in col), val)
        for letters in combinations(range(1, m.n + 1), 3)
        for row, col, val in reference_direct(restrict(m, letters))[1]
    )
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


@settings(max_examples=40, deadline=None)
@given(rational_matrices(), NONZERO_RATIONAL)
def test_routes_are_cubic_homogeneous(m, lam):
    lm = from_entries(m.n, [lam * x for x in entries(m)])
    for route, _ in ROUTES:
        rep, lrep = route(m), route(lm)
        assert lrep.zero == rep.zero
        assert [w[:-1] for w in lrep.witnesses] == [w[:-1] for w in rep.witnesses]
        assert [w[-1] for w in lrep.witnesses] == [lam**3 * w[-1] for w in rep.witnesses]
