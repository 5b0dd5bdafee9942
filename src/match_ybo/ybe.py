"""Three routes to the Yang-Baxter equation for charge-conserving operators.

direct     composes F1 = S (x) id and F2 = id (x) S on level 3 and subtracts;
           F1F2 is formed once and reused: (F1F2)F1 - F2(F1F2).
constraints evaluates, on every 3-letter restriction, the eight cubic
           relations that the braid relation reduces to for charge-conserving
           operators, together with all their images under permuting the
           three letters.
subsets    runs the direct check on every 3-letter restriction; a solution on
           all of them is a solution outright, and conversely.

All three agree on every matrix.  Keeping them separate is the point: each is
implemented from its own definition, so agreement is a real check.

The braid relation is cubic-homogeneous: lam*m has the verdict of m, and every
residual is lam^3 times as large.  So each route first clears denominators
(lam = lcm of all denominators of m), runs on Python ints, and divides only the
witness values it keeps by lam^3.  Witnesses stay exact rationals.

The eight relations live on the 15 entries of a 3-letter matrix, listed as

  (a1, a2, a3, a12, b12, c12, d12, a13, b13, c13, d13, a23, b23, c23, d23)

and are stored as explicit monomial data.  The reindexing of that vector
under a letter permutation is not hand-written: it is read off by acting on a
matrix whose entries are their own indices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .diagrams import Permutation
from .matchcat import (
    EdgeBlock,
    MatchMatrix2,
    act_perm,
    compose,
    decode_word,
    edge_pairs,
    identity_op,
    invertible,
    kron,
    restrict,
    sparse_sub,
    to_sparse,
)

MAX_WITNESSES = 16


class ResidualReport(NamedTuple):
    zero: bool
    witnesses: tuple

    def __bool__(self):
        return self.zero


# Entry indices of the 3-letter layout.
_A1, _A2, _A3 = 0, 1, 2
_A12, _B12, _C12, _D12 = 3, 4, 5, 6
_A13, _B13, _C13, _D13 = 7, 8, 9, 10
_A23, _B23, _C23, _D23 = 11, 12, 13, 14


def _cubic(polys):
    """`polys`, once every monomial is checked to be an index triple."""
    if any(len(mono) != 3 for poly in polys for _, mono in poly):
        raise ValueError("every monomial must be a product of three entries")
    return polys


# Each polynomial is a tuple of (coefficient, index-triple) monomials.
TRIPLE_POLYS = _cubic((
    ((1, (_A12, _A1, _A1)), (-1, (_A12, _A12, _A1)), (-1, (_A12, _B12, _C12))),
    ((1, (_A12, _A2, _A2)), (-1, (_A12, _A12, _A2)), (-1, (_A12, _B12, _C12))),
    ((1, (_A12, _C12, _D12)),),
    ((1, (_A12, _B12, _D12)),),
    ((1, (_A12, _D12, _A12)), (-1, (_A12, _D12, _D12))),
    ((1, (_C12, _D13, _D23)), (-1, (_C12, _D12, _D23)), (-1, (_C12, _A12, _D13))),
    ((-1, (_C12, _A13, _A23)), (1, (_C12, _A12, _A23)), (1, (_C12, _D12, _A13))),
    (
        (-1, (_A13, _D23, _D23)),
        (1, (_A13, _A13, _D23)),
        (-1, (_A12, _B23, _C23)),
        (1, (_A12, _B13, _C13)),
    ),
))

# Pair layout (a1, a2, a, b, c, d); the relations a 2-letter solution obeys
# are the first five, which touch only a1, a2 and the 12 block.
_PAIR_INDEX = {_A1: 0, _A2: 1, _A12: 2, _B12: 3, _C12: 4, _D12: 5}
PAIR_POLYS = tuple(
    tuple((coeff, tuple(_PAIR_INDEX[i] for i in mono)) for coeff, mono in poly)
    for poly in TRIPLE_POLYS[:5]
)


def _clear_denominators(m):
    """(lam, lam*m), lam the lcm of m's denominators; lam*m has int entries.
    A matrix whose entries are all ints is returned as it is, with lam = 1."""
    entries = list(m.vertices)
    for blk in m.edges.values():
        entries.extend(blk)
    if all(type(x) is int for x in entries):
        return 1, m
    lam = math.lcm(*(x.denominator for x in entries))

    def scale(x):
        return x.numerator * (lam // x.denominator)

    es = {pair: EdgeBlock(*map(scale, blk)) for pair, blk in m.edges.items()}
    return lam, MatchMatrix2(m.n, tuple(map(scale, m.vertices)), es)


def _report(witnesses, lam) -> ResidualReport:
    """The witness step of every route: sorted, the first MAX_WITNESSES
    kept, each value (the last field) divided by lam^3."""
    kept = sorted(witnesses)[:MAX_WITNESSES]
    values = tuple((*w[:-1], Fraction(w[-1], lam**3)) for w in kept)
    return ResidualReport(not kept, values)


def eval_poly(poly, v):
    total = 0
    for coeff, (i, j, k) in poly:
        total += coeff * v[i] * v[j] * v[k]
    return total


def entry_vector(m):
    """The vertex scalars, then the edge blocks in listing order: 15 entries
    for 3 letters, 6 for 2."""
    v = list(m.vertices)
    for pair in edge_pairs(m.n):
        v.extend(m.edges[pair])
    return tuple(v)


def _index_matrix(n):
    """The n-letter matrix whose entry_vector is 0, 1, 2, ..."""
    es = {pair: EdgeBlock(*range(n + 4 * k, n + 4 * k + 4)) for k, pair in enumerate(edge_pairs(n))}
    return MatchMatrix2(n, tuple(range(n)), es)


def _reindex_maps(n):
    base = _index_matrix(n)
    perms = tuple(Permutation.all(n))
    return perms, tuple(entry_vector(act_perm(base, perm)) for perm in perms)


TRIPLE_PERMS, TRIPLE_REINDEX = _reindex_maps(3)
PAIR_PERMS, PAIR_REINDEX = _reindex_maps(2)


def _getters(perms, reindex):
    """(permutation images, getter) pairs; getter(v) is v reindexed by the permutation."""
    return tuple((perm.images, itemgetter(*src)) for perm, src in zip(perms, reindex))


_TRIPLE_GETTERS = _getters(TRIPLE_PERMS, TRIPLE_REINDEX)
_PAIR_GETTERS = _getters(PAIR_PERMS, PAIR_REINDEX)


def _triple_vectors(m):
    """(letters, entry_vector(restrict(m, letters))) for every 3-subset of
    letters, read straight off m: the three vertices, then the blocks
    (i,j), (i,k), (j,k)."""
    vs, es = m.vertices, m.edges
    for i, j, k in combinations(range(1, m.n + 1), 3):
        yield (i, j, k), (vs[i - 1], vs[j - 1], vs[k - 1], *es[i, j], *es[i, k], *es[j, k])


def constraint_residuals(m) -> ResidualReport:
    """Constraint-system route: all relation images on all 3-subsets.

    Witnesses are (letters, permutation images, relation index, value),
    sorted, at most MAX_WITNESSES kept.
    """
    lam, m = _clear_denominators(m)
    if m.n == 2:
        groups, getters, polys = [((1, 2), entry_vector(m))], _PAIR_GETTERS, PAIR_POLYS
    else:
        groups, getters, polys = _triple_vectors(m), _TRIPLE_GETTERS, TRIPLE_POLYS
    witnesses = []
    for letters, v in groups:
        for images, reindexed in getters:
            w = reindexed(v)
            for k, poly in enumerate(polys, start=1):
                val = eval_poly(poly, w)
                if val != 0:
                    witnesses.append((letters, images, k, val))
    return _report(witnesses, lam)


def ybe_residual_direct(m) -> ResidualReport:
    """Direct route: F1 F2 F1 - F2 F1 F2 on level 3, entry by entry.

    Witnesses are (row word, column word, value), sorted.
    """
    lam, m = _clear_denominators(m)
    s = to_sparse(m)
    one = identity_op(m.n)
    f1 = kron(s, one)
    f2 = kron(one, s)
    f1f2 = compose(f1, f2)
    # (F1F2)F1, not F1(F2F1): perfbench's level3_nnz hook counts this compose.
    diff = sparse_sub(compose(f1f2, f1), compose(f2, f1f2))
    # Codes of one level sort like their words, so only the kept entries are decoded.
    kept = sorted(diff.entries.items())[:MAX_WITNESSES]
    return _report([(decode_word(r, m.n, 3), decode_word(c, m.n, 3), v) for (r, c), v in kept], lam)


def is_solution_by_subsets(m) -> ResidualReport:
    """Reduction route: direct check on every 3-letter restriction.

    Witness words name the original letters.  With fewer than 3 letters this
    is the direct check itself.
    """
    if m.n < 3:
        return ybe_residual_direct(m)
    lam, m = _clear_denominators(m)
    witnesses = [
        (tuple(letters[t - 1] for t in row), tuple(letters[t - 1] for t in col), val)
        for letters in combinations(range(1, m.n + 1), 3)
        for row, col, val in ybe_residual_direct(restrict(m, letters)).witnesses
    ]
    return _report(witnesses, lam)


def is_solution(m) -> bool:
    """Invertible and braid: the class everything downstream works with."""
    return invertible(m) and ybe_residual_direct(m).zero
