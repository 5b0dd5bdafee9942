"""Three routes to the Yang-Baxter equation for charge-conserving operators.

direct     composes F1 = S (x) id and F2 = id (x) S on level 3 and subtracts.
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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .diagrams import Permutation
from .matchcat import (
    EdgeBlock,
    MatchMatrix2,
    act_perm,
    compose,
    edge_pairs,
    identity_op,
    invertible,
    kron,
    restrict,
    sparse_sub,
    to_sparse,
)

MAX_WITNESSES = 16


@dataclass(frozen=True)
class ResidualReport:
    zero: bool
    witnesses: tuple
    source: str

    def __bool__(self):
        return self.zero


# Entry indices of the 3-letter layout.
_A1, _A2, _A3 = 0, 1, 2
_A12, _B12, _C12, _D12 = 3, 4, 5, 6
_A13, _B13, _C13, _D13 = 7, 8, 9, 10
_A23, _B23, _C23, _D23 = 11, 12, 13, 14

# Each polynomial is a tuple of (coefficient, index-triple) monomials.
TRIPLE_POLYS = (
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
)

# Pair layout (a1, a2, a, b, c, d); the relations a 2-letter solution obeys.
PAIR_POLYS = (
    ((1, (2, 0, 0)), (-1, (2, 2, 0)), (-1, (2, 3, 4))),
    ((1, (2, 1, 1)), (-1, (2, 2, 1)), (-1, (2, 3, 4))),
    ((1, (2, 4, 5)),),
    ((1, (2, 3, 5)),),
    ((1, (2, 5, 2)), (-1, (2, 5, 5))),
)


def _clear_denominators(m):
    """(lam, lam*m), lam the lcm of m's denominators; lam*m has int entries."""
    entries = list(m.vertices)
    for blk in m.edges.values():
        entries.extend(blk)
    lam = math.lcm(*(x.denominator for x in entries))

    def scale(x):
        return x.numerator * (lam // x.denominator)

    es = {pair: EdgeBlock(*map(scale, blk)) for pair, blk in m.edges.items()}
    return lam, MatchMatrix2(m.n, tuple(map(scale, m.vertices)), es)


def eval_poly(poly, v):
    total = 0
    for coeff, mono in poly:
        term = coeff
        for idx in mono:
            term *= v[idx]
        total += term
    return total


def entry_vector(m):
    """The 15-entry vector of a 3-letter matrix (or 6-entry for 2 letters)."""
    v = list(m.vertices)
    if m.n == 2:
        v.extend(m.edges[(1, 2)])
    elif m.n == 3:
        for pair in ((1, 2), (1, 3), (2, 3)):
            v.extend(m.edges[pair])
    else:
        raise ValueError(f"entry_vector needs 2 or 3 letters, got {m.n}")
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


def constraint_residuals(m) -> ResidualReport:
    """Constraint-system route: all relation images on all 3-subsets.

    Witnesses are (letters, permutation images, relation index, value),
    sorted, at most MAX_WITNESSES kept.
    """
    lam, m = _clear_denominators(m)
    witnesses = []
    if m.n == 2:
        v = entry_vector(m)
        for perm, src in zip(PAIR_PERMS, PAIR_REINDEX):
            w = tuple(v[s] for s in src)
            for k, poly in enumerate(PAIR_POLYS, start=1):
                val = eval_poly(poly, w)
                if val != 0:
                    witnesses.append(((1, 2), perm.images, k, val))
    elif m.n >= 3:
        for letters in combinations(range(1, m.n + 1), 3):
            v = entry_vector(restrict(m, letters))
            for perm, src in zip(TRIPLE_PERMS, TRIPLE_REINDEX):
                w = tuple(v[s] for s in src)
                for k, poly in enumerate(TRIPLE_POLYS, start=1):
                    val = eval_poly(poly, w)
                    if val != 0:
                        witnesses.append((letters, perm.images, k, val))
    witnesses.sort()
    kept = tuple(
        (letters, images, k, Fraction(val, lam**3))
        for letters, images, k, val in witnesses[:MAX_WITNESSES]
    )
    return ResidualReport(not witnesses, kept, "constraints")


def ybe_residual_direct(m) -> ResidualReport:
    """Direct route: F1 F2 F1 - F2 F1 F2 on level 3, entry by entry.

    Witnesses are (row word, column word, value), sorted.
    """
    lam, m = _clear_denominators(m)
    s = to_sparse(m)
    one = identity_op(m.n)
    f1 = kron(s, one)
    f2 = kron(one, s)
    lhs = compose(compose(f1, f2), f1)
    rhs = compose(compose(f2, f1), f2)
    diff = sparse_sub(lhs, rhs)
    witnesses = tuple(
        (row, col, Fraction(val, lam**3)) for row, col, val in diff.nonzero_items()[:MAX_WITNESSES]
    )
    return ResidualReport(diff.is_zero, witnesses, "direct")


def is_solution_by_subsets(m) -> ResidualReport:
    """Reduction route: direct check on every 3-letter restriction.

    Witness words name the original letters.  With fewer than 3 letters this
    is the direct check itself.
    """
    if m.n < 3:
        rep = ybe_residual_direct(m)
        return ResidualReport(rep.zero, rep.witnesses, "subsets")
    lam, m = _clear_denominators(m)
    witnesses = []
    for letters in combinations(range(1, m.n + 1), 3):
        rep = ybe_residual_direct(restrict(m, letters))
        for row, col, val in rep.witnesses:
            witnesses.append((
                tuple(letters[t - 1] for t in row),
                tuple(letters[t - 1] for t in col),
                val,
            ))
    witnesses.sort()
    kept = tuple((row, col, Fraction(val, lam**3)) for row, col, val in witnesses[:MAX_WITNESSES])
    return ResidualReport(not witnesses, kept, "subsets")


def is_solution(m) -> bool:
    """Invertible and braid: the class everything downstream works with."""
    return invertible(m) and ybe_residual_direct(m).zero
