"""Sparse operators and inverses that only the tests use as references.

They rebuild, from their definitions, things the library computes another
way: permutation and flip actions as sparse conjugations, the blockwise
inverse, and the alpha-form support of a level-2 operator.  `matrix` and
`block` build Fraction-valued test inputs.

`encode` and `words` convert between words and the integer codes that key
`SparseOp.entries`, straight from the definition of a code, so tests state
operators as words and check the library's coding independently.
"""

import itertools
from fractions import Fraction

from match_ybo.errors import MalformedInputError, MatchYboError
from match_ybo.matchcat import EdgeBlock, MatchMatrix2, SparseOp, edge_pairs


class SingularMatrixError(MatchYboError):
    """A vertex scalar or edge block is not invertible.

    `part` names the offending piece, e.g. "vertex 3" or "block (1,2)".
    """

    def __init__(self, part):
        self.part = part
        super().__init__(f"singular {part}")


def block(a, b, c, d) -> EdgeBlock:
    return EdgeBlock(Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def matrix(vertices, edges) -> MatchMatrix2:
    """Build a MatchMatrix2, coercing entries to Fraction."""
    vs = tuple(Fraction(v) for v in vertices)
    es = {pair: block(*blk) for pair, blk in edges.items()}
    return MatchMatrix2(len(vs), vs, es)


def encode(word, n):
    """Code of a word over n letters: the sum of x_j * (n+1)^(k-j) over its
    letters x_1..x_k."""
    k = len(word)
    return sum(x * (n + 1) ** (k - j) for j, x in enumerate(word, start=1))


def words(op):
    """op's entries keyed by (row word, column word) instead of codes."""
    word = {encode(w, op.n): w for w in itertools.product(range(1, op.n + 1), repeat=op.level)}
    return {(word[r], word[c]): v for (r, c), v in op.entries.items()}


def sparse(n, level, entries) -> SparseOp:
    """SparseOp from entries keyed by (row word, column word), zeros dropped."""
    cleaned = {(encode(r, n), encode(c, n)): Fraction(v) for (r, c), v in entries.items() if v != 0}
    return SparseOp(n, level, cleaned)


def inverse(m) -> MatchMatrix2:
    """Blockwise inverse; raises SingularMatrixError naming the bad part."""
    vs = []
    for i, v in enumerate(m.vertices, start=1):
        if v == 0:
            raise SingularMatrixError(f"vertex {i}")
        vs.append(1 / v)
    es = {}
    for pair, blk in m.edges.items():
        det = blk.a * blk.d - blk.b * blk.c
        if det == 0:
            raise SingularMatrixError(f"block {pair}")
        es[pair] = EdgeBlock(blk.d / det, -blk.b / det, -blk.c / det, blk.a / det)
    return MatchMatrix2(m.n, tuple(vs), es)


def charge_conserving(op) -> bool:
    """True iff every column word is a rearrangement of its row word."""
    return all(sorted(r) == sorted(c) for (r, c), v in words(op).items() if v != 0)


def from_sparse(op) -> MatchMatrix2:
    """Inverse of to_sparse; rejects entries outside the alpha-form support."""
    if op.level != 2:
        raise MalformedInputError("need a level-2 operator")
    n = op.n
    vs = [Fraction(0)] * n
    es = {pair: [Fraction(0)] * 4 for pair in edge_pairs(n)}
    slot = {"a": 0, "b": 1, "c": 2, "d": 3}
    for (row, col), v in words(op).items():
        if v == 0:
            continue
        (r1, r2), (c1, c2) = row, col
        if r1 == r2 == c1 == c2:
            vs[r1 - 1] = v
        elif r1 != r2 and {r1, r2} == {c1, c2}:
            i, j = min(r1, r2), max(r1, r2)
            if (r1, r2) == (i, j):
                name = "a" if (c1, c2) == (i, j) else "b"
            else:
                name = "c" if (c1, c2) == (i, j) else "d"
            es[(i, j)][slot[name]] = v
        else:
            raise MalformedInputError(f"entry off the charge-conserving support: {(row, col)}")
    return MatchMatrix2(n, tuple(vs), {p: EdgeBlock(*vals) for p, vals in es.items()})


def perm_op(perm, level) -> SparseOp:
    """Sparse operator of a letter permutation at the given level."""
    n = perm.n
    entries = {}
    for w in itertools.product(range(1, n + 1), repeat=level):
        entries[(tuple(perm(i) for i in w), w)] = 1
    return sparse(n, level, entries)


def flip_op(n) -> SparseOp:
    """The level-2 tensor-factor swap e_i (x) e_j -> e_j (x) e_i."""
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entries[((j, i), (i, j))] = 1
    return sparse(n, 2, entries)
