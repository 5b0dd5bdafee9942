"""Charge-conserving operators over exact rationals.

A level-(2,2) charge-conserving operator on an n-letter alphabet is stored in
alpha form: one scalar per vertex i (the (ii,ii) entry) and one 2x2 block per
edge i<j acting on the span of (ij),(ji):

    A(i,j) = [[a, b], [c, d]]   with entries (ij,ij), (ij,ji), (ji,ij), (ji,ji).

Scalars are Fractions. clear_denominators scales a matrix by the lcm of its
denominators, to int entries, once: the verify routes (see ybe), invertible
and signature.spectrum then work on Python ints, and the sparse operations
below work on any exact numbers. Listing order for edges is 12, 13, 23, 14,
24, 34, ... (new largest letter last).

For composition at other levels, operators are kept sparse, keyed by
(row word, column word) pairs; charge conservation means every column word is
a rearrangement of its row word. Tensor products follow the convention
(A (x) B)[iI, jJ] = A[i, j] * B[I, J], i.e. the first factor owns the leading
letter positions.

A word is stored as its integer code: the word (x1..xk) over n letters has
code sum of xj*(n+1)^(k-j), its letters read as digits in base n+1. A level-1
code is the letter itself, the code of a concatenation uI is
code(u)*(n+1)^len(I) + code(I), and codes of equal length sort like their
words. decode_word turns a code back into its word.

Permutation, a bijection on the letters 1..n, lives here next to act_perm,
which conjugates an operator by one; diagrams relabels configurations with
the same class, so the verify routes never import diagrams.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import Iterator, NamedTuple

from .errors import MalformedInputError
from .scalars import format_scalar, parse_int, read, scalar


class EdgeBlock(NamedTuple):
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction


def edge_pairs(n):
    """Edges (i,j), i<j, in listing order 12, 13, 23, 14, 24, 34, ..."""
    return [(i, j) for j in range(2, n + 1) for i in range(1, j)]


class MatchMatrix2(NamedTuple):
    """Level-(2,2) charge-conserving operator in alpha form.

    vertices[i-1] is the scalar at vertex i; edges maps each pair (i,j) with
    i<j to its EdgeBlock.
    """

    n: int
    vertices: tuple
    edges: dict

    def vertex(self, i) -> Fraction:
        return self.vertices[i - 1]

    def edge(self, i, j) -> EdgeBlock:
        """Block for the unordered pair {i,j} read in the order (i,j)."""
        if i < j:
            return self.edges[(i, j)]
        return _antitranspose(self.edges[(j, i)])


def _antitranspose(blk) -> EdgeBlock:
    """Reflection across the antidiagonal: [[a,b],[c,d]] -> [[d,c],[b,a]]."""
    return EdgeBlock(blk.d, blk.c, blk.b, blk.a)


def restrict(m, letters) -> MatchMatrix2:
    """Restriction to strictly increasing letters of m, relabelled
    order-preservingly to 1..k."""
    vs = tuple(m.vertex(v) for v in letters)
    es = {
        (i + 1, j + 1): m.edges[(letters[i], letters[j])]
        for i in range(len(letters))
        for j in range(i + 1, len(letters))
    }
    return MatchMatrix2(len(letters), vs, es)


class Permutation(NamedTuple):
    """Bijection on {1..n}; images[i-1] is the image of i."""

    images: tuple

    @property
    def n(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i - 1]

    def inverse(self):
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    @staticmethod
    def all(n) -> Iterator:
        return map(Permutation, permutations(range(1, n + 1)))


def act_perm(m, perm) -> MatchMatrix2:
    """Conjugation by the permutation operator e_i (x) e_j -> e_w(i) (x) e_w(j).

    Vertex i receives the old scalar at w^-1(i); the block at (i,j) comes from
    the old pair (w^-1(i), w^-1(j)), antitransposed when that pair's order is
    reversed.
    """
    inv = perm.inverse()
    vs = tuple(m.vertex(inv(i)) for i in range(1, m.n + 1))
    es = {(i, j): m.edge(inv(i), inv(j)) for i, j in edge_pairs(m.n)}
    return MatchMatrix2(m.n, vs, es)


def act_flip(m) -> MatchMatrix2:
    """Conjugation by the tensor-factor swap: every block antitransposes."""
    es = {pair: _antitranspose(blk) for pair, blk in m.edges.items()}
    return MatchMatrix2(m.n, m.vertices, es)


def x_normalize(m) -> MatchMatrix2:
    """Lower-1 gauge representative of m's rescaling class.

    Per edge, b and c may be rescaled keeping b*c fixed: c != 0 becomes
    (a, b*c, 1, d); c = 0 with b != 0 becomes (a, 1, 0, d); zero stays put.
    """
    es = {}
    for pair, blk in m.edges.items():
        if blk.c != 0:
            es[pair] = EdgeBlock(blk.a, blk.b * blk.c, Fraction(1), blk.d)
        elif blk.b != 0:
            es[pair] = EdgeBlock(blk.a, Fraction(1), Fraction(0), blk.d)
        else:
            es[pair] = blk
    return MatchMatrix2(m.n, m.vertices, es)


def x_equivalent(m1, m2) -> bool:
    """True iff m1, m2 differ only by per-edge (b,c) -> (xb, c/x) rescalings."""
    return x_normalize(m1) == x_normalize(m2)


def clear_denominators(m):
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


def invertible(m) -> bool:
    """Every vertex and every block determinant nonzero.  Scaling by lam != 0
    keeps that, so the check runs on the cleared ints."""
    m = clear_denominators(m)[1]
    return all(m.vertices) and all(a * d != b * c for a, b, c, d in m.edges.values())


class SparseOp(NamedTuple):
    """Sparse operator at a fixed level: entries keyed by (row code, col code),
    the integer codes of the row and column words.

    Only nonzero entries are stored, so an empty dict is the zero operator.
    Every builder below keeps that invariant; none checks its operands, which
    come from to_sparse and identity_op of an already checked matrix.
    """

    n: int
    level: int
    entries: dict


def decode_word(code, n, level) -> tuple:
    """The word of `level` letters over n letters whose code is `code`."""
    return tuple(code // (n + 1) ** k % (n + 1) for k in reversed(range(level)))


def identity_op(n) -> SparseOp:
    return SparseOp(n, 1, {(i, i): 1 for i in range(1, n + 1)})


def kron(s, t) -> SparseOp:
    """Tensor product; the first factor owns the leading letter positions.
    A product of two nonzero ints or Fractions is never zero."""
    shift = (s.n + 1) ** t.level
    entries = {
        (r1 * shift + r2, c1 * shift + c2): v1 * v2
        for (r1, c1), v1 in s.entries.items()
        for (r2, c2), v2 in t.entries.items()
    }
    return SparseOp(s.n, s.level + t.level, entries)


def compose(s, t) -> SparseOp:
    """Matrix product s @ t."""
    by_row = {}
    for (r, c), v in t.entries.items():
        by_row.setdefault(r, []).append((c, v))
    entries = {}
    for (r, mid), v1 in s.entries.items():
        for c, v2 in by_row.get(mid, ()):
            key = (r, c)
            entries[key] = entries.get(key, 0) + v1 * v2
    if 0 in entries.values():
        entries = {k: v for k, v in entries.items() if v != 0}
    return SparseOp(s.n, s.level, entries)


def sparse_sub(s, t) -> SparseOp:
    entries = dict(s.entries)
    for key, v in t.entries.items():
        entries[key] = entries.get(key, 0) - v
    return SparseOp(s.n, s.level, {k: v for k, v in entries.items() if v != 0})


def to_sparse(m) -> SparseOp:
    """Level-2 sparse form of a MatchMatrix2."""
    base = m.n + 1
    entries = {}
    for i, v in enumerate(m.vertices, start=1):
        if v != 0:
            entries[(i * base + i, i * base + i)] = v
    for (i, j), blk in m.edges.items():
        ij, ji = i * base + j, j * base + i
        for key, v in (((ij, ij), blk.a), ((ij, ji), blk.b), ((ji, ij), blk.c), ((ji, ji), blk.d)):
            if v != 0:
                entries[key] = v
    return SparseOp(m.n, 2, entries)


def matrix_to_json(m):
    return {
        "n": m.n,
        "vertices": [format_scalar(v) for v in m.vertices],
        "edges": [
            {
                "i": i,
                "j": j,
                "a": format_scalar(m.edges[(i, j)].a),
                "b": format_scalar(m.edges[(i, j)].b),
                "c": format_scalar(m.edges[(i, j)].c),
                "d": format_scalar(m.edges[(i, j)].d),
            }
            for i, j in edge_pairs(m.n)
        ],
    }


MATRIX = {
    "n": parse_int,
    "vertices": [scalar],
    "edges": [{"i": parse_int, "j": parse_int, "a": scalar, "b": scalar, "c": scalar, "d": scalar}],
}


def matrix_from_json(data) -> MatchMatrix2:
    """The one check of a matrix: nothing built from a checked one is checked again."""
    n, vertices, edge_list = read(data, MATRIX, "matrix")
    edges = {(i, j): EdgeBlock(a, b, c, d) for i, j, a, b, c, d in edge_list}
    if len(edges) != len(edge_list):
        raise MalformedInputError("matrix.edges: an edge pair is given twice")
    if len(vertices) != n:
        raise MalformedInputError("vertex count mismatch")
    if len(edges) != n * (n - 1) // 2 or set(edges) != set(edge_pairs(n)):
        raise MalformedInputError("edge set must be exactly {(i,j): i<j}")
    return MatchMatrix2(n, vertices, edges)
