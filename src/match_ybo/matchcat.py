"""Charge-conserving operators over exact rationals.

A level-(2,2) charge-conserving operator on an n-letter alphabet is stored in
alpha form: one scalar per vertex i (the (ii,ii) entry) and one 2x2 block per
edge i<j acting on the span of (ij),(ji):

    A(i,j) = [[a, b], [c, d]]   with entries (ij,ij), (ij,ji), (ji,ij), (ji,ji).

Scalars are Fractions. The sparse operations below work on any exact numbers;
the verify routes run them on ints (see ybe). Listing order for edges is 12,
13, 23, 14, 24, 34, ... (new largest letter last).

For composition at other levels, operators are kept sparse, keyed by
(row word, column word) pairs; charge conservation means every column word is
a rearrangement of its row word. Tensor products follow the convention
(A (x) B)[iI, jJ] = A[i, j] * B[I, J], i.e. the first factor owns the leading
letter positions.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

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


class MatchMatrix2(namedtuple("MatchMatrix2", "n vertices edges")):
    """Level-(2,2) charge-conserving operator in alpha form.

    vertices[i-1] is the scalar at vertex i; edges maps each pair (i,j) with
    i<j to its EdgeBlock.
    """

    __slots__ = ()

    def __init__(self, n, vertices, edges):
        if len(vertices) != n:
            raise MalformedInputError("vertex count mismatch")
        if len(edges) != n * (n - 1) // 2 or set(edges) != set(edge_pairs(n)):
            raise MalformedInputError("edge set must be exactly {(i,j): i<j}")

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
    """Restriction to a sub-alphabet, relabelled order-preservingly to 1..k."""
    letters = tuple(letters)
    if not letters or list(letters) != sorted(set(letters)):
        raise MalformedInputError(f"letters must be strictly increasing: {letters}")
    if letters[-1] > m.n:
        raise MalformedInputError(f"letter out of range: {letters[-1]}")
    vs = tuple(m.vertex(v) for v in letters)
    es = {
        (i + 1, j + 1): m.edges[(letters[i], letters[j])]
        for i in range(len(letters))
        for j in range(i + 1, len(letters))
    }
    return MatchMatrix2(len(letters), vs, es)


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


def invertible(m) -> bool:
    return all(v != 0 for v in m.vertices) and all(
        blk.a * blk.d - blk.b * blk.c != 0 for blk in m.edges.values()
    )


class SparseOp(NamedTuple):
    """Sparse operator at a fixed level: entries keyed by (row word, col word).

    Only nonzero entries are stored, so an empty dict is the zero operator.
    Every builder below keeps that invariant; none checks its operands, which
    come from to_sparse and identity_op of an already checked matrix.
    """

    n: int
    level: int
    entries: dict


def identity_op(n) -> SparseOp:
    return SparseOp(n, 1, {((i,), (i,)): 1 for i in range(1, n + 1)})


def kron(s, t) -> SparseOp:
    """Tensor product; the first factor owns the leading letter positions.
    A product of two nonzero ints or Fractions is never zero."""
    entries = {
        (r1 + r2, c1 + c2): v1 * v2
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
    entries = {}
    for i, v in enumerate(m.vertices, start=1):
        if v != 0:
            entries[((i, i), (i, i))] = v
    for (i, j), blk in m.edges.items():
        for key, v in (
            (((i, j), (i, j)), blk.a),
            (((i, j), (j, i)), blk.b),
            (((j, i), (i, j)), blk.c),
            (((j, i), (j, i)), blk.d),
        ):
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
    n, vertices, edge_list = read(data, MATRIX, "matrix")
    edges = {(i, j): EdgeBlock(a, b, c, d) for i, j, a, b, c, d in edge_list}
    if len(edges) != len(edge_list):
        raise MalformedInputError("matrix.edges: an edge pair is given twice")
    return MatchMatrix2(n, vertices, edges)
