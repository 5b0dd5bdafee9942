"""Reading matching data back off a solution.

Every invertible charge-conserving solution determines edge labels: each
2x2 block is a zero block (b = c = 0), a slash block (a = d = 0), or signed
(+ when d = 0, - when a = 0, always with b, c both nonzero).  Signed labels
refine by comparing the two vertex scalars: f (equal) or a (different).
Slash edges cut the letters into nations, zero edges cut a nation into
counties, signs order the counties, and f/a splits them into two parts.
`classify` reads all of this, together with the numerical parameters, into a
germ without checking it, and accepts the matrix only when that germ rebuilds
it up to X-equivalence; it is a section of the construction map.

The coarse labels {0, /, +, -} on a triangle carry an action of flipping the
operator and permuting the three letters; the action is not hand-coded but
read off representative blocks.
"""

from __future__ import annotations

from enum import Enum
from itertools import product

from .errors import NotASolutionError
from .matchcat import (
    EdgeBlock,
    MatchMatrix2,
    Permutation,
    act_flip,
    act_perm,
    edge_pairs,
    invertible,
    x_equivalent,
)
from .scalars import rational_sqrt
from .ybe import constraint_residuals

class EdgeLabelH(str, Enum):
    """Coarse edge labels."""

    ZERO = "0"
    SLASH = "/"
    PLUS = "+"
    MINUS = "-"


class EdgeLabelI(str, Enum):
    """Fine edge labels: signs split by vertex-scalar comparison."""

    ZERO = "0"
    SLASH = "/"
    FPLUS = "f+"
    APLUS = "a+"
    FMINUS = "f-"
    AMINUS = "a-"


# Every label, coarse or fine, to its coarse label: a fine label is its coarse
# label, prefixed by f or a when signed.  Members hash and compare as their
# strings, so the strings look up too.
_COARSE = {label: EdgeLabelH(label.value[-1]) for label in (*EdgeLabelH, *EdgeLabelI)}


def coarsen(label) -> EdgeLabelH:
    try:
        return _COARSE[label]
    except KeyError:
        raise ValueError(f"not an edge label: {label!r}") from None


# The nonzero pattern (a, b, c, d) of each coarse label's blocks; a block
# with any other pattern is inadmissible.
H_BLOCK = {
    EdgeLabelH.ZERO: (1, 0, 0, 1),
    EdgeLabelH.SLASH: (0, 1, 1, 0),
    EdgeLabelH.PLUS: (1, 1, 1, 0),
    EdgeLabelH.MINUS: (0, 1, 1, 1),
}
_PATTERN_LABEL = {tuple(map(bool, pattern)): label for label, pattern in H_BLOCK.items()}

# The f/a split: a coarse label and whether the edge's two vertex scalars are
# equal give the fine label.  A zero edge joins equal scalars.
FINE_LABEL = {
    (EdgeLabelH.ZERO, True): EdgeLabelI.ZERO,
    (EdgeLabelH.SLASH, True): EdgeLabelI.SLASH,
    (EdgeLabelH.SLASH, False): EdgeLabelI.SLASH,
    (EdgeLabelH.PLUS, True): EdgeLabelI.FPLUS,
    (EdgeLabelH.PLUS, False): EdgeLabelI.APLUS,
    (EdgeLabelH.MINUS, True): EdgeLabelI.FMINUS,
    (EdgeLabelH.MINUS, False): EdgeLabelI.AMINUS,
}


def label_edge(m, i, j) -> EdgeLabelI:
    """Fine label of edge (i, j), i < j; NotASolutionError otherwise.

    A zero block is moreover a scalar matrix carrying both vertex scalars."""
    if not 1 <= i < j <= m.n:
        raise ValueError(f"need 1 <= i < j <= {m.n}, got {(i, j)}")
    blk = m.edges[(i, j)]
    ai, aj = m.vertices[i - 1], m.vertices[j - 1]
    coarse = _PATTERN_LABEL.get(tuple(map(bool, blk)))
    fine = FINE_LABEL.get((coarse, ai == aj))
    if fine is None or (fine is EdgeLabelI.ZERO and not blk.a == blk.d == ai):
        raise NotASolutionError(f"not labellable: inadmissible edge block {(i, j)}")
    return fine


def edge_labels(m):
    return {pair: label_edge(m, *pair) for pair in edge_pairs(m.n)}


# Triangles of coarse labels, listed (h12, h13, h23) as edge_pairs(3) orders them.


def _triangle_matrix(triple):
    es = {pair: EdgeBlock(*H_BLOCK[EdgeLabelH(t)]) for pair, t in zip(edge_pairs(3), triple)}
    return MatchMatrix2(3, (1, 1, 1), es)


def _triangle_labels(m):
    return tuple(coarsen(label_edge(m, *p)) for p in edge_pairs(3))


def triangle_perm(triple, perm):
    return _triangle_labels(act_perm(_triangle_matrix(triple), perm))


def triangle_flip(triple):
    return _triangle_labels(act_flip(_triangle_matrix(triple)))


_H_ORDER = tuple(EdgeLabelH)


def triple_key(triple):
    return tuple(_H_ORDER.index(t) for t in triple)


def orbit_of_triple(triple):
    """Orbit of one coarse triangle under letter permutations and flip.

    The flip commutes with every letter permutation, so the orbit is the
    permutation images of the triangle and of its flip."""
    start = tuple(EdgeLabelH(t) for t in triple)
    return frozenset(
        triangle_perm(t, w) for t in (start, triangle_flip(start)) for w in Permutation.all(3)
    )


def g3_orbits():
    """All orbits of coarse triangles, sorted by least member."""
    seen = set()
    orbits = []
    for triple in product(EdgeLabelH, repeat=3):
        if triple in seen:
            continue
        orb = orbit_of_triple(triple)
        seen |= orb
        orbits.append(orb)
    return tuple(sorted(orbits, key=lambda o: min(triple_key(t) for t in o)))


_FORCED = {
    ("+", "+"): "+",
    ("-", "-"): "-",
    ("0", "+"): "+",
    ("+", "0"): "+",
    ("0", "-"): "-",
    ("-", "0"): "-",
    ("0", "0"): "0",
}


def six_rule_check(triple) -> bool:
    """Whether a sign triangle (h12, h13, h23) closes consistently.

    The chain h12, h23 forces the closing label h13 whenever the two agree in
    sign or one of them is zero; slash labels are outside the rule's domain.
    """
    h12, h13, h23 = (coarsen(t) for t in triple)
    if EdgeLabelH.SLASH in (h12, h13, h23):
        raise ValueError("six-rule applies to sign triangles only")
    forced = _FORCED.get((h12.value, h23.value))
    return forced is None or h13.value == forced


# Recovery of the combinatorial data.


def _components(vertices, adjacent):
    """Connected components (sorted tuples, sorted) of a symmetric relation."""
    vertices = sorted(vertices)
    seen = set()
    comps = []
    for s in vertices:
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            for v in vertices:
                if v not in seen and adjacent(min(u, v), max(u, v)):
                    seen.add(v)
                    comp.add(v)
                    stack.append(v)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def recover_nations(m, labels):
    """The letters cut into nations: components of the non-slash edges."""
    return tuple(_components(
        range(1, m.n + 1),
        lambda i, j: labels[(i, j)] is not EdgeLabelI.SLASH,
    ))


def recover_counties(nation_vertices, labels):
    """One nation's letters cut into counties: components of the zero edges."""
    return tuple(_components(
        nation_vertices,
        lambda i, j: labels[(i, j)] is EdgeLabelI.ZERO,
    ))


def recover_order(counties, labels):
    """Counties sorted by how many others each comes before.  County a comes
    before county b when the edge between their first letters is + read from
    a's letter."""

    def before(a, b):
        u, v = a[0], b[0]
        return (coarsen(labels[(min(u, v), max(u, v))]) is EdgeLabelH.PLUS) == (u < v)

    return tuple(sorted(counties, key=lambda a: -sum(before(a, b) for b in counties if b != a)))


def recover_colours(m, ordered_counties):
    """Part tags: a county is tagged like the first one when its scalar is the
    same."""
    first = m.vertices[ordered_counties[0][0] - 1]
    return tuple(
        "first" if m.vertices[c[0] - 1] == first else "second" for c in ordered_counties
    )


# diagrams and recipe are imported by the functions below that use them, so
# the verify and fibre commands, which load this module, never compile them.
# cli must still bind `classify` at import: perfbench pins
# `match_ybo.classify is cli.classify` (ROADMAP item 1a).
def classify(m):
    """Full inverse: the germ (matching data and parameters) of a solution.

    The germ is read off the edge labels and vertex scalars without checking
    them, then certified by rebuilding it: m is accepted only when it is
    X-equivalent to rec of that germ.  rec builds a solution from every germ
    and X-equivalence preserves the braid relation, so an accepted matrix is
    a solution, and by the classification every invertible solution is
    accepted.  Only a rejected matrix is run through the constraint system,
    so that the error names a failing relation when there is one.

    Raises NotASolutionError when the matrix is not an invertible solution.
    """
    from .recipe import rec

    if not invertible(m):
        raise NotASolutionError("matrix is not invertible")
    germ = _read_germ(m, edge_labels(m))
    if not x_equivalent(rec(germ), m):
        rep = constraint_residuals(m)
        if not rep.zero:
            raise NotASolutionError(f"constraints fail, first witness {rep.witnesses[0]}")
        raise NotASolutionError("matrix is not X-equivalent to the operator of its germ")
    return germ


def _read_germ(m, labels):
    """The germ whose operator m must be; nothing read is checked."""
    from .diagrams import Configuration, County, Nation
    from .recipe import Germ, ParamPoint

    nations = []
    alpha = {}
    beta = {}
    for idx, nat_v in enumerate(recover_nations(m, labels), start=1):
        ordered = recover_order(recover_counties(nat_v, labels), labels)
        tags = recover_colours(m, ordered)
        nations.append(Nation(tuple(County(c, t) for c, t in zip(ordered, tags))))
        alpha[idx] = m.vertices[ordered[0][0] - 1]
        if "second" in tags:
            beta[idx] = m.vertices[ordered[tags.index("second")][0] - 1]
        elif len(ordered) >= 2:
            u, v = sorted((ordered[0][0], ordered[1][0]))
            blk = m.edges[(u, v)]
            beta[idx] = blk.a + blk.d - alpha[idx]

    vert_nation = {v: i for i, nat in enumerate(nations, start=1) for v in nat.vertices}
    mu = {}
    mu_sq = {}
    for u, v in edge_pairs(m.n):
        key = tuple(sorted((vert_nation[u], vert_nation[v])))
        if key[0] == key[1] or key in mu or key in mu_sq:
            continue
        blk = m.edges[(u, v)]
        prod = blk.b * blk.c
        root = rational_sqrt(prod)
        if root is not None:
            mu[key] = root
        else:
            mu_sq[key] = prod
    config = Configuration(m.n, tuple(nations))
    return Germ(config, ParamPoint(mu=mu, alpha=alpha, beta=beta, mu_sq=mu_sq))


def no_minus_rep(config):
    """Relabel within nations so every county is a consecutive run in county
    order; the germ operator of the result has no minus edges.  Returns the
    relabelled configuration and the permutation used."""
    from .diagrams import configuration_perm

    images = [0] * config.n
    for nat in config.nations:
        vs = sorted(nat.vertices)
        pos = 0
        for county in nat.counties:
            for v in sorted(county.vertices):
                images[v - 1] = vs[pos]
                pos += 1
    perm = Permutation(tuple(images))
    return configuration_perm(config, perm), perm
