"""Eigenvalue degeneracy data of a germ's operator.

The operator is block diagonal: one 1x1 block per vertex and one 2x2 block
per edge, so its spectrum is the vertex scalars together with both roots of
z^2 - (a+d) z + (ad - bc) for every edge.  `spectrum` clears denominators
once and finds these on ints; only the sorted results become Fractions.

For a germ at generic parameters the multiplicities depend only on the
configuration, and a closed formula gives them nation by nation:

  * a pair of nations of sizes Ni, Nj contributes Ni*Nj twice (once +mu,
    once -mu);
  * a nation of size Ni with counties split into two parts contributes, with
    C(k,2) counting within-county pairs of each part and s1, s2 the part
    sizes,

      ( C(Ni,2) + sum C(k,2) over first part - sum C(k,2) over second + s1,
        C(Ni,2) - sum C(k,2) over first part + sum C(k,2) over second + s2 ).

The two components count the alpha and beta multiplicities; cross-part
county pairs contribute one eigenvalue to each, within-part pairs push both
of theirs to the same side, hence the signed correction.  Zero components
are dropped.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .matchcat import clear_denominators
from .recipe import rec


def spectrum(m):
    """All eigenvalues with multiplicity, sorted; None when some block's
    eigenvalues are irrational.  Runs on the ints of lam*m: a vertex v gives
    2v, a block a + d +- isqrt((a - d)^2 + 4bc), and the sorted ints are
    divided by 2*lam."""
    lam, m = clear_denominators(m)
    values = [2 * v for v in m.vertices]
    for a, b, c, d in m.edges.values():
        disc = (a - d) ** 2 + 4 * b * c
        if disc < 0 or (root := isqrt(disc)) ** 2 != disc:
            return None
        values.append(a + d + root)
        values.append(a + d - root)
    values.sort()
    return tuple(Fraction(v, 2 * lam) for v in values)


def degeneracy_partition(values):
    """Multiplicities of a value list, as a descending partition."""
    return tuple(sorted(Counter(values).values(), reverse=True))


def _comb2(k):
    return k * (k - 1) // 2


def _nation_parts(nation):
    """The two multiplicity components of one nation, unordered raw values."""
    ni = nation.size
    t0 = nation.counties[0].part
    z1 = sum(_comb2(len(c.vertices)) for c in nation.counties if c.part == t0)
    z2 = sum(_comb2(len(c.vertices)) for c in nation.counties if c.part != t0)
    s1 = sum(len(c.vertices) for c in nation.counties if c.part == t0)
    s2 = sum(len(c.vertices) for c in nation.counties if c.part != t0)
    c = _comb2(ni)
    return (c + z1 - z2 + s1, c - z1 + z2 + s2)


def _signature_parts(config):
    """Each nation's nonzero parts, and each nation pair's product twice."""
    nations = [tuple(p for p in _nation_parts(nat) if p > 0) for nat in config.nations]
    sizes = [nat.size for nat in config.nations]
    pairs = [sizes[i] * sizes[j] for j in range(1, len(sizes)) for i in range(j) for _ in range(2)]
    return nations, pairs


def signature_formula(config):
    """Predicted degeneracy partition at generic parameters."""
    nations, pairs = _signature_parts(config)
    return tuple(sorted([p for parts in nations for p in parts] + pairs, reverse=True))


def signature_notation(config) -> str:
    """Nation-by-nation display: "(n1,n1';n2:p12,p12,...)"."""
    nations, pairs = _signature_parts(config)
    text = ";".join(",".join(str(p) for p in parts) for parts in nations)
    if pairs:
        text += ":" + ",".join(str(p) for p in pairs)
    return "(" + text + ")"


class SignatureReport(NamedTuple):
    matches: bool
    formula: tuple
    sampled: tuple | None


def signature_check(germ) -> SignatureReport:
    """Compare the formula against the sampled spectrum of this germ.

    Non-generic parameters may collide eigenvalues or leave the spectrum
    irrational; both come back as a mismatch, not an error.
    """
    formula = signature_formula(germ.config)
    values = spectrum(rec(germ))
    sampled = None if values is None else degeneracy_partition(values)
    return SignatureReport(sampled == formula, formula, sampled)
