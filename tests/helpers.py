"""Helpers that only the tests use: exhaustive enumerators and symmetry
transports that the library itself never needs.
"""

import itertools
from fractions import Fraction

from hypothesis import strategies as st

from match_ybo.diagrams import (
    PART_TAGS,
    Configuration,
    County,
    Nation,
    _sorted_nations,
    configuration_perm,
    flip_configuration,
    word_key,
    word_of_nation,
)
from match_ybo.errors import MalformedInputError
from match_ybo.matchcat import Permutation
from match_ybo.oracle import _EDGE_OFFSETS, fibre_scan
from match_ybo.recipe import Germ, ParamPoint
from match_ybo.ybe import TRIPLE_POLYS, entry_vector, eval_poly

# -- diagrams


def _set_partitions(items):
    """All partitions of a list into nonempty blocks (order-insensitive)."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def enumerate_configurations(n) -> list:
    """Every configuration on {1..n}, exhaustively, with normalized tag names.

    Nations and counties range over all set partitions, county orders over all
    permutations, and part tags over all splits into at most two parts with
    the first county tagged "first".
    """
    if n > 8:
        raise MalformedInputError(f"refusing exhaustive generation for n={n}")

    def nation_variants(block):
        out = []
        for counties in _set_partitions(sorted(block)):
            blocks = [tuple(sorted(b)) for b in counties]
            for order in itertools.permutations(blocks):
                for tags in itertools.product(PART_TAGS, repeat=len(order) - 1):
                    cs = [County(order[0], "first")]
                    cs += [County(b, t) for b, t in zip(order[1:], tags)]
                    out.append(Nation(tuple(cs)))
        return out

    configs = []
    for p in _set_partitions(list(range(1, n + 1))):
        pools = [nation_variants(block) for block in p]
        for choice in itertools.product(*pools):
            configs.append(Configuration(n, _sorted_nations(choice)))
    return configs


def multiset_of_configuration(config):
    """The (word, multiplicity) pairs of config's nations, in word order."""
    words = sorted((word_of_nation(nat) for nat in config.nations), key=word_key)
    return tuple((w, len(list(g))) for w, g in itertools.groupby(words))


def compose_perms(w, v) -> Permutation:
    """The permutation i -> w(v(i))."""
    return Permutation(tuple(w(v(i)) for i in range(1, w.n + 1)))


def nation_of(config, v) -> int:
    """1-based index of the nation containing vertex v."""
    for i, nat in enumerate(config.nations, start=1):
        for c in nat.counties:
            if v in c.vertices:
                return i
    raise MalformedInputError(f"no such vertex {v}")


# -- recipe


def _nation_index_map(config, perm):
    """old nation index -> new index after configuration_perm re-sorting."""
    keyed = []
    for i, nat in enumerate(config.nations, start=1):
        keyed.append((min(perm(v) for v in nat.vertices), i))
    keyed.sort()
    return {old: new for new, (_, old) in enumerate(keyed, start=1)}


def permute_germ(germ, perm) -> Germ:
    """Transport a germ along a vertex relabelling."""
    config = configuration_perm(germ.config, perm)
    ix = _nation_index_map(germ.config, perm)
    pp = germ.params

    def move_pair(table):
        return {tuple(sorted((ix[i], ix[j]))): v for (i, j), v in table.items()}

    params = ParamPoint(
        mu=move_pair(pp.mu),
        alpha={ix[i]: v for i, v in pp.alpha.items()},
        beta={ix[i]: v for i, v in pp.beta.items()},
        mu_sq=move_pair(pp.mu_sq),
    )
    return Germ(config, params)


def flip_germ(germ) -> Germ:
    """Reverse every nation's county order; parameters ride along."""
    return Germ(flip_configuration(germ.config), germ.params)


# Nonzero scalars, negative and fractional ones included. So few values make
# alpha = beta, equal mu and equal slash products common, and the squares
# among them make some mu_sq entries rational squares.
NONZERO = st.sampled_from(
    [Fraction(v) for v in ("1", "-1", "2", "-2", "3", "4", "1/4", "-1/2", "3/2", "-5/3")]
)


def draw_point(data, config):
    """Any valid parameter point, mu_sq entries included."""
    m = len(config.nations)
    alpha = {i: data.draw(NONZERO) for i in range(1, m + 1)}
    beta = {}
    for i, nat in enumerate(config.nations, start=1):
        if len(nat.counties) >= 2:
            a = alpha[i]
            beta[i] = data.draw(st.one_of(st.just(a), NONZERO).filter(lambda b: a + b != 0))
    mu, mu_sq = {}, {}
    for j in range(2, m + 1):
        for i in range(1, j):
            table = mu_sq if data.draw(st.booleans()) else mu
            table[(i, j)] = data.draw(NONZERO)
    return ParamPoint(mu=mu, alpha=alpha, beta=beta, mu_sq=mu_sq)


# -- ybe


def base_constraints(m3):
    """Residuals of the eight relations on a 3-letter matrix, identity order."""
    v = entry_vector(m3)
    return tuple(eval_poly(p, v) for p in TRIPLE_POLYS)


# -- oracle


def enumerate_fibre(ftype, prime):
    """All gauged hits of a fibre as a list."""
    return list(fibre_scan(ftype, prime))


def x_rescale(vec, edge, x, p):
    """Apply the X-action with parameter x at one edge (0, 1, or 2) mod p."""
    if x % p == 0:
        raise MalformedInputError("x must be invertible")
    off = _EDGE_OFFSETS[edge]
    out = list(vec)
    out[off + 1] = out[off + 1] * x % p
    out[off + 2] = out[off + 2] * pow(x, -1, p) % p
    return tuple(out)
