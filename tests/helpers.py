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


# Above the largest fibre the tests list (46,656 all-slash hits at p = 7):
# a checker that accepts too much fails here instead of filling memory.
MAX_HITS = 100_000


def enumerate_fibre(ftype, prime):
    """All gauged hits of a fibre as a list; more than MAX_HITS fails."""
    hits = list(itertools.islice(fibre_scan(ftype, prime), MAX_HITS + 1))
    assert len(hits) <= MAX_HITS, (ftype, prime, "too many hits")
    return hits


def checker_source(name, reindex, polys, blocks):
    """The text of `def name(v, p)`: do all images of `polys` under `reindex`
    vanish mod p?  `oracle.py` holds this text for its two census checkers,
    and a test compares it with their source.

    `blocks` holds the offsets of the (a, b, c, d) blocks in `v`.  Every
    monomial of every image must contain a block-diagonal entry, an a or a
    d, or this raises; then all images vanish when every diagonal entry is
    0 mod p, and the checker accepts such a vector before any other test.
    When the diagonals vanish on every block but one, the checker decides
    the vector by a leaf: the tests described next, built for the images
    with those entries set to 0.  It reads the blocks' diagonals in the
    order of `blocks` until one is nonzero; that block's leaf is then the
    only one left, and the diagonals of the blocks after it are read
    together, their a's first.  A leaf leaves out a guard that names both
    diagonals of its nonzero block, so no diagonal is read twice.  A vector
    that no leaf decides goes on to the tests of the images themselves.
    With one block the only leaf is the accept.
    p must be prime; `fibre_scan` checks it before the first call.  An image
    whose monomials all share an entry x is x*Q; over the field F_p the
    images x*Q, y*Q, ... with one cofactor Q (up to sign) all vanish exactly
    when Q does or x, y, ... all do.  So the checker tests the images with no
    shared entry, then each distinct Q once.  Each tested polynomial is
    written factored: the entry in most of its monomials (the least on a
    tie) is factored out of them, recursively, and then out of the rest.
    A test's overall sign is free, since x = 0 exactly when -x = 0, so no
    unary minus is written: -v7*v14*v14+v7*v7*v14-v3*v12*v13+v3*v8*v9 is
    tested as v3*(v8*v9-v12*v13)+v7*v14*(v7-v14).
    The checker unpacks `v` into locals once; a coefficient other than +1
    or -1 raises.
    """
    if any(abs(coeff) != 1 for poly in polys for coeff, _ in poly):
        raise ValueError("every coefficient must be +1 or -1")
    names = [f"v{i}" for i in range(len(reindex[0]))]
    diagonals = {off: {off, off + 3} for off in blocks}
    images = [[(coeff, tuple(sorted([src[i] for i in mono]))) for coeff, mono in poly]
              for src in reindex for poly in polys]
    every_diagonal = set().union(*diagonals.values())
    if any(every_diagonal.isdisjoint(m) for monos in images for _, m in monos):
        raise ValueError("every monomial must contain a block-diagonal entry")

    def drop(m, x):
        return m[:m.index(x)] + m[m.index(x) + 1:]

    def factored(monos):
        """(sign, text) terms summing to the (coefficient, entries) monomials."""
        if not monos:
            return []
        entries = [i for _, m in monos for i in set(m)]
        x = max(sorted(set(entries)), key=entries.count)
        if entries.count(x) == 1:
            return [(c, "*".join(names[i] for i in m)) for c, m in monos]
        inner = factored([(c, drop(m, x)) for c, m in monos if x in m])
        sign, text = joined(inner)
        head = f"{names[x]}*{text}" if len(inner) == 1 else f"{names[x]}*({text})"
        return [(sign, head)] + factored([(c, m) for c, m in monos if x not in m])

    def joined(terms):
        """(sign, text) with sign * text the sum of the terms; text has no unary minus."""
        (lead, first), *rest = terms
        return lead, first + "".join(("+" if c == lead else "-") + t for c, t in rest)

    def test(monos):
        """The sum of the monomials, factored, up to sign."""
        return joined(factored(sorted(monos, key=lambda cm: cm[1])))[1]

    def failures(zero=frozenset(), nonzero=frozenset()):
        """One condition per test, true when a vector fails it, for the images
        with the entries in `zero` set to 0.  A guard naming every entry of
        `nonzero`, one of which is known to be nonzero, is true: left out."""
        conds = []
        factors = {}  # cofactor Q -> the shared entries it is multiplied by
        for image in images:
            monos = [(c, m) for c, m in image if zero.isdisjoint(m)]
            if not monos:
                continue
            shared = set.intersection(*(set(m) for _, m in monos))
            if not shared:
                conds.append(f"({test(monos)}) % p")
                continue
            x = min(shared)
            q = sorted((drop(m, x), c) for c, m in monos)
            sign = q[0][1]
            factors.setdefault(tuple((c * sign, m) for m, c in q), set()).add(x)
        for q, xs in factors.items():
            guard = " or ".join(f"{names[x]} % p" for x in sorted(xs))
            known = nonzero and nonzero <= xs
            conds.append(f"({test(q)}) % p" + ("" if known else f" and ({guard})"))
        return conds

    def some_diagonal(offs):
        """Is a diagonal entry of the blocks at `offs` nonzero?  The a's are read first."""
        return " or ".join(f"{names[off + k]} % p" for k in (0, 3) for off in offs)

    def leaf(missing):
        """The verdict on a vector whose diagonals vanish on every block but `missing`."""
        zero = set().union(*(d for off, d in diagonals.items() if off != missing))
        return f"return not ({' or '.join(failures(zero, diagonals[missing]))})"

    if len(blocks) == 1:  # no leaf but the accept
        lines = [f"if not ({some_diagonal(blocks)}): return True"]
    else:
        lines = []
        for i, off in enumerate(blocks):
            rest = f"if not ({some_diagonal(blocks[i + 1:])}): " if blocks[i + 1:] else ""
            lines += [f"{'el' if i else ''}if {some_diagonal([off])}:", f"    {rest}{leaf(off)}"]
        lines.append("else: return True")
    lines += [f"if {cond}: return False" for cond in failures()]
    lines = [f"def {name}(v, p):", f"    {', '.join(names)} = v"] + ["    " + line for line in lines]
    return "\n".join(lines) + "\n    return True\n"


def x_rescale(vec, edge, x, p):
    """Apply the X-action with parameter x at one edge (0, 1, or 2) mod p."""
    if x % p == 0:
        raise MalformedInputError("x must be invertible")
    off = _EDGE_OFFSETS[edge]
    out = list(vec)
    out[off + 1] = out[off + 1] * x % p
    out[off + 2] = out[off + 2] * pow(x, -1, p) % p
    return tuple(out)
