"""Finite-field census of 3-letter solution fibres by zero pattern.

Independent evidence engine: for a triangle of coarse labels (optionally
refined by f/a vertex-equality rules) it enumerates every matrix over F_p
with that pattern, keeps the ones passing all constraint images, and reports
counts and family membership.  Emptiness over a field is evidence for, not
proof of, emptiness of the corresponding stratum; agreement over two primes
and with the rational theory is the point of the exercise.

Rescaling (b, c) -> (x b, c / x) on any block preserves the constraint set
over any field, so sign and slash blocks are scanned in the lower-1 gauge
c = 1; reported hits are X-normal forms and each stands for a (p-1)-element
X-orbit per gauged block.  Zero-pattern blocks keep b = c = 0 exactly.

Vectors are the 15-entry layout (a1, a2, a3, then blocks (a,b,c,d) for the
edges 12, 13, 23).

The constraint images split in two.  The pair relations live on one block and
its two vertex scalars; `_block_candidates` enforces them on each block before
any vector is built.  `check_vector` then tests only the 18 images of the
three relations that couple all three blocks, in 12 grouped tests.  Each of
their monomials contains a block diagonal, an a or a d, so a vector whose six
diagonals are all 0 mod p is accepted before those tests; among scanned
vectors these are exactly the all-slash fibre's, most of a full report's.
When the diagonals of two blocks vanish, the images with those four entries
set to 0 reduce to one test, the paper's two-slash rule: the two blocks'
products b*c agree, unless the third block's diagonals vanish too.  Among
scanned vectors these are exactly the two-slash fibres', such as "/,/,+".

The pair relations are homogeneous cubics, so scaling a block and its two
scalars by s keeps their zero set, and so does the rescaling above with
x = s, which restores the gauge.  The candidates at scalars (s, t) are
therefore those at (1, t/s) mapped by (a, b, c, d) -> (s a, s^2 b, c, s d):
the relations are scanned over p - 1 scalar pairs, not (p - 1)^2.  Each
grouped test is a polynomial written factored, as `_compile` describes, so
a vector costs fewer multiplications than its monomials list.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .classify import FINE_LABEL, H_BLOCK, LABELS, coarsen, g3_orbits, triple_key
from .errors import MalformedInputError
from .matchcat import edge_pairs
from .ybe import PAIR_POLYS, PAIR_REINDEX, TRIPLE_POLYS, TRIPLE_REINDEX

_EDGE_OFFSETS = (3, 7, 11)


def parse_fibre_type(ftype):
    """A fibre type as a token triple, from "0,+,+" or from a token sequence."""
    if isinstance(ftype, str):
        ftype = (t.strip() for t in ftype.split(","))
    tokens = tuple(ftype)
    if len(tokens) != 3 or any(t not in LABELS for t in tokens):
        raise MalformedInputError(f"bad fibre type {tokens!r}")
    return tokens


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _compile(reindex, polys, blocks):
    """`check(v, p)`: do all images of `polys` under `reindex` vanish mod p?

    `blocks` holds the offsets of the (a, b, c, d) blocks in `v`.  Every
    monomial of every image must contain a block-diagonal entry, an a or a
    d, or `_compile` raises; then all images vanish when every diagonal
    entry is 0 mod p, and `check` accepts such a vector before any other
    test.  When the diagonals vanish on every block but one, `check`
    decides the vector by a leaf: the tests described next, built for the
    images with those entries set to 0.  It reads the blocks' diagonals in
    the order of `blocks` until one is nonzero; that block's leaf is then
    the only one left, and the diagonals of the blocks after it are read
    together, their a's first.  A leaf leaves out a guard that names both
    diagonals of its nonzero block, so no diagonal is read twice.  A vector
    that no leaf decides goes on to the tests of the images themselves.
    With one block the only leaf is the accept.
    p must be prime; `fibre_scan` checks it before the first call.  An image
    whose monomials all share an entry x is x*Q; over the field F_p the
    images x*Q, y*Q, ... with one cofactor Q (up to sign) all vanish exactly
    when Q does or x, y, ... all do.  So `check` tests the images with no
    shared entry, then each distinct Q once.  Each tested polynomial is
    written factored: the entry in most of its monomials (the least on a
    tie) is factored out of them, recursively, and then out of the rest.
    A test's overall sign is free, since x = 0 exactly when -x = 0, so no
    unary minus is written: -v7*v14*v14+v7*v7*v14-v3*v12*v13+v3*v8*v9 is
    tested as v3*(v8*v9-v12*v13)+v7*v14*(v7-v14).
    Unpacks `v` into locals once; a coefficient other than +1 or -1 raises.
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
    lines = ["def check(v, p):", f"    {', '.join(names)} = v"] + ["    " + line for line in lines]
    lines.append("    return True")
    ns = {}
    exec("\n".join(lines), ns)
    return ns["check"]


# The 30 images of the first five relations (24 distinct) are exactly the
# images of the pair relations placed on the three blocks, which every
# candidate block already satisfies; only the coupling relations remain.
# So check_vector is a full check only for vectors built from _block_candidates.
# Block 23's diagonals are read first, then those of 13 and 12: among
# scanned vectors only a slash block's diagonals both vanish, so a vector
# with at most one slash block reaches the 12 tests after at most two
# residue tests more than the accept alone would read.
check_vector = _compile(TRIPLE_REINDEX, TRIPLE_POLYS[5:], _EDGE_OFFSETS[::-1])
_pair_ok = _compile(PAIR_REINDEX, PAIR_POLYS, (2,))  # (a1, a2, a, b, c, d)


@lru_cache(maxsize=None)
def _unit_candidates(coarse, u, p):
    """Gauged blocks with the given pattern passing both pair relations at
    the scalars (1, u)."""
    nz = range(1, p)
    ranges = [nz if mark else (0,) for mark in H_BLOCK[coarse]]
    if ranges[2] is nz:
        ranges[2] = (1,)  # the lower-1 gauge c = 1
    return tuple(blk for blk in product(*ranges) if _pair_ok((1, u) + blk, p))


@lru_cache(maxsize=None)
def _block_candidates(coarse, s, t, p):
    """Gauged blocks with the given pattern passing both pair relations, in
    lexicographic order: the blocks at (1, t/s), scaled by s and regauged."""
    unit = _unit_candidates(coarse, t * pow(s, -1, p) % p, p)
    return tuple(sorted((s * a % p, s * s * b % p, c, s * d % p) for a, b, c, d in unit))


def _vertex_rules(ftype):
    """(i, j, equal) for each f/a token of the type: the token holds exactly
    when (scalar i == scalar j) is `equal`."""
    return tuple(
        (i - 1, j - 1, FINE_LABEL[coarsen(tok), True] == tok)
        for tok, (i, j) in zip(ftype, edge_pairs(3))
        if tok != coarsen(tok)
    )


def fibre_scan(ftype, prime):
    """Yield every gauged hit of the fibre over F_prime."""
    ftype = parse_fibre_type(ftype)
    if prime == 2:
        raise MalformedInputError("p = 2 degenerates the sign structure")
    if not _is_prime(prime):
        raise MalformedInputError(f"{prime} is not prime")
    coarse = tuple(coarsen(t) for t in ftype)
    rules = _vertex_rules(ftype)
    nz = range(1, prime)
    for scalars in product(nz, repeat=3):
        if any((scalars[i] == scalars[j]) != equal for i, j, equal in rules):
            continue
        a1, a2, a3 = scalars
        c12 = _block_candidates(coarse[0], a1, a2, prime)
        if not c12:
            continue
        c13 = _block_candidates(coarse[1], a1, a3, prime)
        if not c13:
            continue
        c23 = _block_candidates(coarse[2], a2, a3, prime)
        if not c23:
            continue
        for b12 in c12:
            head = scalars + b12
            for b13 in c13:
                partial = head + b13
                for b23 in c23:
                    vec = partial + b23
                    if check_vector(vec, prime):
                        yield vec


def _every_hit(vec, p):
    """The family rule of a fibre whose pattern alone cuts out its family."""
    return True


def _family_rule(ftype):
    """`rule(vec, p)`: is a hit of the fibre in its parametrized family?

    None when the pattern has no nonempty family.  The families: all-slash
    and all-zero fibres are cut out by their pattern alone; two slashes force
    equal slash products; the signed blocks of an all-sign or one-zero fibre
    share trace and product.
    """
    coarse = tuple(coarsen(t) for t in ftype)
    n_slash = coarse.count("/")
    n_zero = coarse.count("0")
    n_sign = 3 - n_slash - n_zero

    def offsets(kinds):
        return [off for c, off in zip(coarse, _EDGE_OFFSETS) if c in kinds]

    # `fibre_summary` knows `_every_hit` by identity and calls no rule on
    # the hits of these fibres, a million for the all-slash one at p = 11.
    if n_slash == 3 or n_zero == 3:
        return _every_hit
    if n_slash == 2 and n_sign <= 1:
        traced, multiplied = (), offsets(("/",))
    elif n_sign == 3 or (n_zero == 1 and n_sign == 2):
        traced = multiplied = offsets(("+", "-"))
    else:
        return None

    def rule(vec, p):
        return (len({(vec[o] + vec[o + 3]) % p for o in traced}) <= 1
                and len({vec[o + 1] * vec[o + 2] % p for o in multiplied}) <= 1)

    return rule


def fibre_summary(ftype, prime):
    """Count a fibre and aggregate family membership in one pass; fibre_scan
    checks the prime."""
    ftype = parse_fibre_type(ftype)
    rule = _family_rule(ftype)
    count = 0
    family = None if rule is None else True
    testing = family and rule is not _every_hit
    for vec in fibre_scan(ftype, prime):
        if testing:
            testing = family = rule(vec, prime)
        count += 1
    return {
        "type": ",".join(ftype),
        "prime": prime,
        "solutions": count,
        "matches_family": family if count else None,
    }


def default_types():
    """Minimal representative of each coarse orbit, in orbit order."""
    return tuple(min(orb, key=triple_key) for orb in g3_orbits())


def fibre_report(prime):
    """Fibre summaries, one per orbit; each scan checks the prime."""
    return [fibre_summary(t, prime) for t in default_types()]
