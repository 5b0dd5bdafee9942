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
grouped test is a polynomial written factored, so a vector costs fewer
multiplications than its monomials list.

No test text is written by hand.  `check_vector` and the pair checker
`_pair_ok` are plain code, the output of `checker_source` in
tests/helpers.py for the relation data of `ybe`; that function states how
the tests are built and checks the data they rely on, and a test fails
when either checker's source differs from its output.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .classify import FINE_LABEL, H_BLOCK, LABELS, coarsen, g3_orbits, triple_key
from .errors import MalformedInputError
from .matchcat import edge_pairs

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


# The two checkers below are the output of `checker_source` in
# tests/helpers.py: change the generator and paste its output.
#
# check_vector: the 18 images of ybe.TRIPLE_POLYS[5:] under
# ybe.TRIPLE_REINDEX, with the blocks at offsets 11, 7, 3.
# The 30 images of the first five relations (24 distinct) are exactly the
# images of the pair relations placed on the three blocks, which every
# candidate block already satisfies; only the coupling relations remain.
# So check_vector is a full check only for vectors built from _block_candidates.
# Block 23's diagonals are read first, then those of 13 and 12: among
# scanned vectors only a slash block's diagonals both vanish, so a vector
# with at most one slash block reaches the 12 tests after at most two
# residue tests more than the accept alone would read.
def check_vector(v, p):
    v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14 = v
    if v11 % p or v14 % p:
        if not (v7 % p or v3 % p or v10 % p or v6 % p): return not ((v4*v5-v8*v9) % p)
    elif v7 % p or v10 % p:
        if not (v3 % p or v6 % p): return not ((v4*v5-v12*v13) % p)
    elif v3 % p or v6 % p:
        return not ((v8*v9-v12*v13) % p)
    else: return True
    if (v3*(v8*v9-v12*v13)+v7*v14*(v7-v14)) % p: return False
    if (v3*v11*(v3-v11)+v7*(v4*v5-v12*v13)) % p: return False
    if (v6*(v8*v9-v12*v13)+v10*v11*(v10-v11)) % p: return False
    if (v6*v14*(v6-v14)+v10*(v4*v5-v12*v13)) % p: return False
    if (v6*v7*(v6-v7)+v11*(v4*v5-v8*v9)) % p: return False
    if (v3*v10*(v3-v10)+v14*(v4*v5-v8*v9)) % p: return False
    if (v10*(v3-v14)+v6*v14) % p and (v4 % p or v5 % p): return False
    if (v7*(v6-v11)+v3*v11) % p and (v4 % p or v5 % p): return False
    if (v6*(v7-v11)+v10*v11) % p and (v8 % p or v9 % p): return False
    if (v3*(v10-v14)+v7*v14) % p and (v8 % p or v9 % p): return False
    if (v3*(v7-v11)-v7*v14) % p and (v12 % p or v13 % p): return False
    if (v6*(v10-v14)-v10*v11) % p and (v12 % p or v13 % p): return False
    return True


# _pair_ok: the images of ybe.PAIR_POLYS under ybe.PAIR_REINDEX on
# (a1, a2, a, b, c, d), one block at offset 2.
def _pair_ok(v, p):
    v0, v1, v2, v3, v4, v5 = v
    if not (v2 % p or v5 % p): return True
    if (v0*(v0-v2)-v3*v4) % p and (v2 % p): return False
    if (v1*(v1-v2)-v3*v4) % p and (v2 % p): return False
    if (v4*v5) % p and (v2 % p): return False
    if (v3*v5) % p and (v2 % p): return False
    if (v5*(v2-v5)) % p and (v2 % p): return False
    if (v1*(v1-v5)-v3*v4) % p and (v5 % p): return False
    if (v0*(v0-v5)-v3*v4) % p and (v5 % p): return False
    return True


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
