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
any vector is built.  `check_vector` then evaluates only the 18 images of the
three relations that couple all three blocks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .classify import EdgeLabelH, EdgeLabelI, _triple_key, coarsen, g3_orbits
from .errors import MalformedInputError
from .ybe import PAIR_POLYS, PAIR_REINDEX, TRIPLE_POLYS, TRIPLE_REINDEX

_TOKENS = {label.value for label in (*EdgeLabelH, *EdgeLabelI)}
_EDGE_OFFSETS = (3, 7, 11)
_VERTEX_PAIRS = ((0, 1), (0, 2), (1, 2))


def parse_fibre_type(ftype):
    """A fibre type as a token triple, from "0,+,+" or from a token sequence."""
    if isinstance(ftype, str):
        ftype = (t.strip() for t in ftype.split(","))
    tokens = tuple(str(t) for t in ftype)
    if len(tokens) != 3 or any(t not in _TOKENS for t in tokens):
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


def _compile(reindex, polys):
    """`check(v, p)`: do all images of `polys` under `reindex` vanish mod p?

    Unpacks `v` into locals once; every coefficient must be +1 or -1.
    """
    names = [f"v{i}" for i in range(len(reindex[0]))]
    lines = ["def check(v, p):", f"    {', '.join(names)} = v"]
    for src in reindex:
        for poly in polys:
            terms = "".join(
                ("+" if coeff > 0 else "-") + "*".join(names[src[i]] for i in mono)
                for coeff, mono in poly
            )
            lines.append(f"    if ({terms}) % p: return False")
    lines.append("    return True")
    ns = {}
    exec("\n".join(lines), ns)
    return ns["check"]


# The 30 images of the first five relations (24 distinct) are exactly the
# images of the pair relations placed on the three blocks, which every
# candidate block already satisfies; only the coupling relations remain.
# So check_vector is a full check only for vectors built from _block_candidates.
check_vector = _compile(TRIPLE_REINDEX, TRIPLE_POLYS[5:])
_pair_ok = _compile(PAIR_REINDEX, PAIR_POLYS)


@lru_cache(maxsize=None)
def _block_candidates(coarse, s, t, p):
    """Gauged blocks with the given pattern passing both pair relations."""
    nz = range(1, p)
    if coarse is EdgeLabelH.ZERO:
        pool = [(a, 0, 0, d) for a in nz for d in nz]
    elif coarse is EdgeLabelH.SLASH:
        pool = [(0, b, 1, 0) for b in nz]
    elif coarse is EdgeLabelH.PLUS:
        pool = [(a, b, 1, 0) for a in nz for b in nz]
    else:
        pool = [(0, b, 1, d) for b in nz for d in nz]
    return tuple(blk for blk in pool if _pair_ok((s, t) + blk, p))


# Signed fine labels pin whether the edge's two vertex scalars are equal.
_SAME_SCALARS = {
    EdgeLabelI.FPLUS: True,
    EdgeLabelI.FMINUS: True,
    EdgeLabelI.APLUS: False,
    EdgeLabelI.AMINUS: False,
}


def _vertices_ok(ftype, scalars):
    for tok, (i, j) in zip(ftype, _VERTEX_PAIRS):
        same = _SAME_SCALARS.get(tok)
        if same is not None and same != (scalars[i] == scalars[j]):
            return False
    return True


def _check_prime(p):
    if p == 2:
        raise MalformedInputError("p = 2 degenerates the sign structure")
    if not _is_prime(p):
        raise MalformedInputError(f"{p} is not prime")


def fibre_scan(ftype, prime):
    """Yield every gauged hit of the fibre over F_prime."""
    ftype = parse_fibre_type(ftype)
    _check_prime(prime)
    coarse = tuple(coarsen(t) for t in ftype)
    nz = range(1, prime)
    for scalars in product(nz, repeat=3):
        if not _vertices_ok(ftype, scalars):
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


def _family_rule(ftype):
    """`rule(vec, p)`: is a hit of the fibre in its parametrized family?

    None when the pattern has no nonempty family.  The families: all-slash
    and all-zero fibres are cut out by their pattern alone; two slashes force
    equal slash products; the signed blocks of an all-sign or one-zero fibre
    share trace and product.
    """
    coarse = tuple(coarsen(t) for t in ftype)
    n_slash = coarse.count(EdgeLabelH.SLASH)
    n_zero = coarse.count(EdgeLabelH.ZERO)
    n_sign = 3 - n_slash - n_zero

    def offsets(kinds):
        return [off for c, off in zip(coarse, _EDGE_OFFSETS) if c in kinds]

    # `rule` with nothing to compare is also always True, but costs about
    # 1 s more on the million hits of the all-slash fibre at p = 11.
    if n_slash == 3 or n_zero == 3:
        return lambda vec, p: True
    if n_slash == 2 and n_sign <= 1:
        traced, multiplied = (), offsets((EdgeLabelH.SLASH,))
    elif n_sign == 3 or (n_zero == 1 and n_sign == 2):
        traced = multiplied = offsets((EdgeLabelH.PLUS, EdgeLabelH.MINUS))
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
    for vec in fibre_scan(ftype, prime):
        if family:
            family = rule(vec, prime)
        count += 1
    return {
        "type": ",".join(ftype),
        "prime": prime,
        "solutions": count,
        "matches_family": family if count else None,
    }


def _summary_job(args):
    return fibre_summary(*args)


def default_types():
    """Minimal representative of each coarse orbit, in orbit order."""
    reps = []
    for orb in g3_orbits():
        rep = min(orb, key=_triple_key)
        reps.append(tuple(t.value for t in rep))
    return tuple(reps)


def fibre_report(prime, types=None, jobs=1):
    """Fibre summaries for a list of types (default: one per orbit); each
    summary parses its own type."""
    _check_prime(prime)
    if types is None:
        types = default_types()
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_summary_job, [(t, prime) for t in types]))
    return [fibre_summary(t, prime) for t in types]
