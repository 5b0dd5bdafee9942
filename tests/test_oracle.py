from collections import Counter
from itertools import product

import pytest

from match_ybo.errors import MalformedInputError
from match_ybo.oracle import (
    _family_rule,
    default_types,
    fibre_report,
    fibre_scan,
    fibre_summary,
    parse_fibre_type,
)
from match_ybo.ybe import PAIR_POLYS, PAIR_REINDEX, TRIPLE_POLYS, TRIPLE_REINDEX, eval_poly

from helpers import enumerate_fibre, x_rescale

# Entry indices (a1 or a2, then a, b, c, d) of each block of the 15-entry vector.
BLOCKS = ((0, 1, 3, 4, 5, 6), (0, 2, 7, 8, 9, 10), (1, 2, 11, 12, 13, 14))

# The frozen p = 7 census: (solutions, matches_family) per orbit representative.
CENSUS_7 = {
    "0,0,0": (6, True), "0,0,/": (0, None), "0,0,+": (0, None),
    "0,/,/": (216, True), "0,/,+": (0, None), "0,+,+": (54, True),
    "0,+,-": (0, None), "/,/,/": (46656, True), "/,/,+": (1944, True),
    "/,+,+": (0, None), "/,+,-": (0, None), "+,+,+": (102, True),
    "+,-,+": (0, None),
}


def vanishes(polys, reindex, v, p):
    return all(eval_poly(poly, [v[s] for s in src]) % p == 0 for src in reindex for poly in polys)


def test_parse_fibre_type():
    assert parse_fibre_type("0, /, a+") == ("0", "/", "a+")
    with pytest.raises(MalformedInputError):
        parse_fibre_type("0,/")
    with pytest.raises(MalformedInputError):
        parse_fibre_type("0,/,x")


def test_prime_validation():
    with pytest.raises(MalformedInputError):
        enumerate_fibre(("0", "0", "0"), 2)
    with pytest.raises(MalformedInputError):
        enumerate_fibre(("0", "0", "0"), 9)


def test_all_zero_fibre_is_the_diagonal():
    # a1 = a2 = a3 = a12 = ... with zero off-diagonals: one hit per scalar
    hits = enumerate_fibre(("0", "0", "0"), 7)
    assert len(hits) == 6
    for v in hits:
        assert len(set(v[:3])) == 1
        assert v[3] == v[7] == v[11] == v[0]


def test_plus_plus_plus_count_at_7():
    # 30 equal-scalar hits plus 72 mixed ones, counted by hand
    hits = enumerate_fibre(("+", "+", "+"), 7)
    assert len(hits) == 102


def test_hits_solve_all_reindexed_constraints():
    for vec in enumerate_fibre(("0", "+", "+"), 7):
        assert vanishes(TRIPLE_POLYS, TRIPLE_REINDEX, vec, 7)


def test_x_rescale_preserves_membership():
    # slash products are free on the all-slash fibre, so only the sign
    # blocks show that the rescaling keeps b * c
    hits = enumerate_fibre(("/", "/", "/"), 5)[:10] + enumerate_fibre(("+", "+", "+"), 5)[:10]
    assert len(hits) == 20
    for vec in hits:
        for edge in range(3):
            for x in range(2, 5):
                assert vanishes(TRIPLE_POLYS, TRIPLE_REINDEX, x_rescale(vec, edge, x, 5), 5)
    with pytest.raises(MalformedInputError):
        x_rescale(hits[0], 0, 5, 5)


def test_rec_output_mod_p_is_a_hit():
    # one nation, counties {1,2} then {3}, alpha 1, beta 2: cross-county
    # blocks have trace 3 and product -2 = 5 mod 7, within-county is zero
    vec = (1, 1, 2, 1, 0, 0, 1, 3, 5, 1, 0, 3, 5, 1, 0)
    hits = enumerate_fibre(("0", "a+", "a+"), 7)
    assert vec in hits


def test_fine_split_distinguishes():
    # same-scalar and different-scalar refinements partition the coarse fibre
    coarse = len(enumerate_fibre(("+", "+", "+"), 5))
    fine = 0
    for t1 in ("f+", "a+"):
        for t2 in ("f+", "a+"):
            for t3 in ("f+", "a+"):
                fine += len(enumerate_fibre((t1, t2, t3), 5))
    assert fine == coarse


def test_hit_in_family():
    rule = _family_rule(("/", "/", "/"))
    for vec in fibre_scan(("/", "/", "/"), 5):
        assert rule(vec, 5) is True
    summary = fibre_summary(("+", "+", "+"), 7)
    assert summary["solutions"] == 102
    assert summary["matches_family"] is True
    assert summary["type"] == "+,+,+"
    assert summary["prime"] == 7


def test_empty_fibre_summary():
    summary = fibre_summary(("0", "0", "/"), 7)
    assert summary["solutions"] == 0
    assert summary["matches_family"] is None


def test_default_types_cover_orbits():
    types = default_types()
    assert len(types) == 13
    assert types[0] == ("0", "0", "0")
    assert all(len(t) == 3 for t in types)


def test_fibre_report_serial_and_parallel_agree():
    types = [("0", "0", "0"), ("0", "0", "/"), ("/", "/", "/")]
    serial = fibre_report(5, types=types)
    parallel = fibre_report(5, types=types, jobs=2)
    assert serial == parallel
    assert [r["solutions"] for r in serial] == [4, 0, 4096]


def test_refined_one_zero_two_plus_fibres():
    # the f/a refinement separates: mixed refinements are empty, pure ones not
    assert enumerate_fibre(("0", "a+", "f+"), 7) == []
    assert enumerate_fibre(("0", "f+", "a+"), 7) == []
    assert len(enumerate_fibre(("0", "a+", "a+"), 7)) == 24
    assert len(enumerate_fibre(("0", "f+", "f+"), 7)) == 30


def normalised(poly, places):
    """The polynomial with variable k renamed places[k], as monomial -> coefficient."""
    out = Counter()
    for coeff, mono in poly:
        out[tuple(sorted(places[i] for i in mono))] += coeff
    return frozenset((mono, c) for mono, c in out.items() if c)


def test_dropped_relations_are_the_pair_relations_on_each_block():
    dropped = {normalised(poly, src) for src in TRIPLE_REINDEX for poly in TRIPLE_POLYS[:5]}
    pair = {
        normalised(poly, [blk[s] for s in src])
        for blk in BLOCKS
        for src in PAIR_REINDEX
        for poly in PAIR_POLYS
    }
    assert dropped == pair
    assert len(pair) == 24


def gauged_pool(label, p):
    """Every block of a coarse pattern, gauged to c = 1 unless it is zero."""
    nz = range(1, p)
    return {
        "0": [(a, 0, 0, d) for a in nz for d in nz],
        "/": [(0, b, 1, 0) for b in nz],
        "+": [(a, b, 1, 0) for a in nz for b in nz],
        "-": [(0, b, 1, d) for b in nz for d in nz],
    }[label]


def reference_hits(ftype, p, prefilter):
    """Gauged vectors of a coarse pattern passing all 48 triple images."""
    hits = []
    for scalars in product(range(1, p), repeat=3):
        pools = []
        for label, blk in zip(ftype, BLOCKS):
            pool = gauged_pool(label, p)
            if prefilter:
                s, t = scalars[blk[0]], scalars[blk[1]]
                pool = [b for b in pool if vanishes(PAIR_POLYS, PAIR_REINDEX, (s, t) + b, p)]
            pools.append(pool)
        for b12, b13, b23 in product(*pools):
            vec = scalars + b12 + b13 + b23
            if vanishes(TRIPLE_POLYS, TRIPLE_REINDEX, vec, p):
                hits.append(vec)
    return sorted(hits)


def test_scan_matches_brute_force_at_3():
    for ftype in product("0/+-", repeat=3):
        assert sorted(fibre_scan(ftype, 3)) == reference_hits(ftype, 3, prefilter=False), ftype


def test_scan_matches_reference_at_5():
    for ftype in default_types():
        assert sorted(fibre_scan(ftype, 5)) == reference_hits(ftype, 5, prefilter=True), ftype


def test_census_table_at_7():
    report = fibre_report(7)
    assert {r["type"]: (r["solutions"], r["matches_family"]) for r in report} == CENSUS_7
    assert [r["type"] for r in report] == list(CENSUS_7)
    summary = fibre_summary("/,/,+", 11)
    assert (summary["solutions"], summary["matches_family"]) == (17000, True)
