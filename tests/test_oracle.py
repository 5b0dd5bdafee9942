import inspect
import random
from collections import Counter, defaultdict
from itertools import product

import pytest

from match_ybo.classify import H_BLOCK, coarsen, g3_orbits
from match_ybo.errors import MalformedInputError
from match_ybo.oracle import (
    _EDGE_OFFSETS,
    _block_candidates,
    _family_rule,
    _pair_ok,
    check_vector,
    default_types,
    fibre_report,
    fibre_scan,
    fibre_summary,
    parse_fibre_type,
)
from match_ybo.recipe import Germ, ParamPoint, rec
from match_ybo.selftest import FIBRE_COUNTS
from match_ybo.ybe import PAIR_POLYS, PAIR_REINDEX, TRIPLE_POLYS, TRIPLE_REINDEX, eval_poly

from helpers import checker_source, enumerate_configurations, enumerate_fibre, x_rescale

# Entry indices (a1 or a2, then a, b, c, d) of each block of the 15-entry vector.
BLOCKS = ((0, 1, 3, 4, 5, 6), (0, 2, 7, 8, 9, 10), (1, 2, 11, 12, 13, 14))
DIAGONALS = tuple(blk[k] for blk in BLOCKS for k in (2, 5))
# The block pairs by edge, as indices into BLOCKS.
BLOCK_PAIRS = {"12,13": (0, 1), "12,23": (0, 2), "13,23": (1, 2)}

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
    with pytest.raises(MalformedInputError, match=r"^bad fibre type \('',\)$"):
        parse_fibre_type("")


def test_triangle_labels_are_fibre_types():
    # the library's own triangles read as fibre types, with or without the commas
    for orb in g3_orbits():
        for t in orb:
            assert parse_fibre_type(t) == tuple(t)
            assert fibre_summary(t, 3) == fibre_summary(",".join(t), 3)


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


def test_family_rules_reject_a_second_value():
    # Moving one entry of a hit gives a second slash product on "/,/,+",
    # and on "+,+,+" a second trace (entry 11, a of block 23) with equal
    # products or a second product (entry 12, b) with equal traces.
    for ftype, p, moved_entries in (("/,/,+", 5, (8,)), ("+,+,+", 7, (11, 12))):
        rule = _family_rule(parse_fibre_type(ftype))
        hits = list(fibre_scan(ftype, p))
        assert hits, ftype
        for vec in hits:
            assert rule(vec, p), (ftype, vec)
            for k in moved_entries:
                moved = vec[:k] + ((vec[k] + 1) % p or 1,) + vec[k + 1:]
                assert not rule(moved, p), (ftype, moved)


def test_empty_fibre_summary():
    summary = fibre_summary(("0", "0", "/"), 7)
    assert summary["solutions"] == 0
    assert summary["matches_family"] is None


def test_default_types_cover_orbits():
    types = default_types()
    assert len(types) == 13
    assert types[0] == ("0", "0", "0")
    assert all(len(t) == 3 for t in types)


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
    assert_candidate_sizes(7)
    report = fibre_report(7)
    assert {r["type"]: (r["solutions"], r["matches_family"]) for r in report} == CENSUS_7
    assert [r["type"] for r in report] == list(CENSUS_7)
    summary = fibre_summary("/,/,+", 11)
    assert (summary["solutions"], summary["matches_family"]) == (17000, True)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_census_counts_are_the_germ_count_polynomials(p):
    # a checker that accepts too much grows the candidate lists, and with
    # them the scan, by a factor of up to p - 1 per block: fail before it
    assert_candidate_sizes(p)
    # a type FIBRE_COUNTS lists that is no default type would go unchecked
    types = [",".join(t) for t in default_types()]
    assert set(FIBRE_COUNTS) <= set(types)
    counts = {r["type"]: r["solutions"] for r in fibre_report(p)}
    assert counts == {t: FIBRE_COUNTS.get(t, lambda p: 0)(p) for t in types}


def test_census_verdicts_never_read_the_vertex_scalars():
    # check_vector and the family rules read only the three blocks, so the
    # hits of a scalar triple depend only on its candidate lists
    rng = random.Random(0)
    p = 7
    verdicts = Counter()
    for ftype in default_types():
        rule = _family_rule(ftype)
        hits = enumerate_fibre(ftype, p)
        pools = [gauged_pool(label, p) for label in ftype]
        vectors = rng.sample(hits, min(len(hits), 200)) + [
            (0, 0, 0) + sum((rng.choice(pool) for pool in pools), ()) for _ in range(200)
        ]
        for vec in vectors:
            moved = tuple(rng.randrange(p) for _ in range(3)) + vec[3:]
            verdict = check_vector(vec, p)
            assert check_vector(moved, p) == verdict, (ftype, vec, moved)
            verdicts["check", verdict] += 1
            if rule is not None:
                verdict = rule(vec, p)
                assert rule(moved, p) == verdict, (ftype, vec, moved)
                verdicts["rule", verdict] += 1
    assert len(verdicts) == 4 and min(verdicts.values()) > 50, verdicts


def brute_candidates(coarse, s, t, p):
    """Every gauged block of the pattern that passes both pair relations."""
    nz = range(1, p)
    ranges = [nz if mark else (0,) for mark in H_BLOCK[coarse]]
    if ranges[2] is nz:
        ranges[2] = (1,)
    return tuple(blk for blk in product(*ranges) if _pair_ok((s, t) + blk, p))


def candidate_size(coarse, s, t, p):
    """The size of `_block_candidates(coarse, s, t, p)`, in closed form."""
    if coarse == "/":
        return p - 1
    if coarse == "0":
        return int(s == t)
    return p - 2 if s == t else int((s + t) % p != 0)


def assert_candidate_sizes(p):
    for coarse in H_BLOCK:
        for s, t in product(range(1, p), repeat=2):
            got = len(_block_candidates(coarse, s, t, p))
            assert got == candidate_size(coarse, s, t, p), (coarse, s, t, p, got)


def test_block_candidate_sizes_are_closed_forms():
    # brute_candidates runs _pair_ok too, so a broken pair checker passes
    # test_block_candidates_match_brute_force; these sizes do not read it
    for p in (3, 5, 7, 11, 13):
        assert_candidate_sizes(p)


def test_block_candidates_match_brute_force():
    # the candidates at (s, t) are those at (1, t/s) scaled by s: same tuple, same order
    sizes = Counter()
    for p in (3, 5, 7, 11, 13):
        for coarse in H_BLOCK:
            for s, t in product(range(1, p), repeat=2):
                want = brute_candidates(coarse, s, t, p)
                assert _block_candidates(coarse, s, t, p) == want, (coarse, s, t, p)
                sizes[coarse, bool(want)] += 1
    # only the slash pattern is never empty: (0, b, 1, 0) passes at any (s, t)
    assert len(sizes) == 7 and ("/", False) not in sizes, sizes


def scanned_vectors(ftype, p):
    """Every vector the scan of a coarse fibre hands to check_vector, hit or not."""
    coarse = [coarsen(t) for t in ftype]
    for s in product(range(1, p), repeat=3):
        pools = [_block_candidates(c, s[blk[0]], s[blk[1]], p) for c, blk in zip(coarse, BLOCKS)]
        for b12, b13, b23 in product(*pools):
            yield s + b12 + b13 + b23


def diagonal_cases(rng, p):
    """Vectors with random entries whose diagonals are 0 or nonzero multiples
    of p, then with exactly five of the six diagonals so; and, for each block
    pair, random vectors whose pair's four diagonals are so, a third of them
    with equal products b*c on the pair."""
    for _ in range(300):
        v = [rng.randrange(-2 * p, 2 * p) for _ in range(15)]
        for i in DIAGONALS:
            v[i] = rng.choice((0, p, -p, 2 * p))
        yield "all", tuple(v)
        for i in rng.sample(DIAGONALS, 2):
            v[i] += rng.randrange(1, p)
            yield "five", tuple(v)
            v[i] -= v[i] % p
        for kind, pair in BLOCK_PAIRS.items():
            v = [rng.randrange(-2 * p, 2 * p) for _ in range(15)]
            for blk in pair:
                for k in (2, 5):
                    v[BLOCKS[blk][k]] = rng.choice((0, p, -p, 2 * p))
            if rng.randrange(3) == 0:  # equal products: (b, c) swapped onto the second block
                first, second = (BLOCKS[blk] for blk in pair)
                v[second[3]], v[second[4]] = v[first[4]], v[first[3]]
            yield kind, tuple(v)


def two_slash_verdict(kind, v, p):
    """The paper's two-slash rule on a vector whose pair of blocks has only
    vanishing diagonals: a solution exactly when the third block's diagonals
    vanish too or the pair's two products b*c agree."""
    pair = BLOCK_PAIRS[kind]
    (third,) = {0, 1, 2} - set(pair)
    if all(v[BLOCKS[third][k]] % p == 0 for k in (2, 5)):
        return True
    return len({v[BLOCKS[blk][3]] * v[BLOCKS[blk][4]] % p for blk in pair}) == 1


def test_grouped_checkers_match_every_relation_image():
    # The compiled checkers test each shared cofactor Q of images b*Q, c*Q
    # once, as "Q and (b or c)"; compare them with the images one by one.
    # Entries drawn from 0, 1 and any residue make zero factors common.
    # Both accept a vector whose diagonals all vanish before any such test,
    # so the diagonal cases also run with every diagonal or all but one 0 mod p.
    # check_vector decides a vector whose diagonals vanish on two blocks by
    # one test, so each block pair also gets cases of its own.
    rng = random.Random(0)
    for p in (3, 5, 7, 11, 13):
        verdicts = Counter()
        cases = [("any", tuple(rng.choice((0, 1, rng.randrange(p))) for _ in range(15)))
                 for _ in range(3000)]
        for kind, v in cases + list(diagonal_cases(rng, p)):
            verdict = check_vector(v, p)
            assert verdict == vanishes(TRIPLE_POLYS[5:], TRIPLE_REINDEX, v, p), (v, p)
            for pair in (v[:6], v[:2] + v[3:7]):
                assert _pair_ok(pair, p) == vanishes(PAIR_POLYS, PAIR_REINDEX, pair, p), (pair, p)
            if kind in BLOCK_PAIRS:
                assert verdict == two_slash_verdict(kind, v, p), (kind, v, p)
            verdicts[kind, verdict] += 1
        assert verdicts["all", True] == 300 and ("all", False) not in verdicts, (p, verdicts)
        assert min(verdicts[kind, verdict] for kind in ("any", "five", *BLOCK_PAIRS)
                   for verdict in (True, False)) > 10, (p, verdicts)
    verdicts = Counter()
    for ftype in default_types():
        for v in scanned_vectors(ftype, 5):
            verdict = check_vector(v, 5)
            assert verdict == vanishes(TRIPLE_POLYS[5:], TRIPLE_REINDEX, v, 5), v
            verdicts[verdict] += 1
    assert verdicts == {True: 4540, False: 2452}


def test_checkers_are_the_generator_output():
    # the checked-in checkers are generated text: an edit by hand, or a
    # change to the generator or the relation data, fails here
    assert inspect.getsource(check_vector) == checker_source(
        "check_vector", TRIPLE_REINDEX, TRIPLE_POLYS[5:], _EDGE_OFFSETS[::-1])
    assert inspect.getsource(_pair_ok) == checker_source(
        "_pair_ok", PAIR_REINDEX, PAIR_POLYS, (2,))


def test_checker_source_rejects_a_monomial_without_a_diagonal():
    # b12*c12*b13 is nonzero with every diagonal 0, so the early accept
    # would be wrong for it
    with pytest.raises(ValueError, match="block-diagonal"):
        checker_source("check", TRIPLE_REINDEX, (((1, (4, 5, 8)), (1, (3, 4, 5))),), _EDGE_OFFSETS)


@pytest.mark.parametrize("coeff", [2, -2, 0])
def test_checker_source_rejects_a_coefficient_other_than_one(coeff):
    # the text writes each monomial with its sign alone, so 2*a1*a1*d
    # would be tested as a1*a1*d
    with pytest.raises(ValueError, match=r"^every coefficient must be \+1 or -1$"):
        checker_source("check", PAIR_REINDEX, (((coeff, (0, 0, 5)), (-1, (2, 3, 4))),), (2,))


# Coarse label of a gauged block by its zero pattern (a, b, c, d nonzero?).
COARSE_OF_PATTERN = {
    (True, False, False, True): "0",
    (False, True, True, False): "/",
    (True, True, True, False): "+",
    (False, True, True, True): "-",
}


def rec_images(p):
    """Gauged mod-p images of rec on every 3-letter configuration, by coarse
    label triple. Parameters run over 1..p-1 with alpha + beta != 0 mod p,
    and every nation pair is given as mu_sq."""
    images = defaultdict(set)
    nz = range(1, p)
    for config in enumerate_configurations(3):
        m = len(config.nations)
        multi = [i for i, nat in enumerate(config.nations, start=1) if len(nat.counties) >= 2]
        pairs = [(i, j) for j in range(2, m + 1) for i in range(1, j)]
        for alpha, beta, mu_sq in product(product(nz, repeat=m), product(nz, repeat=len(multi)),
                                          product(nz, repeat=len(pairs))):
            if any((alpha[i - 1] + b) % p == 0 for i, b in zip(multi, beta)):
                continue
            params = ParamPoint(alpha=dict(enumerate(alpha, start=1)),
                                beta=dict(zip(multi, beta)), mu_sq=dict(zip(pairs, mu_sq)))
            mat = rec(Germ(config, params))
            vec = tuple(int(x) % p for x in mat.vertices)
            labels = []
            for pair in ((1, 2), (1, 3), (2, 3)):
                a, b, c, d = (int(x) % p for x in mat.edges[pair])
                if c:
                    b, c = b * c % p, 1
                vec += (a, b, c, d)
                labels.append(COARSE_OF_PATTERN[(a != 0, b != 0, c != 0, d != 0)])
            images[tuple(labels)].add(vec)
    return images


@pytest.mark.parametrize("p", [5, 7])
def test_census_is_the_image_of_rec(p):
    # every F_p solution on three letters is a rec output, and every rec
    # output is a solution: both directions of the classification at n = 3
    images = rec_images(p)
    assert set(images) <= set(product("0/+-", repeat=3))
    for ftype in product("0/+-", repeat=3):
        assert images.get(ftype, set()) == set(fibre_scan(ftype, p)), ftype
    assert sum(map(len, images.values())) == {5: 6548, 7: 59910}[p]
