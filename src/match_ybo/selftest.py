"""The acceptance checks, runnable as a library call or via the CLI.

Each check returns (ok, detail) and is independent of the others.  The
"quick" level shrinks ranges and sample counts to keep the whole run under a
couple of minutes; "full" runs everything at the documented scale.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .classify import (
    EdgeLabelH,
    classify,
    coarsen,
    edge_labels,
    g3_orbits,
    no_minus_rep,
    orbit_of_triple,
)
from .diagrams import (
    Configuration,
    County,
    Nation,
    configuration_perm,
    enumerate_multisets,
    enumerate_transversal,
    euler_count,
)
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
    x_normalize,
)
from .oracle import fibre_summary
from .recipe import Germ, generic_point, rec
from .signature import signature_check, signature_formula
from .ybe import constraint_residuals, is_solution, is_solution_by_subsets, ybe_residual_direct

TRANSVERSAL_COUNTS = (1, 4, 13, 46, 154)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    seconds: float


def _germs(max_n, seeds=(0,)):
    for n in range(1, max_n + 1):
        for config in enumerate_transversal(n):
            for s in seeds:
                yield Germ(config, generic_point(config, seed=s))


def _random_matrix(n, rng):
    vs = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
    es = {
        p: EdgeBlock(*(Fraction(rng.randint(-2, 2)) for _ in range(4)))
        for p in edge_pairs(n)
    }
    return MatchMatrix2(n, vs, es)


def _corrupt(m, rng, pairs=None):
    """Bump one block entry so the result is provably not a solution.

    The bumped entry depends on the block's zero pattern; for the blocks a
    generic-parameter germ produces, each choice violates a specific pair
    relation (slash: a*a1*(a1 - 1) with a1(a1-1) never a square; zero: abd;
    plus: acd; minus: acd again).
    """
    pair = rng.choice(sorted(pairs) if pairs else edge_pairs(m.n))
    blk = m.edges[pair]
    if blk.b == 0 and blk.c == 0:
        new = blk._replace(b=blk.b + 1)
    elif blk.a == 0 and blk.d == 0:
        new = blk._replace(a=blk.a + 1)
    elif blk.d == 0:
        new = blk._replace(d=blk.d + 1)
    else:
        new = blk._replace(a=blk.a + 1)
    edges = dict(m.edges)
    edges[pair] = new
    return MatchMatrix2(m.n, m.vertices, edges), pair


def check_counts(level):
    top = 4 if level == "quick" else 5
    got = tuple(len(list(enumerate_multisets(n))) for n in range(1, top + 1))
    want = TRANSVERSAL_COUNTS[:top]
    if got != want:
        return False, f"multiset counts {got}, want {want}"
    if tuple(euler_count(n) for n in range(1, top + 1)) != want:
        return False, "euler transform disagrees with enumeration"
    lens = tuple(len(list(enumerate_transversal(n))) for n in range(1, top + 1))
    if lens != want:
        return False, f"transversal counts {lens}, want {want}"
    return True, f"|T_N| = {got} for N = 1..{top}"


def check_rec_solutions(level):
    top, seeds = (4, (0,)) if level == "quick" else (5, (0, 1, 2))
    checked = 0
    for g in _germs(top, seeds):
        rep = ybe_residual_direct(rec(g))
        if not rep.zero:
            return False, f"direct residual nonzero for {g.config}"
        checked += 1
    return True, f"{checked} germs pass the direct check"


def check_route_agreement(level):
    n_random, n_corrupt = (150, 20) if level == "quick" else (500, 50)
    rng = random.Random(20240)
    pool = []
    for i in range(n_random):
        pool.append(_random_matrix(3 if i % 2 == 0 else 4, rng))
    recs = [rec(g) for g in _germs(4 if level == "quick" else 5)]
    pool.extend(recs)
    targets = [m for m in recs if m.n >= 2]
    for _ in range(n_corrupt):
        pool.append(_corrupt(rng.choice(targets), rng)[0])
    pos = neg = 0
    for m in pool:
        d = ybe_residual_direct(m)
        c = constraint_residuals(m)
        s = is_solution_by_subsets(m)
        if not d.zero == c.zero == s.zero:
            return False, f"route verdicts disagree on an n={m.n} matrix"
        # ybe.is_solution(m), reusing the direct report
        if _classify_accepts(m) != (invertible(m) and d.zero):
            return False, f"classify disagrees with the braid check on an n={m.n} matrix"
        if d.zero:
            pos += 1
        else:
            neg += 1
    if pos < 20 or neg < 20:
        return False, f"pool too lopsided: {pos} positive, {neg} negative"
    return True, f"{len(pool)} matrices, {pos} positive, {neg} negative, all routes agree"


def _classify_accepts(m):
    try:
        classify(m)
    except NotASolutionError:
        return False
    return True


def check_subset_reduction(level):
    sizes, trials = ((4,), 4) if level == "quick" else ((4, 5), 10)
    rng = random.Random(1123)
    done = 0
    for n in sizes:
        configs = list(enumerate_transversal(n))
        for _ in range(trials):
            config = rng.choice(configs)
            m = rec(Germ(config, generic_point(config, seed=0)))
            letters = tuple(sorted(rng.sample(range(1, n + 1), 3)))
            inside = [p for p in combinations(letters, 2)]
            bad, pair = _corrupt(m, rng, pairs=inside)
            d = ybe_residual_direct(bad)
            s = is_solution_by_subsets(bad)
            if d.zero or s.zero:
                return False, f"corruption at {pair} not detected (n={n})"
            done += 1
    return True, f"{done} corruption trials flip both verdicts"


def check_round_trip(level):
    top = 4 if level == "quick" else 5
    img_top = 3 if level == "quick" else 4
    count = 0
    for g in _germs(top):
        m = rec(g)
        h = classify(m)
        if h.config != g.config or h.params != g.params:
            return False, f"round trip alters the germ at n={g.config.n}"
        if not x_equivalent(rec(h), m):
            return False, f"rec(classify) not X-equivalent at n={g.config.n}"
        count += 1
    for n in range(1, img_top + 1):
        for config in enumerate_transversal(n):
            g = Germ(config, generic_point(config, seed=0))
            m = rec(g)
            for w in Permutation.all(n):
                mw = act_perm(m, w)
                h = classify(mw)
                if h.config != configuration_perm(config, w):
                    return False, f"image round trip fails at n={n}, w={w.images}"
                if not x_equivalent(rec(h), mw):
                    return False, f"image rec not X-equivalent at n={n}"
                count += 1
    return True, f"{count} round trips exact"


def _nat(*counties):
    return Nation(tuple(County(tuple(vs), part) for vs, part in counties))


def _cfg(n, *nations):
    return Configuration(n, tuple(nations))


_F, _S = "first", "second"

SIGNATURE_TABLES = (
    (_cfg(2, _nat(((1, 2), _F))), (4,)),
    (_cfg(2, _nat(((1,), _F), ((2,), _F))), (3, 1)),
    (_cfg(2, _nat(((1,), _F), ((2,), _S))), (2, 2)),
    (_cfg(2, _nat(((1,), _F)), _nat(((2,), _F))), (1, 1, 1, 1)),
    (_cfg(3, _nat(((1, 2, 3), _F))), (9,)),
    (_cfg(3, _nat(((1, 2), _F), ((3,), _S))), (6, 3)),
    (_cfg(3, _nat(((1, 2), _F), ((3,), _F))), (7, 2)),
    (_cfg(3, _nat(((1,), _F), ((2,), _S), ((3,), _F))), (5, 4)),
    (_cfg(3, _nat(((1,), _F), ((2,), _F), ((3,), _S))), (5, 4)),
    (_cfg(3, _nat(((1,), _F), ((2,), _F), ((3,), _F))), (6, 3)),
    (_cfg(3, _nat(((1, 2), _F)), _nat(((3,), _F))), (4, 2, 2, 1)),
    (_cfg(3, _nat(((1,), _F), ((2,), _F)), _nat(((3,), _F))), (3, 2, 2, 1, 1)),
    (_cfg(3, _nat(((1,), _F), ((2,), _S)), _nat(((3,), _F))), (2, 2, 2, 2, 1)),
    (_cfg(3, _nat(((1,), _F)), _nat(((2,), _F)), _nat(((3,), _F))), (1,) * 9),
    (_cfg(4, _nat(((1, 2, 3, 4), _F))), (16,)),
    (_cfg(4, _nat(((1, 2, 3), _F), ((4,), _S))), (12, 4)),
    (_cfg(4, _nat(((1, 2, 3), _F), ((4,), _F))), (13, 3)),
    (_cfg(4, _nat(((1, 2), _F), ((3, 4), _S))), (8, 8)),
    (_cfg(4, _nat(((1, 2), _F), ((3, 4), _F))), (12, 4)),
    (_cfg(4, _nat(((1,), _F), ((2, 3), _S), ((4,), _F))), (9, 7)),
    (_cfg(4, _nat(((1,), _F), ((2, 3), _S), ((4,), _S))), (10, 6)),
    (_cfg(4, _nat(((1,), _F), ((2, 3), _F), ((4,), _S))), (10, 6)),
    (_cfg(4, _nat(((1,), _F), ((2, 3), _F), ((4,), _F))), (11, 5)),
    (_cfg(4, _nat(((1,), _F), ((2,), _F), ((3,), _S), ((4,), _S))), (8, 8)),
    (_cfg(4, _nat(((1,), _F), ((2,), _F), ((3,), _F), ((4,), _S))), (9, 7)),
    (_cfg(4, _nat(((1,), _F), ((2,), _F), ((3,), _F), ((4,), _F))), (10, 6)),
)


def check_signature_tables(level):
    for config, want in SIGNATURE_TABLES:
        if signature_formula(config) != want:
            return False, f"formula gives {signature_formula(config)}, table says {want}"
        rep = signature_check(Germ(config, generic_point(config, seed=0)))
        if not rep.matches or rep.formula != want:
            return False, f"sampled spectrum disagrees with table entry {want}"
    return True, f"{len(SIGNATURE_TABLES)} table entries, formula and samples agree"


# The rows of the orbit table printed in full, transcribed as (h12, h13, h23)
# triples; the second row's zeros are corrected to slashes (its printed form
# mixes letter counts no orbit can mix).
CLEAN_ORBIT_ROWS = (
    ("///",),
    ("//-", "//+", "/-/", "/+/", "+//", "-//"),
    ("/-+", "/+-", "-/-", "+/+", "+-/", "-+/"),
    ("-+-", "+-+"),
    ("0//", "/0/", "//0"),
    ("0-+", "0+-", "-0-", "+0+", "+-0", "-+0"),
    ("00/", "0/0", "/00"),
    ("00+", "00-", "0+0", "0-0", "+00", "-00"),
    ("000",),
)


def _row_triples(row):
    return frozenset(tuple(EdgeLabelH(ch) for ch in text) for text in row)


def check_orbit_table(level):
    orbits = g3_orbits()
    total = sum(len(o) for o in orbits)
    if total != 64:
        return False, f"orbit sizes sum to {total}"
    computed = set(orbits)
    for row in CLEAN_ORBIT_ROWS:
        triples = _row_triples(row)
        if triples not in computed:
            return False, f"row {row} is not a computed orbit"
    firsts = [orbit_of_triple(tuple(EdgeLabelH(ch) for ch in row[0])) for row in CLEAN_ORBIT_ROWS]
    if len(set(firsts)) != len(firsts):
        return False, "first-column entries share an orbit"
    return True, f"{len(orbits)} orbits cover 64; {len(CLEAN_ORBIT_ROWS)} listed rows match"


EMPTY_FIBRES = (
    ("/", "+", "+"),
    ("/", "+", "-"),
    ("0", "/", "+"),
    ("0", "0", "/"),
    ("+", "-", "+"),
    ("0", "-", "+"),
    ("0", "0", "-"),
)

NONEMPTY_FIBRES = (
    ("/", "/", "/"),
    ("/", "/", "+"),
    ("+", "+", "+"),
    ("0", "/", "/"),
    ("0", "0", "0"),
    ("0", "+", "+"),
)


def check_fibre_oracle(level):
    primes = (7,) if level == "quick" else (7, 11)
    for p in primes:
        for t in EMPTY_FIBRES:
            s = fibre_summary(t, p)
            if s["solutions"] != 0:
                return False, f"fibre {s['type']} nonempty over F_{p}"
        for t in NONEMPTY_FIBRES:
            s = fibre_summary(t, p)
            if s["solutions"] == 0:
                return False, f"fibre {s['type']} empty over F_{p}"
            if s["matches_family"] is not True:
                return False, f"fibre {s['type']} has hits outside its family over F_{p}"
    n = len(primes) * (len(EMPTY_FIBRES) + len(NONEMPTY_FIBRES))
    return True, f"{n} fibre scans match over F_{{{', '.join(str(p) for p in primes)}}}"


def check_no_minus(level):
    top = 3 if level == "quick" else 4
    count = 0
    for n in range(1, top + 1):
        for config in enumerate_transversal(n):
            for w in Permutation.all(n):
                cw = configuration_perm(config, w)
                fixed, _ = no_minus_rep(cw)
                for nat in fixed.nations:
                    run = sorted(nat.vertices)
                    pos = 0
                    for county in nat.counties:
                        want = tuple(run[pos:pos + len(county.vertices)])
                        if county.vertices != want:
                            return False, f"county not consecutive at n={n}"
                        pos += len(county.vertices)
                labs = edge_labels(rec(Germ(fixed, generic_point(fixed, seed=0))))
                if any(coarsen(l) is EdgeLabelH.MINUS for l in labs.values()):
                    return False, f"minus edge survives at n={n}"
                count += 1
    return True, f"{count} normalized images are minus-free and consecutive"


def check_symmetries(level):
    top = 3 if level == "quick" else 4
    rng = random.Random(5)
    count = 0
    for g in _germs(top):
        m = rec(g)
        n = m.n
        xn = x_normalize(m)
        if x_normalize(xn) != xn:
            return False, f"x_normalize not idempotent at n={n}"
        if act_flip(act_flip(m)) != m:
            return False, f"flip not an involution at n={n}"
        if not (is_solution(act_flip(m)) and is_solution(xn)):
            return False, f"flip or gauge breaks a solution at n={n}"
        perms = list(Permutation.all(n))
        if n >= 4:
            perms = rng.sample(perms, 6)
        for w in perms:
            if act_flip(act_perm(m, w)) != act_perm(act_flip(m), w):
                return False, f"flip and relabelling do not commute at n={n}"
            if not is_solution(act_perm(m, w)):
                return False, f"relabelling breaks a solution at n={n}"
        count += 1
    return True, f"{count} operators pass the symmetry identities"


ALL_CHECKS = (
    ("counts", check_counts),
    ("rec-solutions", check_rec_solutions),
    ("route-agreement", check_route_agreement),
    ("subset-reduction", check_subset_reduction),
    ("round-trip", check_round_trip),
    ("signature-tables", check_signature_tables),
    ("orbit-table", check_orbit_table),
    ("fibre-oracle", check_fibre_oracle),
    ("no-minus", check_no_minus),
    ("symmetries", check_symmetries),
)


def run_selftest(level="full", names=None):
    results = []
    for name, fn in ALL_CHECKS:
        if names and name not in names:
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = fn(level)
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, detail, time.perf_counter() - t0))
    return results
