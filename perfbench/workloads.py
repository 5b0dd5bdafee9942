"""Seeded inputs, command lines and output checks for the four workloads.

`build(name, seed, workdir)` writes the workload's input files into
`workdir` and returns its operations. Each operation is one `match_ybo.cli`
command line plus a check of its exit code, stdout and stderr that does not
trust the program under test: verdicts are known by construction, classify
must give back the germ that built the matrix, and census counts come from a
frozen table.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from match_ybo import diagrams, matchcat, recipe
from match_ybo.diagrams import Configuration, County, Nation

WORKLOADS = ("verify-large", "classify-roundtrip", "census", "small-n")

VERIFY_SIZES = (5, 12, 16)
CLASSIFY_SIZES = (5, 16, 24)
SMALL_N_CALLS = 40

# |T_N| for N = 1..5, the shape-multiset counts of the paper.
TRANSVERSAL_COUNTS = {1: 1, 2: 4, 3: 13, 4: 46, 5: 154}

# Fibre census at p = 7 and 11, one row per coarse orbit representative:
# (solutions, matches_family). Frozen from the seed implementation; the
# nonempty/empty split agrees with the paper's orbit table.
CENSUS = {
    7: {
        "0,0,0": (6, True), "0,0,/": (0, None), "0,0,+": (0, None),
        "0,/,/": (216, True), "0,/,+": (0, None), "0,+,+": (54, True),
        "0,+,-": (0, None), "/,/,/": (46656, True), "/,/,+": (1944, True),
        "/,+,+": (0, None), "/,+,-": (0, None), "+,+,+": (102, True),
        "+,-,+": (0, None),
    },
    11: {
        "0,0,0": (10, True), "0,0,/": (0, None), "0,0,+": (0, None),
        "0,/,/": (1000, True), "0,/,+": (0, None), "0,+,+": (170, True),
        "0,+,-": (0, None), "/,/,/": (1000000, True), "/,/,+": (17000, True),
        "/,+,+": (0, None), "/,+,-": (0, None), "+,+,+": (330, True),
        "+,-,+": (0, None),
    },
}
CENSUS_FULL_PRIME = 7
CENSUS_TYPE_PRIME = 11
# The p = 11 all-slash fibre alone is 1,000,000 of the 1,261,340 vectors of
# the full p = 11 report; it is left out of the timed loop (see README).
CENSUS_SKIPPED = ("/,/,/",)


@dataclass(frozen=True)
class Op:
    """One CLI call: `kind` groups calls for reporting, `check` returns an
    error message or None."""

    name: str
    kind: str
    argv: tuple
    check: Callable[[int, str, str], str | None]


def canonical(obj):
    """The CLI's wire format: sorted keys, compact, ASCII."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


# ---------------------------------------------------------------- inputs


def random_config(rng, n):
    """A configuration in the form `classify` returns: nations of 1..3
    letters drawn from a shuffled alphabet, sorted by smallest letter, each
    cut into ordered counties whose first county carries the first part."""
    letters = list(range(1, n + 1))
    rng.shuffle(letters)
    nations = []
    while letters:
        k = min(rng.randint(1, 3), len(letters))
        vs, letters = letters[:k], letters[k:]
        cuts = sorted(rng.sample(range(1, k), rng.randint(0, k - 1)))
        counties = []
        for a, b in zip([0] + cuts, cuts + [k]):
            part = "first" if not counties else rng.choice(("first", "second"))
            counties.append(County(tuple(sorted(vs[a:b])), part))
        nations.append(Nation(tuple(counties)))
    nations.sort(key=lambda nat: min(nat.vertices))
    return Configuration(n, tuple(nations))


def random_germ(rng, n):
    config = random_config(rng, n)
    return recipe.Germ(config, recipe.generic_point(config, seed=rng.randrange(1 << 30)))


def corrupt(m, rng):
    """Bump one entry of one block so the braid relation provably fails.

    For the blocks a generic germ produces, each bump breaks one of the pair
    relations of that block's two letters (zero block: a*b*d; slash:
    a*a1*(a1 - 1); sign: a*c*d). Returns the matrix and the corrupted pair.
    """
    pair = rng.choice(matchcat.edge_pairs(m.n))
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
    return matchcat.MatchMatrix2(m.n, m.vertices, edges), pair


class _Files:
    """Writes numbered input files into one directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def write(self, stem, obj):
        self.count += 1
        path = os.path.join(self.workdir, f"{self.count:03d}-{stem}.json")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(canonical(obj) + "\n")
        return path


# ---------------------------------------------------------------- checks


def _traceback_free(check):
    def wrapped(rc, out, err):
        if "Traceback" in err:
            return "traceback on stderr"
        return check(rc, out, err)

    return wrapped


def expect_exact(want_rc, want_out):
    def check(rc, out, err):
        if rc != want_rc:
            return f"exit {rc}, want {want_rc}"
        if out != want_out:
            return f"stdout differs: {out[:120]!r}"
        return None

    return _traceback_free(check)


def expect_json(want_rc, judge):
    """Exit code and one JSON line on stdout, judged by `judge(obj)`."""

    def check(rc, out, err):
        if rc != want_rc:
            return f"exit {rc}, want {want_rc}: {out[:120]!r}"
        try:
            obj = json.loads(out)
        except ValueError:
            return f"stdout is not one JSON value: {out[:120]!r}"
        return judge(obj)

    return _traceback_free(check)


def _nonsolution_judge(pair):
    def judge(obj):
        if obj.get("solution") is not False or obj.get("method") != "all":
            return f"want a non-solution verdict, got {canonical(obj)[:120]}"
        ws = obj.get("witnesses", [])
        if not 1 <= len(ws) <= 16:
            return f"{len(ws)} witnesses"
        for w in ws:
            # A residual entry lives on the letters of its row word; only
            # restrictions holding both corrupted letters are not solutions.
            if not set(pair) <= set(w["row"]) or Fraction(w["value"]) == 0:
                return f"witness {w} does not involve the corrupted pair {pair}"
        return None

    return judge


def _signature_judge(n):
    def judge(obj):
        if obj.get("matches") is not True or obj["formula"] != obj["sampled"]:
            return f"signature mismatch: {canonical(obj)[:120]}"
        if sum(obj["formula"]) != n * n:
            return f"partition of {sum(obj['formula'])}, want {n * n}"
        return None

    return judge


def _census_judge(prime, types):
    want = [{"type": t, "prime": prime, "solutions": CENSUS[prime][t][0],
             "matches_family": CENSUS[prime][t][1]} for t in types]

    def judge(obj):
        got = obj if isinstance(obj, list) else [obj]
        if got != want:
            return f"census differs from the frozen table at p={prime}"
        return None

    return judge


def _enumerate_judge(n):
    def judge(obj):
        elements = obj["elements"]
        distinct = {canonical(e) for e in elements}
        if obj["count"] != TRANSVERSAL_COUNTS[n] or len(distinct) != obj["count"]:
            return f"T_{n}: count {obj['count']}, {len(distinct)} distinct"
        return None

    return judge


def orbit_size(config, flip):
    """Distinct relabellings, counted without the library: a nation is its
    county sets in county order, each marked by sharing the first county's
    part; flipping reverses the county order."""

    def nation_key(counties, perm):
        first = counties[0].part
        return tuple((frozenset(perm[v] for v in c.vertices), c.part == first) for c in counties)

    bases = [[nat.counties for nat in config.nations]]
    if flip:
        bases.append([tuple(reversed(nat.counties)) for nat in config.nations])
    seen = set()
    for base in bases:
        for images in itertools.permutations(range(1, config.n + 1)):
            perm = dict(zip(range(1, config.n + 1), images))
            seen.add(frozenset(nation_key(cs, perm) for cs in base))
    return len(seen)


def _orbit_judge(config, flip):
    size = orbit_size(config, flip)
    own = canonical(diagrams.configuration_to_json(config))

    def judge(obj):
        if obj["size"] != size or len(obj["elements"]) != size or obj["flip"] != flip:
            return f"orbit size {obj['size']}, want {size}"
        if own not in {canonical(e) for e in obj["elements"]}:
            return "orbit misses its own configuration"
        return None

    return judge


def _selftest_check(rc, out, err):
    if "Traceback" in err:
        return "traceback on stderr"
    lines = out.splitlines()
    if rc != 0 or len(lines) != 10 or not all(l.startswith("PASS ") for l in lines):
        return f"selftest exit {rc}: {out[-200:]!r}"
    return None


# ---------------------------------------------------------------- workloads


def _verify_ops(files, germ, tag, rng):
    """`verify --method all` on rec(germ) and on a corrupted copy."""
    m = recipe.rec(germ)
    bad, pair = corrupt(m, rng)
    good_path = files.write(f"{tag}-solution", matchcat.matrix_to_json(m))
    bad_path = files.write(f"{tag}-corrupt", matchcat.matrix_to_json(bad))
    ok_out = canonical({"method": "all", "solution": True, "witnesses": []}) + "\n"
    return [
        Op(f"verify {tag} solution", "verify-solution",
           ("verify", "--method", "all", "--matrix", good_path), expect_exact(0, ok_out)),
        Op(f"verify {tag} corrupt {pair}", "verify-nonsolution",
           ("verify", "--method", "all", "--matrix", bad_path),
           expect_json(1, _nonsolution_judge(pair))),
    ]


def _roundtrip_ops(files, germ, tag):
    """build, classify and `signature --germ` on one germ."""
    germ_json = canonical(recipe.germ_to_json(germ)) + "\n"
    m_json = canonical(matchcat.matrix_to_json(recipe.rec(germ))) + "\n"
    germ_path = files.write(f"{tag}-germ", recipe.germ_to_json(germ))
    m_path = files.write(f"{tag}-matrix", json.loads(m_json))
    n = germ.config.n
    return [
        Op(f"build {tag}", "build", ("build", "--germ", germ_path), expect_exact(0, m_json)),
        Op(f"classify {tag}", "classify", ("classify", "--matrix", m_path),
           expect_exact(0, germ_json)),
        Op(f"signature {tag}", "signature", ("signature", "--germ", germ_path),
           expect_json(0, _signature_judge(n))),
    ]


def _verify_large(files, rng):
    ops = []
    for n in VERIFY_SIZES:
        ops += _verify_ops(files, random_germ(rng, n), f"n={n}", rng)
    return ops


def _classify_roundtrip(files, rng):
    ops = []
    for n in CLASSIFY_SIZES:
        ops += _roundtrip_ops(files, random_germ(rng, n), f"n={n}")
    return ops


def _census(files, rng):
    p, q = CENSUS_FULL_PRIME, CENSUS_TYPE_PRIME
    ops = [Op(f"fibre p={p}", "fibre-report", ("fibre", "--prime", str(p)),
              expect_json(0, _census_judge(p, list(CENSUS[p]))))]
    for t in CENSUS[q]:
        if t not in CENSUS_SKIPPED:
            ops.append(Op(f"fibre p={q} {t}", "fibre-type", ("fibre", "--prime", str(q), "--type", t),
                          expect_json(0, _census_judge(q, [t]))))
    rng.shuffle(ops)
    return ops


SMALL_KINDS = ("enumerate", "build", "verify", "classify", "signature", "orbit")


def _small_call(files, rng, i):
    """Call `i` of the small-n mix. The command, its size n <= 5 and its
    variant depend on `i` only, so every seed runs the same mix; the seed
    draws the germs."""
    kind = SMALL_KINDS[i % len(SMALL_KINDS)]
    rnd = i // len(SMALL_KINDS)
    n = 3 + rnd % 3
    alt = rnd % 2 == 1
    germ = random_germ(rng, n)
    tag = f"#{i} n={n}"
    if kind == "enumerate":
        k = 1 + rnd % 5
        return Op(f"enumerate #{i} n={k}", kind, ("enumerate", "--n", str(k)),
                  expect_json(0, _enumerate_judge(k)))
    if kind == "build":
        return _roundtrip_ops(files, germ, tag)[0]
    if kind == "verify":
        return _verify_ops(files, germ, tag, rng)[alt]
    if kind == "classify":
        return _roundtrip_ops(files, germ, tag)[1]
    if kind == "signature":
        if not alt:
            return _roundtrip_ops(files, germ, tag)[2]
        path = files.write(f"{tag}-config", diagrams.configuration_to_json(germ.config))
        return Op(f"signature config {tag}", kind, ("signature", "--config", path),
                  expect_json(0, lambda obj: None if sum(obj["formula"]) == n * n
                              else "formula is not a partition of n^2"))
    path = files.write(f"{tag}-config", diagrams.configuration_to_json(germ.config))
    argv = ("orbit", "--config", path) + (("--flip",) if alt else ())
    return Op(f"orbit {tag}", kind, argv, expect_json(0, _orbit_judge(germ.config, alt)))


def _small_n(files, rng):
    ops = [Op("selftest quick", "selftest", ("selftest", "--level", "quick"), _selftest_check)]
    ops += [_small_call(files, rng, i) for i in range(SMALL_N_CALLS)]
    return ops


_BUILDERS = {
    "verify-large": _verify_large,
    "classify-roundtrip": _classify_roundtrip,
    "census": _census,
    "small-n": _small_n,
}


def build(name, seed, workdir):
    """Write the inputs of workload `name` for `seed` into `workdir` (which
    must exist and be empty) and return its operations in run order."""
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](_Files(workdir), rng)

