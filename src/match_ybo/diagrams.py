"""Words and vertex configurations.

A *shape* is a stack of rows of boxes; the top row is unshaded, later rows
may be shaded. A shape is stored as its word: a shape with k+1 boxes is a
word of length k over the letters {1,2,3}. Reading the word left to right
from a single unshaded box, letter 1 appends a box to the last row, letter 2
opens a new unshaded row and letter 3 opens a new shaded row.

A *configuration* partitions the vertex set {1..n} into nations; each nation
is an ordered list of counties (sets of vertices), and each county carries a
part tag ("first" or "second") splitting the nation's counties into at most
two parts. A multiset of words with n boxes total determines the canonical
"book order" configuration: nations in word order, vertices numbered along
rows, row order giving the county order, shading giving the part tags.

Relabellings are matchcat.Permutation values: the class lives in matchcat,
beside act_perm, which applies it to operators.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import MalformedInputError
from .matchcat import Permutation
from .scalars import parse_int, read

PART_TAGS = ("first", "second")


def word_key(word):
    """Sort key for the word order: longer words first, ties by dictionary order."""
    return (-len(word), word)


def enumerate_multisets(n) -> list:
    """All shape multisets with n boxes total.

    Each is a tuple of (word, multiplicity) pairs with distinct words in word
    order. Output order is descending lexicographic on the multiplicity vector
    indexed by all words with at most n boxes in word order, so the single
    row of n boxes comes first and n unshaded single boxes come last.
    """
    if n < 0:
        raise MalformedInputError("n must be nonnegative")
    pool = sorted(
        (w for k in range(n) for w in itertools.product((1, 2, 3), repeat=k)), key=word_key
    )
    out = []

    def go(start, budget, acc):
        if budget == 0:
            out.append(tuple(acc))
            return
        for idx in range(start, len(pool)):
            word = pool[idx]
            boxes = len(word) + 1
            if boxes > budget:
                continue
            for mult in range(budget // boxes, 0, -1):
                acc.append((word, mult))
                go(idx + 1, budget - mult * boxes, acc)
                acc.pop()

    go(0, n, [])
    return out


def euler_count(n) -> int:
    """Count of shape multisets with n boxes, via the Euler transform of 3^(M-1)."""
    c = [0] * (n + 1)
    for m in range(1, n + 1):
        c[m] = sum(d * 3 ** (d - 1) for d in range(1, m + 1) if m % d == 0)
    b = [1] + [0] * n
    for m in range(1, n + 1):
        b[m] = sum(c[k] * b[m - k] for k in range(1, m + 1)) // m
    return b[n]


class County(NamedTuple):
    vertices: tuple  # sorted increasing
    part: str  # "first" | "second"


class Nation(NamedTuple):
    counties: tuple  # in county order

    @property
    def vertices(self):
        return tuple(v for c in self.counties for v in c.vertices)

    @property
    def size(self):
        return sum(len(c.vertices) for c in self.counties)


class Configuration(NamedTuple):
    n: int
    nations: tuple  # of Nation


def _sorted_nations(nations):
    return tuple(sorted(nations, key=lambda nat: min(nat.vertices)))


def word_of_nation(nation):
    """The word of a nation's shape: one row per county in county order, shaded
    iff the county is tagged unlike the first."""
    first = nation.counties[0].part
    word = []
    for c in nation.counties:
        word.append(2 if c.part == first else 3)
        word.extend((1,) * (len(c.vertices) - 1))
    return tuple(word[1:])


_OPENED_PART = {2: "first", 3: "second"}


def book_order(multiset) -> Configuration:
    """Canonical configuration of a shape multiset.

    Nations follow the words in word order; vertices are numbered 1..n along
    each word, word by word. Letter 1 adds the next vertex to the current
    county, 2 opens a "first" county and 3 opens a "second" one.
    """
    nations = []
    label = 1
    for word, mult in multiset:
        for _ in range(mult):
            counties = []
            for letter in (2, *word):  # the first box opens a "first" county
                if letter == 1:
                    counties[-1][0].append(label)
                else:
                    counties.append(([label], _OPENED_PART[letter]))
                label += 1
            nations.append(Nation(tuple(County(tuple(vs), part) for vs, part in counties)))
    return Configuration(label - 1, tuple(nations))


def enumerate_transversal(n) -> list:
    """Book-order configurations of all shape multisets with n boxes."""
    return [book_order(f) for f in enumerate_multisets(n)]


def configuration_perm(config, perm) -> Configuration:
    """Relabel vertices by perm; county order and part tags ride along.

    The nation list is re-sorted by smallest vertex label so equal
    configurations compare equal structurally.
    """
    nations = []
    for nat in config.nations:
        counties = tuple(
            County(tuple(sorted(perm(v) for v in c.vertices)), c.part) for c in nat.counties
        )
        nations.append(Nation(counties))
    return Configuration(config.n, _sorted_nations(nations))


def flip_configuration(config) -> Configuration:
    """Reverse the county order within each nation; memberships and tags unchanged."""
    nations = tuple(Nation(tuple(reversed(nat.counties))) for nat in config.nations)
    return Configuration(config.n, nations)


def _normalize_tags(nation) -> Nation:
    if nation.counties[0].part == "first":
        return nation
    swap = {"first": "second", "second": "first"}
    return Nation(tuple(County(c.vertices, swap[c.part]) for c in nation.counties))


def canonicalize(config):
    """Book-order representative of config's relabelling orbit, with a witness.

    Returns (canonical, perm) with configuration_perm(config, perm) equal to
    the canonical form. Part tag names are first normalized per nation so the
    first county is tagged "first" (tag names are not orbit data). Book-order
    configurations are fixed points, and any two relabellings of the same
    configuration canonicalize identically.
    """
    nations = [_normalize_tags(nat) for nat in config.nations]
    nations.sort(key=lambda nat: (word_key(word_of_nation(nat)), min(nat.vertices)))
    images = [0] * config.n
    label = 1
    out_nations = []
    for nat in nations:
        counties = []
        for c in nat.counties:
            vs = []
            for v in sorted(c.vertices):
                images[v - 1] = label
                vs.append(label)
                label += 1
            counties.append(County(tuple(vs), c.part))
        out_nations.append(Nation(tuple(counties)))
    canonical = Configuration(config.n, tuple(out_nations))
    return canonical, Permutation(tuple(images))


def orbit(config, include_flip=False) -> list:
    """All distinct relabellings of config, optionally with the county-order flip."""
    if config.n > 8:
        raise MalformedInputError(f"orbit needs n at most 8, got {config.n}")
    base = [config, flip_configuration(config)] if include_flip else [config]
    seen = {}
    for c in base:
        for perm in Permutation.all(config.n):
            img = configuration_perm(c, perm)
            key = canonical_structure_key(img)
            seen.setdefault(key, img)
    return list(seen.values())


def canonical_structure_key(config):
    """Hashable key identifying a configuration up to part tag naming."""
    nations = []
    for nat in config.nations:
        nat = _normalize_tags(nat)
        nations.append(tuple((c.vertices, c.part) for c in nat.counties))
    return tuple(sorted(nations))


def configuration_to_json(config):
    return {
        "n": config.n,
        "nations": [
            {
                "counties": [
                    {"vertices": list(c.vertices), "part": c.part} for c in nat.counties
                ]
            }
            for nat in config.nations
        ],
    }


CONFIGURATION = {
    "n": parse_int,
    # `str` passes a part tag on, and configuration_of rejects all but PART_TAGS
    "nations": [{"counties": [{"vertices": [parse_int], "part": str}]}],
}


def configuration_of(n, nations) -> Configuration:
    """The one check of a configuration, on `n` and `nations` as `read` gives
    them: nothing built from a checked one is checked again."""
    if n < 0:
        raise MalformedInputError(f"n must be nonnegative, got {n}")
    config = Configuration(n, tuple(Nation(tuple(County(*c) for c in cs)) for (cs,) in nations))
    seen = []
    for nat in config.nations:
        if not nat.counties:
            raise MalformedInputError("nation with no counties")
        for c in nat.counties:
            if c.part not in PART_TAGS:
                raise MalformedInputError(f"bad part tag {c.part!r}")
            if not c.vertices or list(c.vertices) != sorted(c.vertices):
                raise MalformedInputError(f"county vertices must be sorted, nonempty: {c}")
            seen.extend(c.vertices)
    # the length first: a huge n is refused before 1..n is built
    if len(seen) != n or sorted(seen) != list(range(1, n + 1)):
        raise MalformedInputError(f"counties must partition 1..{n}")
    return config


def configuration_from_json(data) -> Configuration:
    return configuration_of(*read(data, CONFIGURATION, "configuration"))
