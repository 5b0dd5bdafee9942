"""Words, stacked-row shapes, and vertex configurations.

A *shape* is a stack of rows of boxes; the top row is unshaded, later rows
may be shaded. Shapes with k+1 boxes correspond bijectively to words of
length k over the letters {1,2,3}: reading the word left to right, letter 1
appends a box to the last row, letter 2 opens a new unshaded row, letter 3
opens a new shaded row, starting from a single unshaded box.

A *configuration* partitions the vertex set {1..n} into nations; each nation
is an ordered list of counties (sets of vertices), and each county carries a
part tag ("first" or "second") splitting the nation's counties into at most
two parts. A multiset of shapes with n boxes total determines the canonical
"book order" configuration: nations in word order of their shapes, vertices
numbered along rows, row order giving the county order, shading giving the
part tags.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import MalformedInputError, OrbitTooLargeError
from .scalars import parse_int, parse_list

Word = tuple  # of ints in {1,2,3}

PART_TAGS = ("first", "second")


class Row(NamedTuple):
    length: int
    shaded: bool


@dataclass(frozen=True)
class Shape:
    rows: tuple

    def __post_init__(self):
        if not self.rows:
            raise MalformedInputError("shape needs at least one row")
        for r in self.rows:
            if not isinstance(r, Row) or r.length < 1:
                raise MalformedInputError(f"bad row {r!r}")
        if self.rows[0].shaded:
            raise MalformedInputError("first row must be unshaded")

    @property
    def boxes(self):
        return sum(r.length for r in self.rows)


def shape_of_word(word) -> Shape:
    """Build the shape of a word over {1,2,3}; boxes = len(word) + 1."""
    rows = [[1, False]]
    for letter in word:
        if letter == 1:
            rows[-1][0] += 1
        elif letter == 2:
            rows.append([1, False])
        elif letter == 3:
            rows.append([1, True])
        else:
            raise MalformedInputError(f"bad letter {letter!r}")
    return Shape(tuple(Row(n, s) for n, s in rows))


def word_of_shape(shape) -> Word:
    """Inverse of shape_of_word."""
    out = []
    rows = list(shape.rows)
    while rows != [Row(1, False)]:
        last = rows[-1]
        if last.length > 1:
            out.append(1)
            rows[-1] = Row(last.length - 1, last.shaded)
        else:
            out.append(3 if last.shaded else 2)
            rows.pop()
            if not rows:
                raise MalformedInputError("first row must be unshaded")
    return tuple(reversed(out))


def word_key(word):
    """Sort key for the word order: longer words first, ties by dictionary order."""
    return (-len(word), word)


def shape_key(shape):
    return word_key(word_of_shape(shape))


def shapes_with_boxes(boxes) -> list:
    """All shapes with the given box count, in word order."""
    words = sorted(itertools.product((1, 2, 3), repeat=boxes - 1))
    return [shape_of_word(w) for w in words]


@dataclass(frozen=True)
class DiagramMultiset:
    """Multiset of shapes, stored as (shape, multiplicity) pairs in word order."""

    entries: tuple

    def __post_init__(self):
        keys = [shape_key(s) for s, _ in self.entries]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise MalformedInputError("entries must be distinct shapes in word order")
        if any(m < 1 for _, m in self.entries):
            raise MalformedInputError("multiplicities must be positive")

    @property
    def boxes(self):
        return sum(s.boxes * m for s, m in self.entries)

    def shapes(self):
        """The shapes with repetition, in word order."""
        return [s for s, m in self.entries for _ in range(m)]


def enumerate_multisets(n) -> list:
    """All shape multisets with n boxes total.

    Output order is descending lexicographic on the multiplicity vector
    indexed by all shapes with at most n boxes in word order, so the single
    row of n boxes comes first and n unshaded single boxes come last.
    """
    if n < 0:
        raise MalformedInputError("n must be nonnegative")
    pool = sorted(
        (s for k in range(1, n + 1) for s in shapes_with_boxes(k)), key=shape_key
    )
    out = []

    def go(start, budget, acc):
        if budget == 0:
            out.append(DiagramMultiset(tuple(acc)))
            return
        for idx in range(start, len(pool)):
            shape = pool[idx]
            if shape.boxes > budget:
                continue
            for mult in range(budget // shape.boxes, 0, -1):
                acc.append((shape, mult))
                go(idx + 1, budget - mult * shape.boxes, acc)
                acc.pop()

    go(0, n, [])
    return out


def euler_count(n) -> int:
    """Count of shape multisets with n boxes, via the Euler transform of 3^(M-1)."""
    if n < 0:
        raise MalformedInputError("n must be nonnegative")
    if n == 0:
        return 1
    c = [0] * (n + 1)
    for m in range(1, n + 1):
        c[m] = sum(d * 3 ** (d - 1) for d in range(1, m + 1) if m % d == 0)
    b = [1] + [0] * n
    for m in range(1, n + 1):
        b[m] = (c[m] + sum(c[k] * b[m - k] for k in range(1, m))) // m
    return b[n]


@dataclass(frozen=True)
class Permutation:
    """Bijection on {1..n}; images[i-1] is the image of i."""

    images: tuple

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise MalformedInputError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i - 1]

    def inverse(self):
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    def __mul__(self, other):
        """Composition: (self * other)(i) = self(other(i))."""
        return Permutation(tuple(self(other(i)) for i in range(1, self.n + 1)))

    @staticmethod
    def identity(n):
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def all(n) -> Iterator:
        for images in itertools.permutations(range(1, n + 1)):
            yield Permutation(images)


class County(NamedTuple):
    vertices: tuple  # sorted increasing
    part: str  # "first" | "second"


@dataclass(frozen=True)
class Nation:
    counties: tuple  # in county order

    @property
    def vertices(self):
        return tuple(v for c in self.counties for v in c.vertices)

    @property
    def size(self):
        return sum(len(c.vertices) for c in self.counties)


@dataclass(frozen=True)
class Configuration:
    n: int
    nations: tuple

    def __post_init__(self):
        seen = []
        for nat in self.nations:
            if not nat.counties:
                raise MalformedInputError("nation with no counties")
            parts = set()
            for c in nat.counties:
                if c.part not in PART_TAGS:
                    raise MalformedInputError(f"bad part tag {c.part!r}")
                if not c.vertices or tuple(sorted(c.vertices)) != tuple(c.vertices):
                    raise MalformedInputError(f"county vertices must be sorted, nonempty: {c}")
                parts.add(c.part)
                seen.extend(c.vertices)
            if len(parts) > 2:
                raise MalformedInputError("more than two parts in a nation")
        if sorted(seen) != list(range(1, self.n + 1)):
            raise MalformedInputError(f"counties must partition 1..{self.n}")

    def nation_of(self, v) -> int:
        """1-based index of the nation containing vertex v."""
        for i, nat in enumerate(self.nations, start=1):
            for c in nat.counties:
                if v in c.vertices:
                    return i
        raise MalformedInputError(f"no such vertex {v}")


def _sorted_nations(nations):
    return tuple(sorted(nations, key=lambda nat: min(nat.vertices)))


def shape_of_nation(nation) -> Shape:
    """County sizes in county order; rows shaded iff tagged unlike the first county."""
    first = nation.counties[0].part
    return Shape(tuple(Row(len(c.vertices), c.part != first) for c in nation.counties))


def book_order(multiset) -> Configuration:
    """Canonical configuration of a shape multiset.

    Nations follow the shapes in word order; vertices are numbered 1..n along
    the rows, shape by shape; rows become counties in order; shaded rows get
    the "second" part tag.
    """
    nations = []
    label = 1
    for shape in multiset.shapes():
        counties = []
        for row in shape.rows:
            vs = tuple(range(label, label + row.length))
            label += row.length
            counties.append(County(vs, "second" if row.shaded else "first"))
        nations.append(Nation(tuple(counties)))
    return Configuration(label - 1, tuple(nations))


def enumerate_transversal(n) -> list:
    """Book-order configurations of all shape multisets with n boxes."""
    return [book_order(f) for f in enumerate_multisets(n)]


def multiset_of_configuration(config) -> DiagramMultiset:
    shapes = sorted((shape_of_nation(nat) for nat in config.nations), key=shape_key)
    entries = [(s, len(list(g))) for s, g in itertools.groupby(shapes)]
    return DiagramMultiset(tuple(entries))


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
    nations.sort(key=lambda nat: (shape_key(shape_of_nation(nat)), min(nat.vertices)))
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
    the first county tagged "first". Intended for small n in tests.
    """
    if n > 8:
        raise OrbitTooLargeError(f"refusing exhaustive generation for n={n}")

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


def orbit(config, include_flip=False) -> list:
    """All distinct relabellings of config, optionally with the county-order flip."""
    if config.n > 8:
        raise OrbitTooLargeError(f"refusing orbit for n={config.n}")
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


def shape_to_json(shape):
    return {"rows": [{"len": r.length, "shaded": r.shaded} for r in shape.rows]}


def shape_from_json(data) -> Shape:
    try:
        rows = tuple(Row(int(r["len"]), bool(r["shaded"])) for r in data["rows"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad shape JSON: {exc}") from exc
    return Shape(rows)


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


def configuration_from_json(data) -> Configuration:
    try:
        nations = tuple(
            Nation(
                tuple(
                    County(
                        tuple(parse_int(v) for v in parse_list(c["vertices"], "vertices")),
                        str(c["part"]),
                    )
                    for c in parse_list(nat["counties"], "counties")
                )
            )
            for nat in parse_list(data["nations"], "nations")
        )
        return Configuration(parse_int(data["n"]), nations)
    except MalformedInputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad configuration JSON: {exc}") from exc
