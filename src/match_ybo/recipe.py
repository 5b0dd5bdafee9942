"""Germs (configuration + parameters) and the operator they build.

A parameter point attaches a nonzero scalar mu to every unordered pair of
nations, a nonzero alpha to every nation, and a nonzero beta to every nation
with two or more counties or a "second" county (with alpha + beta != 0). The
operator of a germ:

  * vertices in a "first"-tagged county carry alpha, others beta;
  * edges between nations i < j get the block mu * [[0,1],[1,0]];
  * edges inside a county get x * identity, x the county's vertex scalar;
  * edges between counties of one nation get [[alpha+beta, -alpha*beta],[1,0]]
    when the county order agrees with the natural vertex order, and the
    antidiagonal-flipped, lower-1 form [[0, -alpha*beta],[1, alpha+beta]]
    when it disagrees.

A pair of nations may instead carry a `mu_sq` entry holding the product b*c
directly; its edges then get the lower-1 block [[0, product],[1, 0]]. This is
how classification stores slash data whose product has no rational square
root.
"""

from __future__ import annotations

import random
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .diagrams import CONFIGURATION, Configuration, configuration_of, configuration_to_json
from .errors import MalformedInputError
from .matchcat import EdgeBlock, MatchMatrix2, edge_pairs
from .scalars import format_scalar, parse_int, read, scalar


class ParamPoint(NamedTuple):
    """The parameter tables: mu and mu_sq keyed by nation pair (i, j), i < j,
    alpha and beta by nation.  A table left out is empty and read-only."""

    mu: dict = MappingProxyType({})
    alpha: dict = MappingProxyType({})
    beta: dict = MappingProxyType({})
    mu_sq: dict = MappingProxyType({})


def _needs_beta(nation):
    """Two or more counties, or a county tagged "second"."""
    return len(nation.counties) >= 2 or any(c.part == "second" for c in nation.counties)


class Germ(NamedTuple):
    config: Configuration
    params: ParamPoint


def generic_point(config, seed=0) -> ParamPoint:
    """Deterministic generic parameters for a configuration.

    Values are distinct positive integers, so every intended eigenvalue
    coincidence of the germ's operator is avoided: the alphas, betas, +mu and
    -mu values are pairwise distinct and all sums alpha + beta are nonzero.
    """
    rng = random.Random(seed)
    m = len(config.nations)
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    multi = [i for i, nat in enumerate(config.nations, start=1) if _needs_beta(nat)]
    k = len(pairs) + m + len(multi)
    values = [Fraction(v) for v in rng.sample(range(1, 8 * k + 8), k)]
    mu = {p: values.pop() for p in pairs}
    alpha = {i: values.pop() for i in range(1, m + 1)}
    beta = {i: values.pop() for i in multi}
    return ParamPoint(mu=mu, alpha=alpha, beta=beta)


def rec(germ) -> MatchMatrix2:
    """The charge-conserving operator of a germ."""
    config, pp = germ.config, germ.params
    scalar = {}
    position = {}
    for ni, nat in enumerate(config.nations, start=1):
        for ci, county in enumerate(nat.counties, start=1):
            val = pp.alpha[ni] if county.part == "first" else pp.beta[ni]
            for v in county.vertices:
                scalar[v] = val
                position[v] = (ni, ci)
    edges = {}
    for u, v in edge_pairs(config.n):
        (nu, cu), (nv, cv) = position[u], position[v]
        if nu != nv:
            key = (min(nu, nv), max(nu, nv))
            if key in pp.mu:
                mu = pp.mu[key]
                edges[(u, v)] = EdgeBlock(Fraction(0), mu, mu, Fraction(0))
            else:
                prod = pp.mu_sq[key]
                edges[(u, v)] = EdgeBlock(Fraction(0), prod, Fraction(1), Fraction(0))
        elif cu == cv:
            x = scalar[u]
            edges[(u, v)] = EdgeBlock(x, Fraction(0), Fraction(0), x)
        else:
            t = pp.alpha[nu] + pp.beta[nu]
            prod = -pp.alpha[nu] * pp.beta[nu]
            if cu < cv:
                edges[(u, v)] = EdgeBlock(t, prod, Fraction(1), Fraction(0))
            else:
                edges[(u, v)] = EdgeBlock(Fraction(0), prod, Fraction(1), t)
    vertices = tuple(scalar[v] for v in range(1, config.n + 1))
    return MatchMatrix2(config.n, vertices, edges)


def germ_to_json(germ):
    data = configuration_to_json(germ.config)
    pp = germ.params
    data["mu"] = {f"{i},{j}": format_scalar(v) for (i, j), v in pp.mu.items()}
    data["alpha"] = {str(i): format_scalar(v) for i, v in pp.alpha.items()}
    data["beta"] = {str(i): format_scalar(v) for i, v in pp.beta.items()}
    if pp.mu_sq:
        data["mu_sq"] = {f"{i},{j}": format_scalar(v) for (i, j), v in pp.mu_sq.items()}
    return data


def _parse_pair_key(key):
    i, _, j = key.partition(",")
    return (parse_int(i), parse_int(j))


GERM = {  # the tables in ParamPoint field order
    **CONFIGURATION,
    "mu": (_parse_pair_key, scalar),
    "alpha": (parse_int, scalar),
    "beta": (parse_int, scalar),
    "mu_sq": (_parse_pair_key, scalar),
}


def germ_from_json(data) -> Germ:
    """The one check of a germ: nothing built from a checked one is checked again."""
    n, nations, *tables = read(data, GERM, "germ")
    config, params = configuration_of(n, nations), ParamPoint(*tables)
    for name, table in zip(params._fields, params):
        for key, v in table.items():
            if v == 0:
                raise MalformedInputError(f"{name}[{key}] must be nonzero")
    if set(params.mu) & set(params.mu_sq):
        raise MalformedInputError("mu and mu_sq keys must be disjoint")
    for i, b in params.beta.items():
        a = params.alpha.get(i)
        if a is not None and a + b == 0:
            raise MalformedInputError(f"alpha[{i}] + beta[{i}] must be nonzero")
    m = len(config.nations)
    if set(params.alpha) != set(range(1, m + 1)):
        raise MalformedInputError("alpha must cover every nation")
    multi = {i for i, nat in enumerate(config.nations, start=1) if _needs_beta(nat)}
    if set(params.beta) != multi:
        raise MalformedInputError(
            "beta must cover exactly the nations with >= 2 counties or a second county")
    pairs = {(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)}
    if set(params.mu) | set(params.mu_sq) != pairs:
        raise MalformedInputError("mu must cover every nation pair")
    return Germ(config, params)
