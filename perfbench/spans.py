"""Outside-in tracing of match_ybo: spans around calls into its modules.

Nothing in the library changes. `Tracer.installed()` replaces every binding
of each traced function -- module attributes, values of module-level dicts
and entries of module-level tuples, in every loaded `match_ybo` module -- by
a wrapper, and restores the originals on exit. Modules import each other's
functions with `from .x import y`, so patching only the defining module
would miss most calls.

A span is one call of a traced function. Spans are aggregated in memory by
(parent span name, span name): calls, total seconds and self seconds (the
span's duration minus its child spans). Counters are plain integers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# Span name -> (module, function). Span names are "<layer>.<what>", the layer
# being the match_ybo module the function lives in.
SPANS = {
    "scalars.parse": ("scalars", "parse_scalar"),
    "scalars.format": ("scalars", "format_scalar"),
    "diagrams.enumerate": ("diagrams", "enumerate_transversal"),
    "diagrams.enumerate_multisets": ("diagrams", "enumerate_multisets"),
    "diagrams.perm": ("diagrams", "configuration_perm"),
    "matchcat.compose": ("matchcat", "compose"),
    "matchcat.kron": ("matchcat", "kron"),
    "matchcat.sparse_sub": ("matchcat", "sparse_sub"),
    "matchcat.restrict": ("matchcat", "restrict"),
    "matchcat.json_in": ("matchcat", "matrix_from_json"),
    "matchcat.json_out": ("matchcat", "matrix_to_json"),
    "recipe.rec": ("recipe", "rec"),
    "ybe.direct": ("ybe", "ybe_residual_direct"),
    "ybe.constraints": ("ybe", "constraint_residuals"),
    "ybe.subsets": ("ybe", "is_solution_by_subsets"),
    "classify.classify": ("classify", "classify"),
    "classify.labels": ("classify", "edge_labels"),
    "classify.recover_nations": ("classify", "recover_nations"),
    "classify.recover_counties": ("classify", "recover_counties"),
    "classify.recover_order": ("classify", "recover_order"),
    "classify.recover_colours": ("classify", "recover_colours"),
    "signature.spectrum": ("signature", "spectrum"),
    "oracle.scan": ("oracle", "fibre_summary"),
    "cli.main": ("cli", "main"),
}
SELFTEST_CHECKS = (
    "counts", "rec-solutions", "route-agreement", "subset-reduction", "round-trip",
    "signature-tables", "orbit-table", "fibre-oracle", "no-minus", "symmetries",
)
LAYERS = ("scalars", "diagrams", "matchcat", "recipe", "ybe", "classify",
          "signature", "oracle", "selftest", "cli")
ROUTES = ("ybe.direct", "ybe.constraints", "ybe.subsets")


def library_module(name):
    """A match_ybo submodule. The package attribute `match_ybo.classify` is
    the function it re-exports, so modules are never reached as attributes;
    import_module returns the entry in sys.modules."""
    return importlib.import_module(f"match_ybo.{name}")


def _fibre_span(ftype, *rest):
    """Scans of the all-slash fibre get their own span name."""
    tokens = ftype.split(",") if isinstance(ftype, str) else ftype
    return "oracle.scan_allslash" if tuple(tokens) == ("/", "/", "/") else "oracle.scan_rest"


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, total, self
        self.counts = Counter()
        self._stack = []  # frames: [name, child seconds, per-frame notes]

    def parent(self, depth=1):
        return self._stack[-depth][0] if len(self._stack) >= depth else None

    def span(self, name, fn, after=None):
        """Wrap `fn` so each call records a span; `after(tracer, args,
        result)` runs once the span is closed, with its parent on top.
        `name` may be a function of the call's arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.parent()
            frame = [name(*args) if callable(name) else name, 0.0, {}]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                agg = self.spans[(parent, frame[0])]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _count_relation_images(self, fn):
        @functools.wraps(fn)
        def wrapper(poly, v):
            if self.parent() == "ybe.constraints":
                self.counts["ybe.relation_images"] += 1
            return fn(poly, v)

        return wrapper

    def _count_vectors(self, fn):
        @functools.wraps(fn)
        def wrapper(v, p):
            hit = fn(v, p)
            self.counts["oracle.vectors_tested"] += 1
            self.counts["oracle.hits"] += bool(hit)
            return hit

        return wrapper

    # -- hooks run after a span closes; the caller's frame is on top

    def _after_route(self, args, report):
        if self.parent() not in ROUTES:
            self.counts["ybe.witnesses"] += len(report.witnesses)

    def _after_kron(self, args, result):
        # Inside the direct route, F1 = S (x) id is the kron whose first
        # factor is the level-2 operator S.
        if self.parent() == "ybe.direct" and args[0].level == 2:
            self._stack[-1][2]["f1"] = result

    def _after_compose(self, args, result):
        # F1 F2 F1 is the product (F1 F2) F1: the compose whose right factor
        # is F1 and whose left factor is an earlier product of the same call.
        # Counted for direct-route calls made outside the subsets route.
        if self.parent() != "ybe.direct" or self.parent(2) == "ybe.subsets":
            return
        notes = self._stack[-1][2]
        products = notes.setdefault("products", [])
        if args[1] is notes.get("f1") and any(args[0] is p for p in products):
            self.counts["matchcat.level3_nnz"] += len(result.entries)
        products.append(result)

    def _wrappers(self):
        """original function -> wrapper, for everything traced."""
        hooks = {"matchcat.kron": Tracer._after_kron, "matchcat.compose": Tracer._after_compose}
        hooks.update({r: Tracer._after_route for r in ROUTES})
        table = {}
        names = {"oracle.scan": _fibre_span}
        for name, (module, attr) in SPANS.items():
            fn = getattr(library_module(module), attr)
            table[fn] = self.span(names.get(name, name), fn, hooks.get(name))
        selftest = library_module("selftest")
        for check_name, fn in selftest.ALL_CHECKS:
            table[fn] = self.span(f"selftest.{check_name}", fn)
        ybe, oracle = library_module("ybe"), library_module("oracle")
        table[ybe.eval_poly] = self._count_relation_images(ybe.eval_poly)
        table[oracle.check_vector] = self._count_vectors(oracle.check_vector)
        return table

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every traced function; undo on exit."""
        table = self._wrappers()

        def swap(value):
            if isinstance(value, tuple):
                new = tuple(swap(v) for v in value)
                return value if all(a is b for a, b in zip(new, value)) else new
            try:
                return table.get(value, value)
            except TypeError:  # unhashable
                return value

        undo = []
        for modname, mod in list(sys.modules.items()):
            if modname != "match_ybo" and not modname.startswith("match_ybo."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        if swap(item) is not item:
                            value[key] = swap(item)
                            undo.append((value.__setitem__, key, item))
                elif swap(value) is not value:
                    setattr(mod, attr, swap(value))
                    undo.append((functools.partial(setattr, mod), attr, value))
        try:
            yield self
        finally:
            for setter, key, value in reversed(undo):
                setter(key, value)

    # -- reading the aggregates

    def total(self, name, exclude_parents=()):
        """Seconds in spans called `name`, not counting those nested in a
        span of the same name or with a parent in `exclude_parents`."""
        return sum(agg[1] for (parent, n), agg in self.spans.items()
                   if n == name and parent != name and parent not in exclude_parents)

    def self_time(self, name, exclude_parents=()):
        return sum(agg[2] for (parent, n), agg in self.spans.items()
                   if n == name and parent not in exclude_parents)

    def calls(self, name, parent):
        return self.spans[(parent, name)][0] if (parent, name) in self.spans else 0

    def layer_self(self, layer):
        return sum(agg[2] for (parent, n), agg in self.spans.items()
                   if n.split(".")[0] == layer)
