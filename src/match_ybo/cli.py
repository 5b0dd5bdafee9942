"""Command-line surface.

All machine output is canonical JSON on stdout: sorted keys, compact
separators, ASCII only, rationals as strings.  Exit codes: 0 success,
1 verification or assertion failure, 2 malformed input, 120 stdout could
not be written.

A module that only some commands run is imported inside those commands, so
each process compiles only what its command needs; importing this module
loads no more than `verify` runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .classify import classify
from .errors import MatchYboError, MalformedInputError
from .matchcat import matrix_from_json, matrix_to_json
from .scalars import format_scalar, parse_int
from .ybe import constraint_residuals, is_solution_by_subsets, ybe_residual_direct


def emit(obj):
    print(json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True))


def _unique_keys(pairs):
    """A JSON object; a key given twice is an error, not a silent overwrite."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise MalformedInputError(f"repeated key {key!r}")
        out[key] = value
    return out


def _load(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:  # missing, a directory, not readable
        raise MalformedInputError(str(exc)) from exc
    except (ValueError, RecursionError) as exc:
        # not ASCII, not JSON, nested too deeply, or an integer literal int() refuses
        raise MalformedInputError(f"{path}: {exc}") from exc


def _int(text):
    """An integer option, read by the rule for integer fields in files: ASCII
    digits after an optional minus sign."""
    try:
        return parse_int(text)
    except (MalformedInputError, ValueError):  # int() refuses overlong digit strings
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _config_text(config):
    bits = []
    for nat in config.nations:
        cs = []
        for county in nat.counties:
            mark = "'" if county.part == "second" else ""
            cs.append("".join(str(v) for v in county.vertices) + mark)
        bits.append(" ".join(cs))
    return " | ".join(bits)


# T_N grows about 7x per step: N = 10 takes a minute and prints 21 MB.
ENUMERATE_MAX_N = 10
# The all-slash fibre alone has (p - 1)^6 vectors: the full report takes
# 11-21 s at p = 19 on a 2-CPU host as its load varies, and the next
# prime, 23, has (22/18)^6 = 3.3 times as many.
FIBRE_MAX_PRIME = 19


def cmd_enumerate(args):
    from .diagrams import configuration_to_json, enumerate_transversal

    if args.n > ENUMERATE_MAX_N:
        raise MalformedInputError(f"--n must be at most {ENUMERATE_MAX_N}, got {args.n}")
    configs = list(enumerate_transversal(args.n))
    if args.format == "text":
        for i, c in enumerate(configs, start=1):
            print(f"{i}: {_config_text(c)}")
        print(f"T_{args.n} = {len(configs)}")
    else:
        emit({
            "n": args.n,
            "count": len(configs),
            "elements": [configuration_to_json(c) for c in configs],
        })
    return 0


def _load_germ(path, seed):
    """A germ file, or a bare configuration (only `n` and `nations`) at a generic point."""
    from .diagrams import configuration_from_json
    from .recipe import Germ, generic_point, germ_from_json

    data = _load(path)
    if isinstance(data, dict) and data.keys() == {"n", "nations"}:
        config = configuration_from_json(data)
        return Germ(config, generic_point(config, seed=seed))
    return germ_from_json(data)


def cmd_build(args):
    from .recipe import rec

    germ = _load_germ(args.germ, args.seed)
    emit(matrix_to_json(rec(germ)))
    return 0


_METHODS = {
    "direct": ybe_residual_direct,
    "constraints": constraint_residuals,
    "subsets": is_solution_by_subsets,
}


def _witness_json(w, method):
    if method == "constraints":
        letters, perm, relation, value = w
        return {
            "letters": list(letters),
            "perm": list(perm),
            "relation": relation,
            "value": format_scalar(value),
        }
    row, col, value = w
    return {"row": list(row), "col": list(col), "value": format_scalar(value)}


def cmd_verify(args):
    m = matrix_from_json(_load(args.matrix))
    if args.method == "all":
        reports = [fn(m) for fn in _METHODS.values()]
        if len({r.zero for r in reports}) != 1:
            emit({"error": "methods disagree; this is a bug"})
            return 1
        rep = reports[0]
    else:
        rep = _METHODS[args.method](m)
    emit({
        "solution": rep.zero,
        "method": args.method,
        "witnesses": [_witness_json(w, args.method) for w in rep.witnesses],
    })
    return 0 if rep.zero else 1


def cmd_classify(args):
    from .recipe import germ_to_json

    m = matrix_from_json(_load(args.matrix))
    germ = classify(m)
    emit(germ_to_json(germ))
    return 0


def cmd_signature(args):
    from .diagrams import configuration_from_json
    from .recipe import germ_from_json
    from .signature import signature_check, signature_formula, signature_notation

    if args.germ:
        germ = germ_from_json(_load(args.germ))
        rep = signature_check(germ)
        emit({
            "formula": list(rep.formula),
            "sampled": list(rep.sampled) if rep.sampled is not None else None,
            "matches": rep.matches,
            "notation": signature_notation(germ.config),
        })
        return 0 if rep.matches else 1
    config = configuration_from_json(_load(args.config))
    emit({
        "formula": list(signature_formula(config)),
        "notation": signature_notation(config),
    })
    return 0


def cmd_orbit(args):
    from .diagrams import (
        canonical_structure_key,
        configuration_from_json,
        configuration_to_json,
        orbit,
    )

    config = configuration_from_json(_load(args.config))
    elements = sorted(orbit(config, include_flip=args.flip), key=canonical_structure_key)
    emit({
        "size": len(elements),
        "flip": args.flip,
        "elements": [configuration_to_json(c) for c in elements],
    })
    return 0


def cmd_fibre(args):
    from .oracle import fibre_report, fibre_summary

    if args.prime > FIBRE_MAX_PRIME:
        raise MalformedInputError(f"--prime must be at most {FIBRE_MAX_PRIME}, got {args.prime}")
    if args.type is not None:
        emit(fibre_summary(args.type, args.prime))
    else:
        emit(fibre_report(args.prime))
    return 0


def cmd_selftest(args):
    from .selftest import run_selftest

    results = run_selftest(args.level)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status} {r.name}: {r.detail} ({r.seconds:.1f}s)")
    return 0 if all(r.ok for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: a JSON error on stdout and exit 2.
    Help that cannot be written raises, where argparse would swallow the
    OSError.  Subparsers are built from the same class."""

    def error(self, message):
        raise MalformedInputError(f"{self.prog}: {message}")

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser():
    parser = _Parser(
        prog="match-ybo",
        description="charge-conserving Yang-Baxter operators from matching data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the transversal T_N")
    p.add_argument("--n", type=_int, required=True,
                   help=f"number of letters, 0..{ENUMERATE_MAX_N}")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("build", help="matrix of a germ (generic point when params omitted)")
    p.add_argument("--germ", required=True, help="germ or configuration JSON file")
    p.add_argument("--seed", type=_int, default=0)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="check the braid relation")
    p.add_argument("--matrix", required=True)
    p.add_argument("--method", choices=("direct", "constraints", "subsets", "all"), default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="recover the germ of a solution")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("signature", help="degeneracy partition, formula and sample")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--germ")
    group.add_argument("--config")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("orbit", help="relabelling orbit of a configuration")
    p.add_argument("--config", required=True,
                   help="configuration JSON file, n <= 8: the scan visits all n! relabellings")
    p.add_argument("--flip", action="store_true")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("fibre", help="finite-field fibre census")
    p.add_argument("--type", default=None, help='e.g. "0,+,+" (omit for the full report); '
                   'a type starting with "-" needs the form --type=-,+,+')
    p.add_argument("--prime", type=_int, default=11,
                   help=f"an odd prime, 3..{FIBRE_MAX_PRIME}: the all-slash fibre has (p-1)^6 vectors")
    p.set_defaults(func=cmd_fibre)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    """Run one command in this process and return its exit code. A failed
    write to stdout raises the OSError."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except MalformedInputError as exc:
        emit({"error": str(exc)})
        return 2
    except MatchYboError as exc:
        emit({"error": str(exc)})
        return 1


def run():
    """The process entry point of `match-ybo` and `python -m match_ybo.cli`:
    `main`'s exit code, or 120, with nothing on stderr, when stdout could not
    be written (a closed pipe, a full disk).

    Freezing the heap before returning lets the interpreter's exit-time
    garbage collections skip every object the command left behind; the
    operating system reclaims them with the process."""
    try:
        try:
            rc = main()
        finally:  # also when --help leaves main by SystemExit
            sys.stdout.flush()
    except OSError:
        # Python flushes stdout again at exit; what is left goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        rc = 120
    gc.freeze()
    return rc


if __name__ == "__main__":
    sys.exit(run())
