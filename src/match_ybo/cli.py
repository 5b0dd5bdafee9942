"""Command-line surface.

All machine output is canonical JSON on stdout: sorted keys, compact
separators, ASCII only, rationals as strings.  Exit codes: 0 success,
1 verification or assertion failure, 2 malformed input, 120 stdout could
not be written.

A module that only some commands run is imported inside those commands, so
each process compiles only what its command needs; importing this module
loads no more than `verify` runs.  `main` runs a command in this process;
`run` also ends the process, skipping the interpreter's teardown.

The command line is read from one table, `_COMMANDS`, by `parse`, with
argparse's grammar and messages but not argparse itself: its import, with
`gettext` and `locale`, and the building of a parser for every command cost
more than most commands' own work.  Unlike argparse, `parse` takes no prefix
of an option name for the option.
"""

from __future__ import annotations

import atexit
import json
import os
import re
import sys
from types import SimpleNamespace

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
        raise ValueError(f"invalid int value: {text!r}") from None


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

    if args.germ is not None:
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


# Each command: its function, its help and its options. Each option: its
# reader (`_int`, `str`, a tuple of choices, or None for a flag), its default,
# and its help. The default _REQUIRED makes an option required; _ONE_OF makes
# it one of a group of which exactly one is given, and None when it is not.
_REQUIRED, _ONE_OF = object(), object()
_COMMANDS = {
    "enumerate": (cmd_enumerate, "list the transversal T_N", {
        "--n": (_int, _REQUIRED, f"number of letters, 0..{ENUMERATE_MAX_N}"),
        "--format": (("json", "text"), "json", ""),
    }),
    "build": (cmd_build, "matrix of a germ (generic point when params omitted)", {
        "--germ": (str, _REQUIRED, "germ or configuration JSON file"),
        "--seed": (_int, 0, ""),
    }),
    "verify": (cmd_verify, "check the braid relation", {
        "--matrix": (str, _REQUIRED, ""),
        "--method": ((*_METHODS, "all"), "all", ""),
    }),
    "classify": (cmd_classify, "recover the germ of a solution", {
        "--matrix": (str, _REQUIRED, ""),
    }),
    "signature": (cmd_signature, "degeneracy partition, formula and sample", {
        "--germ": (str, _ONE_OF, ""),
        "--config": (str, _ONE_OF, ""),
    }),
    "orbit": (cmd_orbit, "relabelling orbit of a configuration", {
        "--config": (str, _REQUIRED,
                     "configuration JSON file, n <= 8: the scan visits all n! relabellings"),
        "--flip": (None, False, ""),
    }),
    "fibre": (cmd_fibre, "finite-field fibre census", {
        "--type": (str, None, 'e.g. "0,+,+" (omit for the full report); '
                   'a type starting with "-" needs the form --type=-,+,+'),
        "--prime": (_int, 11, f"an odd prime, 3..{FIBRE_MAX_PRIME}: "
                    "the all-slash fibre has (p-1)^6 vectors"),
    }),
    "selftest": (cmd_selftest, "run the acceptance checks", {
        "--level": (("quick", "full"), "quick", ""),
    }),
}


def _is_option(word):
    """argparse's rule: a word that starts with "-" reads as an option, unless
    it is "-", a negative number or a word with a space."""
    return (word[:1] == "-" and word != "-" and " " not in word
            and not re.match(r"^-\d+$|^-\d*\.\d+$", word))


def _choose(value, choices):
    if value not in choices:
        raise ValueError(f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")
    return value


def _value(reader, eq, value, words):
    """An option's value: `value` after "=", or else the next word. A
    ValueError holds argparse's message."""
    if reader is None:
        if eq:
            raise ValueError(f"ignored explicit argument {value!r}")
        return True
    if not eq:
        value = next(words, None)
        if value is None or _is_option(value):
            raise ValueError("expected one argument")
    return _choose(value, reader) if isinstance(reader, tuple) else reader(value)


def _print_help(command):
    """The help of `command`, or of the CLI when it is None, on stdout."""
    if command is None:
        usage = ["[-h]", f"{{{','.join(_COMMANDS)}}}", "..."]
        lines = ["", "charge-conserving Yang-Baxter operators from matching data", "", "commands:"]
        rows = [(name, text) for name, (_, text, _) in _COMMANDS.items()]
    else:
        usage, group, lines = [command, "[-h]"], [], ["", "options:"]
        rows = [("-h, --help", "show this help message and exit")]
        for name, (reader, default, text) in _COMMANDS[command][2].items():
            if isinstance(reader, tuple):
                name += " {" + ",".join(reader) + "}"
            elif reader is not None:
                name += " " + name[2:].upper()
            rows.append((name, text))
            if default is _ONE_OF:
                group.append(name)
            else:
                usage.append(name if default is _REQUIRED else f"[{name}]")
        usage += [f"({' | '.join(group)})"] if group else []
    width = max(len(left) for left, _ in rows)
    lines += [f"  {left:{width}}  {text}".rstrip() for left, text in rows]
    print(" ".join(["usage: match-ybo", *usage]), *lines, sep="\n")


def parse(argv):
    """The command function and its options, read from `argv` by argparse's
    rules without abbreviations: a value follows its option after a space or
    "=", and the last one given wins. A bad option is an error when it is
    read; after the last word, a missing option, then any stray word. `-h` or
    `--help` prints the help of the command read so far and raises
    SystemExit(0)."""
    prog, command, options, given, stray = "match-ybo", None, {}, [], []
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            _print_help(command)
            raise SystemExit(0)
        name, eq, value = word.partition("=")
        try:
            if name in ("-h", "--help"):
                name = "-h/--help"
                raise ValueError(f"ignored explicit argument {value!r}")
            if name in options:
                reader, default, _ = options[name]
                values[name[2:]] = _value(reader, eq, value, words)
                other = [o for o in given if o != name and options[o][1] is _ONE_OF]
                if default is _ONE_OF and other:
                    raise ValueError(f"not allowed with argument {other[0]}")
                given.append(name)
            elif word == "--":
                stray += [word, *words]
            elif command is None and not _is_option(word):
                name = "command"
                command = _choose(word, _COMMANDS)
                func, _, options = _COMMANDS[command]
                values = {o[2:]: None if d is _ONE_OF else d for o, (_, d, _) in options.items()}
                prog = f"match-ybo {command}"
            else:
                stray.append(word)
        except ValueError as exc:
            raise MalformedInputError(f"{prog}: argument {name}: {exc}") from None
    missing = [o for o, (_, default, _) in options.items() if default is _REQUIRED and o not in given]
    if command is None or missing:
        raise MalformedInputError(
            f"{prog}: the following arguments are required: {', '.join(missing or ['command'])}")
    group = [o for o, (_, default, _) in options.items() if default is _ONE_OF]
    if group and not set(group) & set(given):
        raise MalformedInputError(f"{prog}: one of the arguments {' '.join(group)} is required")
    if stray:
        raise MalformedInputError(f"match-ybo: unrecognized arguments: {' '.join(stray)}")
    return func, SimpleNamespace(**values)


def main(argv=None):
    """Run one command in this process and return its exit code. A failed
    write to stdout raises the OSError."""
    try:
        func, args = parse(sys.argv[1:] if argv is None else argv)
        return func(args)
    except MalformedInputError as exc:
        emit({"error": str(exc)})
        return 2
    except MatchYboError as exc:
        emit({"error": str(exc)})
        return 1


def run():
    """The process entry point of `match-ybo` and `python -m match_ybo.cli`.
    It flushes stdout, runs the atexit callbacks and ends at `os._exit` with
    `main`'s exit code, or 120, with nothing on stderr, when stdout could not
    be written (a closed pipe, a full disk, no fd 1 at start); `--help` leaves
    `main` by SystemExit and exits the usual way."""
    if sys.stdout is None:  # fd 1 was closed at start: run nothing
        rc = 120
    else:
        try:
            try:
                rc = main()
            finally:  # also when --help leaves main by SystemExit
                sys.stdout.flush()
        except OSError:
            rc = 120
    atexit._run_exitfuncs()
    sys.stderr.flush()
    os._exit(rc)


if __name__ == "__main__":
    run()
