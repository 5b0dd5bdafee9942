"""Exact rational scalars, their serialized form, and the input file reader.

Scalars are stdlib `fractions.Fraction` throughout. The wire format is a
string: an optionally signed integer "5", "-3", or a reduced ratio "1/3",
"-7/2". Denominators are always positive on output.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import MalformedInputError

_SCALAR_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")
_INT_RE = re.compile(r"-?[0-9]+")


def parse_int(value) -> int:
    """Parse an integer field: an int or a decimal string, never a bool or float."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, str) or not _INT_RE.fullmatch(value):
        raise MalformedInputError(f"bad integer {value!r}")
    return int(value)


def parse_scalar(text) -> Fraction:
    """Parse "p" or "p/q" (or an int, but not a bool) into a Fraction."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not (match := _SCALAR_RE.fullmatch(text)):
        raise MalformedInputError(f"bad scalar {text!r}")
    return Fraction(int(match[1]), int(match[2])) if match[2] else Fraction(int(match[1]))


def scalar(value) -> Fraction:
    """The leaf shape of a scalar; it calls `parse_scalar` through this module."""
    return parse_scalar(value)


def read(data, shape, path):
    """JSON `data` read with `shape`; `path` names `data` in error messages.

    A shape is a leaf parser; `[s]`, an array read as a tuple; `{key: s}`, an
    object with exactly these keys, read as the tuple of its values (a table
    left out reads as `{}`); or `(parse_key, s)`, a table read as a dict, no
    two keys parsing alike. The recursion follows the shape, never the data.
    """
    if not isinstance(shape, (list, dict, tuple)):
        try:
            return shape(data)
        except (MalformedInputError, ValueError) as exc:  # int() refuses overlong digit strings
            raise MalformedInputError(f"{path}: {exc}") from None
    kind, name = (list, "array") if isinstance(shape, list) else (dict, "object")
    if not isinstance(data, kind):
        raise MalformedInputError(f"{path}: expected a JSON {name}, got {type(data).__name__}")
    if kind is list:
        return tuple([read(v, shape[0], f"{path}[{k}]") for k, v in enumerate(data)])
    if isinstance(shape, tuple):
        out = {read(k, shape[0], f"{path}[{k!r}]"): read(v, shape[1], f"{path}[{k!r}]")
               for k, v in data.items()}
        if len(out) != len(data):
            raise MalformedInputError(f"{path}: two keys name the same entry")
        return out
    unknown, absent = data.keys() - shape.keys(), shape.keys() - data.keys()
    missing = {key for key in absent if not isinstance(shape[key], tuple)}
    if unknown or missing:
        which = "unknown" if unknown else "missing"
        raise MalformedInputError(f"{path}: {which} key {min(unknown or missing)!r}")
    return tuple([read(data[key], item, f"{path}.{key}") if key in data else {}
                  for key, item in shape.items()])


def format_scalar(x) -> str:
    """Canonical string for a Fraction: "p" when integral, else "p/q"."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rational_sqrt(x) -> Fraction | None:
    """Exact nonnegative square root of x, or None if no rational root exists."""
    x = Fraction(x)
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return Fraction(rn, rd)
