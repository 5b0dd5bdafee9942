"""Exact rational scalars and their serialized form.

Scalars are stdlib `fractions.Fraction` throughout. The wire format is a
string: an optionally signed integer "5", "-3", or a reduced ratio "1/3",
"-7/2". Denominators are always positive on output.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import MalformedInputError

_SCALAR_RE = re.compile(r"-?\d+(/[1-9]\d*)?")
_INT_RE = re.compile(r"-?\d+")


def parse_int(value) -> int:
    """Parse an integer field: an int or a decimal string, never a bool or float."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, str) or not _INT_RE.fullmatch(value):
        raise MalformedInputError(f"bad integer {value!r}")
    return int(value)


def parse_list(value, name) -> list:
    """A JSON array field; a string or object would be read item by item."""
    if not isinstance(value, list):
        raise MalformedInputError(f"{name} must be a JSON array, got {type(value).__name__}")
    return value


def parse_scalar(text) -> Fraction:
    """Parse "p" or "p/q" (or an int, but not a bool) into a Fraction."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _SCALAR_RE.fullmatch(text):
        raise MalformedInputError(f"bad scalar {text!r}")
    return Fraction(text)


def format_scalar(x) -> str:
    """Canonical string for a Fraction: "p" when integral, else "p/q"."""
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
