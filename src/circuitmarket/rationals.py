"""Exact rational parsing/formatting for the JSON and CLI surfaces.

All market arithmetic is exact: :class:`fractions.Fraction` values, or
(numerator, denominator) integer pairs where a loop would otherwise build
one Fraction per number.  On the wire,
rationals are strings of the form ``"num/den"`` or ``"int"`` so that
round-trips are bit-exact.  Decimal notation is rejected on purpose:
thresholds such as 1/11 have no finite decimal representation and silent
rounding would corrupt boundary comparisons.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_RATIONAL_RE = re.compile(r"^(-?[0-9]+)(?:/([1-9][0-9]*))?$")


class RationalFormatError(ValueError):
    """Raised when a string is not an exact `p/q` or integer rational."""


def parse_pair(text: str) -> tuple[int, int]:
    """The integers (p, q), q > 0, of ``"p/q"`` or ``"n"`` (q = 1), as
    written and not reduced.  Rejects decimals."""
    if not isinstance(text, str):
        raise RationalFormatError(f"expected rational string, got {text!r}")
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise RationalFormatError(
            f"not an exact rational (use 'p/q' or an integer): {text!r}"
        )
    try:
        return int(m.group(1)), int(m.group(2)) if m.group(2) else 1
    except ValueError as exc:  # beyond int()'s digit limit
        raise RationalFormatError(
            f"rational too long to parse ({len(text)} characters)"
        ) from exc


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"n"`` into a Fraction. Rejects decimals."""
    num, den = parse_pair(text)
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Format a Fraction as ``"p/q"`` (or ``"n"`` for integers)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_pair(n: int, d: int) -> str:
    """format_rational of n/d, d > 0, from the integer pair: one gcd and no
    Fraction."""
    g = gcd(n, d)
    if g == d:
        return str(n // g)
    return f"{n // g}/{d // g}"
