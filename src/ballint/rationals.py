"""Exact rational scalars: canonical strings and their mpf values.

Every symbolic coefficient in this package is an exact rational.  The
standard-library Fraction already guarantees the canonical form we need
(positive denominator, reduced to lowest terms, arbitrary-precision
integers), so it is used throughout; this module adds its value at the
ambient mpmath precision and the strict string format used by fixtures
and machine-readable output.
"""

from __future__ import annotations

import re
from fractions import Fraction

import mpmath as mp

# canonical literal: optional sign, no leading zeros, denominator >= 2 when present
_RAT_RE = re.compile(r"(-?)(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?\Z")


def to_mpf(q: Fraction) -> mp.mpf:
    """q at the ambient precision: the numerator as an mpf, divided once."""
    return mp.mpf(q.numerator) / q.denominator


def format_rational(q: Fraction) -> str:
    """Canonical string "p/q" with the denominator omitted when it is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational string, rejecting anything malformed.

    Accepted: an optionally negated integer with no leading zeros, or
    "p/q" with q >= 2 and gcd(|p|, q) = 1.  Anything else (whitespace,
    "+", "-0", "3/1", "2/4", "0/5", "1.5", empty) raises ValueError, so
    fixture files cannot silently carry mistranscribed entries.
    """
    m = _RAT_RE.match(text)
    if not m:
        raise ValueError(f"malformed rational {text!r}")
    sign, num, den = m.group(1), m.group(2), m.group(3)
    if sign and num == "0":
        raise ValueError(f"malformed rational {text!r}: negative zero")
    if den is None:
        return Fraction(int(sign + num))
    if num == "0":
        raise ValueError(f"malformed rational {text!r}: zero numerator with denominator")
    if den == "1":
        raise ValueError(f"malformed rational {text!r}: denominator 1 must be omitted")
    value = Fraction(int(sign + num), int(den))
    if str(value.numerator) != sign + num or str(value.denominator) != den:
        raise ValueError(f"malformed rational {text!r}: not in lowest terms")
    return value
