"""Exact rational scalars and their interchange encoding.

Every number that can influence a certificate is a `fractions.Fraction`:
always in lowest terms, denominator positive, arbitrary precision. Floats
are admitted only at the boundary (sampled values in the simulator) and are
converted exactly via `Fraction(float)`.

Interchange encoding is ``str`` of the Fraction, ``"p/q"`` (or ``"p"`` for
integers);
the pseudo-values ``"-inf"``/``"inf"`` stand for an unbounded lower and
upper interval end, each for its own end only, and are represented in
memory as ``None``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Optional, Union

RationalLike = Union[Fraction, int, str]

# a decimal string as `Fraction` reads it: sign, mantissa, exponent
_DECIMAL = re.compile(r"[-+]?([\d_]*)(?:\.([\d_]*))?(?:e([-+]?[\d_]+))?", re.I)

# the spellings of an unbounded interval end, by the end they may stand for
_INFINITE = {True: ("-inf", "-oo"), False: ("inf", "+inf", "oo", "+oo")}


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, ``"p/q"`` strings and decimal strings to Fraction. A
    bool is refused, although Python counts it as an int: JSON `true` is
    not a number. So is a decimal string whose numerator or denominator
    could have more digits than `sys.get_int_max_str_digits()` (0 is no
    limit), its mantissa digits plus the magnitude of its exponent, before
    `Fraction` builds a power of ten that large. An integer or ``"p/q"``
    in decimal digits is read by `int` alone; anything else, and such a
    string that `int` refuses (past the digit limit, or q = 0), by
    `Fraction` after that check, so every value and message is its own."""
    if isinstance(value, str):
        text = value.strip()
        p, slash, q = text.partition("/")
        if p.removeprefix("-").isdecimal() and (q.isdecimal() or not slash):
            try:
                return Fraction(int(p), int(q)) if slash else Fraction(int(p))
            except (ValueError, ZeroDivisionError):
                pass
        m, limit = _DECIMAL.fullmatch(text), sys.get_int_max_str_digits()
        if m and limit:
            digits = len(f"{m[1]}{m[2] or ''}".replace("_", "")) + abs(int(m[3] or 0))
            if digits > limit:
                raise ValueError(f"its numerator or denominator could have {digits} "
                                 f"digits, more than the limit of {limit}")
        return Fraction(text)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"not a rational: {value!r}")


def parse_bound(text: RationalLike, *, lower: bool) -> Optional[Fraction]:
    """Parse the lower or upper end of an interval: an infinity of the
    end's own sign maps to None, one of the other sign is refused, and
    anything else is coerced by `rat`."""
    if isinstance(text, str):
        spelling = text.strip().lower()
        if spelling in _INFINITE[lower]:
            return None
        if spelling in _INFINITE[not lower]:
            raise ValueError(f"{'a lower' if lower else 'an upper'} end cannot be "
                             f"{'plus' if lower else 'minus'} infinity")
    return rat(text)


def format_bound(value: Optional[Fraction], *, lower: bool) -> str:
    if value is None:
        return "-inf" if lower else "inf"
    return str(value)
