"""Exact rational scalars and their interchange encoding.

Every number that can influence a certificate is a `fractions.Fraction`:
always in lowest terms, denominator positive, arbitrary precision. Floats
are admitted only at the boundary (sampled values in the simulator) and are
converted exactly via `Fraction(float)`.

Interchange encoding is ``str`` of the Fraction, ``"p/q"`` (or ``"p"`` for
integers);
the pseudo-values ``"-inf"``/``"inf"`` stand for unbounded interval ends
and are represented in memory as ``None``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, ``"p/q"`` strings and decimal strings to Fraction. A
    bool is refused, although Python counts it as an int: JSON `true` is
    not a number."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not a rational: {value!r}")


def parse_bound(text: RationalLike) -> Optional[Fraction]:
    """Parse an interval endpoint; ``"-inf"``/``"inf"`` map to None, and
    anything else is coerced by `rat`."""
    if isinstance(text, str) and text.strip().lower() in (
            "-inf", "inf", "+inf", "-oo", "oo", "+oo"):
        return None
    return rat(text)


def format_bound(value: Optional[Fraction], *, lower: bool) -> str:
    if value is None:
        return "-inf" if lower else "inf"
    return str(value)
