"""Exact values in one place: rational parsing and rendering for the JSON, CSV,
and CLI layers, the one [0, 1] check every probability goes through, and the
one scaling of exact values to integers over their least common denominator."""

from __future__ import annotations

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Iterable

# Characters of an unreadable value quoted back in its error message.
_SHOWN = 40
# The exponent of a decimal like 2.5e-3; `Fraction` checks the rest.
_EXPONENT = re.compile(r"[-+]?[\d_]*\.?[\d_]*[eE]([-+]?[\d_]+)")


def parse_rational(value: str | int | Fraction) -> Fraction:
    """Parse ``"p/q"``, integer, or finite-decimal notation into a Fraction.

    Decimal strings convert exactly ("0.25" -> 1/4, "1.1" -> 11/10).  Binary
    floats are rejected: they do not round-trip decimal notation, so callers
    must hand over the original text (json loading uses parse_float for this).
    Booleans are rejected too, though Python counts them as integers.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"refusing boolean {value!r}; pass a number like 1 or '1/4'")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(f"refusing inexact float {value!r}; pass a string like '1/4' or '0.25'")
    text = str(value).strip()
    exponent = _EXPONENT.fullmatch(text)
    limit = sys.get_int_max_str_digits()
    try:
        # Python reads no integer of more than `limit` digits (sys.int_max_str_digits),
        # so no exponent beyond it either: 1e-5000 is 0.000...1 written short.
        if exponent and limit and abs(int(exponent[1])) > limit:
            raise ValueError(f"its exponent exceeds the limit ({limit} digits) for integer string conversion")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        if len(text) > _SHOWN or exponent:
            # Quote the start of a long value only; the cause says why.
            shown = repr(text) if len(text) <= _SHOWN else f"the {len(text)}-character value {text[:_SHOWN]!r}..."
            raise ValueError(f"cannot read {shown}: {exc}") from exc
        raise ValueError(f"not a rational number: {value!r}") from exc


def parse_probability(value: str | int | Fraction, name: str) -> Fraction:
    """`value` read exactly by `parse_rational` and refused outside [0, 1]; each error names `name`."""
    try:
        p = parse_rational(value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    # A Fraction's denominator is positive, so p lies in [0, 1] exactly when 0 <= numerator <= denominator.
    if not 0 <= p.numerator <= p.denominator:
        raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return p


def on_one_scale(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Exact values as integer numerators over their least common denominator D,
    so ``Fraction(n, D)`` equals the value each numerator n stands for."""
    values = [*values]
    denominator = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (denominator // v.denominator) for v in values], denominator


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``p/q`` with an explicit denominator (``1`` -> ``1/1``).

    Exact values of any size print: the digits come from `Decimal`, whose
    exact integer conversion is not capped like ``str(int)`` is (by
    sys.int_max_str_digits, 4300 digits by default).
    """
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"
