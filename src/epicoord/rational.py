"""Exact rational parsing and rendering shared by the JSON, CSV, and CLI layers."""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction

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


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``p/q`` with an explicit denominator (``1`` -> ``1/1``).

    Exact values of any size print: the digits come from `Decimal`, whose
    exact integer conversion is not capped like ``str(int)`` is (by
    sys.int_max_str_digits, 4300 digits by default).
    """
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"
