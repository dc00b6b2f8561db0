"""The JSON wire format: exact rational scalars and document checks.

A rational travels as a "rational string": either a plain (optionally
signed) integer like ``"7"`` or a quotient like ``"256/109"``.  Parsing
and printing round-trip exactly; printing always canonicalizes to
lowest terms with a positive denominator.  ``check_document`` holds the
checks that the witness and distribution readers share, and
``common_denominator`` with ``integer_dots`` every Krawtchouk-basis sum.
"""
from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping, Sequence
from decimal import Decimal, localcontext
from fractions import Fraction
from operator import mul

from .exceptions import SchemaError

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or an integer string into a ``Fraction``."""
    if not isinstance(text, str):
        raise SchemaError(f"expected a rational string, got {type(text).__name__}")
    if not _RATIONAL_RE.fullmatch(text):
        raise SchemaError(f"not a rational string: {text!r}")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:  # an integer beyond the int-string digit limit
        raise SchemaError(f"rational string out of range: {exc}") from exc
    if den == 0:
        raise SchemaError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def to_wire(value):
    """``value`` with every ``Fraction``, also inside dicts and lists, as a rational string."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: to_wire(v) for k, v in value.items()}
    if isinstance(value, list):
        return [to_wire(v) for v in value]
    return value


def common_denominator(values: Sequence) -> tuple[list[int], int]:
    """``(ints, L)``: L is the lcm of the denominators and ``ints[i] == values[i] * L``."""
    L = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (L // v.denominator) for v in values], L


def integer_dots(ints: Sequence[int], rows: Iterable[Sequence[int]]) -> list[int]:
    """``sum_j ints[j] * row[j]`` for each row, in integers."""
    return [sum(map(mul, ints, row)) for row in rows]


def is_int(value) -> bool:
    """A JSON integer: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_array(value) -> bool:
    """A JSON array: a sequence that is not a string."""
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def check_document(doc, kind: str, keys: Sequence[str]) -> tuple[int, int]:
    """Return ``(n, m)`` of a ``kind`` document.

    Raises ``SchemaError`` unless ``doc`` is a JSON object with integer
    fields ``n`` and ``m`` and a field for every name in ``keys``.
    """
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{kind} document must be a JSON object")
    for key in ("n", "m", *keys):
        if key not in doc:
            raise SchemaError(f"{kind} document missing {key!r}")
    for key in ("n", "m"):
        if not is_int(doc[key]):
            raise SchemaError(f"field {key!r} must be an integer")
    return doc["n"], doc["m"]


def approx_decimal(value) -> str:
    """Decimal rendering with 12 significant figures.

    Display-only; never used in computations.  Uses integer-backed
    decimal arithmetic so arbitrarily large numerators cannot overflow.
    """
    frac = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(frac.numerator) / Decimal(frac.denominator))
