"""The JSON wire format: exact rational scalars and document checks.

A rational travels as a "rational string": either a plain (optionally
signed) integer like ``"7"`` or a quotient like ``"256/109"``.  Parsing
and printing round-trip exactly; printing always canonicalizes to
lowest terms with a positive denominator.  ``to_wire`` renders a whole
result, and with ``approx`` also the decimal approximations that
``--approx`` prints.  ``check_document`` holds the checks that the
witness and distribution readers share, and ``common_denominator`` puts
the exact scalars of every Krawtchouk-basis sum over one denominator.
"""
from __future__ import annotations

import math
import re
from collections.abc import Mapping, Sequence
from decimal import Decimal, localcontext
from fractions import Fraction

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


def to_wire(value, approx: bool = False):
    """``value`` with every ``Fraction``, also inside dicts and lists, as a rational string.

    With ``approx``, each dict in a nonempty list of dicts, such as the
    CSV rows or the ``per_n`` a JSON object nests, also gets a
    ``<key>_approx`` after its own keys for each key that is exact in
    some dict of the list: the ``approx_decimal`` of the value, a list
    of them, or ``None``.
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: to_wire(v, approx) for k, v in value.items()}
    if not isinstance(value, list):
        return value
    out = [to_wire(v, approx) for v in value]
    if approx and value and isinstance(value[0], dict):
        keys = [k for k in value[0] if any(_is_exact(row[k]) for row in value)]
        for row, wire in zip(value, out):
            for k in keys:
                v = row[k]
                wire[f"{k}_approx"] = ([*map(approx_decimal, v)] if isinstance(v, list)
                                       else None if v is None else approx_decimal(v))
    return out


def _is_exact(value) -> bool:
    """A rational, or a nonempty list of rationals, that gets an approximation."""
    if isinstance(value, list):
        return bool(value) and all(isinstance(v, Fraction) for v in value)
    return isinstance(value, Fraction)


def common_denominator(values: Sequence) -> tuple[list[int], int]:
    """``(ints, L)``: L is the lcm of the denominators and ``ints[i] == values[i] * L``."""
    L = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (L // v.denominator) for v in values], L


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
