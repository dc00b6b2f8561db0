"""MacWilliams transform between weight distributions and their duals.

A distribution carries the code dimension K because the transform
couples the two: with gamma = m^2 - 1,

    sum_i A'_i x^(n-i) y^i
        = (K / m^n) sum_r A_r (x + gamma*y)^(n-r) (x - y)^r.

In coefficient form the two directions are

    forward:  A'_i = (K / m^n)     * sum_r A_r  P_i(r)
    inverse:  A_r  = (1 / (K m^n)) * sum_i A'_i P_r(i)

and they are exact mutual inverses.  Both put the entries over one
common denominator, take each sum as an integer dot product, and build
one ``Fraction`` per output entry.  Distributions of actual codes are
entrywise nonnegative and agree with their duals on every index below
the minimum distance; neither fact is enforced here (transform outputs
of arbitrary inputs can be negative).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .exceptions import DomainError, SchemaError
from .krawtchouk import KrawParams, kraw_table
from .rational import (
    check_document, common_denominator, integer_dots, is_array, parse_rational, to_wire,
)


class WeightDistribution(NamedTuple("WeightDistribution", [
        ("params", KrawParams), ("K", Fraction), ("entries", tuple[Fraction, ...])])):
    """A vector A_0..A_n of exact scalars plus the code dimension K."""

    __slots__ = ()

    def __new__(cls, params: KrawParams, K: Fraction,
                entries: tuple[Fraction, ...]) -> WeightDistribution:
        if len(entries) != params.n + 1:
            raise DomainError(f"expected {params.n + 1} entries, got {len(entries)}")
        if K <= 0:
            raise DomainError(f"dimension K must be positive, got {K}")
        return super().__new__(cls, params, K, entries)

    def exact_dict(self) -> dict:
        """The wire document with exact values; ``distribution_to_dict`` renders it."""
        return {"n": self.params.n, "m": self.params.m, "K": self.K, "A": list(self.entries)}


def mw_forward(dist: WeightDistribution) -> WeightDistribution:
    """Dual distribution A'_i = (K/m^n) sum_r A_r P_i(r)."""
    return _transform(dist, Fraction(dist.K, dist.params.m**dist.params.n))


def mw_inverse(dual: WeightDistribution) -> WeightDistribution:
    """Primal distribution A_r = (1/(K m^n)) sum_i A'_i P_r(i)."""
    return _transform(dual, Fraction(1, dual.K * dual.params.m**dual.params.n))


def _transform(dist: WeightDistribution, scale: Fraction) -> WeightDistribution:
    """Entries scale * sum_j A_j P_i(j) for i = 0..n."""
    ints, L = common_denominator(dist.entries)
    den = scale.denominator * L
    sums = integer_dots(ints, kraw_table(dist.params))
    return WeightDistribution(
        dist.params, dist.K, tuple(Fraction(scale.numerator * s, den) for s in sums)
    )


# --- JSON wire format -------------------------------------------------
#
# {"n": int, "m": int, "K": "rational-string", "A": ["rational-string", ...]}


def distribution_to_dict(dist: WeightDistribution) -> dict:
    return to_wire(dist.exact_dict())


def distribution_from_dict(doc: Mapping) -> WeightDistribution:
    n, m = check_document(doc, "distribution", ("K", "A"))
    if not is_array(doc["A"]):
        raise SchemaError("field 'A' must be an array of rational strings")
    K = parse_rational(doc["K"])
    entries = tuple(parse_rational(a) for a in doc["A"])
    try:
        return WeightDistribution(KrawParams(n, m), K, entries)
    except DomainError as exc:
        raise SchemaError(str(exc)) from exc
