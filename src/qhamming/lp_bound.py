"""Dimension bounds certified by sign-constrained witness polynomials.

A witness is a polynomial f(x) = sum_r f_r P_r(x) in the Krawtchouk
basis together with a nonempty index set S inside {0..n}.  If

    1) f_t > 0 for every t in S, and f_t >= 0 for every other t, and
    2) f(t) <= 0 for every t outside S,

then every ((n, K, d))_m code whose distribution agrees with its dual
on S satisfies

    K <= (1/m^n) max_{t in S} f(t) / f_t.

Values are integer dot products: over the coefficients' common
denominator L > 0, L f(t) and L f_t are integers, both conditions read
their signs, and each ratio is one ``Fraction`` of the two (L cancels).

``check_conditions`` returns the indices that violate each condition,
both empty exactly when the witness is valid; ``dimension_bound``
refuses to produce a number unless both conditions hold, because the
conclusion is only valid under the hypotheses.  Callers that pick
S = {0..d-1} (or {0..d-2} for even d) get the code-theoretic reading;
the raw engine accepts any S and leaves that interpretation to them.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exceptions import ConditionError, DomainError, SchemaError
from .krawtchouk import ExactScalar, KrawParams, kraw_table
from .rational import (
    check_document, common_denominator, integer_dots, is_array, is_int, parse_rational,
)


@dataclass(frozen=True)
class KBasisPoly:
    """A polynomial stored by its coefficients in the Krawtchouk basis."""

    params: KrawParams
    coeffs: tuple[ExactScalar, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.params.n + 1:
            raise DomainError(
                f"expected {self.params.n + 1} coefficients, got {len(self.coeffs)}"
            )


@dataclass(frozen=True)
class BoundReport:
    bound: Fraction
    argmax_t: int
    ratios: tuple[tuple[int, Fraction], ...]  # (t, f(t)/f_t) for t in S, ascending


def _poly_values(f: KBasisPoly) -> tuple[list[int], list[int]]:
    """L * f(t) for t = 0..n and L * f_r for r = 0..n, with L > 0."""
    ints, _ = common_denominator(f.coeffs)
    return integer_dots(ints, zip(*kraw_table(f.params))), ints


def _normalize_index_set(S: Iterable[int], n: int) -> tuple[int, ...]:
    indices = sorted(set(S))
    if not indices:
        raise DomainError("index set S must be nonempty")
    if indices[0] < 0 or indices[-1] > n:
        raise DomainError(f"index set S must lie inside [0, {n}], got {indices}")
    return tuple(indices)


def _conditions(
    S: tuple[int, ...], values: Sequence[int], coeffs: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    in_S = set(S)
    return (tuple(t for t, c in enumerate(coeffs) if (c <= 0 if t in in_S else c < 0)),
            tuple(t for t, v in enumerate(values) if t not in in_S and v > 0))


def check_conditions(f: KBasisPoly, S: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indices failing condition 1 and condition 2, ascending; both empty iff f is valid on S."""
    return _conditions(_normalize_index_set(S, f.params.n), *_poly_values(f))


def dimension_bound(f: KBasisPoly, S: Iterable[int]) -> BoundReport:
    """Exact bound (1/m^n) max_{t in S} f(t)/f_t for a valid witness.

    Raises ``ConditionError`` carrying the ``check_conditions`` pair if
    either condition fails.  Ties in the maximum resolve to the smallest
    index, so the report is deterministic; the bound is tie-independent.
    """
    indices = _normalize_index_set(S, f.params.n)
    values, coeffs = _poly_values(f)
    violations = _conditions(indices, values, coeffs)
    if any(violations):
        raise ConditionError(violations)
    ratios = tuple((t, Fraction(values[t], coeffs[t])) for t in indices)
    best_t, best = max(ratios, key=lambda tr: tr[1])  # the first of equal maxima
    return BoundReport(best / f.params.m**f.params.n, best_t, ratios)


# --- JSON wire format -------------------------------------------------
#
# {"n": int, "m": int, "S": [int, ...], "coeffs": ["rational-string", ...]}


def witness_from_dict(doc: Mapping) -> tuple[KBasisPoly, tuple[int, ...]]:
    n, m = check_document(doc, "witness", ("S", "coeffs"))
    S = doc["S"]
    if not is_array(S) or not all(is_int(t) for t in S):
        raise SchemaError("field 'S' must be an array of integers")
    if not is_array(doc["coeffs"]):
        raise SchemaError("field 'coeffs' must be an array of rational strings")
    coeffs = tuple(parse_rational(c) for c in doc["coeffs"])
    try:
        poly = KBasisPoly(KrawParams(n, m), coeffs)
        indices = _normalize_index_set(S, n)
    except DomainError as exc:
        raise SchemaError(str(exc)) from exc
    return poly, indices
