"""Expansion of Krawtchouk products back into the Krawtchouk basis.

The product of two family members is again a polynomial of degree
i + j, so it has an exact expansion

    P_i(x) P_j(x) = sum_k c_k P_k(x)

whose coefficients are nonnegative integers given by a closed
double-binomial sum.  ``kbasis_extract`` inverts pointwise values into
basis coefficients through the orthogonality relation

    sum_r P_k(r) P_r(t) = q^n delta_{k,t},   q = m^2,

and serves as the independent oracle for the closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exceptions import DomainError
from .krawtchouk import ExactScalar, KrawParams, binomial, kraw_table


@dataclass(frozen=True)
class LinearizationRow:
    """Coefficients c_0..c_n with P_i P_j = sum_k c_k P_k."""

    i: int
    j: int
    params: KrawParams
    coeffs: tuple[int, ...]


def linearization_terms(i: int, j: int, k: int, m: int) -> tuple[int, ...]:
    """The part of the coefficient of P_k in P_i P_j that is free of n.

    The coefficient is ``sum_s terms[s] * C(n-k, s)`` with

        terms[s] = C(k, 2k+2s-i-j) C(2k+2s-i-j, k+s-j)
                   * (gamma-1)^(i+j-2s-k) * gamma^s,   gamma = m^2 - 1.

    The first binomial vanishes once 2k+2s-i-j > k, so s stops at
    floor((i+j-k)/2), where the exponent of gamma-1 is still
    nonnegative; for k > i+j there are no terms at all.
    """
    g = m * m - 1
    w = g - 1
    terms = []
    for s in range((i + j - k) // 2 + 1):
        b1 = 2 * k + 2 * s - i - j
        c = binomial(k, b1) * binomial(b1, k + s - j)
        terms.append(c * w ** (i + j - 2 * s - k) * g**s if c else 0)
    return tuple(terms)


def linearize_product(i: int, j: int, p: KrawParams) -> LinearizationRow:
    """Expand P_i(x) P_j(x) in the Krawtchouk basis.

    The coefficient of P_k is

        sum_s C(k, 2k+2s-i-j) C(n-k, s) C(2k+2s-i-j, k+s-j)
              * (gamma-1)^(i+j-2s-k) * gamma^s

    summed through ``linearization_terms``, which holds every factor
    but C(n-k, s).
    """
    n = p.n
    if not 0 <= i <= n:
        raise DomainError(f"degree i must lie in [0, {n}], got {i}")
    if not 0 <= j <= n:
        raise DomainError(f"degree j must lie in [0, {n}], got {j}")
    coeffs = tuple(
        sum(a * binomial(n - k, s) for s, a in enumerate(linearization_terms(i, j, k, p.m)))
        for k in range(n + 1)
    )
    return LinearizationRow(i, j, p, coeffs)


def kbasis_extract(values: Sequence[ExactScalar], p: KrawParams) -> tuple[Fraction, ...]:
    """Coefficients f_0..f_n with sum_r f_r P_r(t) = values[t] for all t.

    Computed as f_k = q^(-n) sum_t values[t] P_t(k); the expansion is
    unique because the value matrix squares to q^n times the identity.
    """
    n = p.n
    if len(values) != n + 1:
        raise DomainError(f"expected {n + 1} values, got {len(values)}")
    table = kraw_table(p)
    scale = p.q**n
    coeffs = []
    for k in range(n + 1):
        acc = sum(values[t] * table[t][k] for t in range(n + 1))
        coeffs.append(Fraction(acc) / scale)
    return tuple(coeffs)
