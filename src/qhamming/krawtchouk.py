"""Exact Krawtchouk polynomials for the m^2-ary Hamming scheme.

A quantum code on n systems with m levels each lives in the Hamming
association scheme over an alphabet of size q = m^2, so the weight
parameter of the polynomial family is gamma = q - 1 = m^2 - 1.  The
degree-k polynomial evaluated at an integer point x in {0..n} is

    P_k(x; n) = sum_{j=0}^{k} (-1)^j gamma^(k-j) C(x, j) C(n-x, k-j)

and every value is an exact (arbitrary-precision) integer.

All functions are pure.  ``kraw_eval`` is the defining sum above (the
``kraw`` command).  ``kraw_recurrence`` runs the degree recurrence at
chosen points; the threshold scan and the witness coefficients use it
alone.  ``kraw_table`` builds the full (n+1)^2 value table from it for
the generic witness engine (``lp_bound``) and the MacWilliams
transforms, and keeps only the few most recently used (n, m), so memory
stays bounded over many lengths.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence, Union

from .exceptions import DomainError

# Exact scalar: arbitrary-precision integer, or rational in lowest terms.
ExactScalar = Union[int, Fraction]


@dataclass(frozen=True)
class KrawParams:
    """The pair (n, m) fixing one polynomial family.

    n is the code length, m the number of levels per system (m >= 2).
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"code length n must be >= 1, got {self.n}")
        if self.m < 2:
            raise DomainError(f"level count m must be >= 2, got {self.m}")

    @property
    def gamma(self) -> int:
        """Weight parameter m^2 - 1."""
        return self.m * self.m - 1

    @property
    def q(self) -> int:
        """Alphabet size m^2 of the underlying Hamming scheme."""
        return self.m * self.m


def binomial(a: int, b: int) -> int:
    """C(a, b) with the zero-outside-support convention.

    Returns 0 whenever b < 0, b > a, or a < 0, so sums over products of
    binomials can run over loose index ranges with no special cases.
    """
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


def _require_range(name: str, value: int, n: int) -> None:
    if not 0 <= value <= n:
        raise DomainError(f"{name} must lie in [0, {n}], got {value}")


def kraw_eval(k: int, x: int, p: KrawParams) -> int:
    """Evaluate P_k(x; n) by the defining sum."""
    _require_range("degree k", k, p.n)
    _require_range("point x", x, p.n)
    g = p.gamma
    nx = p.n - x
    total = 0
    for j in range(min(k, x) + 1):
        c = comb(x, j) * binomial(nx, k - j)
        if c == 0:
            continue
        term = c * g ** (k - j)
        total += -term if j & 1 else term
    return total


def kraw_recurrence(k_max: int, xs: Sequence[int], p: KrawParams) -> list[list[int]]:
    """Values P_k(x; n) as ``rows[k][i] = P_k(xs[i])`` for k = 0..k_max.

    Degree recurrence, q = m^2:
      (k+1) P_{k+1}(x) = ((q-1)(n-k) + k - q x) P_k(x) - (q-1)(n-k+1) P_{k-1}(x)
    The division by k+1 is exact at every step.  Tests cross-check the
    rows against kraw_eval's defining sum.
    """
    n = p.n
    _require_range("degree k_max", k_max, n)
    for x in xs:
        _require_range("point x", x, n)
    q = p.q
    g = q - 1
    rows = [[1] * len(xs)]
    if k_max >= 1:
        rows.append([g * n - q * x for x in xs])
    for k in range(1, k_max):
        a = g * (n - k) + k
        b = g * (n - k + 1)
        prev, cur = rows[k - 1], rows[k]
        rows.append(
            [((a - q * x) * c - b * pr) // (k + 1) for x, c, pr in zip(xs, cur, prev)]
        )
    return rows


# Callers reuse a table right away (a transform and its inverse on one
# (n, m), or the values of one witness), so a few entries suffice.
@lru_cache(maxsize=4)
def _kraw_table(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    rows = kraw_recurrence(n, range(n + 1), KrawParams(n, m))
    return tuple(tuple(row) for row in rows)


def kraw_table(p: KrawParams) -> tuple[tuple[int, ...], ...]:
    """All values P_k(x; n) as ``table[k][x]`` for k, x in {0..n}."""
    return _kraw_table(p.n, p.m)

