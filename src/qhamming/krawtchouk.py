"""Exact Krawtchouk polynomials for the m^2-ary Hamming scheme.

A quantum code on n systems with m levels each lives in the Hamming
association scheme over an alphabet of size q = m^2, so the weight
parameter of the polynomial family is gamma = q - 1 = m^2 - 1.  The
degree-k polynomial evaluated at an integer point x in {0..n} is

    P_k(x; n) = sum_{j=0}^{k} (-1)^j gamma^(k-j) C(x, j) C(n-x, k-j)

and every value is an exact (arbitrary-precision) integer.

All functions are pure.  Every value comes from the degree recurrence:
``kraw_recurrence`` yields its rows k = 0..k_max at chosen points, two
alive at a time.  ``kraw_eval`` (the ``kraw`` command) takes the last
row at one point, the witness adds the rows up, and
``kraw_table`` collects the (n+1)^2 table for ``lp_bound`` and the
MacWilliams transforms, caching only a few recent (n, m).  The defining
sum above lives in ``tests/oracles.py``, as the recurrence's reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator, Sequence, Union

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
    """Evaluate P_k(x; n): the last row of the degree recurrence at x."""
    for (value,) in kraw_recurrence(k, (x,), p):
        pass
    return value


def kraw_recurrence(k_max: int, xs: Sequence[int], p: KrawParams) -> Iterator[list[int]]:
    """Rows ``[P_k(x) for x in xs]`` for k = 0..k_max, one at a time.

    Degree recurrence, q = m^2, from P_{-1} = 0 and P_0 = 1:
      (k+1) P_{k+1}(x) = ((q-1)(n-k) + k - q x) P_k(x) - (q-1)(n-k+1) P_{k-1}(x)
    The division by k+1 is exact at every step.  The arguments are
    checked at the call, before the first row; only the previous and the
    current row stay alive.
    """
    n = p.n
    _require_range("degree k", k_max, n)
    for x in xs:
        _require_range("point x", x, n)
    return _recurrence_rows(k_max, xs, n, p.q)


def _recurrence_rows(k_max: int, xs: Sequence[int], n: int, q: int) -> Iterator[list[int]]:
    g = q - 1
    prev, cur = [0] * len(xs), [1] * len(xs)
    yield cur
    for k in range(k_max):
        a = g * (n - k) + k
        b = g * (n - k + 1)
        prev, cur = cur, [((a - q * x) * c - b * pr) // (k + 1)
                          for x, c, pr in zip(xs, cur, prev)]
        yield cur


# Callers reuse a table right away (a transform and its inverse on one
# (n, m), or the values of one witness), so a few entries suffice.
@lru_cache(maxsize=4)
def kraw_table(p: KrawParams) -> tuple[tuple[int, ...], ...]:
    """All values P_k(x; n) as ``table[k][x]`` for k, x in {0..n}."""
    return tuple(map(tuple, kraw_recurrence(p.n, range(p.n + 1), p)))

