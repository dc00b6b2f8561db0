"""The squared-partial-sum witness and Hamming-bound length thresholds.

For distance d let e = floor((d-1)/2), q = m^2 and gamma = q - 1.  The
witness has coefficients f_t = g(t)^2, where g(t) = P_0(t) + ... + P_e(t)
is the Krawtchouk transform of the Hamming ball of radius e.  Squaring a
transform convolves what it transforms, so f(t) = q^n c_t(n), where
c_t(n) counts the words of length n within distance e of both of two
words at distance t.  Such balls are disjoint once t > 2e, so the same
witness and index set S = {0..2e} serve d = 2e+1 and d = 2e+2, forcing
equal thresholds for the two parities.  At t = 0 the two words coincide
and c_0(n) = sum_{i<=e} gamma^i C(n, i) is the ball itself.

When the ratio f(t)/f_t over S is maximized at t = 0, the certified
dimension bound is therefore the sphere-packing (Hamming) right-hand
side m^n / c_0(n).  For n >= d that holds iff g(t) != 0 and
D_t = c_0 g(t)^2 - c_t g(0)^2 >= 0 for t = 1..2e.  These 4e sign
polynomials p (g(t)^2 - 1 and D_t) have degree <= 3e in n, and
p(n0 + x) = sum_k Delta^k p(n0) C(x, k), so p >= 0 at every n >= n0 once
all its forward differences at n0 are; they then stay >= 0 at n0 + 1.
``find_threshold`` takes 3e + 2 samples (g, c) from n = d, requires each
difference of order 3e + 1 to vanish (a check on the degree bound), and
walks each p's vector on its own by Delta^k += Delta^(k+1) to its least
n0; n0 = max(d, each of these) proves every n >= n0.  A
negative top nonzero difference means p < 0 at every large n, so no n0
exists.  The lengths d..n0 are then decided once each, the samples
serving those they cover.

``check_n`` decides one length with O(e^2) integer operations and no
Krawtchouk table.  Outside S both sign conditions hold by construction
(f_t = g(t)^2 >= 0 and f(t) = 0), and on S
c_t(n) = sum_{s<=e} B[t][s] C(n-t, s) with the n-free count table B of
``_value_table``.  The generic route, ``witness_coeffs`` with
``lp_bound.dimension_bound``, gives the same verdict over every t in
0..n.  Both take g from ``_partial_sums``, the sum of the rows of the degree
recurrence ``kraw_recurrence``.  The independent routes that cross-check
them (the defining sums, the closed forms, product linearization and
the orthogonality extraction) live in ``tests/oracles.py``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Optional, Sequence

from .exceptions import DomainError, HorizonError
from .krawtchouk import KrawParams, binomial, kraw_recurrence
from .lp_bound import KBasisPoly
from .rational import to_wire


@dataclass(frozen=True)
class WitnessSpec:
    """Distance d plus the family parameters; fixes e and the index set."""

    d: int
    params: KrawParams

    def __post_init__(self) -> None:
        if not 1 <= self.d <= self.params.n:
            raise DomainError(
                f"distance d must lie in [1, {self.params.n}], got {self.d}"
            )

    @property
    def e(self) -> int:
        return (self.d - 1) // 2

    @property
    def index_set(self) -> tuple[int, ...]:
        # {0..d-1} for odd d and {0..d-2} for even d are both {0..2e}.
        return tuple(range(2 * self.e + 1))


def _partial_sums(e: int, xs: Sequence[int], p: KrawParams) -> list[int]:
    """g(x) = P_0(x) + P_1(x) + ... + P_e(x) for each x in xs."""
    total = [0] * len(xs)
    for row in kraw_recurrence(e, xs, p):
        total = list(map(add, total, row))
    return total


def witness_coeffs(spec: WitnessSpec) -> KBasisPoly:
    """Coefficients f_t = g(t)^2 for t = 0..n."""
    p = spec.params
    return KBasisPoly(p, tuple(g**2 for g in _partial_sums(spec.e, range(p.n + 1), p)))


@lru_cache(maxsize=128)
def _value_table(e: int, m: int) -> tuple[tuple[int, ...], ...]:
    """B[t][s] for t in 0..2e, s in 0..e: c_t(n) = sum_s B[t][s] C(n-t, s).

    A word within distance e of both x and y, at distance t apart,
    differs from both at s of the n - t places where they agree (gamma
    choices each).  Of the t places where they differ, it agrees with x
    at a, with y at b and with neither at the rest (q - 2 choices each).
    Its distances s + t - a and s + t - b are both <= e iff
    a, b >= t + s - e.  No entry depends on n.
    """
    g = m * m - 1
    table = []
    for t in range(2 * e + 1):
        row = []
        for s in range(e + 1):
            lo = max(0, t + s - e)
            row.append(g**s * sum(binomial(t, a) * binomial(t - a, b) * (g - 1) ** (t - a - b)
                                  for a in range(lo, t + 1) for b in range(lo, t - a + 1)))
        table.append(tuple(row))
    return tuple(table)


def hamming_rhs(n: int, d: int, m: int) -> Fraction:
    """Largest dimension allowed by the sphere-packing count.

    K <= m^n / sum_{i=0}^{e} gamma^i C(n, i) with e = floor((d-1)/2),
    returned as an exact rational.
    """
    e = WitnessSpec(d, KrawParams(n, m)).e
    g = m * m - 1
    ball = sum(g**i * binomial(n, i) for i in range(e + 1))
    return Fraction(m**n, ball)


def singleton_rhs(n: int, d: int, m: int) -> Fraction:
    """Largest dimension allowed by the Singleton bound: m^(n-2d+2).

    A value below 2 means no code carrying information can exist at
    these parameters (dimensions are integers and K = 1 is trivial).
    """
    KrawParams(n, m)  # checks n and m
    if d < 1:
        raise DomainError(f"distance d must be >= 1, got {d}")
    exp = n - 2 * d + 2
    return Fraction(m**exp) if exp >= 0 else Fraction(1, m**-exp)


@dataclass(frozen=True)
class NVerdict:
    """Outcome of the witness check at one length."""

    n: int
    d: int
    m: int
    passed: bool
    conditions_ok: bool
    argmax_t: Optional[int]
    bound: Optional[Fraction]
    hamming: Fraction

    def exact_dict(self) -> dict:
        """The ``per_n`` entry with exact values; ``to_dict`` renders it."""
        return {
            "n": self.n,
            "pass": self.passed,
            "argmax_t": self.argmax_t,
            "bound": self.bound,
            "hamming_rhs": self.hamming,
        }

    def to_dict(self) -> dict:
        return to_wire(self.exact_dict())


def _sign_values(n: int, e: int, m: int) -> tuple[list[int], list[int]]:
    """g_t(n) and c_t(n) = f(t)/q^n at the points t of S = {0..2e}."""
    S = range(2 * e + 1)
    g = _partial_sums(e, S, KrawParams(n, m))
    B = _value_table(e, m)
    return g, [sum(b * binomial(n - t, s) for s, b in enumerate(B[t])) for t in S]


def _verdict(n: int, d: int, m: int, g: list[int], c: list[int]) -> NVerdict:
    """The verdict at length n from ``_sign_values(n, e, m)``."""
    mn = m**n
    hamming = Fraction(mn, c[0])  # c_0 is the ball, so this is hamming_rhs
    if not all(g):
        return NVerdict(n, d, m, False, False, None, None, hamming)
    # f(t)/f_t = q^n c[t] / g[t]^2 with g[t]^2 > 0, so compare by cross
    # multiplication; a strict > keeps the smallest index on ties.
    best = 0
    for t in range(1, len(g)):
        if c[t] * g[best] ** 2 > c[best] * g[t] ** 2:
            best = t
    bound = Fraction(mn * c[best], g[best] ** 2)
    return NVerdict(n, d, m, best == 0, True, best, bound, hamming)


def check_n(n: int, d: int, m: int) -> NVerdict:
    """Does the witness certify the Hamming bound at length n?

    Passes iff the sign conditions hold and the ratio maximum sits at
    t = 0 (ties count, since the smallest index wins them); the bound is
    then the Hamming right-hand side, as c_0 = g(0).  The verdict equals
    the one ``dimension_bound(witness_coeffs(spec), spec.index_set)``
    gives; see the module docstring for the method.
    """
    spec = WitnessSpec(d, KrawParams(n, m))
    return _verdict(n, d, m, *_sign_values(n, spec.e, m))


@dataclass(frozen=True)
class ThresholdReport:
    """Least N from which every length passes, proved by the scan to n0 = ``horizon``."""

    d: int
    m: int
    horizon: int
    threshold: int
    per_n: tuple[NVerdict, ...]

    def exact_dict(self) -> dict:
        """The JSON report with exact values; ``to_dict`` renders it."""
        return {
            "d": self.d,
            "m": self.m,
            "horizon": self.horizon,
            "threshold": self.threshold,
            "stable_tail": True,  # every report is proved
            "per_n": [v.exact_dict() for v in self.per_n],
        }

    def to_dict(self) -> dict:
        return to_wire(self.exact_dict())


def find_threshold(d: int, m: int) -> ThresholdReport:
    """Least N from which every length passes, with the scan that proves it.

    n0 = ``horizon`` comes from the certificate of the module docstring,
    each of n = d..n0 gets one verdict, and N is one past the last failure
    (d when none fails).  Raises ``HorizonError`` when no n0 exists.
    """
    if d < 1:
        raise DomainError(f"distance d must be >= 1, got {d}")
    KrawParams(d, m)  # checks m before any sample is taken
    e = (d - 1) // 2
    samples = [_sign_values(n, e, m) for n in range(d, d + 3 * e + 2)]
    rows = [[x * x - 1 for x in g[1:]]
            + [c[0] * x * x - ct * g[0] ** 2 for x, ct in zip(g[1:], c[1:])]
            for g, c in samples]
    n0 = d
    for column in map(list, zip(*rows)):
        diffs = []
        while column:
            diffs.append(column[0])
            column = [b - a for a, b in zip(column, column[1:])]
        if diffs.pop():
            raise AssertionError(f"degree bound 3e fails for d={d}, m={m}")
        if next((x for x in reversed(diffs) if x), 0) < 0:
            raise HorizonError(f"no threshold for d={d}, m={m}: the witness fails at every large n")
        n = d
        while min(diffs) < 0:
            for k in range(len(diffs) - 1):
                diffs[k] += diffs[k + 1]
            n += 1
        n0 = max(n0, n)
    samples += [_sign_values(n, e, m) for n in range(d + len(samples), n0 + 1)]
    verdicts = tuple(_verdict(n, d, m, g, c) for n, (g, c) in zip(range(d, n0 + 1), samples))
    last_fail = max((v.n for v in verdicts if not v.passed), default=None)
    threshold = d if last_fail is None else last_fail + 1
    return ThresholdReport(d, m, n0, threshold, verdicts)


@dataclass(frozen=True)
class CoverageEntry:
    """Can the Singleton bound alone settle one small length?

    ``covered`` is true when either every dimension the Singleton bound
    permits also satisfies the Hamming count, or the Singleton bound
    already rules out any K >= 2 (no information-carrying code exists,
    so there is nothing to check).
    """

    n: int
    singleton: Fraction
    hamming: Fraction

    @property
    def singleton_le_hamming(self) -> bool:
        return self.singleton <= self.hamming

    @property
    def no_code_possible(self) -> bool:
        return self.singleton < 2

    @property
    def covered(self) -> bool:
        return self.singleton_le_hamming or self.no_code_possible


@dataclass(frozen=True)
class CoverageReport:
    d: int
    m: int
    upto: int  # exclusive: lengths d..upto-1 are examined
    entries: tuple[CoverageEntry, ...]

    @property
    def ok(self) -> bool:
        return all(entry.covered for entry in self.entries)


def verify_small_n_coverage(d: int, m: int, N: int) -> CoverageReport:
    """Check lengths below a threshold N against the Singleton bound.

    For each n with d <= n < N the threshold scan says nothing, so the
    Hamming bound must follow from the Singleton bound instead; vacuous
    lengths (Singleton right-hand side below 2) count as covered.
    """
    if N < d:
        raise DomainError(f"threshold N must be >= d = {d}, got {N}")
    entries = (CoverageEntry(n, singleton_rhs(n, d, m), hamming_rhs(n, d, m))
               for n in range(d, N))
    return CoverageReport(d, m, N, tuple(entries))
