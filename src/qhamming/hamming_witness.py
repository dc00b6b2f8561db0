"""The squared-partial-sum witness and Hamming-bound length thresholds.

For distance d let e = floor((d-1)/2).  The witness polynomial has
coefficients

    f_t = g(t)^2,   g(t) = P_0(t) + P_1(t) + ... + P_e(t),

and, expanded through the product linearization (``linearization_terms``)
and orthogonality, the closed-form values

    f(t) = q^n sum_{i,j<=e} sum_s C(t, 2t+2s-i-j) C(n-t, s)
                 C(2t+2s-i-j, t+s-j) (gamma-1)^(i+j-2s-t) gamma^s

with q = m^2.  The value vanishes for every t > 2e, which is why the
same witness and index set S = {0..2e} serve both d = 2e+1 and
d = 2e+2, forcing equal thresholds for the two parities.

When the ratio f(t)/f_t over S is maximized at t = 0, the certified
dimension bound collapses to the sphere-packing (Hamming) right-hand
side m^n / sum_{j<=e} gamma^j C(n,j) exactly.  ``find_threshold``
proves the least N from which that holds at every length.  For n >= d
it holds iff g(t) != 0 and D_t = c_0 g(t)^2 - c_t g(0)^2 >= 0 for
t = 1..2e, with c_t = f(t)/q^n; g(t)^2 - 1 and D_t are polynomials in n
of degree <= 3e, and ``certify_threshold`` finds the least n0 where all
their forward differences are >= 0, which proves every n >= n0.  The
scan decides the lengths below n0 one by one.

``check_n`` decides one length with O(e^2) exact integer operations
and never builds a Krawtchouk table.  Outside S both sign conditions
hold by construction: f_t = g(t)^2 is never negative, and f(t) = 0 for
t > 2e because linearization coefficients vanish above degree i + j.
So only t in S matter.  There f(t)/q^n = sum_{s<=e} B[t][s] C(n-t, s),
where the table B (``_value_table``) is the n-free part of the closed
form above, built once per (e, m).  The generic route, ``witness_coeffs``
with ``lp_bound.dimension_bound``, gives the same verdict over every
t in 0..n; the tests hold the two to each other.

Both routes take g from one kernel, ``_partial_sums``: the column sums
of the degree recurrence ``kraw_recurrence``, at the points of S for
``check_n`` and at 0..n for ``witness_coeffs``.  The independent routes
that cross-check them (the defining sums, the closed forms and the
orthogonality extraction) live in ``tests/oracles.py``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
    return [sum(col) for col in zip(*kraw_recurrence(e, xs, p))]


def witness_coeffs(spec: WitnessSpec) -> KBasisPoly:
    """Coefficients f_t = g(t)^2 for t = 0..n."""
    p = spec.params
    return KBasisPoly(p, tuple(g**2 for g in _partial_sums(spec.e, range(p.n + 1), p)))


def linearization_terms(i: int, j: int, k: int, m: int) -> tuple[int, ...]:
    """The part of the coefficient of P_k in P_i P_j that is free of n.

    The product of two family members has an exact expansion
    P_i P_j = sum_k c_k P_k with nonnegative integer coefficients
    c_k = sum_s terms[s] * C(n-k, s), where

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


@lru_cache(maxsize=128)
def _value_table(e: int, m: int) -> tuple[tuple[int, ...], ...]:
    """B[t][s] for t in 0..2e, s in 0..e: f(t)/q^n = sum_s B[t][s] C(n-t, s).

    Sums ``linearization_terms`` over i, j <= e; no entry depends on n.
    """
    table = []
    for t in range(2 * e + 1):
        row = [0] * (e + 1)
        for i in range(e + 1):
            for j in range(e + 1):
                for s, a in enumerate(linearization_terms(i, j, t, m)):
                    row[s] += a
        table.append(tuple(row))
    return tuple(table)


def hamming_rhs(n: int, d: int, m: int) -> Fraction:
    """Largest dimension allowed by the sphere-packing count.

    K <= m^n / sum_{i=0}^{e} gamma^i C(n, i) with e = floor((d-1)/2),
    returned as an exact rational.
    """
    if m < 2:
        raise DomainError(f"level count m must be >= 2, got {m}")
    if not 1 <= d <= n:
        raise DomainError(f"distance d must lie in [1, {n}], got {d}")
    e = (d - 1) // 2
    g = m * m - 1
    ball = sum(g**i * binomial(n, i) for i in range(e + 1))
    return Fraction(m**n, ball)


def singleton_rhs(n: int, d: int, m: int) -> Fraction:
    """Largest dimension allowed by the Singleton bound: m^(n-2d+2).

    A value below 2 means no code carrying information can exist at
    these parameters (dimensions are integers and K = 1 is trivial).
    """
    if m < 2:
        raise DomainError(f"level count m must be >= 2, got {m}")
    if d < 1:
        raise DomainError(f"distance d must be >= 1, got {d}")
    if n < 1:
        raise DomainError(f"code length n must be >= 1, got {n}")
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


def check_n(n: int, d: int, m: int) -> NVerdict:
    """Does the witness certify the Hamming bound at length n?

    Passes iff the sign conditions hold and the ratio maximum sits at
    t = 0 (ties count, since the smallest index wins them); the bound is
    then the Hamming right-hand side, as c_0 = g(0).  The verdict equals
    the one ``dimension_bound(witness_coeffs(spec), spec.index_set)``
    gives; see the module docstring for the method.
    """
    spec = WitnessSpec(d, KrawParams(n, m))
    rhs = hamming_rhs(n, d, m)
    g, c = _sign_values(n, spec.e, m)
    if not all(g):
        return NVerdict(n, d, m, False, False, None, None, rhs)
    # f(t)/f_t = q^n c[t] / g[t]^2 with g[t]^2 > 0, so compare by cross
    # multiplication; a strict > keeps the smallest index on ties.
    best = 0
    for t in range(1, len(g)):
        if c[t] * g[best] ** 2 > c[best] * g[t] ** 2:
            best = t
    bound = Fraction(m**n * c[best], g[best] ** 2)
    return NVerdict(n, d, m, best == 0, True, best, bound, rhs)


def certify_threshold(d: int, m: int) -> int:
    """Least n0 >= d where forward differences prove every n >= n0 passes (d >= 1).

    Each polynomial p of the module docstring has
    p(n0 + x) = sum_k Delta^k p(n0) C(x, k), so p >= 0 at every n >= n0
    when all its forward differences at n0 are.  They come from 3e + 2
    samples from n = d, the last of which must vanish (a check on the
    degree bound), and n0 moves up by Delta^k += Delta^(k+1).  Raises
    ``HorizonError`` when a top nonzero difference is negative: that p
    is negative at every large n, so no n0 exists.
    """
    e = (d - 1) // 2
    rows = []
    for n in range(d, d + 3 * e + 2):
        g, c = _sign_values(n, e, m)
        rows.append([x * x - 1 for x in g[1:]]
                    + [c[0] * x * x - ct * g[0] ** 2 for x, ct in zip(g[1:], c[1:])])
    vectors = []
    for samples in map(list, zip(*rows)):
        diffs = []
        while samples:
            diffs.append(samples[0])
            samples = [b - a for a, b in zip(samples, samples[1:])]
        if diffs.pop():
            raise AssertionError(f"degree bound 3e fails for d={d}, m={m}")
        if next((x for x in reversed(diffs) if x), 0) < 0:
            raise HorizonError(f"no threshold for d={d}, m={m}: the witness fails at every large n")
        vectors.append(diffs)
    n0 = d
    while any(x < 0 for v in vectors for x in v):
        for v in vectors:
            for k in range(len(v) - 1):
                v[k] += v[k + 1]
        n0 += 1
    return n0


@dataclass(frozen=True)
class ThresholdReport:
    """Least N from which every length passes; proved when ``stable_tail``."""

    d: int
    m: int
    horizon: int
    threshold: int
    stable_tail: bool
    per_n: tuple[NVerdict, ...]

    def exact_dict(self) -> dict:
        """The JSON report with exact values; ``to_dict`` renders it."""
        return {
            "d": self.d,
            "m": self.m,
            "horizon": self.horizon,
            "threshold": self.threshold,
            "stable_tail": self.stable_tail,
            "per_n": [v.exact_dict() for v in self.per_n],
        }

    def to_dict(self) -> dict:
        return to_wire(self.exact_dict())


def find_threshold(d: int, m: int, horizon: Optional[int] = None) -> ThresholdReport:
    """Least N from which every length passes, with the scan behind it.

    ``certify_threshold`` proves that every n >= n0 passes; ``check_n``
    decides n = d..horizon (default n0), and N is one past the last
    failure (d when none fails).  ``stable_tail`` is true when
    horizon >= n0 - 1, so that N is proved; a shorter explicit horizon
    leaves the lengths in between undecided and the report unproved.
    """
    if d < 1:
        raise DomainError(f"distance d must be >= 1, got {d}")
    if horizon is not None and horizon < d:
        raise DomainError(f"horizon must be >= d = {d}, got {horizon}")
    n0 = certify_threshold(d, m)
    horizon = n0 if horizon is None else horizon
    verdicts = tuple(check_n(n, d, m) for n in range(d, horizon + 1))
    last_fail = max((v.n for v in verdicts if not v.passed), default=None)
    threshold = d if last_fail is None else last_fail + 1
    return ThresholdReport(d, m, horizon, threshold, horizon >= n0 - 1, verdicts)


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
    singleton_le_hamming: bool
    no_code_possible: bool

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
    entries = []
    for n in range(d, N):
        s = singleton_rhs(n, d, m)
        h = hamming_rhs(n, d, m)
        entries.append(
            CoverageEntry(
                n=n,
                singleton=s,
                hamming=h,
                singleton_le_hamming=s <= h,
                no_code_possible=s < 2,
            )
        )
    return CoverageReport(d, m, N, tuple(entries))
