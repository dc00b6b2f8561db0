"""The squared-partial-sum witness and Hamming-bound length thresholds.

For distance d let e = floor((d-1)/2).  The witness polynomial has
coefficients

    f_t = g(t)^2,   g(t) = P_0(t) + P_1(t) + ... + P_e(t),

and, expanded through the product linearization and orthogonality, the
closed-form values

    f(t) = q^n sum_{i,j<=e} sum_s C(t, 2t+2s-i-j) C(n-t, s)
                 C(2t+2s-i-j, t+s-j) (gamma-1)^(i+j-2s-t) gamma^s

with q = m^2.  The value vanishes for every t > 2e, which is why the
same witness and index set S = {0..2e} serve both d = 2e+1 and
d = 2e+2, forcing equal thresholds for the two parities.

When the ratio f(t)/f_t over S is maximized at t = 0, the certified
dimension bound collapses to the sphere-packing (Hamming) right-hand
side m^n / sum_{j<=e} gamma^j C(n,j) exactly.  ``find_threshold`` scans
lengths up to a finite horizon for the least N from which that holds at
every scanned length.  A "for all n >= N" claim cannot be decided by
finite computation, so every report carries the horizon and a
stable-tail flag (the trailing tenth of the scan must be failure-free)
and leaves the extrapolation to the caller.

``check_n`` decides one length with O(e^2) exact integer operations
and never builds a Krawtchouk table.  Outside S both sign conditions
hold by construction: f_t = g(t)^2 is never negative, and f(t) = 0 for
t > 2e because linearization coefficients vanish above degree i + j.
So only t in S matter.  There g(t) comes from the degree recurrence at
the points 0..2e, and f(t)/q^n = sum_{s<=e} B[t][s] C(n-t, s), where the
table B (``_value_table``) is the n-free part of the closed form above,
built once per (e, m).  The generic route, ``witness_coeffs`` with
``lp_bound.dimension_bound``, stays as the engine for arbitrary
witnesses and as the test oracle for ``check_n``.

``witness_coeffs`` sums the partial sums directly rather than through
the shifted closed form P_e(t-1; n-1)^2, which would hit a negative
binomial argument at t = 0; that identity is exercised only as a test
for t >= 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .exceptions import DomainError, HorizonError
from .krawtchouk import KrawParams, binomial, kraw_partial_sum, kraw_recurrence
from .linearization import linearization_terms
from .lp_bound import KBasisPoly
from .rational import format_rational


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


def witness_coeffs(spec: WitnessSpec) -> KBasisPoly:
    """Coefficients f_t = (sum_{i<=e} P_i(t))^2 for t = 0..n."""
    p = spec.params
    e = spec.e
    coeffs = tuple(kraw_partial_sum(e, t, p) ** 2 for t in range(p.n + 1))
    return KBasisPoly(p, coeffs)


def witness_value(t: int, spec: WitnessSpec) -> int:
    """f(t) by the closed-form triple sum.

    Must agree with evaluating ``witness_coeffs`` through the basis.
    The n-free factors of each (i, j) term come from
    ``linearization_terms``.
    """
    p = spec.params
    n = p.n
    if not 0 <= t <= n:
        raise DomainError(f"point t must lie in [0, {n}], got {t}")
    e = spec.e
    total = sum(
        a * binomial(n - t, s)
        for i in range(e + 1)
        for j in range(e + 1)
        for s, a in enumerate(linearization_terms(i, j, t, p.m))
    )
    return p.q**n * total


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

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "pass": self.passed,
            "argmax_t": self.argmax_t,
            "bound": None if self.bound is None else format_rational(self.bound),
            "hamming_rhs": format_rational(self.hamming),
        }


def check_n(n: int, d: int, m: int) -> NVerdict:
    """Does the witness certify the Hamming bound at length n?

    Passes iff the sign conditions hold, the ratio maximum sits at
    t = 0 (ties count, since the smallest index wins them), and the
    certified bound equals the Hamming right-hand side exactly.  The
    verdict equals the one ``dimension_bound(witness_coeffs(spec),
    spec.index_set)`` gives; see the module docstring for the method.
    """
    spec = WitnessSpec(d, KrawParams(n, m))
    rhs = hamming_rhs(n, d, m)
    e = spec.e
    S = spec.index_set
    g = [sum(col) for col in zip(*kraw_recurrence(e, S, spec.params))]
    if not all(g):
        return NVerdict(n, d, m, False, False, None, None, rhs)
    B = _value_table(e, m)
    c = [sum(b * binomial(n - t, s) for s, b in enumerate(B[t])) for t in S]
    # f(t)/f_t = q^n c[t] / g[t]^2 with g[t]^2 > 0, so compare by cross
    # multiplication; a strict > keeps the smallest index on ties.
    best = 0
    for t in S[1:]:
        if c[t] * g[best] ** 2 > c[best] * g[t] ** 2:
            best = t
    bound = Fraction(m**n * c[best], g[best] ** 2)
    passed = best == 0 and bound == rhs
    return NVerdict(n, d, m, passed, True, best, bound, rhs)


@dataclass(frozen=True)
class ThresholdReport:
    """Least N with a failure-free scan from N through the horizon."""

    d: int
    m: int
    horizon: int
    threshold: int
    stable_tail: bool
    per_n: tuple[NVerdict, ...]

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "m": self.m,
            "horizon": self.horizon,
            "threshold": self.threshold,
            "stable_tail": self.stable_tail,
            "per_n": [v.to_dict() for v in self.per_n],
        }


def default_horizon(d: int) -> int:
    return max(100, 10 * d)


def find_threshold(d: int, m: int, horizon: Optional[int] = None) -> ThresholdReport:
    """Scan n = d..horizon for the least N after which every length passes.

    Raises ``HorizonError`` when the top of the scan still fails (the
    horizon is too small to exhibit any threshold).  ``stable_tail`` is
    true when the last ceil(horizon/10) scanned lengths all pass; a
    report without a stable tail should be treated as unreliable.
    """
    if horizon is None:
        horizon = default_horizon(d)
    if d < 1:
        raise DomainError(f"distance d must be >= 1, got {d}")
    if horizon < d:
        raise DomainError(f"horizon must be >= d = {d}, got {horizon}")
    return _scan(d, m, horizon)


@lru_cache(maxsize=None)
def _scan(d: int, m: int, horizon: int) -> ThresholdReport:
    verdicts = tuple(check_n(n, d, m) for n in range(d, horizon + 1))
    if not verdicts[-1].passed:
        raise HorizonError(
            f"no passing tail for d={d}, m={m} within horizon {horizon}; "
            "increase the horizon"
        )
    last_fail = max((v.n for v in verdicts if not v.passed), default=None)
    threshold = d if last_fail is None else last_fail + 1
    window = min(math.ceil(horizon / 10), len(verdicts))
    stable_tail = all(v.passed for v in verdicts[-window:])
    return ThresholdReport(d, m, horizon, threshold, stable_tail, verdicts)


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
